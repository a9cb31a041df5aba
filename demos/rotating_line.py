"""
A line rotating past a fixed line
=================================

The smallest example with a nonzero index: V(t) sweeps the angles
[0, pi] while W stays put at the vertical axis.  The pair matrix
[V(t) W] has determinant cos(t) once the frames are chained, so the
sign at the two ends differs and the index is 1.
"""

import numpy as np

from hetindex import (
    SubspacePathPair,
    bundle_orientability,
    close_loop,
    path_from_sampler,
    z2_index,
)


# a sampler maps an array of parameters to an (m, n, k) stack of frames,
# here m lines in the plane


def rotating(ts):
    return np.stack([np.cos(ts), np.sin(ts)], axis=-1)[..., None]


def vertical(ts):
    return np.broadcast_to([[0.0], [1.0]], (len(ts), 2, 1))


grid = np.linspace(0.0, np.pi, 101)
pair = SubspacePathPair(V=path_from_sampler(rotating, grid),
                        W=path_from_sampler(vertical, grid))

rep = z2_index(pair)
print("index:", rep.value)
print("det trace at the ends:", rep.det_trace[0], rep.det_trace[-1])
print("sign change located at t =", rep.crossings[0],
      "(pi/2 =", np.pi / 2, ")")

# a few interior samples: the chained determinant follows cos(t)
for i in (0, 25, 50, 75, 100):
    t = rep.grid[i] if i < len(rep.grid) else rep.grid[-1]
    print(f"  t = {t:5.3f}   det = {rep.det_trace[i]: .4f}"
          f"   cos t = {np.cos(t): .4f}")

# closing the sweep into a loop drags a line bundle around the circle;
# an odd index makes it the Mobius band
loop = close_loop(pair)
print("orientability bit of the closed loop:", bundle_orientability(loop))

# restricted to a short arc nothing crosses and the closure is a cylinder
short = SubspacePathPair(
    V=path_from_sampler(rotating, np.linspace(0.0, np.pi / 4, 51)),
    W=path_from_sampler(vertical, np.linspace(0.0, np.pi / 4, 51)))
print("short arc: index", z2_index(short).value,
      "orientability", bundle_orientability(close_loop(short)))
