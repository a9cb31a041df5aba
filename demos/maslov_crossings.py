"""
Maslov index by crossing forms, checked against the Z2-index mod 2
==================================================================

Lagrangian planes in R^2k that are graphs of symmetric matrices cross
where det(B(t) - A(t)) = 0.  Each regular crossing contributes the
signature of d/dt (B - A) restricted to the kernel; the Z2-index only
sees the endpoint determinant signs.  They agree mod 2.

A path is a sampler: ``graph_path`` turns a function that maps a 1-d
array of instants to the (m, k, k) stack of A(t) into one that maps it
to the (m, 2k, k) stack of graph frames.
"""

import numpy as np

from hetindex import crossing_census, graph_path, mod2_compare

# one transversal crossing: graphs of t and -t
V = graph_path(lambda ts: ts[:, None, None])
W = graph_path(lambda ts: -ts[:, None, None])
rep = mod2_compare(V, W, interval=(-1.0, 1.0))
print("graphs of t and -t:   maslov", rep.maslov, " z2", rep.z2,
      " agree:", rep.agree)

# a cubic: B - A = t - t^3 crosses at -1, 0, 1 with slopes -2, 1, -2,
# so the signatures cancel down to -1
V = graph_path(lambda ts: (ts ** 3 - ts)[:, None, None])
W = graph_path(lambda ts: np.zeros((len(ts), 1, 1)))
rep = mod2_compare(V, W, interval=(-1.5, 1.5))
print("cubic against zero:   maslov", rep.maslov, " z2", rep.z2,
      " agree:", rep.agree)
for d in rep.crossings:
    print(f"  crossing at t = {d.instant: .6f}  signature {d.signature:+d}")

# a crossing the determinant cannot see: A = diag(t, -t) meets the
# zero section in a 2-dimensional kernel with indefinite form, so
# det(B - A) = -t^2 touches zero without changing sign
V = graph_path(lambda ts: ts[:, None, None] * np.diag([1.0, -1.0]))
W = graph_path(lambda ts: np.zeros((len(ts), 2, 2)))
census = crossing_census(V, W, interval=(-1.0, 1.0))
print("diag(t, -t) against zero:")
for d in census:
    print(f"  crossing at t = {d.instant: .2e}  kernel dim"
          f" {d.kernel.shape[1]}  signature {d.signature:+d}")
rep = mod2_compare(V, W, interval=(-1.0, 1.0))
print("  maslov", rep.maslov, " z2", rep.z2, " agree:", rep.agree)
