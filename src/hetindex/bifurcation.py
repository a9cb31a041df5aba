"""Nonlinear vector-field families, trivial branches, and bifurcation.

A nonlinear family z' = g(lambda, t, z) with two hyperbolic restpoints
and a known branch of solutions z_lambda is reduced to a linear family
S_lambda(t) = D_z g(lambda, t, z_lambda(t)) by finite differences; the
bifurcation verdict is then read off the Z2-index of the boundary
subspace pair lambda -> (E^s(0), E^u(0)) of that linearization.  An
index of 1 forces solutions bifurcating from the branch; 0 decides
nothing, and is reported as inconclusive.

Branches are supplied as expressions and validated by residual; the
module never solves the nonlinear boundary-value problem itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    BranchResidualTooLarge,
    DimensionMismatch,
    HypothesisFailure,
    InvalidInput,
    NotHyperbolic,
)
from .expr import compile_expr, parse_vector
from .flow import HypothesisReport, LinearFamily, check_A1_A3
from .linalg import spectral_split
from .parity import boundary_pair_over_lambda
from .z2index import IndexReport, z2_index

__all__ = [
    "NonlinearFamily",
    "Branch",
    "RestpointReport",
    "BifurcationVerdict",
    "validate_branch",
    "linearize_along",
    "check_restpoints",
    "detect_bifurcation",
]

_RESTPOINT_TOL = 1e-8
_JAC_STEP = 1e-6


def _z_names(n: int) -> tuple:
    return tuple(f"z{j + 1}" for j in range(n))


@dataclass(frozen=True)
class NonlinearFamily:
    """Vector field family z' = g(lambda, t, z) with two restpoints.

    ``g`` is a tuple of expressions in lambda, t, z1..zn; the
    restpoints must annihilate g on a sampled (lambda, t) grid within
    1e-8, which the constructor enforces.
    """

    g: tuple
    z_minus: np.ndarray
    z_plus: np.ndarray
    t_max: float = 20.0
    lam_range: tuple = (0.0, 1.0)
    _fns: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.g)
        object.__setattr__(self, "z_minus",
                           np.asarray(self.z_minus, dtype=float))
        object.__setattr__(self, "z_plus",
                           np.asarray(self.z_plus, dtype=float))
        if self.z_minus.shape != (n,) or self.z_plus.shape != (n,):
            raise DimensionMismatch(
                f"restpoints must be length-{n} vectors"
            )
        if self.t_max <= 0:
            raise InvalidInput("t_max must be positive")
        a, b = self.lam_range
        if not b > a:
            raise InvalidInput("lam_range must be increasing")
        args = ("lambda", "t") + _z_names(n)
        object.__setattr__(
            self, "_fns", tuple(compile_expr(e, args) for e in self.g))
        for z, name in ((self.z_minus, "z_minus"), (self.z_plus, "z_plus")):
            r = self._restpoint_residual(z)
            if r > _RESTPOINT_TOL:
                raise InvalidInput(
                    f"{name} is not a restpoint: max |g| = {r:.3e} "
                    f"exceeds {_RESTPOINT_TOL}"
                )

    @staticmethod
    def from_sources(sources: Sequence[str], z_minus, z_plus,
                     t_max: float = 20.0,
                     lam_range: tuple = (0.0, 1.0)) -> "NonlinearFamily":
        """Parse component source strings into a family."""
        n = len(sources)
        variables = ("lambda", "t") + _z_names(n)
        return NonlinearFamily(g=parse_vector(sources, variables),
                               z_minus=z_minus, z_plus=z_plus,
                               t_max=t_max, lam_range=lam_range)

    @property
    def n(self) -> int:
        return len(self.g)

    def evaluate(self, lam, t, z) -> np.ndarray:
        """g at broadcastable (lam, t) and z of shape (..., n)."""
        z = np.asarray(z, dtype=float)
        comps = [fn(lam, t, *(z[..., j] for j in range(self.n)))
                 for fn in self._fns]
        shape = np.broadcast_shapes(
            np.shape(lam), np.shape(t), z[..., 0].shape)
        comps = [np.broadcast_to(np.asarray(c, float), shape) for c in comps]
        return np.stack(comps, axis=-1)

    def _restpoint_residual(self, z: np.ndarray) -> float:
        a, b = self.lam_range
        lams = np.linspace(a, b, 9)[:, None]
        ts = np.linspace(-self.t_max, self.t_max, 17)[None, :]
        vals = self.evaluate(lams, ts, np.broadcast_to(z, (9, 17, self.n)))
        return float(np.max(np.abs(vals)))

    def jacobian(self, lam, t, z, step: float = _JAC_STEP) -> np.ndarray:
        """D_z g by central differences, step scaled per coordinate.

        Broadcasts over (lam, t, leading z axes); result has shape
        broadcast + (n, n).
        """
        z = np.asarray(z, dtype=float)
        n = self.n
        shape = np.broadcast_shapes(np.shape(lam), np.shape(t),
                                    z[..., 0].shape)
        zb = np.broadcast_to(z, shape + (n,)).copy()
        J = np.empty(shape + (n, n))
        for j in range(n):
            h = step * (1.0 + np.abs(zb[..., j]))
            zp = zb.copy()
            zp[..., j] += h
            zm = zb.copy()
            zm[..., j] -= h
            gp = self.evaluate(lam, t, zp)
            gm = self.evaluate(lam, t, zm)
            J[..., :, j] = (gp - gm) / (2.0 * h[..., None])
        return J


@dataclass(frozen=True)
class Branch:
    """A lambda-family of solutions given as expressions in lambda, t."""

    z: tuple
    _fns: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_fns",
            tuple(compile_expr(e, ("lambda", "t")) for e in self.z))

    @staticmethod
    def from_sources(sources: Sequence[str]) -> "Branch":
        return Branch(z=parse_vector(sources, ("lambda", "t")))

    @property
    def n(self) -> int:
        return len(self.z)

    def evaluate(self, lam, t) -> np.ndarray:
        """Branch point, broadcast shape + (n,)."""
        shape = np.broadcast_shapes(np.shape(lam), np.shape(t))
        comps = [np.broadcast_to(np.asarray(fn(lam, t), float), shape)
                 for fn in self._fns]
        return np.stack(comps, axis=-1)

    def derivative(self, lam, t, h: float = 1e-5) -> np.ndarray:
        """d/dt of the branch by central differences."""
        return (self.evaluate(lam, np.asarray(t) + h)
                - self.evaluate(lam, np.asarray(t) - h)) / (2.0 * h)


def validate_branch(nf: NonlinearFamily, branch: Branch,
                    branch_tol: float = 1e-6,
                    limit_tol: float = 1e-4,
                    lam_samples: int = 11,
                    t_samples: int = 81) -> None:
    """Check the branch solves z' = g and approaches the restpoints.

    Raises
    ------
    BranchResidualTooLarge
        If the ODE residual exceeds ``branch_tol`` on the sampled
        grid, or the values at -t_max/+t_max miss z_minus/z_plus by
        more than ``limit_tol``.
    """
    if branch.n != nf.n:
        raise DimensionMismatch(
            f"branch has {branch.n} components, family has {nf.n}"
        )
    a, b = nf.lam_range
    lams = np.linspace(a, b, lam_samples)[:, None]
    ts = np.linspace(-nf.t_max, nf.t_max, t_samples)[None, :]
    zb = branch.evaluate(lams, ts)
    resid = branch.derivative(lams, ts) - nf.evaluate(lams, ts, zb)
    worst = float(np.max(np.abs(resid)))
    if worst > branch_tol:
        raise BranchResidualTooLarge(
            f"max |z' - g(lambda,t,z)| = {worst:.3e} exceeds {branch_tol}"
        )
    end_minus = branch.evaluate(lams[:, 0], -nf.t_max)
    end_plus = branch.evaluate(lams[:, 0], nf.t_max)
    drift = max(
        float(np.max(np.abs(end_minus - nf.z_minus))),
        float(np.max(np.abs(end_plus - nf.z_plus))),
    )
    if drift > limit_tol:
        raise BranchResidualTooLarge(
            f"branch misses its restpoints by {drift:.3e} at t = "
            f"+-{nf.t_max} (tolerance {limit_tol})"
        )


def linearize_along(nf: NonlinearFamily, branch: Branch,
                    branch_tol: float = 1e-6) -> LinearFamily:
    """Linearization S(lambda, t) = D_z g along the branch.

    The branch is validated first; the unstable dimension k is read
    from the spectral split of the limit matrix at (lam_range[0],
    -t_max).
    """
    validate_branch(nf, branch, branch_tol=branch_tol)

    def jac(lam, t):
        return nf.jacobian(lam, t, branch.evaluate(lam, t))

    k = spectral_split(jac(nf.lam_range[0], -nf.t_max)).v_plus.k
    return LinearFamily.from_callable(jac, n=nf.n, k=k, t_max=nf.t_max,
                                      batched=jac)


@dataclass(frozen=True)
class RestpointReport:
    """Residuals and hyperbolicity of the two restpoints.

    ``k_minus``/``k_plus`` are the unstable dimensions of D_z g at
    (lambda, -t_max, z_minus) and (lambda, +t_max, z_plus); None when
    a split failed.  ``violations`` collects human-readable findings.
    """

    residual_minus: float
    residual_plus: float
    hyperbolic: bool
    k_minus: int | None
    k_plus: int | None
    violations: tuple


def check_restpoints(nf: NonlinearFamily,
                     lam_samples: int = 11) -> RestpointReport:
    """Report restpoint residuals and limit hyperbolicity; never raises."""
    violations = []
    res_m = nf._restpoint_residual(nf.z_minus)
    res_p = nf._restpoint_residual(nf.z_plus)
    if res_m > _RESTPOINT_TOL:
        violations.append(f"z_minus residual {res_m:.3e}")
    if res_p > _RESTPOINT_TOL:
        violations.append(f"z_plus residual {res_p:.3e}")

    a, b = nf.lam_range
    k_m = k_p = None
    hyperbolic = True
    for lam in np.linspace(a, b, lam_samples):
        for t0, z, side in ((-nf.t_max, nf.z_minus, "z_minus"),
                            (nf.t_max, nf.z_plus, "z_plus")):
            J = nf.jacobian(lam, t0, z)
            try:
                split = spectral_split(J)
            except NotHyperbolic as exc:
                hyperbolic = False
                violations.append(
                    f"{side} not hyperbolic at lambda={lam:.4g}: {exc}")
                continue
            if side == "z_minus":
                if k_m is None:
                    k_m = split.v_plus.k
                elif split.v_plus.k != k_m:
                    violations.append(
                        f"unstable dimension at z_minus jumps to "
                        f"{split.v_plus.k} at lambda={lam:.4g}")
            else:
                if k_p is None:
                    k_p = split.v_plus.k
                elif split.v_plus.k != k_p:
                    violations.append(
                        f"unstable dimension at z_plus jumps to "
                        f"{split.v_plus.k} at lambda={lam:.4g}")
    return RestpointReport(residual_minus=res_m, residual_plus=res_p,
                           hyperbolic=hyperbolic, k_minus=k_m, k_plus=k_p,
                           violations=tuple(violations))


@dataclass(frozen=True)
class BifurcationVerdict:
    """Outcome of the sufficient bifurcation criterion.

    index 1 proves bifurcation from the branch somewhere in
    ``lam_range``; index 0 is inconclusive by design, and ``note``
    says so verbatim.  ``lam_candidates`` are the determinant
    sign-flip instants, each localized well below 1e-3.
    """

    bifurcates: bool
    index: int
    lam_candidates: tuple
    hypotheses: HypothesisReport
    note: str
    lam_range: tuple
    index_report: IndexReport


def detect_bifurcation(nf: NonlinearFamily, branch: Branch,
                       lam_range: tuple | None = None,
                       samples: int = 201,
                       hypothesis_samples: int = 51,
                       eps_trans: float = 1e-6,
                       rtol: float = 1e-9,
                       atol: float = 1e-12) -> BifurcationVerdict:
    """Bifurcation verdict for a branch of a nonlinear family.

    Linearizes along the branch, checks the limit hypotheses, and
    computes the Z2-index of lambda -> (E^s(0), E^u(0)) over
    ``lam_range`` (the family's own range by default) on ``samples``
    evenly spaced lambdas.  Every lambda of the verdict, the grid of
    ``index_report`` included, is in the caller's parametrization.

    Raises
    ------
    HypothesisFailure
        If a sampled limit hypothesis fails (assumption named).
    BranchResidualTooLarge
        If the branch does not actually solve the family.
    DegenerateEndpoint
        If an endpoint pair is numerically non-transversal.
    """
    lf = linearize_along(nf, branch)
    a, b = lam_range if lam_range is not None else nf.lam_range
    if not b > a:
        raise InvalidInput("lam_range must be increasing")
    hyp = check_A1_A3(lf, hypothesis_samples, (a, b))
    if not hyp.ok:
        lam_bad, tag, msg = hyp.violations[0]
        raise HypothesisFailure(
            f"assumption ({tag}) fails at lambda={lam_bad:.4g}: {msg}",
            assumption=tag,
        )
    pair = boundary_pair_over_lambda(lf, np.linspace(a, b, samples),
                                     rtol=rtol, atol=atol)
    report = z2_index(pair, eps_trans=eps_trans)
    bifurcates = report.value == 1
    note = ("bifurcation from the given branch"
            if bifurcates else "inconclusive")
    return BifurcationVerdict(
        bifurcates=bifurcates, index=report.value,
        lam_candidates=report.crossings, hypotheses=hyp, note=note,
        lam_range=(float(a), float(b)), index_report=report,
    )
