"""Nonlinear vector-field families, trivial branches, and bifurcation.

A nonlinear family z' = g(lambda, t, z) with two hyperbolic restpoints
and a known branch of solutions z_lambda is reduced to a linear family
S_lambda(t) = D_z g(lambda, t, z_lambda(t)); the bifurcation verdict
is then read off the Z2-index of the boundary subspace pair
lambda -> (E^s(0), E^u(0)) of that linearization.  An index of 1
forces solutions bifurcating from the branch; 0 decides nothing, and
is reported as inconclusive.

D_z g is exact: the matrix of partial derivatives dg_i/dz_j is
differentiated from the expression tree once per family, and the
linearization is that matrix with the branch substituted for z, an
ordinary expression family in (lambda, t).  Branches are supplied as
expressions and validated by residual; the module never solves the
nonlinear boundary-value problem itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BranchResidualTooLarge,
    DimensionMismatch,
    DomainError,
    InvalidInput,
    NotHyperbolic,
    _check_positive,
    _check_samples,
    _checked_range,
)
from .expr import (
    MatrixExpr,
    compile_matrix,
    diff,
    eval_matrix,
    parse_vector,
    substitute,
)
from .flow import HypothesisReport, LinearFamily, _require_A1_A3
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
#: validate_branch: how far the branch may miss a restpoint at +-t_max,
#: and the (lambda, t) grid its residual is sampled on
_LIMIT_TOL = 1e-4
_LAM_SAMPLES = 11
_T_SAMPLES = 81
_HYPOTHESIS_SAMPLES = 51   # lambdas of the A1-A3 check of a verdict


def _z_names(n: int) -> tuple:
    return tuple(f"z{j + 1}" for j in range(n))


def _column(exprs) -> MatrixExpr:
    """The expressions as an n x 1 grid, for :func:`compile_matrix`."""
    return MatrixExpr(len(exprs), 1, tuple((e,) for e in exprs))


@dataclass(frozen=True)
class NonlinearFamily:
    """Vector field family z' = g(lambda, t, z) with two restpoints.

    ``g`` is a tuple of expressions in lambda, t, z1..zn; the
    restpoints must annihilate g on a sampled (lambda, t) grid within
    1e-8, which the constructor enforces.  The constructor compiles g
    as an n x 1 grid, and differentiates it once into the n x n matrix
    of dg_i/dz_j and compiles that; both raise ``DomainError`` where an
    entry has no real value.

    Raises
    ------
    DimensionMismatch
        If a restpoint is not a length-n vector.
    InvalidInput
        If t_max is not a finite number > 0, lam_range is not two
        finite numbers a < b, or a restpoint leaves max |g| above 1e-8;
        g is not evaluated before the first two checks.
    """

    g: tuple
    z_minus: np.ndarray
    z_plus: np.ndarray
    t_max: float = 20.0
    lam_range: tuple = (0.0, 1.0)
    _g_eval: Callable = field(init=False, repr=False, compare=False)
    _jac: MatrixExpr = field(init=False, repr=False, compare=False)
    _jac_eval: Callable = field(init=False, repr=False, compare=False)

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
        _check_positive(self.t_max, "t_max")
        _checked_range(self.lam_range, "lam_range")
        args = ("lambda", "t") + _z_names(n)
        object.__setattr__(self, "_g_eval",
                           compile_matrix(_column(self.g), args))
        jac = MatrixExpr(n, n, tuple(
            tuple(diff(e, z) for z in _z_names(n)) for e in self.g))
        object.__setattr__(self, "_jac", jac)
        object.__setattr__(self, "_jac_eval", compile_matrix(jac, args))
        for z, name in ((self.z_minus, "z_minus"), (self.z_plus, "z_plus")):
            r = self._restpoint_residual(z)
            if not r <= _RESTPOINT_TOL:
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
        return self._g_eval(lam, t, *self._split(z))[..., 0]

    def _split(self, z) -> tuple:
        return tuple(np.moveaxis(np.asarray(z, dtype=float), -1, 0))

    def _restpoint_residual(self, z: np.ndarray) -> float:
        a, b = self.lam_range
        lams = np.linspace(a, b, 9)[:, None]
        ts = np.linspace(-self.t_max, self.t_max, 17)[None, :]
        vals = self.evaluate(lams, ts, np.broadcast_to(z, (9, 17, self.n)))
        return float(np.max(np.abs(vals)))

    def jacobian(self, lam, t, z) -> np.ndarray:
        """D_z g, evaluated from its compiled partial derivatives.

        Broadcasts over (lam, t, leading z axes); result has shape
        broadcast + (n, n).

        Raises
        ------
        DomainError
            Where a partial derivative has no real value.
        """
        return self._jac_eval(lam, t, *self._split(z))


@dataclass(frozen=True)
class Branch:
    """A lambda-family of solutions given as expressions in lambda, t.

    z and dz/dt compile as two n x 1 grids, so z is defined where dz/dt
    is not; both raise ``DomainError`` where they have no real value.
    """

    z: tuple
    _z_eval: Callable = field(init=False, repr=False, compare=False)
    _dz_eval: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        args = ("lambda", "t")
        object.__setattr__(self, "_z_eval",
                           compile_matrix(_column(self.z), args))
        object.__setattr__(self, "_dz_eval", compile_matrix(
            _column([diff(e, "t") for e in self.z]), args))

    @staticmethod
    def from_sources(sources: Sequence[str]) -> "Branch":
        return Branch(z=parse_vector(sources, ("lambda", "t")))

    @property
    def n(self) -> int:
        return len(self.z)

    def evaluate(self, lam, t) -> np.ndarray:
        """Branch point, broadcast shape + (n,)."""
        return self._z_eval(lam, t)[..., 0]

    def derivative(self, lam, t) -> np.ndarray:
        """d/dt of the branch, from the differentiated expressions."""
        return self._dz_eval(lam, t)[..., 0]


def validate_branch(nf: NonlinearFamily, branch: Branch,
                    branch_tol: float = 1e-6) -> None:
    """Check the branch solves z' = g and approaches the restpoints.

    Raises
    ------
    InvalidInput
        If ``branch_tol`` is not a finite number > 0; neither the branch
        nor g is evaluated then.
    BranchResidualTooLarge
        If the ODE residual exceeds ``branch_tol`` on the sampled
        grid, or the values at -t_max/+t_max miss z_minus/z_plus by
        more than 1e-4.
    DomainError
        If the branch, its derivative or g has no real value at a
        sampled point.
    """
    _check_positive(branch_tol, "branch_tol")
    if branch.n != nf.n:
        raise DimensionMismatch(
            f"branch has {branch.n} components, family has {nf.n}"
        )
    a, b = nf.lam_range
    lams = np.linspace(a, b, _LAM_SAMPLES)[:, None]
    ts = np.linspace(-nf.t_max, nf.t_max, _T_SAMPLES)[None, :]
    zb = branch.evaluate(lams, ts)
    resid = branch.derivative(lams, ts) - nf.evaluate(lams, ts, zb)
    worst = float(np.max(np.abs(resid)))
    if not worst <= branch_tol:
        raise BranchResidualTooLarge(
            f"max |z' - g(lambda,t,z)| = {worst:.3e} exceeds {branch_tol}"
        )
    end_minus = branch.evaluate(lams[:, 0], -nf.t_max)
    end_plus = branch.evaluate(lams[:, 0], nf.t_max)
    drift = max(
        float(np.max(np.abs(end_minus - nf.z_minus))),
        float(np.max(np.abs(end_plus - nf.z_plus))),
    )
    if not drift <= _LIMIT_TOL:
        raise BranchResidualTooLarge(
            f"branch misses its restpoints by {drift:.3e} at t = "
            f"+-{nf.t_max} (tolerance {_LIMIT_TOL})"
        )


def linearize_along(nf: NonlinearFamily, branch: Branch,
                    branch_tol: float = 1e-6) -> LinearFamily:
    """Linearization S(lambda, t) = D_z g along the branch.

    The branch is validated first.  S is the family's matrix of
    partial derivatives with the branch expressions substituted for
    z1..zn: an expression family in (lambda, t), whose evaluation
    raises ``DomainError`` where an entry has no real value.  The
    unstable dimension k is read from the spectral split of the strict
    evaluation of S at (lam_range[0], -t_max).
    """
    validate_branch(nf, branch, branch_tol=branch_tol)
    on_branch = dict(zip(_z_names(nf.n), branch.z))
    S = MatrixExpr(nf.n, nf.n, tuple(
        tuple(substitute(e, on_branch) for e in row)
        for row in nf._jac.entries))
    S0 = eval_matrix(S, {"lambda": nf.lam_range[0], "t": -nf.t_max})
    k = spectral_split(S0).v_plus.k
    return LinearFamily.from_matrix_expr(S, k=k, t_max=nf.t_max)


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


def check_restpoints(nf: NonlinearFamily) -> RestpointReport:
    """Report restpoint residuals and limit hyperbolicity at
    ``_LAM_SAMPLES`` lambdas; never raises.

    A restpoint where D_z g has no real value (a ``DomainError``)
    counts as not hyperbolic.
    """
    violations = []
    sides = (("z_minus", -nf.t_max, nf.z_minus),
             ("z_plus", nf.t_max, nf.z_plus))
    residuals = [nf._restpoint_residual(z) for _, _, z in sides]
    for (side, _, _), r in zip(sides, residuals):
        if r > _RESTPOINT_TOL:
            violations.append(f"{side} residual {r:.3e}")

    a, b = nf.lam_range
    ks = [None, None]
    hyperbolic = True
    for lam in np.linspace(a, b, _LAM_SAMPLES):
        for i, (side, t0, z) in enumerate(sides):
            try:
                split = spectral_split(nf.jacobian(lam, t0, z))
            except DomainError as exc:
                hyperbolic = False
                violations.append(
                    f"{side}: D_z g undefined at lambda={lam:.4g}: {exc}")
                continue
            except NotHyperbolic as exc:
                hyperbolic = False
                violations.append(
                    f"{side} not hyperbolic at lambda={lam:.4g}: {exc}")
                continue
            k = split.v_plus.k
            if ks[i] is None:
                ks[i] = k
            elif k != ks[i]:
                violations.append(
                    f"unstable dimension at {side} jumps to "
                    f"{k} at lambda={lam:.4g}")
    return RestpointReport(residual_minus=residuals[0],
                           residual_plus=residuals[1],
                           hyperbolic=hyperbolic, k_minus=ks[0], k_plus=ks[1],
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
                       eps_trans: float = 1e-6,
                       rtol: float = 1e-9,
                       atol: float = 1e-12,
                       branch_tol: float = 1e-6) -> BifurcationVerdict:
    """Bifurcation verdict for a branch of a nonlinear family.

    Linearizes along the branch, checks the limit hypotheses (at
    ``_HYPOTHESIS_SAMPLES`` lambdas), and
    computes the Z2-index of lambda -> (E^s(0), E^u(0)) over
    ``lam_range`` (the family's own range by default, and never beyond
    it: the restpoints and the branch are validated there only) on
    ``samples`` evenly spaced lambdas.  Every lambda of the verdict,
    the grid of ``index_report`` included, is in the caller's
    parametrization.
    ``branch_tol`` is the residual bound of :func:`validate_branch`.

    Raises
    ------
    InvalidInput
        If ``samples`` is not an integer >= 2, ``lam_range`` is not two
        finite numbers a < b or reaches outside the family's
        ``lam_range``, or ``branch_tol`` is not a finite number > 0;
        neither the branch nor g is evaluated then.
    HypothesisFailure
        If a sampled limit hypothesis fails (assumption named).
    BranchResidualTooLarge
        If the branch does not actually solve the family.
    DegenerateEndpoint
        If an endpoint pair is numerically non-transversal.
    """
    _check_samples(samples, 2)
    a, b = _checked_range(lam_range if lam_range is not None
                          else nf.lam_range, "lam_range")
    lo, hi = nf.lam_range
    if a < lo or b > hi:
        raise InvalidInput(
            f"lam_range [{a:g}, {b:g}] reaches outside the family's "
            f"lam_range [{lo:g}, {hi:g}], where the restpoints and the "
            f"branch were validated")
    lf = linearize_along(nf, branch, branch_tol=branch_tol)
    hyp = _require_A1_A3(lf, _HYPOTHESIS_SAMPLES, (a, b))
    pair = boundary_pair_over_lambda(lf, np.linspace(a, b, samples),
                                     rtol=rtol, atol=atol)
    report = z2_index(pair, eps_trans=eps_trans)
    bifurcates = report.value == 1
    note = ("bifurcation from the given branch"
            if bifurcates else "inconclusive")
    return BifurcationVerdict(
        bifurcates=bifurcates, index=report.value,
        lam_candidates=report.crossings, hypotheses=hyp, note=note,
        lam_range=(a, b), index_report=report,
    )
