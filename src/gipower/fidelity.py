"""Black-box symplectic dynamics, Gaussian-state fidelity, and worst-case QFI.

The local black box on mode A is the one-parameter family
T(phi) = R(theta)^T S(zeta) R(phi) S(zeta) R(theta).  T(0) is not the
identity, but it is a fixed local symplectic independent of phi, so the
quantum Fisher information of the family is unaffected: the fidelity
between the phi and phi+eps outputs equals the fidelity between
sigma' = (S R_theta) sigma (S R_theta)^T and its plain rotation by eps.
All QFI evaluations here use that anchored form, which keeps F(0) = 1
exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .exceptions import InvalidStateError, NumericalError, OptimizerError
from .symplectic import CHECK_TOL, OMEGA, PURE_TOL, CovarianceMatrix
from .symplectic import _invariants, _require_physical, _sigma_of

__all__ = [
    "BlackBoxParams",
    "QfiEstimate",
    "WorstCaseResult",
    "rotation",
    "squeeze",
    "blackbox_symplectic",
    "apply_blackbox",
    "fidelity",
    "qfi",
    "worst_case_qfi",
]

_EYE4 = np.eye(4)


@dataclass(frozen=True)
class BlackBoxParams:
    """Parameters (phi, zeta, theta) of the local Gaussian black box.

    zeta must be positive; theta is reduced mod pi (the transform has
    period pi in theta).
    """

    phi: float
    zeta: float
    theta: float

    def __post_init__(self):
        if not (np.isfinite(self.zeta) and self.zeta > 0):
            raise InvalidStateError(f"squeezing parameter must be > 0, got {self.zeta}")
        if not (np.isfinite(self.phi) and np.isfinite(self.theta)):
            raise InvalidStateError("black-box parameters must be finite")
        object.__setattr__(self, "theta", float(self.theta) % np.pi)


@dataclass(frozen=True)
class QfiEstimate:
    """Finite-difference QFI value with the step used and a Richardson error bound."""

    value: float
    step: float
    error_estimate: float


@dataclass(frozen=True)
class WorstCaseResult:
    """Minimum QFI over the black-box family and its argmin."""

    value: float
    zeta_opt: float
    theta_opt: float
    at_boundary: bool


def rotation(phi) -> np.ndarray:
    """Phase-space rotation [[cos, -sin], [sin, cos]]; accepts stacked input."""
    phi = np.asarray(phi, dtype=float)
    c, s = np.cos(phi), np.sin(phi)
    out = np.empty(phi.shape + (2, 2))
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    return out


def squeeze(zeta) -> np.ndarray:
    """Squeezing transformation diag(zeta, 1/zeta); accepts stacked input."""
    zeta = np.asarray(zeta, dtype=float)
    if np.any(zeta <= 0) or not np.all(np.isfinite(zeta)):
        raise InvalidStateError("squeezing parameter must be positive and finite")
    out = np.zeros(zeta.shape + (2, 2))
    out[..., 0, 0] = zeta
    out[..., 1, 1] = 1.0 / zeta
    return out


def blackbox_symplectic(params: BlackBoxParams) -> np.ndarray:
    """2x2 symplectic R(theta)^T S(zeta) R(phi) S(zeta) R(theta)."""
    if not isinstance(params, BlackBoxParams):
        params = BlackBoxParams(*params)
    r_theta = rotation(params.theta)
    s = squeeze(params.zeta)
    return r_theta.T @ s @ rotation(params.phi) @ s @ r_theta


def _extend_A(t: np.ndarray) -> np.ndarray:
    """Embed stacked 2x2 transforms as T (+) I on the two-mode phase space."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape[:-2] + (4, 4))
    out[..., :2, :2] = t
    out[..., 2, 2] = 1.0
    out[..., 3, 3] = 1.0
    return out


def apply_blackbox(cm, params: BlackBoxParams) -> CovarianceMatrix:
    """Transformed state (T (+) I) sigma (T (+) I)^T after the black box."""
    sigma = _sigma_of(cm)
    t = _extend_A(blackbox_symplectic(params))
    return CovarianceMatrix(t @ sigma @ t.T)


def _purity_factor(A, B, C, E):
    """(nu-^2 - 1)(nu+^2 - 1) = D - (A + B + 2C) + 1, and D, from (A, B, C, AB - D).

    Vanishes exactly on pure states; equals det(sigma + i*Omega).
    """
    D = A * B - E
    return D - (A + B + 2 * C) + 1, D


def _fidelity_core(s1, s2, lam1, lam2, both_pure, neg_tol=None):
    """Uhlmann fidelity from covariance matrices; stacked-input capable.

    Implements F = (s + sqrt(s^2 - Upsilon))/Upsilon with
    s = sqrt(Gamma) + sqrt(Lambda), where

        Gamma   = det(Omega s1 Omega s2 - I)/16
        Lambda  = lam1 * lam2 / 16        (lam = det(sigma + i Omega))
        Upsilon = det((s1 + s2)/2)

    For a pair of pure states Lambda = 0 and Gamma = Upsilon identically,
    so F reduces to 1/sqrt(Upsilon); evaluating that branch directly
    avoids the catastrophic cancellation in s^2 - Upsilon that otherwise
    poisons second differences.  Small negative radicands are clamped;
    scalar calls may pass neg_tol to reject radicands negative beyond it.
    """
    gamma = np.linalg.det(OMEGA @ s1 @ OMEGA @ s2 - _EYE4) / 16
    upsilon = np.linalg.det((s1 + s2) / 2)
    pure_f = 1.0 / np.sqrt(upsilon)
    if np.ndim(both_pure) == 0 and both_pure:
        return pure_f
    lam = np.maximum(lam1 * lam2, 0.0) / 16
    s = np.sqrt(np.maximum(gamma, 0.0)) + np.sqrt(lam)
    raw = s * s - upsilon
    if neg_tol is not None and np.ndim(raw) == 0 and raw < -neg_tol * max(1.0, float(s * s)):
        raise NumericalError(f"fidelity radicand {raw} negative beyond tolerance")
    rad = np.maximum(raw, 0.0)
    general_f = (s + np.sqrt(rad)) / upsilon
    if np.ndim(both_pure) == 0:
        return general_f
    return np.where(both_pure, pure_f, general_f)


def fidelity(cm1, cm2, tol: float = CHECK_TOL) -> float:
    """Uhlmann fidelity between two physical two-mode Gaussian states.

    Symmetric in its arguments, bounded by [0, 1], with F(sigma, sigma) = 1.
    Raises InvalidStateError for unphysical input and NumericalError if the
    main radicand is negative beyond tolerance.
    """
    s1, inv1 = _require_physical(cm1)
    s2, inv2 = _require_physical(cm2)
    lam1, d1 = _purity_factor(*inv1)
    lam2, d2 = _purity_factor(*inv2)
    both_pure = abs(d1 - 1) < PURE_TOL and abs(d2 - 1) < PURE_TOL
    if lam1 * lam2 < -tol:
        raise NumericalError(f"purity product {lam1 * lam2} < -tol")
    f = _fidelity_core(s1, s2, lam1, lam2, both_pure, neg_tol=tol)
    if not np.isfinite(f):
        raise NumericalError("fidelity evaluation produced a non-finite value")
    return float(f)


def _qfi_landscape(sigma, zeta, theta, base_step=1e-3, retry_step=1e-2, retry_rel=1e-5):
    """QFI of the black-box family at stacked (zeta, theta) grids.

    Returns (value, step, error) arrays.  Each value is the symmetric
    second difference -2*[F(eps) + F(-eps) - 2]/eps^2 Richardson-
    extrapolated over steps eps and eps/2; when the extrapolation
    correction exceeds retry_rel * max(1, value) the evaluation is
    repeated with the larger retry_step (combats cancellation near pure
    states).
    """
    zeta = np.asarray(zeta, dtype=float)
    theta = np.asarray(theta, dtype=float)
    lam0, d0 = _purity_factor(*_invariants(sigma))
    pure = abs(d0 - 1) < PURE_TOL
    m = _extend_A(squeeze(zeta) @ rotation(theta))
    anchored = m @ sigma @ np.swapaxes(m, -1, -2)

    def second_difference(eps):
        r_plus = _extend_A(rotation(np.asarray(eps)))
        r_minus = _extend_A(rotation(np.asarray(-eps)))
        f_plus = _fidelity_core(anchored, r_plus @ anchored @ r_plus.T, lam0, lam0, pure)
        f_minus = _fidelity_core(anchored, r_minus @ anchored @ r_minus.T, lam0, lam0, pure)
        return -2 * (f_plus + f_minus - 2) / eps**2

    def richardson(eps):
        q1 = second_difference(eps)
        q2 = second_difference(eps / 2)
        value = (4 * q2 - q1) / 3
        return value, np.abs(value - q2)

    value, err = richardson(base_step)
    step = np.broadcast_to(base_step, np.shape(value)).copy() if np.ndim(value) else base_step
    retry = err > retry_rel * np.maximum(1.0, np.abs(value))
    if np.any(retry):
        value_r, err_r = richardson(retry_step)
        if np.ndim(value) == 0:
            value, err, step = value_r, err_r, retry_step
        else:
            value = np.where(retry, value_r, value)
            err = np.where(retry, err_r, err)
            step[retry] = retry_step
    return np.maximum(value, 0.0), step, err


def qfi(cm, zeta: float, theta: float, base_step: float = 1e-3) -> QfiEstimate:
    """Quantum Fisher information of the black-box phase family at (zeta, theta).

    Defined as -2 d^2F/d_eps^2 at eps = 0 where F(eps) is the fidelity
    between the black-box outputs at phase 0 and phase eps; the base phase
    drops out because the family's unitaries commute.
    """
    sigma, _ = _require_physical(cm)
    if not (np.isfinite(zeta) and zeta > 0):
        raise InvalidStateError(f"squeezing parameter must be > 0, got {zeta}")
    if not np.isfinite(theta):
        raise InvalidStateError(f"orientation angle must be finite, got {theta}")
    value, step, err = _qfi_landscape(sigma, zeta, theta, base_step=base_step)
    if not np.isfinite(value):
        raise NumericalError("QFI evaluation produced a non-finite value")
    return QfiEstimate(value=float(value), step=float(step), error_estimate=float(err))


# Deterministic tie-breaking between indistinguishable minima: prefer
# smallest theta, then smallest |log2 zeta| (zeta = 1 wins over any squeeze).
# Candidates closer than this are within the finite-difference error bars.
_TIE_REL = 1e-6


def worst_case_qfi(
    cm,
    log2_zeta_range: tuple[float, float] = (-2.5, 2.5),
    zeta_grid: int = 41,
    theta_grid: int = 37,
    refine_budget: int = 200,
) -> WorstCaseResult:
    """Infimum of the QFI over the local Gaussian black boxes on mode A.

    Scans a coarse (log2 zeta) x theta grid, refines the best cell with a
    Nelder-Mead simplex (theta wrapped mod pi, log2 zeta clamped to the
    search range), and reports the minimum with its argmin.  Ties within
    relative tolerance are broken toward theta = 0, then zeta = 1.
    at_boundary flags an argmin on the log2 zeta search edge, where the
    reported value is the boundary value (no extrapolation is attempted).
    """
    sigma, _ = _require_physical(cm)
    lo, hi = log2_zeta_range
    log2z = np.linspace(lo, hi, zeta_grid)
    thetas = np.linspace(0.0, np.pi, theta_grid, endpoint=False)
    lz_mesh, th_mesh = np.meshgrid(log2z, thetas, indexing="ij")
    lz_flat, th_flat = lz_mesh.ravel(), th_mesh.ravel()
    values, _, _ = _qfi_landscape(sigma, 2.0**lz_flat, th_flat)
    finite = np.isfinite(values)
    if not np.any(finite):
        raise OptimizerError("no finite QFI values on the search grid")
    values = np.where(finite, values, np.inf)

    best = np.lexsort((np.abs(lz_flat), th_flat, values))[0]
    grid_point = (float(lz_flat[best]), float(th_flat[best]))

    def objective(x):
        lz = min(max(x[0], lo), hi)
        v, _, _ = _qfi_landscape(sigma, 2.0**lz, x[1] % np.pi)
        return float(v) if np.isfinite(v) else np.inf

    result = minimize(
        objective,
        np.array(grid_point),
        method="Nelder-Mead",
        options={"maxfev": refine_budget, "xatol": 1e-7, "fatol": 1e-13},
    )
    refined = (min(max(result.x[0], lo), hi), result.x[1] % np.pi)

    # Candidate minima: grid best, refined point, canonical snaps, and the
    # exact twin (1/zeta, theta + pi/2) of the refined point.  The theta
    # direction is exactly flat at zeta = 1 and every minimum has the twin
    # mirror, so the raw argmin of a degenerate landscape is arbitrary.
    lz_r, th_r = refined
    candidates = {grid_point, refined}
    for lz in (lz_r, -lz_r, 0.0):
        if not lo <= lz <= hi:
            continue
        for th in (th_r, (th_r + np.pi / 2) % np.pi, 0.0):
            candidates.add((lz, th))
    scored = []
    for lz, th in candidates:
        v, _, _ = _qfi_landscape(sigma, 2.0**lz, th)
        if np.isfinite(v):
            scored.append((float(v), float(th), abs(lz), float(lz)))
    v_min = min(s[0] for s in scored)
    tie = [s for s in scored if s[0] <= v_min + _TIE_REL * max(1.0, v_min)]
    _, theta_opt, _, lz_opt = min(tie, key=lambda s: (s[1], s[2]))

    return WorstCaseResult(
        value=max(v_min, 0.0),
        zeta_opt=float(2.0**lz_opt),
        theta_opt=float(theta_opt),
        at_boundary=bool(abs(lz_opt - lo) < 1e-9 or abs(lz_opt - hi) < 1e-9),
    )
