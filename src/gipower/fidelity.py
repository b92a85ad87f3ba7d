"""Black-box symplectic dynamics, Gaussian-state fidelity, and worst-case QFI.

The local black box on mode A is the one-parameter family
T(phi) = R(theta)^T S(zeta) R(phi) S(zeta) R(theta).  T(0) is not the
identity, but it is a fixed local symplectic independent of phi, so the
quantum Fisher information of the family is unaffected: the fidelity
between the phi and phi+eps outputs equals the fidelity between
sigma' = (S R_theta) sigma (S R_theta)^T and its plain rotation by eps.
The QFI is therefore that of sigma under one generator in sp(2) on mode A,
a quadratic form in three coefficients of (zeta, theta), evaluated exactly
in phase space (Monras, arXiv:1303.3682).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidStateError, NumericalError
from .symplectic import CHECK_TOL, OMEGA, PURE_TOL, CovarianceMatrix
from .symplectic import _det, _local_frame, _require_physical, _sigma_of

__all__ = [
    "BlackBoxParams",
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
_OMEGA_KRON = np.kron(OMEGA, OMEGA)
# Basis (G, Z, X) of sp(2) on mode A, zero on mode B: G = [[0, -1], [1, 0]]
# generates rotation(phi); Z = diag(1, -1) and X = [[0, 1], [1, 0]] squeeze.
_GENERATORS = np.zeros((3, 4, 4))
_GENERATORS[:, :2, :2] = [[[0, -1], [1, 0]], [[1, 0], [0, -1]], [[0, 1], [1, 0]]]
# Eigenvalues of sigma (x) sigma - Omega (x) Omega below this fraction of
# the largest are rounding noise on exactly-null directions (numpy's
# matrix_rank threshold for a 16x16 matrix).
_NULL_RTOL = 16 * np.finfo(float).eps


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
class WorstCaseResult:
    """Minimum QFI over the black-box family and its argmin.

    refine_steps counts the Newton steps of the refinement; converged is
    False only if refine_budget of them ran out before the descent stopped.
    """

    value: float
    zeta_opt: float
    theta_opt: float
    at_boundary: bool
    refine_steps: int
    converged: bool


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


def _purity_factor(sigma, inv):
    """(nu-^2 - 1)(nu+^2 - 1) = D - (A + B + 2C) + 1, and D = det sigma.

    Vanishes exactly on pure states; equals det(sigma + i*Omega).  D comes
    from the Cholesky pivots, as in the closed form.
    """
    A, B, C, _ = inv
    D = _det(sigma)
    return D - (A + B + 2 * C) + 1, D


def fidelity(cm1, cm2, tol: float = CHECK_TOL) -> float:
    """Uhlmann fidelity between two physical two-mode Gaussian states.

    Implements F = (s + sqrt(s^2 - Upsilon))/Upsilon with
    s = sqrt(Gamma) + sqrt(Lambda), where

        Gamma   = det(Omega s1 Omega s2 - I)/16
        Lambda  = lam1 * lam2 / 16        (lam = det(sigma + i Omega))
        Upsilon = det((s1 + s2)/2)

    For a pair of pure states Lambda = 0 and Gamma = Upsilon identically,
    so F reduces to 1/sqrt(Upsilon), which is evaluated directly instead
    of through the cancelling radicand s^2 - Upsilon.

    Symmetric in its arguments, bounded by [0, 1], with F(sigma, sigma) = 1.
    Raises InvalidStateError for unphysical input and NumericalError if the
    main radicand is negative beyond tolerance.
    """
    s1, inv1 = _require_physical(cm1)
    s2, inv2 = _require_physical(cm2)
    lam1, d1 = _purity_factor(s1, inv1)
    lam2, d2 = _purity_factor(s2, inv2)
    if lam1 * lam2 < -tol:
        raise NumericalError(f"purity product {lam1 * lam2} < -tol")
    upsilon = np.linalg.det((s1 + s2) / 2)
    if abs(d1 - 1) < PURE_TOL and abs(d2 - 1) < PURE_TOL:
        f = 1.0 / np.sqrt(upsilon)
    else:
        gamma = np.linalg.det(OMEGA @ s1 @ OMEGA @ s2 - _EYE4) / 16
        s = np.sqrt(max(gamma, 0.0)) + np.sqrt(max(lam1 * lam2, 0.0) / 16)
        radicand = s * s - upsilon
        if radicand < -tol * max(1.0, s * s):
            raise NumericalError(f"fidelity radicand {radicand} negative beyond tolerance")
        f = (s + np.sqrt(max(radicand, 0.0))) / upsilon
    if not np.isfinite(f):
        raise NumericalError("fidelity evaluation produced a non-finite value")
    return float(f)


def _qfi_form(sigma) -> tuple[list, list]:
    """(Q, T) as nested lists: the QFI at (zeta, theta) is h0^T Q h0, h0 = T h.

    The black box anchored at m = S(zeta) R(theta) rotates m sigma m^T,
    which is sigma itself moved by the generator H = m^-1 G m in sp(2);
    H = p G + u Z + v X with h = (p, u, v) as in _qfi_at.  The QFI is taken
    in the local frame sigma0 = L^-1 sigma L^-T that makes both mode blocks
    multiples of the identity (L = L_A (+) L_B, symplectic._local_frame), so local
    squeezing of the input does not reach the conditioning of M below.  There
    the generator is L_A^-1 H L_A, with coefficients h0 = T h.

    The QFI of sigma0 under a generator K is 1/2 vec(dsigma)^T
    (sigma0 (x) sigma0 - Omega (x) Omega)^+ vec(dsigma) with
    dsigma = K sigma0 + sigma0 K^T, so Q_kl = 1/2 vec(dsigma_k)^T M^+
    vec(dsigma_l) over (G, Z, X).  The pseudo-inverse drops only the
    exactly-null directions of M: a unitary leaves the symplectic
    eigenvalues unchanged, so dsigma has no component along them and the
    form stays exact on pure and nu- = 1 states.
    """
    l_a, l_a_inv, sigma0 = _local_frame(sigma)
    # Column k of T: the (G, Z, X) coefficients of L_A^-1 H_k L_A.
    k = l_a_inv @ _GENERATORS[:, :2, :2] @ l_a
    t = np.stack([(k[:, 1, 0] - k[:, 0, 1]) / 2, k[:, 0, 0], (k[:, 1, 0] + k[:, 0, 1]) / 2])
    lam, vec = np.linalg.eigh(np.kron(sigma0, sigma0) - _OMEGA_KRON)
    keep = lam > _NULL_RTOL * lam[-1]
    h_sigma = _GENERATORS @ sigma0
    d_sigma = (h_sigma + np.swapaxes(h_sigma, -1, -2)).reshape(3, 16)
    w = (d_sigma @ vec[:, keep]) / np.sqrt(lam[keep])
    form = 0.5 * w @ w.T
    if not np.all(np.isfinite(form)):
        raise NumericalError("QFI form evaluation produced a non-finite value")
    return form.tolist(), t.tolist()


def _lift(form, p, u, v):
    """(h0, Q h0) as 3-lists for h = (p, u, v), h0 = T h; broadcasts."""
    gram, t = form
    h0 = [t0 * p + t1 * u + t2 * v for t0, t1, t2 in t]
    return h0, [q0 * h0[0] + q1 * h0[1] + q2 * h0[2] for q0, q1, q2 in gram]


def _qfi_at(form, zeta, theta):
    """h0^T Q h0 at (zeta, theta); broadcasts over stacked zeta and theta.

    h = (p, q sin 2theta, q cos 2theta) holds the coefficients of m^-1 G m
    on (G, Z, X), with p = (zeta^2 + zeta^-2)/2 and q = (zeta^2 - zeta^-2)/2;
    h0 = T h carries them into the frame of _qfi_form.
    """
    z2 = np.square(zeta)
    p, q = (z2 + 1 / z2) / 2, (z2 - 1 / z2) / 2
    h0, y = _lift(form, p, q * np.sin(2 * theta), q * np.cos(2 * theta))
    return h0[0] * y[0] + h0[1] * y[1] + h0[2] * y[2]


def qfi(cm, zeta: float, theta: float) -> float:
    """Quantum Fisher information of the black-box phase family at (zeta, theta).

    Defined as -2 d^2F/d_eps^2 at eps = 0 where F(eps) is the fidelity
    between the black-box outputs at phase 0 and phase eps; the base phase
    drops out because the family's unitaries commute.  Evaluated exactly
    from the phase-space form of _qfi_form; raises NumericalError if the
    value overflows (zeta^4 times the form beyond the float range).
    """
    sigma, _ = _require_physical(cm)
    if not (np.isfinite(zeta) and zeta > 0):
        raise InvalidStateError(f"squeezing parameter must be > 0, got {zeta}")
    if not np.isfinite(theta):
        raise InvalidStateError(f"orientation angle must be finite, got {theta}")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        value = float(_qfi_at(_qfi_form(sigma), zeta, theta))
    if not math.isfinite(value):
        raise NumericalError(f"QFI at zeta = {zeta} overflowed")
    return max(value, 0.0)


# q = (zeta^2 - zeta^-2)/2 = sinh(_LN4 * log2 zeta): the sheet radius of zeta.
_LN4 = math.log(4.0)
# The refinement stops once the decrease a step predicts falls to this
# fraction of the value; a point within _EDGE_RTOL of an edge radius sits on it.
_DECREMENT_RTOL = 1e-15
_EDGE_RTOL = 1e-12


def _sheet_model(form, sheet, u, v):
    """Value, gradient and Hessian (uu, uv, vv) of the QFI at h = (sqrt(1 + u^2 + v^2), u, v).

    The value is h0^T Q h0 and the gradient comes from T^T Q h0 = P h, both
    through h0 = T h as in _qfi_at, which cancels far less than h^T P h
    when local squeezing of the input makes T large; the Hessian takes the
    entries of sheet = P = T^T Q T.
    """
    (p00, p01, p02), (_, p11, p12), (_, _, p22) = sheet
    p = math.sqrt(1 + u * u + v * v)
    h0, y = _lift(form, p, u, v)
    g0, g1, g2 = (t0 * y[0] + t1 * y[1] + t2 * y[2] for t0, t1, t2 in zip(*form[1]))
    # dp/du, dp/dv, and g0 / p^3, the factor of g0 in the second derivatives of p
    a, b, c = u / p, v / p, g0 / p**3
    grad = (2 * (a * g0 + g1), 2 * (b * g0 + g2))
    hess = (2 * (a * a * p00 + 2 * a * p01 + p11 + c * (1 + v * v)),
            2 * (a * b * p00 + a * p02 + b * p01 + p12 - c * u * v),
            2 * (b * b * p00 + 2 * b * p02 + p22 + c * (1 + u * u)))
    return h0[0] * y[0] + h0[1] * y[1] + h0[2] * y[2], grad, hess


def _clip(u, v, r_lo, r_hi):
    """(u, v) moved radially into the annulus r_lo <= r <= r_hi, and the edge it is on, or None."""
    r = math.hypot(u, v)
    if r >= r_hi * (1 - _EDGE_RTOL):
        edge = r_hi
    elif r_lo > 0 and r <= r_lo * (1 + _EDGE_RTOL):
        edge = r_lo
    else:
        return u, v, None
    if r == 0.0:
        return 0.0, edge, edge
    return u * edge / r, v * edge / r, edge


def _refine(form, sheet, u, v, r_lo, r_hi, budget):
    """Damped Newton descent of the QFI over the annulus r_lo <= |(u, v)| <= r_hi of the sheet.

    A Hessian that is not positive definite gives way to a gradient step
    of length f/|grad f| (the value is >= 0).  A point on an edge whose
    step would cross that edge moves along it instead, by the same rule in
    the polar angle.  Each step is halved until the value drops.  The
    descent has converged once the decrease a step predicts, its length
    times the Newton decrement -grad f . step, is at most _DECREMENT_RTOL f:
    the value cannot resolve more.  Returns (u, v, steps taken, converged);
    converged is False only if refine_budget steps ran out.
    """
    u, v, edge = _clip(u, v, r_lo, r_hi)
    f, (fu, fv), (huu, huv, hvv) = _sheet_model(form, sheet, u, v)
    for steps in range(budget):
        det = huu * hvv - huv * huv
        if huu > 0 and det > 0:
            du, dv = (huv * fv - hvv * fu) / det, (huv * fu - huu * fv) / det
        else:
            scale = f / (fu * fu + fv * fv) if fu or fv else 0.0
            du, dv = -scale * fu, -scale * fv
        r_new = math.hypot(u + du, v + dv)
        along = (edge == r_hi and r_new > r_hi) or (edge == r_lo and r_new < r_lo)
        if along:
            # (u, v) = edge (sin a, cos a): d/da (u, v) = (v, -u), d^2/da^2 (u, v) = -(u, v)
            fa = fu * v - fv * u
            faa = huu * v * v - 2 * huv * u * v + hvv * u * u - (fu * u + fv * v)
            da = -fa / faa if faa > 0 else (-f / fa if fa else 0.0)
            decrement = -fa * da
        else:
            decrement = -(fu * du + fv * dv)
        t = 1.0
        while t * decrement > _DECREMENT_RTOL * abs(f):
            if along:
                cos, sin = math.cos(t * da), math.sin(t * da)
                trial = (u * cos + v * sin, v * cos - u * sin, edge)
            else:
                trial = _clip(u + t * du, v + t * dv, r_lo, r_hi)
            model = _sheet_model(form, sheet, trial[0], trial[1])
            if model[0] < f:
                break
            t /= 2
        else:
            return u, v, steps, True
        u, v, edge = trial
        f, (fu, fv), (huu, huv, hvv) = model
    return u, v, budget, False


# Deterministic tie-breaking between indistinguishable minima: prefer
# smallest theta, then smallest |log2 zeta| (zeta = 1 wins over any squeeze).
# Candidates closer than this count as the same minimum: the landscape is
# exact to ~1e-14, and the grid best, the refined point and its snaps
# differ by far more than this unless they are one minimum.
_TIE_REL = 1e-6


def worst_case_qfi(
    cm,
    log2_zeta_range: tuple[float, float] = (-2.5, 2.5),
    zeta_grid: int = 41,
    theta_grid: int = 37,
    refine_budget: int = 200,
) -> WorstCaseResult:
    """Infimum of the QFI over the local Gaussian black boxes on mode A.

    Scans a coarse (log2 zeta) x theta grid, then refines the best point
    by at most refine_budget damped Newton steps on the sheet
    (u, v) = q (sin 2theta, cos 2theta), h = (sqrt(1 + u^2 + v^2), u, v),
    where the QFI is the quadratic form h^T P h and stays smooth through
    zeta = 1.  The search window maps to the annulus of sheet radii q that
    some log2 zeta in log2_zeta_range reaches, and the result maps back to
    that log2 zeta.  Reports the minimum with its argmin; ties within
    relative tolerance are broken toward theta = 0, then zeta = 1.
    at_boundary flags an argmin on the log2 zeta search edge, where the
    reported value is the boundary value (no extrapolation is attempted).
    Raises NumericalError if the QFI overflows anywhere on the grid.
    """
    sigma, _ = _require_physical(cm)
    lo, hi = log2_zeta_range
    log2z = np.linspace(lo, hi, zeta_grid)
    thetas = np.linspace(0.0, np.pi, theta_grid, endpoint=False)
    lz_mesh, th_mesh = np.meshgrid(log2z, thetas, indexing="ij")
    lz_flat, th_flat = lz_mesh.ravel(), th_mesh.ravel()
    form = _qfi_form(sigma)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        values = _qfi_at(form, 2.0**lz_flat, th_flat)
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"QFI overflowed on the grid of log2_zeta_range {log2_zeta_range}")

    best = np.lexsort((np.abs(lz_flat), th_flat, values))[0]
    grid_point = (float(lz_flat[best]), float(th_flat[best]))

    gram, t = np.array(form[0]), np.array(form[1])
    s_lo = 0.0 if lo <= 0 <= hi else min(abs(lo), abs(hi))
    r_lo, r_hi = math.sinh(_LN4 * s_lo), math.sinh(_LN4 * max(abs(lo), abs(hi)))
    q, angle = math.sinh(_LN4 * grid_point[0]), 2 * grid_point[1]
    u, v, steps, converged = _refine(form, (t.T @ gram @ t).tolist(), q * math.sin(angle),
                                     q * math.cos(angle), r_lo, r_hi, refine_budget)
    # Back to (log2 zeta, theta): +s, or the twin -s if that lies closer to the window.
    s, half = math.asinh(math.hypot(u, v)) / _LN4, math.atan2(u, v) / 2
    if max(lo + s, -s - hi, 0.0) < max(lo - s, s - hi, 0.0):
        s, half = -s, half + np.pi / 2
    refined = (min(max(s, lo), hi), half % np.pi)

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
    lz_c, th_c = np.array(sorted(candidates)).T
    scores = _qfi_at(form, 2.0**lz_c, th_c)
    v_min = float(scores.min())
    tie = scores <= v_min + _TIE_REL * max(1.0, v_min)
    pick = np.lexsort((np.abs(lz_c), th_c, ~tie))[0]
    lz_opt = float(lz_c[pick])

    return WorstCaseResult(
        value=max(v_min, 0.0),
        zeta_opt=float(2.0**lz_opt),
        theta_opt=float(th_c[pick]),
        at_boundary=bool(abs(lz_opt - lo) < 1e-9 or abs(lz_opt - hi) < 1e-9),
        refine_steps=steps,
        converged=converged,
    )
