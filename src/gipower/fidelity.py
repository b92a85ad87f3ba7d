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
from scipy.optimize import minimize

from .exceptions import InvalidStateError, NumericalError
from .symplectic import CHECK_TOL, OMEGA, PURE_TOL, CovarianceMatrix
from .symplectic import _det, _require_physical, _sigma_of

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


def _unsqueeze(block) -> tuple[np.ndarray, np.ndarray]:
    """(L, L^-1) for a 2x2 covariance block = sqrt(det block) L L^T.

    L is the symmetric positive square root of block / sqrt(det block),
    a symplectic: (N + I)/sqrt(tr N + 2) for N of unit determinant.
    """
    (b00, b01), (_, b11) = block.tolist()
    scale = math.sqrt(b00 * b11 - b01 * b01)
    n00, n01, n11 = b00 / scale, b01 / scale, b11 / scale
    norm = math.sqrt(n00 + n11 + 2)
    l00, l01, l11 = (n00 + 1) / norm, n01 / norm, (n11 + 1) / norm
    return np.array([[l00, l01], [l01, l11]]), np.array([[l11, -l01], [-l01, l00]])


def _qfi_form(sigma) -> tuple[list, list]:
    """(Q, T) as nested lists: the QFI at (zeta, theta) is h0^T Q h0, h0 = T h.

    The black box anchored at m = S(zeta) R(theta) rotates m sigma m^T,
    which is sigma itself moved by the generator H = m^-1 G m in sp(2);
    H = p G + u Z + v X with h = (p, u, v) as in _qfi_at.  The QFI is taken
    in the local frame sigma0 = L^-1 sigma L^-T that makes both mode blocks
    multiples of the identity (L = L_A (+) L_B from _unsqueeze), so local
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
    l_a, l_a_inv = _unsqueeze(sigma[:2, :2])
    _, l_b_inv = _unsqueeze(sigma[2:, 2:])
    frame_inv = np.zeros((4, 4))
    frame_inv[:2, :2], frame_inv[2:, 2:] = l_a_inv, l_b_inv
    sigma0 = frame_inv @ sigma @ frame_inv.T
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


def _qfi_at(form, zeta, theta):
    """h0^T Q h0 at (zeta, theta); broadcasts over stacked zeta and theta.

    h = (p, q sin 2theta, q cos 2theta) holds the coefficients of m^-1 G m
    on (G, Z, X), with p = (zeta^2 + zeta^-2)/2 and q = (zeta^2 - zeta^-2)/2;
    h0 = T h carries them into the frame of _qfi_form.
    """
    gram, t = form
    z2 = np.square(zeta)
    p, q = (z2 + 1 / z2) / 2, (z2 - 1 / z2) / 2
    u, v = q * np.sin(2 * theta), q * np.cos(2 * theta)
    (t00, t01, t02), (t10, t11, t12), (t20, t21, t22) = t
    x = t00 * p + t01 * u + t02 * v
    y = t10 * p + t11 * u + t12 * v
    z = t20 * p + t21 * u + t22 * v
    (q00, q01, q02), (_, q11, q12), (_, _, q22) = gram
    return (q00 * x * x + q11 * y * y + q22 * z * z
            + 2 * (q01 * x * y + q02 * x * z + q12 * y * z))


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


# Deterministic tie-breaking between indistinguishable minima: prefer
# smallest theta, then smallest |log2 zeta| (zeta = 1 wins over any squeeze).
# Candidates closer than this count as the same minimum: the landscape is
# exact to ~1e-14, and Nelder-Mead stops within xatol of the argmin.
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

    def objective(x):
        lz = min(max(float(x[0]), lo), hi)
        return _qfi_at(form, 2.0**lz, float(x[1]) % np.pi)

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
    scored = [(float(_qfi_at(form, 2.0**lz, th)), float(th), abs(lz), float(lz))
              for lz, th in candidates]
    v_min = min(s[0] for s in scored)
    tie = [s for s in scored if s[0] <= v_min + _TIE_REL * max(1.0, v_min)]
    _, theta_opt, _, lz_opt = min(tie, key=lambda s: (s[1], s[2]))

    return WorstCaseResult(
        value=max(v_min, 0.0),
        zeta_opt=float(2.0**lz_opt),
        theta_opt=float(theta_opt),
        at_boundary=bool(abs(lz_opt - lo) < 1e-9 or abs(lz_opt - hi) < 1e-9),
    )
