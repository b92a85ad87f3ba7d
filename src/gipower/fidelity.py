"""Black-box symplectic dynamics, Gaussian-state fidelity, and worst-case QFI.

The local black box on mode A is the one-parameter family
T(phi) = R(theta)^T S(zeta) R(phi) S(zeta) R(theta).  T(0) is not the
identity, but it is a fixed local symplectic independent of phi, so the
quantum Fisher information of the family is unaffected: the fidelity
between the phi and phi+eps outputs equals the fidelity between
sigma' = (S R_theta) sigma (S R_theta)^T and its plain rotation by eps.
The QFI is therefore that of sigma under one generator in sp(2) on mode A,
a quadratic form in its three coefficients on the basis G = [[0, -1], [1, 0]]
(which generates rotation(phi)), Z = diag(1, -1) and X = [[0, 1], [1, 0]].
The form is exact: Monras's phase-space QFI (arXiv:1303.3682), summed over
the symplectic eigenvalues of the state's Williamson decomposition, which
in standard form is plain 2x2 arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidStateError, NumericalError
from .symplectic import CHECK_TOL, EDGE_TOL, OMEGA, PURE_TOL, TIE_REL, CovarianceMatrix
from .symplectic import _require_physical, _sigma_of, _standard_frame

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

    value is the minimum over the search window; (zeta_opt, theta_opt) is
    its canonical argmin, and at_boundary is True when that argmin lies on
    an edge of the window's log2 zeta range.
    """

    value: float
    zeta_opt: float
    theta_opt: float
    at_boundary: bool


def rotation(phi) -> np.ndarray:
    """Phase-space rotation [[cos, -sin], [sin, cos]]; accepts stacked input."""
    phi = np.asarray(phi, dtype=float)
    c, s = np.cos(phi), np.sin(phi)
    return np.moveaxis(np.array([[c, -s], [s, c]]), (0, 1), (-2, -1))


def squeeze(zeta) -> np.ndarray:
    """Squeezing transformation diag(zeta, 1/zeta); accepts stacked input."""
    zeta = np.asarray(zeta, dtype=float)
    if np.any(zeta <= 0) or not np.all(np.isfinite(zeta)):
        raise InvalidStateError("squeezing parameter must be positive and finite")
    zero = np.zeros_like(zeta)
    return np.moveaxis(np.array([[zeta, zero], [zero, 1.0 / zeta]]), (0, 1), (-2, -1))


def blackbox_symplectic(params: BlackBoxParams) -> np.ndarray:
    """2x2 symplectic R(theta)^T S(zeta) R(phi) S(zeta) R(theta)."""
    if not isinstance(params, BlackBoxParams):
        params = BlackBoxParams(*params)
    r_theta = rotation(params.theta)
    s = squeeze(params.zeta)
    return r_theta.T @ s @ rotation(params.phi) @ s @ r_theta


def apply_blackbox(cm, params: BlackBoxParams) -> CovarianceMatrix:
    """Transformed state (T (+) I) sigma (T (+) I)^T after the black box."""
    sigma = _sigma_of(cm)
    t = np.eye(4)
    t[:2, :2] = blackbox_symplectic(params)
    return CovarianceMatrix(t @ sigma @ t.T)


def fidelity(cm1, cm2) -> float:
    """Uhlmann fidelity between two physical two-mode Gaussian states.

    Implements F = (s + sqrt(s^2 - Upsilon))/Upsilon with
    s = sqrt(Gamma) + sqrt(Lambda), where

        Gamma   = det(Omega s1 Omega s2 - I)/16
        Lambda  = lam1 * lam2 / 16        (lam = det(sigma + i Omega))
        Upsilon = det((s1 + s2)/2)

    lam = (nu-^2 - 1)(nu+^2 - 1) comes from the gate's spectra, clamped at 0.

    For a pair of pure states Lambda = 0 and Gamma = Upsilon identically,
    so F reduces to 1/sqrt(Upsilon), which is evaluated directly instead
    of through the cancelling radicand s^2 - Upsilon.

    Symmetric in its arguments, bounded by [0, 1], with F(sigma, sigma) = 1.
    Raises InvalidStateError for unphysical input and NumericalError if the
    main radicand is negative beyond CHECK_TOL or F is not finite.
    """
    s1, g1 = _require_physical(cm1)
    s2, g2 = _require_physical(cm2)
    lam1, lam2 = (max((g.nu_minus * g.nu_minus - 1) * (g.nu_plus * g.nu_plus - 1), 0.0)
                  for g in (g1, g2))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught below
        upsilon = np.linalg.det((s1 + s2) / 2)
        if abs(g1.D - 1) < PURE_TOL and abs(g2.D - 1) < PURE_TOL:
            f = 1.0 / np.sqrt(upsilon)
        else:
            gamma = np.linalg.det(OMEGA @ s1 @ OMEGA @ s2 - np.eye(4)) / 16
            s = np.sqrt(max(gamma, 0.0)) + np.sqrt(lam1 * lam2 / 16)
            radicand = s * s - upsilon
            if radicand < -CHECK_TOL * max(1.0, s * s):
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
    in the frame of the standard form s = F^-1 sigma F^-T, F = F_A (+) F_B
    from symplectic._standard_frame, so local squeezing of the input does
    not reach the arithmetic below.  There the generator is F_A^-1 H F_A,
    with coefficients h0 = T h.

    In (q_A, q_B, p_A, p_B) order s = sigma_q (+) sigma_p, sigma_q =
    [[a, c], [c, b]] and sigma_p = [[a, d], [d, b]], and its Williamson
    decomposition is plain 2x2 arithmetic: s = S (nu (+) nu) S^T with
    S = S_q (+) S_q^-T, S_q = L_q R(omega) diag(nu)^-1/2, L_q the Cholesky
    factor of sigma_q, R(omega) the Jacobi rotation of W = L_q^T sigma_p L_q
    and nu^2 its eigenvalues.  With x = S_q^-1 e_A and y = S_q^T e_A the
    generators G, Z, X become P = S^-1 K S = (0, -x x^T; y y^T, 0),
    (x y^T, 0; 0, -y x^T) and (0, x x^T; y y^T, 0) in (q, p) blocks.  Each
    2x2 block (j, m) of P over the normal modes splits into a part
    alpha I + beta Omega_1 that commutes with Omega_1 and a part
    gamma Z + delta X that anticommutes, and the QFI of s under P is
    (Monras, arXiv:1303.3682; Safranek, Lee and Fuentes, NJP 17, 073016)

        sum_jm  w^c_jm (alpha^2 + beta^2) + w^a_jm (gamma^2 + delta^2),

    w^a = (nu_j + nu_m)^2/(nu_j nu_m + 1) and w^c = (nu_m - nu_j)^2/(nu_j nu_m - 1),
    the latter 0 for j = m.  Its denominator is written as
    (nu+ - nu-) + (nu- - 1)(nu+ + 1), with nu- - 1 clamped at 0 for states
    the gate admits just below nu- = 1, so w^c <= nu+ - nu- comes without
    cancellation and is 0 where nu- = nu+.  Z carries only alpha and gamma
    and G, X only beta and delta, so the Z row and column of Q are exactly 0.
    """
    (a, b, c, d), (f00, f01, f10, f11) = _standard_frame(sigma)
    # p G + u Z + v X = Omega_1^T S with S = [[p + v, -u], [-u, p - v]], and
    # F_A^-1 Omega_1^T S F_A = Omega_1^T F_A^T S F_A for a symplectic F_A:
    # column k of T is (p, u, v) of F_A^T S_k F_A, S_k = I, -X, Z for G, Z, X.
    n0, n1 = f00 * f00 + f10 * f10, f01 * f01 + f11 * f11
    z0, z1 = f00 * f00 - f10 * f10, f01 * f01 - f11 * f11
    e0, e1 = f00 * f10, f01 * f11
    t = [[(n0 + n1) / 2, -(e0 + e1), (z0 + z1) / 2],
         [-(f00 * f01 + f10 * f11), f00 * f11 + f10 * f01, f10 * f11 - f00 * f01],
         [(n0 - n1) / 2, e1 - e0, (z0 - z1) / 2]]
    # L_q = [[l0, 0], [l1, l2]] and W = L_q^T sigma_p L_q
    l0 = math.sqrt(a)
    l1 = c / l0
    l2 = math.sqrt(b - l1 * l1)
    k = d * l0 + b * l1
    w00, w01, w11 = l0 * (a * l0 + d * l1) + l1 * k, l2 * k, b * l2 * l2
    half, mean = (w00 - w11) / 2, (w00 + w11) / 2
    radius = math.hypot(half, w01)
    # nu+ nu- = sqrt(det W) = a l2 m2, with m2 the second pivot of sigma_p:
    # mean - radius loses ~eps nu+^2 to cancellation.
    nu0 = math.sqrt(mean + radius)
    m1 = d / l0
    nu1 = a * l2 * math.sqrt(b - m1 * m1) / nu0
    omega = math.atan2(w01, half) / 2
    cos, sin = math.cos(omega), math.sin(omega)
    r0, r1 = math.sqrt(nu0), math.sqrt(nu1)
    x0, x1 = r0 * (cos - sin * l1 / l2) / l0, -r1 * (sin + cos * l1 / l2) / l0
    y0, y1 = l0 * cos / r0, -l0 * sin / r1
    # beta and delta of G are -(s, t), of X (t, s); alpha and gamma of Z
    s00, s11, s01 = (x0 * x0 + y0 * y0) / 2, (x1 * x1 + y1 * y1) / 2, (x0 * x1 + y0 * y1) / 2
    t00, t11, t01 = (x0 * x0 - y0 * y0) / 2, (x1 * x1 - y1 * y1) / 2, (x0 * x1 - y0 * y1) / 2
    g00, g11, a01, g01 = x0 * y0, x1 * y1, (x0 * y1 - y0 * x1) / 2, (x0 * y1 + y0 * x1) / 2
    wa00, wa11 = 4 * nu0 * nu0 / (nu0 * nu0 + 1), 4 * nu1 * nu1 / (nu1 * nu1 + 1)
    wa01 = (nu0 + nu1) * (nu0 + nu1) / (nu0 * nu1 + 1)
    gap = nu0 - nu1
    wc01 = gap * gap / (gap + max(nu1 - 1, 0.0) * (nu0 + 1)) if gap > 0 else 0.0
    qgg = wa00 * t00 * t00 + wa11 * t11 * t11 + 2 * (wc01 * s01 * s01 + wa01 * t01 * t01)
    qxx = wa00 * s00 * s00 + wa11 * s11 * s11 + 2 * (wc01 * t01 * t01 + wa01 * s01 * s01)
    qgx = -(wa00 * s00 * t00 + wa11 * s11 * t11 + 2 * (wc01 + wa01) * s01 * t01)
    qzz = wa00 * g00 * g00 + wa11 * g11 * g11 + 2 * (wc01 * a01 * a01 + wa01 * g01 * g01)
    form = [[qgg, 0.0, qgx], [0.0, qzz, 0.0], [qgx, 0.0, qxx]]
    if not all(map(math.isfinite, (qgg, qzz, qxx, qgx))):
        raise NumericalError("QFI form evaluation produced a non-finite value")
    return form, t


def _qfi_at(form, zeta, theta):
    """h0^T Q h0 at (zeta, theta), by _form_at: math on floats, numpy on arrays.

    h = (p, q sin 2theta, q cos 2theta) holds the coefficients of m^-1 G m
    on (G, Z, X), with p = (zeta^2 + zeta^-2)/2 and q = (zeta^2 - zeta^-2)/2.
    A float theta takes math.sin and math.cos, so the oracle's few scalar
    points make no numpy call; stacked input broadcasts through np.sin and np.cos.
    """
    trig = math if isinstance(theta, float) else np
    z2 = zeta * zeta
    p, q = (z2 + 1 / z2) / 2, (z2 - 1 / z2) / 2
    return _form_at(form, p, q * trig.sin(2 * theta), q * trig.cos(2 * theta))


def _form_at(form, p, u, v):
    """h0^T Q h0 with h0 = T (p, u, v), the form of _qfi_form.

    Plain arithmetic, so it works on floats and on stacked arrays alike.
    """
    (q00, q01, q02), (q10, q11, q12), (q20, q21, q22) = form[0]
    (t00, t01, t02), (t10, t11, t12), (t20, t21, t22) = form[1]
    h0, h1, h2 = t00 * p + t01 * u + t02 * v, t10 * p + t11 * u + t12 * v, t20 * p + t21 * u + t22 * v
    return (h0 * (q00 * h0 + q01 * h1 + q02 * h2) + h1 * (q10 * h0 + q11 * h1 + q12 * h2)
            + h2 * (q20 * h0 + q21 * h1 + q22 * h2))


def qfi(cm, zeta, theta):
    """Quantum Fisher information of the black-box phase family at (zeta, theta).

    Defined as -2 d^2F/d_eps^2 at eps = 0 where F(eps) is the fidelity
    between the black-box outputs at phase 0 and phase eps; the base phase
    drops out because the family's unitaries commute.  Evaluated exactly
    from the phase-space form of _qfi_form, which is built once per call:
    zeta and theta broadcast against each other, and array input returns
    an array of values (a float for scalar input).  Every zeta must be
    finite and positive and every theta finite (InvalidStateError); raises
    NumericalError if a value overflows (zeta^4 times the form beyond the
    float range).
    """
    sigma, _ = _require_physical(cm)
    zeta, theta = np.asarray(zeta, dtype=float), np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(zeta) & (zeta > 0)):
        raise InvalidStateError(f"squeezing parameters must be finite and > 0, got {zeta}")
    if not np.all(np.isfinite(theta)):
        raise InvalidStateError(f"orientation angles must be finite, got {theta}")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        value = np.maximum(_qfi_at(_qfi_form(sigma), zeta, theta), 0.0)
    if not np.all(np.isfinite(value)):
        raise NumericalError(f"QFI at zeta = {zeta} overflowed")
    return float(value) if value.ndim == 0 else value


# q = (zeta^2 - zeta^-2)/2 = sinh(_LN4 * log2 zeta): the sheet radius of zeta.
_LN4 = math.log(4.0)
#: Default log2 zeta window of worst_case_qfi and power.cross_validate.
WINDOW = (-2.5, 2.5)


def _sheet_minimum(form):
    """(u, v) of the minimum of the QFI over the whole sheet h^T J h = 1, h[0] > 0.

    With J = diag(1, -1, -1), h^T J h = p^2 - u^2 - v^2 is the determinant
    of p G + u Z + v X, which conjugation preserves: T^T J T = J.  The QFI
    h^T P h, P = T^T Q T, is stationary on the sheet where P h = lam J h,
    and there lam = h^T P h.  This is the pencil Q h0 = lam J h0 in the
    frame of _qfi_form, where the Z row and column of Q vanish, so it is
    the 2x2 pencil on (G, X): lam = (Q_GG - Q_XX)/2 + root with
    root = sqrt(mean^2 - Q_GX^2), mean = (Q_GG + Q_XX)/2, and
    h0 = (Q_XX + lam, 0, -Q_GX).  With Q >= 0 this, the largest eigenvalue,
    is the one whose eigenvector has h0^T J h0 > 0, so the sheet has one
    stationary point: the minimum.  Q_XX + lam = mean + root and
    h0^T J h0 = 2 root (mean + root), so nothing cancels; root > 0 because
    mean -+ Q_GX is the QFI of a shear G -+ X, which moves every state.  It
    maps back by h = T^-1 h0 = J T^T J h0.
    """
    ((q_gg, _, q_gx), _, (_, _, q_xx)), t = form
    mean = (q_gg + q_xx) / 2
    root = math.sqrt(max((mean - q_gx) * (mean + q_gx), 0.0))
    p0, v0 = mean + root, -q_gx
    scale = math.sqrt(2 * root * p0)
    return tuple((t[2][i] * v0 - t[0][i] * p0) / scale for i in (1, 2))


def _circle_angles(sheet, r):
    """Polar angles a of the stationary points of h^T P h on the circle (u, v) = r (sin a, cos a).

    With p = sqrt(1 + r^2) the QFI there is the trigonometric polynomial
    c0 + a1 cos a + b1 sin a + a2 cos 2a + b2 sin 2a, and 2 z^2 f'(a) is a
    quartic in z = e^{ia}.  Its unit-modulus roots are the stationary
    angles.  The angles of all its roots are returned, and 0, which is
    stationary where the quartic vanishes (r = 0): any extra angle is just
    another point of the circle.  Raises NumericalError where the
    polynomial's coefficients, of order r^2 times the form, overflow.
    """
    (_, p01, p02), (_, p11, p12), (_, _, p22) = sheet
    pr, r2 = 2 * math.sqrt(1 + r * r) * r, r * r
    a1, b1, a2, b2 = pr * p02, pr * p01, r2 * (p22 - p11) / 2, r2 * p12
    if not all(map(math.isfinite, (a1, b1, a2, b2))):
        raise NumericalError(f"QFI overflows on the edge circle of sheet radius {r}")
    roots = np.roots([2 * (b2 + 1j * a2), b1 + 1j * a1, 0, b1 - 1j * a1, 2 * (b2 - 1j * a2)])
    return np.append(np.angle(roots), 0.0).tolist()


def _in_window(u, v, lo, hi):
    """(log2 zeta, theta) of the sheet point (u, v), clipped to the window.

    Of the twins (s, theta) and (-s, theta + pi/2) it takes the one that
    lies in or nearest to the window, the one with the smaller theta if
    both lie in it.
    """
    s, half = math.asinh(math.hypot(u, v)) / _LN4, math.atan2(u, v) / 2
    twins = ((s, half % math.pi), (-s, (half + math.pi / 2) % math.pi))
    lz, theta = min(twins, key=lambda twin: (max(lo - twin[0], twin[0] - hi, 0.0), twin[1]))
    return min(max(lz, lo), hi), theta


def worst_case_qfi(cm, log2_zeta_range: tuple[float, float] = WINDOW) -> WorstCaseResult:
    """Infimum of the QFI over the local Gaussian black boxes on mode A.

    On the sheet (u, v) = q (sin 2theta, cos 2theta), h = (sqrt(1 + u^2 + v^2), u, v),
    the QFI is the quadratic form h^T P h and a twin pair (zeta, theta),
    (1/zeta, theta + pi/2) is one point.  The search window maps to the
    annulus of sheet radii q that some log2 zeta in log2_zeta_range reaches.
    The sheet's one stationary point, an eigenvector of a 3x3 pencil
    (_sheet_minimum), is the minimum if it lies in the annulus; otherwise
    the minimum lies on an edge circle, at a root of one quartic per circle
    (_circle_angles), and is reported with its boundary value (no
    extrapolation is attempted).  The point maps back to (log2 zeta, theta)
    by _in_window.  Ties within TIE_REL (relative) are broken toward
    theta = 0, then zeta = 1.  at_boundary flags an argmin on an edge of
    the log2 zeta range.  Raises InvalidStateError unless both ends of the
    window are finite and lo <= hi, and NumericalError if the edge radius
    or the QFI there overflows.
    """
    sigma, _ = _require_physical(cm)
    lo, hi = log2_zeta_range
    return _worst_case(sigma, lo, hi)


def _worst_case(sigma, lo, hi) -> WorstCaseResult:
    """worst_case_qfi on a sigma that has passed the physicality gate.

    Reads sigma only, never the gate's record, so power.cross_validate can
    share one gate between the closed form and this oracle.  Everything
    below is scalar: math and float arithmetic, no numpy call off the edge
    path.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise InvalidStateError(f"log2_zeta_range must be finite with lo <= hi, got {(lo, hi)}")
    s_lo = 0.0 if lo <= 0 <= hi else min(abs(lo), abs(hi))
    try:
        r_lo, r_hi = math.sinh(_LN4 * s_lo), math.sinh(_LN4 * max(abs(lo), abs(hi)))
    except OverflowError:
        raise NumericalError(f"QFI overflows on the edge of log2_zeta_range {(lo, hi)}") from None
    # |lz| <= 513 from here on, so 2.0**lz below stays finite.
    form = _qfi_form(sigma)
    u, v = _sheet_minimum(form)
    if r_lo <= math.hypot(u, v) <= r_hi:
        points = [(u, v)]
    else:
        t = np.array(form[1])
        sheet = (t.T @ np.array(form[0]) @ t).tolist()
        radii = (r_lo, r_hi) if r_lo > 0 else (r_hi,)
        points = [(r * math.sin(a), r * math.cos(a)) for r in radii for a in _circle_angles(sheet, r)]
    labels = [_in_window(u, v, lo, hi) for u, v in points]
    values = [_qfi_at(form, 2.0**lz, theta) for lz, theta in labels]
    k = values.index(min(values))
    lz_k = labels[k][0]
    # The minimum, then the canonical points of the tie rule: theta = 0 at
    # its log2 zeta and at the negative, and zeta = 1, where the window holds them.
    scored = [(values[k], labels[k][1], lz_k)] + [
        (_qfi_at(form, 2.0**lz, 0.0), 0.0, lz) for lz in (lz_k, -lz_k, 0.0) if lo <= lz <= hi]
    if not all(map(math.isfinite, values + [value for value, _, _ in scored])):
        raise NumericalError(f"QFI overflowed on the edge of log2_zeta_range {(lo, hi)}")
    v_min = min(value for value, _, _ in scored)
    _, theta_opt, lz_opt = min((s for s in scored if s[0] <= v_min + TIE_REL * max(1.0, v_min)),
                               key=lambda s: (s[1], abs(s[2])))

    return WorstCaseResult(
        value=max(v_min, 0.0),
        zeta_opt=2.0**lz_opt,
        theta_opt=theta_opt,
        at_boundary=abs(lz_opt - lo) < EDGE_TOL or abs(lz_opt - hi) < EDGE_TOL,
    )
