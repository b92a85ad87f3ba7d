"""Black-box symplectic dynamics, Gaussian-state fidelity, and worst-case QFI.

The local black box on mode A is the one-parameter family
T(phi) = R(theta)^T S(zeta) R(phi) S(zeta) R(theta).  T(0) is not the
identity, but it is a fixed local symplectic independent of phi, so the
quantum Fisher information of the family is unaffected: the fidelity
between the phi and phi+eps outputs equals the fidelity between
sigma' = (S R_theta) sigma (S R_theta)^T and its plain rotation by eps.
The QFI is therefore that of sigma under one generator in sp(2) on mode A,
a quadratic form in its three coefficients on the basis G = [[0, -1], [1, 0]]
(which generates the phase rotation R(phi)), Z = diag(1, -1) and X = [[0, 1], [1, 0]].
The form is exact: Monras's phase-space QFI (arXiv:1303.3682), summed over
the symplectic eigenvalues of the state's Williamson decomposition, which
in standard form is plain 2x2 arithmetic.  worst_case_qfi minimises it
over every (zeta, theta), with no window: the minimum is the root of a
2x2 pencil in the standard form, so local squeezing of the input cannot
move it.  _qfi_form gives Q's four entries and that root from the standard form alone;
T (_generator_map) reads the mode-A frame alone, and only qfi and the argmin read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._lazy import np
from .exceptions import InvalidStateError, NumericalError
from .symplectic import CHECK_TOL, PURE_TOL, TIE_REL
from .symplectic import _entries, _mode_a_frame, _physical_nu, _require_physical, _sigma_of, _standard_frame

__all__ = [
    "WorstCaseResult",
    "fidelity",
    "qfi",
    "worst_case_qfi",
]

@dataclass(frozen=True)
class WorstCaseResult:
    """Minimum QFI over every local Gaussian black box on mode A, and its argmin.

    value is the global minimum.  (zeta_opt, theta_opt) is (1, 0) where the
    QFI there ties the minimum within TIE_REL, else the argmin's twin with
    theta_opt in [0, pi/2).
    """

    value: float
    zeta_opt: float
    theta_opt: float


def fidelity(cm1, cm2) -> float:
    """Uhlmann fidelity between two physical two-mode Gaussian states.

    Implements F = (s + sqrt(s^2 - Upsilon))/Upsilon with
    s = sqrt(Gamma) + sqrt(Lambda), where

        Gamma   = det(Omega s1 Omega s2 - I)/16
        Lambda  = lam1 * lam2 / 16        (lam = det(sigma + i Omega))
        Upsilon = det((s1 + s2)/2)

    lam = (nu-^2 - 1)(nu+^2 - 1) comes from the physicality check's spectra
    (symplectic._physical_nu), clamped at 0.

    For a pair of pure states Lambda = 0 and Gamma = Upsilon identically,
    so F reduces to 1/sqrt(Upsilon), which is evaluated directly instead
    of through the cancelling radicand s^2 - Upsilon.  The switch reads
    det sigma = (det L)**2 against PURE_TOL.  Left open on large pure states:
    Upsilon's rounding puts F(sigma, sigma) at 1 - 2.9e-9 for tmsv(3000), and
    tmsv(3e4)'s stepped c leaves det sigma - 1 = 2.4e-7, above PURE_TOL, so
    that pair takes the general form, where s^2 - Upsilon cancels below
    -CHECK_TOL and raises.

    Symmetric in its arguments, with F(sigma, sigma) = 1, and clamped at 1
    (Upsilon's rounding took tmsv(300)'s F(sigma, sigma) to 1 + 9.1e-13), so in [0, 1].
    Raises InvalidStateError for unphysical input and NumericalError if the
    main radicand is negative beyond CHECK_TOL or F is not finite.
    """
    from .symplectic import OMEGA  # built on first use

    def checked(cm):
        """(sigma, lam, det sigma) of one state, from one physicality check."""
        sigma = _sigma_of(cm)
        nu_minus, nu_plus, _, det_root = _physical_nu(_entries(sigma))
        return sigma, max((nu_minus * nu_minus - 1) * (nu_plus * nu_plus - 1), 0.0), det_root * det_root

    (s1, lam1, det1), (s2, lam2, det2) = checked(cm1), checked(cm2)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught below
        upsilon = np.linalg.det((s1 + s2) / 2)
        if abs(det1 - 1) < PURE_TOL and abs(det2 - 1) < PURE_TOL:
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
    return min(float(f), 1.0)


def _generator_map(frame) -> list:
    """T as a nested list: h0 = T h are the (G, Z, X) coefficients of F_A^-1 H F_A,
    H = p G + u Z + v X, h = (p, u, v).  T preserves J = diag(1, -1, -1): T^T J T = J.

    frame is symplectic._standard_frame's; F_A = (f00, f01, f10, f11) is built from it
    here (symplectic._mode_a_frame), once per T, so only qfi and worst_case_qfi take its angle.
    """
    f00, f01, f10, f11 = _mode_a_frame(*frame)
    # p G + u Z + v X = Omega_1^T S with S = [[p + v, -u], [-u, p - v]], and
    # F_A^-1 Omega_1^T S F_A = Omega_1^T F_A^T S F_A for a symplectic F_A:
    # column k of T is (p, u, v) of F_A^T S_k F_A, S_k = I, -X, Z for G, Z, X.
    n0, n1 = f00 * f00 + f10 * f10, f01 * f01 + f11 * f11
    z0, z1 = f00 * f00 - f10 * f10, f01 * f01 - f11 * f11
    e0, e1 = f00 * f10, f01 * f11
    return [[(n0 + n1) / 2, -(e0 + e1), (z0 + z1) / 2],
            [-(f00 * f01 + f10 * f11), f00 * f11 + f10 * f01, f10 * f11 - f00 * f01],
            [(n0 - n1) / 2, e1 - e0, (z0 - z1) / 2]]


def _qfi_form(standard) -> tuple:
    """(q_gg, q_gx, q_xx, q_zz, lam, p0, norm): Q's entries and the QFI's minimum on the sheet.

    The QFI at (zeta, theta) is h0^T Q h0, h0 = T h (_generator_map), with
    Q = [[q_gg, 0, q_gx], [0, q_zz, 0], [q_gx, 0, q_xx]] on (G, Z, X); its
    sheet minimum (lam, p0, norm) is the root of a 2x2 pencil in Q (below).

    The black box anchored at m = S(zeta) R(theta) rotates m sigma m^T,
    which is sigma itself moved by the generator H = m^-1 G m in sp(2);
    H = p G + u Z + v X with h = (p, u, v) as in _qfi_at.  The QFI is taken
    in the frame of the standard form s = F^-1 sigma F^-T, F = F_A (+) F_B,
    where the generator is F_A^-1 H F_A, with coefficients h0 = T h.  Q
    reads standard = (a, b, c, d) of symplectic._standard_frame(sigma)
    alone and T the frame F_A alone, so local squeezing of the input does
    not reach the arithmetic below.

    In (q_A, q_B, p_A, p_B) order s = sigma_q (+) sigma_p, sigma_q =
    [[a, c], [c, b]] and sigma_p = [[a, d], [d, b]], and its Williamson
    decomposition is plain 2x2 arithmetic: s = S (nu (+) nu) S^T with
    S = S_q (+) S_q^-T, S_q = L_q R(omega) diag(nu)^-1/2, L_q the Cholesky
    factor of sigma_q pivoted on the larger mode (the modes swapped where b > a,
    so e_A is then the second coordinate: pivoted on a, Q's entries grew as b/a
    and cancelled in lam), R(omega) the Jacobi rotation of W = L_q^T sigma_p L_q
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
    and G, X only beta and delta, so the Z row and column of Q are exactly 0
    off the diagonal.

    With J = diag(1, -1, -1), h^T J h = p^2 - u^2 - v^2 is the determinant
    of p G + u Z + v X, which conjugation preserves: T^T J T = J.  The QFI
    h^T P h, P = T^T Q T, is stationary on the sheet h^T J h = 1, h[0] > 0,
    where P h = lam J h, and there lam = h^T P h.  This is the pencil
    Q h0 = lam J h0, which the zero Z couplings make a 2x2 pencil on (G, X):
    lam = (Q_GG - Q_XX)/2 + root, root = sqrt(mean^2 - Q_GX^2), mean = (Q_GG + Q_XX)/2, and
    h0 = (p0, 0, v0) = (Q_XX + lam, 0, -Q_GX).  With Q >= 0 this, the largest
    eigenvalue, is the one whose eigenvector has h0^T J h0 > 0, so the sheet
    has one stationary point: the minimum.  Q_XX + lam = mean + root and
    norm = h0^T J h0 = 2 root (mean + root), so nothing cancels; root > 0
    in exact arithmetic because mean -+ Q_GX is the QFI of a shear G -+ X,
    which moves every state.  lam = Q_GG - Q_GX^2/(mean + root) reads Q alone,
    so it depends on the standard form only; worst_case_qfi maps the point
    h0/sqrt(norm) back by h = T^-1 h0 = J T^T J h0.
    """
    a, b, c, d = standard
    swap = b > a
    a, b = (b, a) if swap else (a, b)
    try:
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
        # R(omega), 2 omega = atan2(w01, half), by half-angle formulas: exact where w01 = 0
        if radius == 0:
            cos, sin = 1.0, 0.0
        elif half >= 0:
            cos = math.sqrt((1 + half / radius) / 2)
            sin = w01 / (2 * radius * cos)
        else:
            sin = math.copysign(math.sqrt((1 - half / radius) / 2), w01)
            cos = w01 / (2 * radius * sin)
        r0, r1 = math.sqrt(nu0), math.sqrt(nu1)
        if swap:
            x0, x1 = r0 * sin / l2, r1 * cos / l2
            y0, y1 = (cos * l1 + sin * l2) / r0, (cos * l2 - sin * l1) / r1
        else:
            x0, x1 = r0 * (cos - sin * l1 / l2) / l0, -r1 * (sin + cos * l1 / l2) / l0
            y0, y1 = l0 * cos / r0, -l0 * sin / r1
    except (ValueError, ZeroDivisionError) as error:  # sqrt of a negative, division by 0
        raise NumericalError(f"QFI form evaluation failed: {error}") from None
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
    if not (math.isfinite(qgg) and math.isfinite(qzz) and math.isfinite(qxx) and math.isfinite(qgx)):
        raise NumericalError("QFI form evaluation produced a non-finite value")
    mean = (qgg + qxx) / 2
    root = math.sqrt(max((mean - qgx) * (mean + qgx), 0.0))
    p0 = mean + root
    return qgg, qgx, qxx, qzz, qgg - qgx * (qgx / p0), p0, 2 * root * p0


def _qfi_at(form, zeta, theta):
    """h0^T Q h0 at (zeta, theta), by _form_at; zeta and theta broadcast as arrays.

    h = (p, q sin 2theta, q cos 2theta) holds the coefficients of m^-1 G m
    on (G, Z, X), with p = (zeta^2 + zeta^-2)/2 and q = (zeta^2 - zeta^-2)/2.
    """
    z2 = zeta * zeta
    p, q = (z2 + 1 / z2) / 2, (z2 - 1 / z2) / 2
    return _form_at(form, p, q * np.sin(2 * theta), q * np.cos(2 * theta))


def _form_at(form, p, u, v):
    """h0^T Q h0 with h0 = T (p, u, v), form = (_qfi_form's entries, T of _generator_map).

    Plain arithmetic, so it works on floats and on stacked arrays alike.
    """
    q_gg, q_gx, q_xx, q_zz = form[0][:4]
    (t00, t01, t02), (t10, t11, t12), (t20, t21, t22) = form[1]
    h0, h1, h2 = t00 * p + t01 * u + t02 * v, t10 * p + t11 * u + t12 * v, t20 * p + t21 * u + t22 * v
    return h0 * (q_gg * h0 + q_gx * h2) + h1 * (q_zz * h1) + h2 * (q_gx * h0 + q_xx * h2)


def qfi(cm, zeta, theta):
    """Quantum Fisher information of the black-box phase family at (zeta, theta).

    Defined as -2 d^2F/d_eps^2 at eps = 0 where F(eps) is the fidelity
    between the black-box outputs at phase 0 and phase eps; the base phase
    drops out because the family's unitaries commute.  Evaluated exactly
    from the phase-space form of _qfi_form and the map of _generator_map,
    both built once per call:
    zeta and theta broadcast against each other, and array input returns
    an array of values (a float for scalar input).  Every zeta must be
    finite and positive and every theta finite (InvalidStateError); raises
    NumericalError if a value overflows (zeta^4 times the form beyond the
    float range).
    """
    standard, frame = _standard_frame(_require_physical(cm))
    zeta, theta = np.asarray(zeta, dtype=float), np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(zeta) & (zeta > 0)):
        raise InvalidStateError(f"squeezing parameters must be finite and > 0, got {zeta}")
    if not np.all(np.isfinite(theta)):
        raise InvalidStateError(f"orientation angles must be finite, got {theta}")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        value = np.maximum(_qfi_at((_qfi_form(standard), _generator_map(frame)), zeta, theta), 0.0)
    if not np.all(np.isfinite(value)):
        raise NumericalError(f"QFI at zeta = {zeta} overflowed")
    return float(value) if value.ndim == 0 else value


# q = (zeta^2 - zeta^-2)/2 = sinh(_LN4 * log2 zeta): the sheet radius of zeta.
_LN4 = math.log(4.0)


def worst_case_qfi(cm) -> WorstCaseResult:
    """Minimum of the QFI over every local Gaussian black box on mode A, and its argmin.

    On the sheet (u, v) = q (sin 2theta, cos 2theta), h = (sqrt(1 + u^2 + v^2), u, v),
    the QFI is the quadratic form h^T P h and a twin pair (zeta, theta),
    (1/zeta, theta + pi/2) is one point.  The sheet's one stationary point,
    an eigenvector of a 2x2 pencil (_qfi_form), is its global
    minimum; of its twins the one with theta < pi/2 is reported, unless
    the QFI at zeta = 1 is within TIE_REL (relative) of the minimum, which
    is then reported as (1, 0); any other is mapped back through T.  Raises
    NumericalError if the QFI form overflows, or if that map meets a
    degenerate pencil (root 0: h0 on the light cone h0^T J h0 = 0).
    """
    standard, frame = _standard_frame(_require_physical(cm))
    form = _qfi_form(standard), _generator_map(frame)
    (_, q_gx, _, _, value, p0, norm), t = form
    # The QFI at zeta = 1, h = (1, 0, 0): where it overflows it is nan or inf and ties nothing.
    if _form_at(form, 1.0, 0.0, 0.0) <= value + TIE_REL * max(1.0, value):
        zeta, theta = 1.0, 0.0
    else:
        if not norm > 0:
            raise NumericalError(f"degenerate pencil: h0^T J h0 = {norm}, so the argmin is on the light cone")
        scale = math.sqrt(norm)
        u, v = ((t[2][i] * -q_gx - t[0][i] * p0) / scale for i in (1, 2))  # h0 = (p0, 0, -q_gx)
        s, half = math.asinh(math.hypot(u, v)) / _LN4, math.atan2(u, v) / 2
        lz, theta = min((s, half % math.pi), (-s, (half + math.pi / 2) % math.pi), key=lambda twin: twin[1])
        zeta = 2.0**lz
    return WorstCaseResult(value=max(value, 0.0), zeta_opt=zeta, theta_opt=theta)
