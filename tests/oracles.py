"""Independent reference computations used to pin expected test values.

Nothing here shares code with the library paths under test: fidelity goes
through truncated Fock-basis density matrices, symplectic eigenvalues
through the spectrum of i*Omega*sigma, local invariants through LU
determinants, the closed form through exact rational invariants, and the
QFI through a high-precision second difference of the Uhlmann fidelity.
The worst-case QFI has a brute-force route too: a dense grid of the
library's own qfi values, which knows nothing of the oracle's theory.
The QFI form has a matrix route: the pseudo-inverse of the 16x16
sigma (x) sigma - Omega (x) Omega, as the library built it before its
Williamson decomposition became plain arithmetic.
The random-state sampler has a scalar route: one validated draw at a
time through rng.uniform, as the library drew before its draws were
batched.
The local black box and the state maps the tests move states by (partial
transposition, mode swap, loss on mode B, random local symplectics) are
explicit 4x4 congruences in numpy, which no library path builds.
"""

import math
from fractions import Fraction
from typing import NamedTuple

import mpmath
import numpy as np

import gipower.families as families
from gipower import (
    CovarianceMatrix,
    SampleRecord,
    StandardForm,
    from_standard_form,
    gip_from_standard_form,
    is_separable,
    log_negativity,
    mean_photon_A,
    pt_min_symplectic_eigenvalue,
    qfi,
    validate_bona_fide,
)
from gipower.exceptions import InvalidStateError, NumericalError
from gipower.symplectic import OMEGA


class BlackBoxParams(NamedTuple):
    """Parameters (phi, zeta, theta) of the local Gaussian black box; zeta > 0."""

    phi: float
    zeta: float
    theta: float


def rotation(phi) -> np.ndarray:
    """Phase-space rotation [[cos, -sin], [sin, cos]]."""
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s], [s, c]])


def squeeze(zeta) -> np.ndarray:
    """Squeezing transformation diag(zeta, 1/zeta)."""
    return np.diag([zeta, 1.0 / zeta])


def blackbox_symplectic(params) -> np.ndarray:
    """2x2 symplectic R(theta)^T S(zeta) R(phi) S(zeta) R(theta) of params = (phi, zeta, theta)."""
    phi, zeta, theta = params
    r_theta, s = rotation(theta), squeeze(zeta)
    return r_theta.T @ s @ rotation(phi) @ s @ r_theta


def _sigma(cm) -> np.ndarray:
    """sigma of a CovarianceMatrix, or a 4x4 array-like as an array."""
    return cm.sigma if isinstance(cm, CovarianceMatrix) else np.asarray(cm, dtype=float)


def apply_blackbox(cm, params) -> CovarianceMatrix:
    """Transformed state (T (+) I) sigma (T (+) I)^T after the black box."""
    t = np.eye(4)
    t[:2, :2] = blackbox_symplectic(params)
    return CovarianceMatrix(t @ _sigma(cm) @ t.T)


def partial_transpose_B(cm) -> CovarianceMatrix:
    """Momentum flip on mode B: P sigma P with P = diag(1, 1, 1, -1)."""
    p = np.diag([1.0, 1.0, 1.0, -1.0])
    return CovarianceMatrix(p @ _sigma(cm) @ p)


def swap_modes(cm) -> CovarianceMatrix:
    """Exchange modes A and B (congruence by the swap permutation)."""
    swap = np.eye(4)[[2, 3, 0, 1]]  # (q_A, p_A, q_B, p_B) -> (q_B, p_B, q_A, p_A)
    return CovarianceMatrix(swap @ _sigma(cm) @ swap.T)


def apply_loss_B(cm, eta: float) -> CovarianceMatrix:
    """Pure-loss channel of transmissivity eta in (0, 1] on mode B:
    sigma -> X sigma X^T + Y, X = I (+) sqrt(eta) I and Y = 0 (+) (1 - eta) I."""
    x = np.diag([1.0, 1.0, np.sqrt(eta), np.sqrt(eta)])
    y = np.diag([0.0, 0.0, 1 - eta, 1 - eta])
    return CovarianceMatrix(x @ _sigma(cm) @ x.T + y)


def random_local_symplectic(rng: np.random.Generator) -> np.ndarray:
    """Random single-mode symplectic R(psi) S(zeta) R(theta) (Euler form).

    psi and theta are uniform on [0, 2*pi); log2(zeta) is uniform on [-1, 1].
    """
    psi, theta = rng.uniform(0.0, 2 * np.pi, size=2)
    zeta = 2.0 ** rng.uniform(-1.0, 1.0)
    return rotation(psi) @ squeeze(zeta) @ rotation(theta)


def thermal_fock_populations(n_bar: float, dim: int) -> np.ndarray:
    """Photon-number populations of a single-mode thermal state, truncated."""
    n = np.arange(dim)
    return n_bar**n / (n_bar + 1) ** (n + 1)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Square root of a symmetric PSD matrix via eigh; rounding-negative
    eigenvalues are clipped to zero, so rank-deficient input is fine."""
    lam, vec = np.linalg.eigh(m)
    return (vec * np.sqrt(np.clip(lam, 0.0, None))) @ vec.T


def fock_fidelity(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2 of density matrices."""
    sqrt1 = _psd_sqrt(rho1)
    inner = _psd_sqrt(sqrt1 @ rho2 @ sqrt1)
    return float(np.trace(inner) ** 2)


def thermal_vs_vacuum_fidelity(n_bar: float, dim: int = 40) -> float:
    """Fock-basis fidelity between thermal(n_bar) x vacuum and vacuum x vacuum.

    Both states are products, so the two-mode fidelity factorizes into
    single-mode fidelities, each evaluated on dim x dim truncated matrices.
    """
    vac = np.zeros((dim, dim))
    vac[0, 0] = 1.0
    thermal = np.diag(thermal_fock_populations(n_bar, dim))
    return fock_fidelity(thermal, vac) * fock_fidelity(vac, vac)


def symplectic_spectrum_from_eigs(sigma: np.ndarray) -> tuple[float, float]:
    """Symplectic eigenvalues as |spec(i Omega sigma)|, sorted ascending."""
    eigs = np.abs(np.linalg.eigvals(1j * OMEGA @ sigma))
    eigs.sort()
    return float(eigs[0]), float(eigs[-1])


def block_determinants_det(sigma: np.ndarray) -> tuple[float, float, float, float]:
    """Local invariants (A, B, C, D) as np.linalg.det of the blocks and of sigma."""
    sigma = np.asarray(sigma, dtype=float)
    blocks = (sigma[:2, :2], sigma[2:, 2:], sigma[:2, 2:], sigma)
    return tuple(float(np.linalg.det(m)) for m in blocks)


def _det_exact(m: list) -> Fraction:
    """Exact determinant of a square matrix of Fractions by cofactor expansion."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det_exact([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def closed_form_mp(sigma: np.ndarray) -> float:
    """Interferometric power (X + sqrt(X^2 + YZ))/(2Y) to 50 digits.

    A, B, C, D and X, Y, Z are exact rationals of sigma's binary entries;
    only the square root and the final division round, in mpmath.
    """
    m = [[Fraction(float(x)) for x in row] for row in np.asarray(sigma)]
    A = _det_exact([row[:2] for row in m[:2]])
    B = _det_exact([row[2:] for row in m[2:]])
    C = _det_exact([row[2:] for row in m[:2]])
    D = _det_exact(m)
    X = (A + C) * (1 + B + C - D) - D * D
    Y = (D - 1) * (1 + A + B + 2 * C + D)
    Z = (A + D) * (A * B - D) + C * (2 * A + C) * (1 + B)
    with mpmath.workdps(50):
        def mp(q):
            return mpmath.mpf(q.numerator) / q.denominator

        return float((mp(X) + mpmath.sqrt(mp(X * X + Y * Z))) / (2 * mp(Y)))


def _isqrt_scaled(n: int) -> tuple[int, int]:
    """(r, k) with r = isqrt(n 4^k) of at least 120 bits: r / 2^k is sqrt(n) within 2^-120, relatively."""
    k = max(0, (240 - n.bit_length()) // 2 + 1)
    return math.isqrt(n << 2 * k), k


def _standard_ints(a: float, b: float, c: float, d: float):
    """(s, D s^4, Delta s^2, Delta~ s^2) of the standard form, exact ints; None unless sigma > 0.

    Every entry is a multiple of 1/s for a power of two s; D = (ab - c^2)(ab - d^2),
    Delta = a^2 + b^2 + 2cd for sigma and Delta~ = a^2 + b^2 - 2cd for its partial transpose.
    """
    ratios = [float(x).as_integer_ratio() for x in (a, b, c, d)]
    s = max(den for _, den in ratios)
    a, b, c, d = (num * (s // den) for num, den in ratios)
    p, q = a * b - c * c, a * b - d * d
    if not (a > 0 and p > 0 and q > 0):
        return None
    return s, p * q, a * a + b * b + 2 * c * d, a * a + b * b - 2 * c * d


def standard_nu_mp(a: float, b: float, c: float, d: float) -> tuple[float, float]:
    """(nu-, nu~) of the standard form (a, b, c, d) to ~2^-119, correctly rounded, 0 where sigma is not > 0.

    From the invariants alone, exact in integers (_standard_ints): nu-^2 is the smaller
    root of x^2 - Delta x + D, 2D/(Delta + sqrt(Delta^2 - 4D)), which does not cancel.
    Both square roots are math.isqrt's, scaled to 120 bits or more (_isqrt_scaled), and
    the last step is one integer division, which Python rounds correctly.  standard_nu_50
    takes the same roots in 50-digit mpmath, at ~4x the cost.
    """
    ints = _standard_ints(a, b, c, d)
    if ints is None:
        return 0.0, 0.0
    s, det, *deltas = ints

    def nu_minus(delta):
        root, k = _isqrt_scaled(delta * delta - 4 * det)
        num, den = (2 * det) << k, (delta << k) + root  # nu-^2 s^2 = num/den
        r, j = _isqrt_scaled(num * den)  # nu- s = sqrt(num den)/den
        return r / ((den * s) << j)

    return nu_minus(deltas[0]), nu_minus(deltas[1])


def standard_nu_50(a: float, b: float, c: float, d: float) -> tuple[float, float]:
    """standard_nu_mp with both square roots taken in 50-digit mpmath: its check."""
    ints = _standard_ints(a, b, c, d)
    if ints is None:
        return 0.0, 0.0
    s, det, *deltas = ints

    def nu_minus(delta):
        with mpmath.workdps(50):
            root = mpmath.sqrt(mpmath.mpf(delta * delta - 4 * det))
            return float(mpmath.sqrt(2 * mpmath.mpf(det) / (delta + root)) / s)

    return nu_minus(deltas[0]), nu_minus(deltas[1])


_OMEGA_MP = mpmath.matrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])


def _fidelity_mp(s1, s2, pure: bool):
    """Uhlmann fidelity of two-mode Gaussian states (vacuum = identity), in mpmath.

    F = (s + sqrt(s^2 - U))/U with s = sqrt(G) + sqrt(L), G = det(W s1 W s2 - I)/16,
    L = det(s1 + iW) det(s2 + iW)/16 and U = det((s1 + s2)/2), W the symplectic
    form (Marian and Marian, PRA 86, 022340, 2012).  For two pure states L = 0
    and G = U, so F = 1/sqrt(U).
    """
    upsilon = mpmath.det((s1 + s2) / 2)
    if pure:
        return 1 / mpmath.sqrt(upsilon)
    w = _OMEGA_MP
    gamma = mpmath.det(w * s1 * w * s2 - mpmath.eye(4)) / 16
    lam = (mpmath.det(s1 + 1j * w) * mpmath.det(s2 + 1j * w)).real / 16
    s = mpmath.sqrt(gamma) + mpmath.sqrt(max(lam, 0))
    return (s + mpmath.sqrt(max(s * s - upsilon, 0))) / upsilon


def qfi_mp(sigma: np.ndarray, zeta: float, theta: float) -> float:
    """QFI of the mode-A black box at (zeta, theta): -2 F''(0) to 60 digits.

    sigma' = m sigma m^T with m = diag(zeta, 1/zeta) R(theta) on mode A is
    compared with its rotation by +-eps, eps = 1e-12, and the symmetric
    second difference -2 (F(eps) + F(-eps) - 2 F(0))/eps^2 is returned.
    F(0) rather than 1 cancels the rounding of sigma's float entries.
    States with |det sigma - 1| < 1e-13 take the pure-state fidelity.

    60 digits, not 40: on a near-pure state (det sigma = 1 + delta) the
    radicand s^2 - U is about delta^2/4, so a rounding error of 10^-dps in
    it moves F by about 10^-dps/delta, against a second difference of order
    eps^2 = 1e-24.  At delta = 1e-12 a 40-digit result is off by ~2e-5;
    60 and 80 digits agree to the last float digit.
    """
    with mpmath.workdps(60):
        eps = mpmath.mpf("1e-12")
        z, th = mpmath.mpf(float(zeta)), mpmath.mpf(float(theta))

        def rot(t):
            c, s = mpmath.cos(t), mpmath.sin(t)
            return mpmath.matrix([[c, -s, 0, 0], [s, c, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])

        exact = mpmath.matrix([[mpmath.mpf(float(x)) for x in row] for row in np.asarray(sigma)])
        pure = abs(mpmath.det(exact) - 1) < mpmath.mpf("1e-13")
        m = mpmath.diag([z, 1 / z, 1, 1]) * rot(th)
        s0 = m * exact * m.T

        def f(t):
            return _fidelity_mp(s0, rot(t) * s0 * rot(t).T, pure)

        return float(-2 * (f(eps) + f(-eps) - 2 * f(0)) / eps**2)


def qfi_grid_minimum(cm, log2_zeta_range, n_zeta: int = 201, n_theta: int = 180):
    """(best, resolution): the least qfi on a (log2 zeta, theta) grid, and how far it may sit above the minimum.

    The log2 zeta axis includes both window edges; theta covers its period
    pi.  Near a smooth minimum between grid points, along one axis, the best
    point lies above the minimum by at most a quarter of its rise to the
    farther neighbour; resolution is the largest rise to a neighbour, whole.
    """
    lo, hi = log2_zeta_range
    lz = np.linspace(lo, hi, n_zeta)
    theta = np.linspace(0.0, np.pi, n_theta, endpoint=False)
    values = qfi(cm, 2.0 ** lz[:, None], theta[None, :])
    i, j = np.unravel_index(values.argmin(), values.shape)
    neighbours = [values[i, (j + 1) % n_theta], values[i, j - 1]]
    neighbours += [values[k, j] for k in (i - 1, i + 1) if 0 <= k < n_zeta]
    return float(values[i, j]), float(max(neighbours) - values[i, j])


def _draw_scalar(rng, a_max, b_max) -> tuple[StandardForm, CovarianceMatrix]:
    """(sf, its matrix) of random_state_scalar's state: each draw's matrix is built once."""
    if not (a_max >= 1 and b_max >= 1 and np.isfinite(a_max * a_max * b_max * b_max)):
        raise InvalidStateError(f"need a_max, b_max >= 1, a_max^2 b_max^2 finite: {a_max}, {b_max}")
    for _ in range(families.MAX_DRAWS):
        a = rng.uniform(1.0, a_max)
        b = rng.uniform(1.0, b_max)
        c_max = ((a * a - 1) * (b * b - 1)) ** 0.25
        c = rng.uniform(0.0, c_max)
        d = rng.uniform(-c, c)
        sf = StandardForm(a, b, c, d)
        cm = from_standard_form(sf)
        if validate_bona_fide(cm).physical:
            return sf, cm
    raise InvalidStateError(f"no physical state in {families.MAX_DRAWS} draws")


def random_state_scalar(rng, a_max=5.0, b_max=5.0) -> StandardForm:
    """families.random_state as it drew before batching: four rng.uniform calls per draw.

    Reads the budget families.MAX_DRAWS at call time, as the library does.
    """
    return _draw_scalar(rng, a_max, b_max)[0]


def _record_from(sf: StandardForm, cm: CovarianceMatrix) -> SampleRecord:
    return SampleRecord(
        sf=sf,
        n_bar_A=mean_photon_A(cm),
        e_n=log_negativity(cm),
        p_g=gip_from_standard_form(sf).value,
        separable=is_separable(cm),
        nu_tilde=pt_min_symplectic_eigenvalue(cm),
    )


def sample_records_scalar(seed, n, a_max, b_max, entangled_only):
    """families._sample_records before batching: one validated draw at a time.

    Record i draws from the i-th child stream numpy's default_rng(seed).spawn(n)
    gives, at most MAX_DRAWS times; a draw is tested before its record is built.
    """
    if n < 1:
        raise InvalidStateError(f"sample count must be >= 1, got {n}")

    def make(stream) -> SampleRecord:
        for _ in range(families.MAX_DRAWS):
            sf, cm = _draw_scalar(stream, a_max, b_max)
            if not entangled_only or not is_separable(cm):
                return _record_from(sf, cm)
        raise InvalidStateError(
            f"no entangled state in {families.MAX_DRAWS} draws; raise a_max or b_max")

    records = [make(stream) for stream in np.random.default_rng(seed).spawn(n)]
    records.sort(key=lambda r: (r.sf.a, r.sf.b, r.sf.c, r.sf.d))
    return records


_OMEGA_KRON = np.kron(OMEGA, OMEGA)
# Basis (G, Z, X) of sp(2) on mode A, zero on mode B: G = [[0, -1], [1, 0]]
# generates rotation(phi); Z = diag(1, -1) and X = [[0, 1], [1, 0]] squeeze.
_GENERATORS = np.zeros((3, 4, 4))
_GENERATORS[:, :2, :2] = [[[0, -1], [1, 0]], [[1, 0], [0, -1]], [[0, 1], [1, 0]]]
# Eigenvalues of sigma (x) sigma - Omega (x) Omega below this fraction of
# the largest are rounding noise on exactly-null directions (numpy's
# matrix_rank threshold for a 16x16 matrix).
_NULL_RTOL = 16 * np.finfo(float).eps


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


def _local_frame(sigma) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(L_A, L_A^-1, sigma0) with sigma0 = L^-1 sigma L^-T, L = L_A (+) L_B from _unsqueeze.

    The mode blocks of sigma0 are sqrt(A) I and sqrt(B) I, so local
    squeezing of sigma does not reach whatever is computed from sigma0.
    """
    l_a, l_a_inv = _unsqueeze(sigma[:2, :2])
    _, l_b_inv = _unsqueeze(sigma[2:, 2:])
    frame_inv = np.zeros((4, 4))
    frame_inv[:2, :2], frame_inv[2:, 2:] = l_a_inv, l_b_inv
    return l_a, l_a_inv, frame_inv @ sigma @ frame_inv.T


def qfi_form_kron(sigma) -> tuple[list, list]:
    """(Q, T) as nested 3x3 lists, by a 16x16 pseudo-inverse; qfi_kron_at evaluates them.

    The QFI at (zeta, theta) is h0^T Q h0 with h0 = T h, h as in
    gipower.fidelity._qfi_at.  The QFI is taken in the local frame
    sigma0 = L^-1 sigma L^-T that makes both mode blocks multiples of the
    identity; there the generator is L_A^-1 H L_A, with coefficients h0 = T h.
    The QFI of sigma0 under a generator K is 1/2 vec(dsigma)^T
    (sigma0 (x) sigma0 - Omega (x) Omega)^+ vec(dsigma) with
    dsigma = K sigma0 + sigma0 K^T (Monras, arXiv:1303.3682), so
    Q_kl = 1/2 vec(dsigma_k)^T M^+ vec(dsigma_l) over (G, Z, X).  The
    pseudo-inverse drops only the exactly-null directions of M: a unitary
    leaves the symplectic eigenvalues unchanged, so dsigma has no component
    along them and the form stays exact on pure and nu- = 1 states.  Q is
    full: the cross block of sigma0 is not diagonal, so Z couples to G and X.
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


def qfi_kron_at(form, zeta, theta):
    """h0^T Q h0 at (zeta, theta) for qfi_form_kron's (Q, T): every entry of Q read, by einsum.

    h = (p, q sin 2theta, q cos 2theta), p = (zeta^2 + zeta^-2)/2 and
    q = (zeta^2 - zeta^-2)/2, as in gipower.fidelity._qfi_at.
    """
    q, t = np.asarray(form[0]), np.asarray(form[1])
    z2 = np.asarray(zeta, dtype=float) ** 2
    p, r = (z2 + 1 / z2) / 2, (z2 - 1 / z2) / 2
    h = np.stack(np.broadcast_arrays(p, r * np.sin(2 * theta), r * np.cos(2 * theta)))
    h0 = np.tensordot(t, h, 1)
    return np.einsum("i...,ij,j...->...", h0, q, h0)
