"""Independent reference computations used to pin expected test values.

Nothing here shares code with the library paths under test: fidelity goes
through truncated Fock-basis density matrices, symplectic eigenvalues
through the spectrum of i*Omega*sigma, local invariants through LU
determinants, the closed form through exact rational invariants, and the
QFI through a high-precision second difference of the Uhlmann fidelity.
The worst-case QFI has a brute-force route too: a dense grid of the
library's own qfi values, which knows nothing of the oracle's theory.
The random-state sampler has a scalar route: one validated draw at a
time through rng.uniform, as the library drew before its draws were
batched.
"""

from fractions import Fraction

import mpmath
import numpy as np

import gipower.families as families
from gipower import (
    SampleRecord,
    StandardForm,
    from_standard_form,
    gip_closed_form,
    is_separable,
    log_negativity,
    mean_photon_A,
    pt_min_symplectic_eigenvalue,
    qfi,
    validate_bona_fide,
)
from gipower.exceptions import InvalidStateError
from gipower.symplectic import OMEGA


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


def random_state_scalar(rng, a_max=5.0, b_max=5.0) -> StandardForm:
    """families.random_state as it drew before batching: four rng.uniform calls per draw.

    Reads the budget families.MAX_DRAWS at call time, as the library does.
    """
    if not (a_max >= 1 and b_max >= 1 and np.isfinite(a_max * a_max * b_max * b_max)):
        raise InvalidStateError(f"need a_max, b_max >= 1, a_max^2 b_max^2 finite: {a_max}, {b_max}")
    for _ in range(families.MAX_DRAWS):
        a = rng.uniform(1.0, a_max)
        b = rng.uniform(1.0, b_max)
        c_max = ((a * a - 1) * (b * b - 1)) ** 0.25
        c = rng.uniform(0.0, c_max)
        d = rng.uniform(-c, c)
        sf = StandardForm(a, b, c, d)
        if validate_bona_fide(sf.matrix()).physical:
            return sf
    raise InvalidStateError(f"no physical state in {families.MAX_DRAWS} draws")


def _record_from(sf: StandardForm) -> SampleRecord:
    cm = from_standard_form(sf)
    return SampleRecord(
        sf=sf,
        n_bar_A=mean_photon_A(cm),
        e_n=log_negativity(cm),
        p_g=gip_closed_form(cm).value,
        separable=is_separable(cm),
        nu_tilde=pt_min_symplectic_eigenvalue(cm),
    )


def sample_records_scalar(rng, n, a_max, b_max, entangled_only):
    """families._sample_records before batching: one validated draw at a time.

    Record i draws from the i-th child stream spawned from rng, at most
    MAX_DRAWS times; a draw is tested before its record is built.
    """
    if n < 1:
        raise InvalidStateError(f"sample count must be >= 1, got {n}")

    def make(stream) -> SampleRecord:
        for _ in range(families.MAX_DRAWS):
            sf = random_state_scalar(stream, a_max, b_max)
            if not entangled_only or not is_separable(sf.matrix()):
                return _record_from(sf)
        raise InvalidStateError(
            f"no entangled state in {families.MAX_DRAWS} draws; raise a_max or b_max")

    records = [make(stream) for stream in rng.spawn(n)]
    records.sort(key=lambda r: (r.sf.a, r.sf.b, r.sf.c, r.sf.d))
    return records
