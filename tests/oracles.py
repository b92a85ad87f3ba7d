"""Independent reference computations used to pin expected test values.

Nothing here shares code with the library paths under test: fidelity goes
through truncated Fock-basis density matrices, symplectic eigenvalues
through the spectrum of i*Omega*sigma, local invariants through LU
determinants, and the closed form through exact rational invariants.
"""

from fractions import Fraction

import mpmath
import numpy as np
import scipy.linalg

from gipower.symplectic import OMEGA


def thermal_fock_populations(n_bar: float, dim: int) -> np.ndarray:
    """Photon-number populations of a single-mode thermal state, truncated."""
    n = np.arange(dim)
    return n_bar**n / (n_bar + 1) ** (n + 1)


def fock_fidelity(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2 of density matrices."""
    sqrt1 = scipy.linalg.sqrtm(rho1)
    inner = scipy.linalg.sqrtm(sqrt1 @ rho2 @ sqrt1)
    return float(np.real(np.trace(inner)) ** 2)


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
