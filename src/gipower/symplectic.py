"""Covariance-matrix algebra for two-mode Gaussian states.

Conventions: quadrature ordering (q_A, p_A, q_B, p_B), natural units
hbar = 1, vacuum covariance matrix = identity.  A state is physical iff
sigma + i*Omega >= 0, equivalently its smallest symplectic eigenvalue
nu_minus >= 1.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

from ._lazy import np
from .exceptions import InvalidStateError, InvalidTransformError

__all__ = [
    "OMEGA",
    "CovarianceMatrix",
    "StandardForm",
    "LocalInvariants",
    "BonaFideReport",
    "validate_bona_fide",
    "symplectic_eigenvalues",
    "local_invariants",
    "to_standard_form",
    "from_standard_form",
    "partial_transpose_B",
    "pt_min_symplectic_eigenvalue",
    "log_negativity",
    "is_separable",
    "mean_photon_A",
    "swap_modes",
    "apply_local_symplectic",
    "apply_loss_B",
    "random_local_symplectic",
]


def __getattr__(name):
    """OMEGA, the two-mode symplectic form [[0, 1], [-1, 0]] on each mode, built
    on first use (PEP 562), since building it executes numpy; read-only."""
    if name != "OMEGA":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    omega1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    omega = np.block([[omega1, np.zeros((2, 2))], [np.zeros((2, 2)), omega1]])
    omega.setflags(write=False)
    globals()["OMEGA"] = omega
    return omega


_ORDERING = "qA,pA,qB,pB"

# Tolerances and budgets, in one table; the other modules import them.
#: Default tolerance of the physicality, separability and consistency checks.
CHECK_TOL = 1e-9
#: Physicality gate of operation preconditions and family constructors,
#: lenient on purpose: pure and boundary states with entries up to ~100
#: sit at most ~5e-12 below the bona fide surface after a floating-point
#: congruence, but heavily locally squeezed inputs sit further below.
GATE_TOL = 1e-7
#: Pure-state switch: the closed form is pure where w = D - 1, formed from the
#: standard form (a, b, c, d) as the factor it divides by, is below this (0/0
#: there); fidelity()'s pure-pair switch reads |det sigma - 1| < PURE_TOL.
PURE_TOL = 1e-7
#: Rejection-sampling draws allowed per returned state.
MAX_DRAWS = 10_000
#: Half-width, per unit of a*b, of the band around 1 - CHECK_TOL inside
#: which the batched sampler's array-computed nu decisions are redone on
#: floats.  They read _gates with _hypot_nested, which differs from _nu_pair's
#: math.hypot by rounding only: for nu in (0.5, 2) by at most 4.2e-16 a*b
#: (40,000 draws at each of six (a_max, b_max) from (1.05, 1.05) to (1e4, 1e4)).
GUARD_BAND = 1e-13
#: |det S - 1| allowed of each block of a local symplectic S_A (+) S_B.
SYMPLECTIC_TOL = 1e-10
#: Default closed-form-versus-oracle tolerance (cross_validate, verify --tol).
ORACLE_TOL = 1e-4
#: worst_case_qfi reports (1, 0) where the QFI at zeta = 1 is this close to the
#: minimum, relatively: rounding moves a tmsv's argmin by ~1e-13 off zeta = 1.
TIE_REL = 1e-6
#: Newton iterations for the boundary constants stop below this step.
ROOT_STEP = 1e-16


class CovarianceMatrix:
    """4x4 real symmetric second-moment matrix of a two-mode Gaussian state.

    First moments are fixed to zero.  The constructor symmetrizes its input as
    (M + M^T)/2 (absorbing e.g. file round-trip asymmetry), refuses a result that
    is not finite and freezes it; instances are immutable and thread-safe.
    """

    __slots__ = ("sigma",)

    def __init__(self, sigma):
        arr = np.array(sigma, dtype=float)
        if arr.shape != (4, 4):
            raise InvalidStateError(f"expected a 4x4 matrix, got shape {arr.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            arr = (arr + arr.T) / 2
        if not np.all(np.isfinite(arr)):
            raise InvalidStateError("covariance matrix has non-finite entries or overflows")
        arr.setflags(write=False)
        self.sigma = arr

    @property
    def alpha(self) -> np.ndarray:
        """2x2 block of mode A."""
        return self.sigma[:2, :2]

    @property
    def beta(self) -> np.ndarray:
        """2x2 block of mode B."""
        return self.sigma[2:, 2:]

    @property
    def gamma(self) -> np.ndarray:
        """2x2 cross-correlation block."""
        return self.sigma[:2, 2:]

    def to_dict(self) -> dict:
        return {"ordering": _ORDERING, "hbar": 1, "sigma": self.sigma.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "CovarianceMatrix":
        if not isinstance(data, dict):
            raise InvalidStateError(f"expected a JSON object, got {type(data).__name__}")
        if data.get("ordering", _ORDERING) != _ORDERING:
            raise InvalidStateError(f"unsupported quadrature ordering {data['ordering']!r}")
        if data.get("hbar", 1) != 1:
            raise InvalidStateError("only hbar = 1 units are supported")
        if "sigma" not in data:
            raise InvalidStateError("missing 'sigma' field")
        return cls(data["sigma"])

    def __repr__(self):
        return f"CovarianceMatrix({self.sigma.tolist()})"


@dataclass(frozen=True)
class StandardForm:
    """The four scalars (a, b, c, d) of the locally-reduced covariance matrix.

    Stored as floats.  a, b >= 1 and c >= |d| >= 0 are enforced up to a small
    tolerance, and x + x finite (the matrix's symmetrisation must not overflow);
    physicality is not (check the reconstructed matrix).
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            x = getattr(self, name)
            if not math.isfinite(x):
                raise InvalidStateError(f"standard form has non-finite {name}")
            object.__setattr__(self, name, x := float(x))
            if not math.isfinite(x + x):
                raise InvalidStateError(f"standard form {name} = {x} overflows the covariance matrix")
        if self.a < 1 - CHECK_TOL or self.b < 1 - CHECK_TOL:
            raise InvalidStateError(f"standard form requires a, b >= 1, got ({self.a}, {self.b})")
        if self.c < abs(self.d) - CHECK_TOL:
            raise InvalidStateError(f"standard form requires c >= |d|, got ({self.c}, {self.d})")

    def matrix(self) -> np.ndarray:
        a, b, c, d = self.a, self.b, self.c, self.d
        return np.array(
            [[a, 0, c, 0], [0, a, 0, d], [c, 0, b, 0], [0, d, 0, b]], dtype=float
        )

    def to_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c, "d": self.d}

    @classmethod
    def from_dict(cls, data: dict) -> "StandardForm":
        return cls(float(data["a"]), float(data["b"]), float(data["c"]), float(data["d"]))


@dataclass(frozen=True)
class LocalInvariants:
    """Local symplectic invariants: block determinants and det sigma."""

    A: float
    B: float
    C: float
    D: float

    def astuple(self) -> tuple[float, float, float, float]:
        return (self.A, self.B, self.C, self.D)


@dataclass(frozen=True)
class BonaFideReport:
    """Result of the physicality (uncertainty-relation) check."""

    physical: bool
    nu_min: float
    separable: bool  # the partial transpose passes the same check


class _Gate(namedtuple("_Gate", "A B C D nu_minus nu_plus nu_tilde")):
    """What the gate reads off a physical sigma, by name: A, B, C from _blocks,
    D = (det L)**2 (inf where it overflows), nu_tilde the partial transpose's nu_minus.

    Floats for one state (_gate), arrays for a stack of states (_gates).
    """

    __slots__ = ()

    @property
    def log_negativity(self) -> float:
        """max{0, -ln nu_tilde} of one state."""
        return _log_negativity(self.nu_tilde)

    @property
    def separable(self):
        """The PPT criterion: nu_tilde >= 1 - CHECK_TOL."""
        return self.nu_tilde >= 1 - CHECK_TOL


def _log_negativity(nu_tilde: float) -> float:
    return max(0.0, -math.log(nu_tilde))


def _sigma_of(cm) -> np.ndarray:
    """Coerce a CovarianceMatrix or array-like into a validated 4x4 array."""
    if isinstance(cm, CovarianceMatrix):
        return cm.sigma
    return CovarianceMatrix(cm).sigma


def _entries(sigma):
    """The upper triangle (s00, s01, s02, s03, s11, s12, s13, s22, s23, s33) of one 4x4 sigma, as floats: the gate's input."""
    (s00, s01, s02, s03), (_, s11, s12, s13), (_, _, s22, s23), (_, _, _, s33) = sigma.tolist()
    return s00, s01, s02, s03, s11, s12, s13, s22, s23, s33


def _standard_entries(a, b, c, d):
    """_entries of the standard form (a, b, c, d): floats, or arrays of standard forms.

    On a StandardForm's fields, bit for bit those of from_standard_form's
    matrix: its symmetrisation (x + x)/2 is x, since StandardForm stops
    short of overflow, and the entries off the pattern are 0.0.
    """
    return a, 0.0, c, 0.0, a, 0.0, d, b, 0.0, b


def _blocks(e):
    """Block determinants (A, B, C) by plain arithmetic on sigma's entries e (_entries).

    Broadcasts over arrays.
    """
    s00, s01, s02, s03, s11, s12, s13, s22, s23, s33 = e
    return s00 * s11 - s01 * s01, s22 * s33 - s23 * s23, s02 * s13 - s03 * s12


def _cholesky(e, sqrt):
    """Lower Cholesky factor of sigma by plain arithmetic on its entries e, row by row.

    Broadcasts, with the caller's sqrt: math.sqrt on floats, where a pivot < 0,
    or = 0 before the last, raises ValueError or ZeroDivisionError; np.sqrt on
    arrays, under the caller's errstate, where those states give l22 * l33 = nan.
    """
    s00, s01, s02, s03, s11, s12, s13, s22, s23, s33 = e
    l00 = sqrt(s00)
    l10, l20, l30 = s01 / l00, s02 / l00, s03 / l00
    l11 = sqrt(s11 - l10 * l10)
    l21, l31 = (s12 - l20 * l10) / l11, (s13 - l30 * l10) / l11
    l22 = sqrt(s22 - l20 * l20 - l21 * l21)
    l32 = (s23 - l30 * l20 - l31 * l21) / l22
    l33 = sqrt(s33 - l30 * l30 - l31 * l31 - l32 * l32)
    return (l00,), (l10, l11), (l20, l21, l22), (l30, l31, l32, l33)


def _nu_pair(e):
    """(nu-, nu+, nu~, det L) of sigma from its entries e (floats), nu~ the nu- of its partial transpose.

    By math: None unless sigma > 0.  _gates is the same kernel on stacks.

    Williamson by Cholesky: with sigma = L L^T, the antisymmetric
    M = L^T Omega L has eigenvalues +-i nu-, +-i nu+.  Its self-dual and
    anti-self-dual parts, the 3-vectors u and w of _spectra, give
    nu+ = (|u| + |w|)/2, and nu+ nu- = |Pf M| = det L.  Nothing cancels
    beyond the ~eps |sigma| of forming M, so degenerate spectra (pure
    states) are resolved, which the roots of x^2 - (A + B + 2C) x + D are
    not: their discriminant loses ~eps (sigma entries)^4.  The partial
    transpose P sigma P has the factor P L P, which flips the sign of the
    mode-B part y of M = x + y, so the same factor gives nu~.  det L, the
    product of the Cholesky pivots, squares to det sigma with relative
    error ~eps cond(sigma); AB - (AB - D) loses ~eps AB, which on a pure
    state with a ~ 300 already exceeds PURE_TOL.
    """
    try:
        factor = _cholesky(e, math.sqrt)
    except (ValueError, ZeroDivisionError):  # a pivot <= 0
        return None
    return _spectra(factor, math.hypot)


def _spectra(factor, hypot):
    """_nu_pair's formulas on a Cholesky factor, with hypot(p, q, r) = |(p, q, r)|."""
    (l00,), (_, l11), (l20, l21, l22), (l30, l31, l32, l33) = factor
    x = l00 * l11
    y01, y23 = l20 * l31 - l30 * l21, l22 * l33
    y02, y13 = l20 * l32 - l30 * l22, l21 * l33
    y03, y12 = l20 * l33, l21 * l32 - l31 * l22
    # (|u| + |w|)/2 for y and for -y: rounding is odd, so |y02 -+ y13| and
    # |y03 +- y12| serve both, and x - y01 - y23 is x + (-y01) + (-y23) bit for bit.
    nu_plus, nu_plus_pt = ((hypot(x1 + z, y02 - y13, y03 + y12)
                            + hypot(x1 - z, y02 + y13, y03 - y12)) / 2
                           for x1, z in ((x + y01, y23), (x - y01, -y23)))
    det_root = x * l22 * l33
    return det_root / nu_plus, nu_plus, det_root / nu_plus_pt, det_root


def _definite_nu(e):
    """_nu_pair of sigma's entries e; InvalidStateError unless sigma is positive definite."""
    nu = _nu_pair(e)
    if nu is None:
        raise InvalidStateError("sigma is not positive definite")
    return nu


def symplectic_eigenvalues(cm) -> tuple[float, float]:
    """Symplectic eigenvalues (nu_minus, nu_plus) of a two-mode state.

    Raises InvalidStateError unless sigma is positive definite.
    """
    return _definite_nu(_entries(_sigma_of(cm)))[:2]


def validate_bona_fide(cm) -> BonaFideReport:
    """Check the uncertainty relation sigma + i*Omega >= 0.

    Returns a report carrying nu_minus; physical iff nu_minus >= 1 - CHECK_TOL
    and separable iff the partial transpose's nu_minus is (one factor gives
    both).  nu_min is 0, and both flags are False, when sigma is not
    positive definite.
    """
    nu_min, _, nu_tilde, _ = _nu_pair(_entries(_sigma_of(cm))) or (0.0,) * 4
    return BonaFideReport(physical=bool(nu_min >= 1 - CHECK_TOL), nu_min=nu_min,
                          separable=bool(nu_tilde >= 1 - CHECK_TOL))


def _gate(e):
    """The _Gate of sigma's entries e (floats), if nu_minus >= 1 - GATE_TOL.

    One Cholesky factor (_nu_pair) gives the spectra and D = (det L)**2,
    so no caller factors sigma again or squares det L itself.  Every gate
    of one state is built here, from a matrix (_require_physical) or from
    a standard form's _standard_entries.
    """
    nu = _nu_pair(e)
    if nu is None:
        raise InvalidStateError("state is unphysical: sigma is not positive definite")
    nu_minus, nu_plus, nu_tilde, det_root = nu
    if nu_minus < 1 - GATE_TOL:
        raise InvalidStateError(f"state is unphysical: nu_minus = {nu_minus} < 1")
    return _Gate(*_blocks(e), det_root * det_root, nu_minus, nu_plus, nu_tilde)


def _gates(e, hypot):
    """_gate on each state of a stack of entries e, from one factor, unchecked: a _Gate of arrays.

    The kernel's one stack entry, with the caller's hypot(p, q, r): numpy's + - * / sqrt
    round as floats do, so with _hypot_each every number is _gate's on that state's floats
    bit for bit, and with _hypot_nested to a few ulps (GUARD_BAND).  nu_minus, nu_tilde and
    D are nan where _nu_pair gives None; on another state _gate rejects they mean nothing.
    """
    with np.errstate(all="ignore"):
        nu_minus, nu_plus, nu_tilde, det_root = _spectra(_cholesky(e, np.sqrt), hypot)
        return _Gate(*_blocks(e), det_root * det_root, nu_minus, nu_plus, nu_tilde)


def _hypot_each(p, q, r):
    """math.hypot(p, q, r) of each element of three arrays."""
    return np.array(list(map(math.hypot, p.tolist(), q.tolist(), r.tolist())))


def _hypot_nested(p, q, r):
    """|(p, q, r)| of arrays by nested np.hypot, no bit-copy of the 3-argument math.hypot."""
    return np.hypot(np.hypot(p, q), r)


def _require_physical(cm):
    """sigma's entries (_entries) and its _Gate, if nu_minus >= 1 - GATE_TOL."""
    e = _entries(_sigma_of(cm))
    return e, _gate(e)


def local_invariants(cm) -> LocalInvariants:
    """Local symplectic invariants (A, B, C, D) of a covariance matrix.

    D is the gate's (det L)**2, bit for bit the D of gip_closed_form.
    Raises InvalidStateError unless sigma is positive definite.
    """
    e = _entries(_sigma_of(cm))
    det_root = _definite_nu(e)[3]
    return LocalInvariants(*_blocks(e), det_root * det_root)


def _unsqueeze(b00, b01, b11):
    """(sqrt(det block), L) for a 2x2 covariance block = sqrt(det block) L L^T.

    L = (l00, l01, l11), the symmetric positive square root of
    block / sqrt(det block), is a symplectic: (N + I)/sqrt(tr N + 2) for
    N of unit determinant, and L^-1 = [[l11, -l01], [-l01, l00]].
    """
    scale = math.sqrt(b00 * b11 - b01 * b01)
    n00, n01, n11 = b00 / scale, b01 / scale, b11 / scale
    norm = math.sqrt(n00 + n11 + 2)
    return scale, ((n00 + 1) / norm, n01 / norm, (n11 + 1) / norm)


def _standard_frame(e):
    """((a, b, c, d), F_A): the standard form of sigma and its mode-A frame, from its entries e (_entries).

    sigma = F sigma_s F^T with sigma_s the standard form and F = F_A (+) F_B
    local symplectics, F_A = L_A R(phi_A) as (f00, f01, f10, f11).
    L = L_A (+) L_B from _unsqueeze takes both mode blocks to a I and b I,
    a = sqrt(A) and b = sqrt(B), so local squeezing of sigma does not reach
    what is computed from sigma_s.  Rotations R(phi_A) (+) R(phi_B) then
    diagonalise the correlation block [[p, q], [r, s]]: it is
    e I + f G + h Z + g X (G = [[0, -1], [1, 0]], Z = diag(1, -1),
    X = [[0, 1], [1, 0]]), a rotation of length hypot(e, f) plus a
    reflection of length hypot(h, g), which they turn to diag(c, d) with
    c + d = 2 hypot(e, f), c - d = 2 hypot(h, g) and
    phi_A = (atan2(f, e) + atan2(g, h))/2.  c and d stay accurate to ~eps c
    at c = |d| (pure states), a double root of x^2 - (c^2 + d^2) x + C^2,
    whose roots lose ~sqrt(eps) c there.
    """
    s00, s01, s02, s03, s11, s12, s13, s22, s23, s33 = e
    a, (la00, la01, la11) = _unsqueeze(s00, s01, s11)
    b, (lb00, lb01, lb11) = _unsqueeze(s22, s23, s33)
    # [[p, q], [r, s]] = L_A^-1 gamma L_B^-1
    m00, m01 = la11 * s02 - la01 * s12, la11 * s03 - la01 * s13
    m10, m11 = la00 * s12 - la01 * s02, la00 * s13 - la01 * s03
    p, q = m00 * lb11 - m01 * lb01, m01 * lb00 - m00 * lb01
    r, s = m10 * lb11 - m11 * lb01, m11 * lb00 - m10 * lb01
    e, f, h, g = (p + s) / 2, (r - q) / 2, (p - s) / 2, (q + r) / 2
    rot, ref = math.hypot(e, f), math.hypot(h, g)
    phi = (math.atan2(f, e) + math.atan2(g, h)) / 2
    cos, sin = math.cos(phi), math.sin(phi)
    frame = (la00 * cos + la01 * sin, la01 * cos - la00 * sin,
             la01 * cos + la11 * sin, la11 * cos - la01 * sin)
    return (a, b, rot + ref, rot - ref), frame


def to_standard_form(cm) -> StandardForm:
    """Reduce a physical state to standard form (a, b, c, d), by _standard_frame."""
    return StandardForm(*_standard_frame(_require_physical(cm)[0])[0])


def from_standard_form(sf: StandardForm) -> CovarianceMatrix:
    """Covariance matrix with diagonal blocks diag(a,a), diag(b,b), diag(c,d)."""
    if not isinstance(sf, StandardForm):
        sf = StandardForm(*sf)
    return CovarianceMatrix(sf.matrix())


def partial_transpose_B(cm) -> CovarianceMatrix:
    """Momentum flip on mode B: returns P sigma P with P = diag(1, 1, 1, -1)."""
    p = np.diag([1.0, 1.0, 1.0, -1.0])
    return CovarianceMatrix(p @ _sigma_of(cm) @ p)


def pt_min_symplectic_eigenvalue(cm) -> float:
    """Smallest symplectic eigenvalue of the partially transposed state.

    The state is separable iff this is >= 1 (PPT is necessary and
    sufficient for 1x1-mode Gaussian states).  Raises InvalidStateError
    unless sigma is positive definite.
    """
    return _definite_nu(_entries(_sigma_of(cm)))[2]


def log_negativity(cm) -> float:
    """Logarithmic negativity max{0, -ln nu_tilde} of a physical state."""
    return _require_physical(cm)[1].log_negativity


def is_separable(cm) -> bool:
    """True iff the partial transpose is physical within CHECK_TOL (PPT criterion)."""
    return pt_min_symplectic_eigenvalue(cm) >= 1 - CHECK_TOL


def mean_photon_A(cm) -> float:
    """Mean photon number of mode A: (tr alpha - 2)/4."""
    sigma = _sigma_of(cm)
    return float((sigma[0, 0] + sigma[1, 1] - 2) / 4)


def swap_modes(cm) -> CovarianceMatrix:
    """Exchange modes A and B (congruence by the swap permutation)."""
    swap = np.eye(4)[[2, 3, 0, 1]]  # (q_A, p_A, q_B, p_B) -> (q_B, p_B, q_A, p_A)
    return CovarianceMatrix(swap @ _sigma_of(cm) @ swap.T)


def apply_local_symplectic(cm, s_a: np.ndarray, s_b: np.ndarray) -> CovarianceMatrix:
    """Congruence by a local symplectic S_A (+) S_B.

    Both 2x2 blocks must have unit determinant within SYMPLECTIC_TOL.  Leaves the
    local invariants (A, B, C, D) unchanged.
    """
    s_a = np.asarray(s_a, dtype=float)
    s_b = np.asarray(s_b, dtype=float)
    for name, s in (("S_A", s_a), ("S_B", s_b)):
        if s.shape != (2, 2) or not np.all(np.isfinite(s)):
            raise InvalidTransformError(f"{name} must be a finite 2x2 matrix")
        if abs(np.linalg.det(s) - 1) > SYMPLECTIC_TOL:
            raise InvalidTransformError(f"{name} is not symplectic: det = {np.linalg.det(s)}")
    g = np.zeros((4, 4))
    g[:2, :2] = s_a
    g[2:, 2:] = s_b
    sigma = _sigma_of(cm)
    return CovarianceMatrix(g @ sigma @ g.T)


def apply_loss_B(cm, eta: float) -> CovarianceMatrix:
    """Pure-loss channel of transmissivity eta on mode B.

    sigma -> X sigma X^T + Y with X = I (+) sqrt(eta) I and
    Y = 0 (+) (1 - eta) I.  Physicality is preserved.
    """
    if not 0 < eta <= 1:
        raise InvalidStateError(f"transmissivity must lie in (0, 1], got {eta}")
    sigma = _sigma_of(cm)
    x = np.diag([1.0, 1.0, np.sqrt(eta), np.sqrt(eta)])
    y = np.diag([0.0, 0.0, 1 - eta, 1 - eta])
    return CovarianceMatrix(x @ sigma @ x.T + y)


def random_local_symplectic(rng: np.random.Generator) -> np.ndarray:
    """Random single-mode symplectic R(psi) S(zeta) R(theta) (Euler form).

    psi and theta are uniform on [0, 2*pi); log2(zeta) is uniform on [-1, 1].
    """
    psi, theta = rng.uniform(0.0, 2 * np.pi, size=2)
    zeta = 2.0 ** rng.uniform(-1.0, 1.0)

    def _rot(t):
        c, s = np.cos(t), np.sin(t)
        return np.array([[c, -s], [s, c]])

    return _rot(psi) @ np.diag([zeta, 1 / zeta]) @ _rot(theta)
