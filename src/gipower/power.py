"""Closed-form Gaussian interferometric power and oracle cross-validation.

The interferometric power of a two-mode Gaussian probe is one quarter of
the worst-case quantum Fisher information over the local Gaussian black
boxes on mode A.  It admits a closed form in the local symplectic
invariants (A, B, C, D); this module evaluates it in the variables of
the standard form (a, b, c, d), with the exact limit on pure states, and
checks it against the oracle's value (fidelity._qfi_form) in one frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._lazy import np
from .exceptions import InvalidStateError, NumericalError
from .fidelity import _qfi_form
from .symplectic import (
    CHECK_TOL,
    ORACLE_TOL,
    PURE_TOL,
    LocalInvariants,
    StandardForm,
    _entries,
    _invariants,
    _physical_nu,
    _sigma_of,
    _standard_entries,
    _standard_frame,
)

__all__ = [
    "IpResult",
    "CrossValidation",
    "closed_form_xyz",
    "gip_closed_form",
    "gip_special",
    "gip_pure",
    "gip_from_standard_form",
    "cross_validate",
]


@dataclass(frozen=True)
class IpResult:
    """Interferometric power with the evaluation branch and input invariants.

    branch is "general" or "pure" (w = D - 1 < PURE_TOL, w formed from the
    standard form (a, b, c, d): the exact limit).  invariants.D is the physicality
    check's (det L)**2, reported only.  _ip builds each; cross_validate and the sampler none.
    """

    value: float
    branch: str
    invariants: LocalInvariants


@dataclass(frozen=True)
class CrossValidation:
    """Closed-form value against the worst-case optimizer, with verdict."""

    closed: float
    oracle: float
    abs_diff: float
    passed: bool


def closed_form_xyz(A, B, C, D):
    """The three polynomials (X, Y, Z) of the closed formula, in the invariants.

    Plain arithmetic only, so exact input types (int, Fraction) stay exact.
    In floats X, Y and Z cancel near the pure set, where all three vanish:
    gip_closed_form evaluates them from the standard form instead.
    """
    X = (A + C) * (1 + B + C - D) - D * D
    Y = (D - 1) * (1 + A + B + 2 * C + D)
    Z = (A + D) * (A * B - D) + C * (2 * A + C) * (1 + B)
    return X, Y, Z


def gip_closed_form(cm) -> IpResult:
    """Interferometric power of a physical state via the closed formula.

    General branch: (X + sqrt(X^2 + YZ)) / (2Y), evaluated as
    Z / (2(sqrt(X^2 + YZ) - X)) when X < 0 so that neither form cancels,
    with X, Y and Z formed from sigma's standard form (_closed_form).
    Pure states (w < PURE_TOL, w = D - 1 formed from the standard form as
    Y's factor) use the exact limit (a^2 - 1)/4; the invariants (A, B, C, D) of
    sigma are reported only.  Raises NumericalError where X, Y, Z or the value
    is not finite (X overflows from sigma entries of ~1e39 on).
    """
    return _ip(_entries(_sigma_of(cm)))[0]


def _standard_xyz(a, b, c, d):
    """The closed formula's (X, Y, Z) and w = D - 1 from the standard form (a, b, c, d), floats or arrays.

    X, Y and Z are the paper's polynomials in A = a^2, B = b^2, C = cd and
    D = (ab - c^2)(ab - d^2), rewritten in p = ab - c^2 - 1,
    q = ab - d^2 - 1, w = p + q + pq = D - 1, t = (c + d)^2 and a - b.
    Those vanish on the pure set (a = b, d = -c = -sqrt(a^2 - 1)) and each
    is formed from the entries with an error of ~eps a^2, where D - 1
    formed from D loses ~eps a^4; t = 0 exactly at d = -c.
    """
    ab, c2, d2 = a * b, c * c, d * d
    p, q = (ab - c2) - 1, (ab - d2) - 1
    uv, w = (1 + p) * (1 + q), p + q + p * q
    t, delta = (c + d) * (c + d), a - b
    s = 1 + (p + q) / 2 + t / 2  # ab + cd
    e = ab * (c2 + d2) - c2 * d2  # AB - D
    k = a * (ab - 1) * (c2 + d2) - (a + b) * c2 * d2
    X = c * d * delta * delta + ab * t - w * (s + a * delta + uv)
    # Off the pure branch w >= PURE_TOL and Y / w >= 4, since A + B + 2C >= 2: Y > 0.
    Y = w * (delta * delta + 2 * s + uv + 1)
    Z = a * a * (b * b + 1) * t + w * e + delta * k
    return X, Y, Z, w


def _closed_form(form) -> tuple[float, str]:
    """(value, branch) of gip_closed_form from the standard form (a, b, c, d), whose
    pure value is (a*a - 1)/4; the errors name (a, b, c, d)."""
    X, Y, Z, w = _standard_xyz(*form)
    if w < PURE_TOL:
        return (form[0] * form[0] - 1) / 4, "pure"
    if not (math.isfinite(X) and math.isfinite(Y) and math.isfinite(Z)):
        raise NumericalError(f"closed formula overflows at (a, b, c, d) = {tuple(form)}")
    radicand = X * X + Y * Z
    if not math.isfinite(radicand):
        # X^2 or YZ overflows (entries beyond ~1e19); the value has degree 0
        # in (X, Y, Z), so scale them by a power of two, which rounds nothing.
        shift = -math.frexp(max(abs(X), abs(Y), abs(Z)))[1]
        X, Y, Z = math.ldexp(X, shift), math.ldexp(Y, shift), math.ldexp(Z, shift)
        radicand = X * X + Y * Z
    if radicand < -CHECK_TOL * max(1.0, X * X):
        raise NumericalError(f"negative radicand {radicand} in closed formula")
    root = math.sqrt(max(radicand, 0.0))
    value = (X + root) / (2 * Y) if X >= 0 else Z / (2 * (root - X))
    if not math.isfinite(value):
        raise NumericalError(f"closed formula gave {value} at (a, b, c, d) = {tuple(form)}")
    return max(value, 0.0), "general"


def _ip(e, form=None):
    """(IpResult, (nu_minus, nu_plus, nu_tilde)) of sigma's entries e, once they pass _physical_nu: _closed_form
    on the standard form (a, b, c, d) given, or else on the standard frame's, and _invariants from the
    check's det L.  Every IpResult is built here, once per state."""
    nu_minus, nu_plus, nu_tilde, det_root = _physical_nu(e)
    value, branch = _closed_form(form or _standard_frame(e)[0])
    return IpResult(value, branch, _invariants(e, det_root)), (nu_minus, nu_plus, nu_tilde)


def _closed_form_columns(form):
    """_closed_form's values, bit for bit, on a stack of standard forms, form = (a, b, c, d) arrays.

    One array pass settles each pure row and each row whose radicand is finite and >= 0
    and whose value is finite: numpy's + - * / sqrt round as floats do.  The other rows
    (entries beyond ~1e19, which _closed_form rescales, or failures) go through
    _closed_form in row order, so the first to fail raises the scalar error.
    """
    with np.errstate(all="ignore"):
        X, Y, Z, w = _standard_xyz(*form)
        radicand = X * X + Y * Z
        root = np.sqrt(radicand)
        value = np.where(X >= 0, (X + root) / (2 * Y), Z / (2 * (root - X)))
        pure, settled = w < PURE_TOL, np.isfinite(radicand) & (radicand >= 0) & np.isfinite(value)
        value = np.where(0.0 > value, 0.0, value)  # max(value, 0.0), -0.0 kept
        value = np.where(pure, (form[0] * form[0] - 1) / 4, value)
    for i in np.flatnonzero(~pure & ~settled).tolist():
        value[i] = _closed_form([column.item(i) for column in form])[0]
    return value


def gip_special(sf: StandardForm) -> float:
    """Interferometric power of a standard-form state with d = -+c.

    Evaluates c^2 / (2(ab - c^2 +- 1)): plus sign for d = -c (squeezed
    thermal states), minus sign for d = +c (mixed thermal states), each
    within CHECK_TOL.
    """
    if not isinstance(sf, StandardForm):
        sf = StandardForm(*sf)
    a, b, c, d = sf.a, sf.b, sf.c, sf.d
    if abs(d + c) <= CHECK_TOL:
        denom = 2 * (a * b - c * c + 1)
    elif abs(d - c) <= CHECK_TOL:
        denom = 2 * (a * b - c * c - 1)
    else:
        raise InvalidStateError(f"special form requires d = -+c, got c={c}, d={d}")
    if denom <= CHECK_TOL:
        raise InvalidStateError(f"degenerate state: denominator {denom} <= CHECK_TOL")
    return float(c * c / denom)


def gip_pure(a: float) -> float:
    """Interferometric power (a^2 - 1)/4 of a pure two-mode squeezed state.

    Equals n(n + 1) with n = (a - 1)/2 the mean photon number of either mode.
    """
    if not math.isfinite(a) or a < 1:
        raise InvalidStateError(f"pure-state parameter must satisfy a >= 1, got {a}")
    return (a * a - 1) / 4


def gip_from_standard_form(sf: StandardForm) -> IpResult:
    """Interferometric power of a standard-form state: gip_closed_form on
    (a, b, c, d) as given, with no matrix and no frame."""
    if not isinstance(sf, StandardForm):
        sf = StandardForm(*sf)
    form = (sf.a, sf.b, sf.c, sf.d)
    return _ip(_standard_entries(*form), form)[0]


def cross_validate(cm, tol: float = ORACLE_TOL) -> CrossValidation:
    """Check the closed formula against the worst-case QFI optimizer.

    Passes iff |closed - oracle/4| <= tol * max(1, closed); tol must be
    finite and non-negative.  The check itself (_cross_check) reads sigma's
    entries alone.
    """
    return _cross_check(_entries(_sigma_of(cm)), tol)


def _cross_check(e, tol: float) -> CrossValidation:
    """cross_validate on sigma's entries e: _entries of a matrix, or _standard_entries of a form.

    Plain math, no numpy, in one frame: sigma passes the physicality check
    (symplectic._physical_nu) once and goes to its standard form
    (symplectic._standard_frame) once, and both sides compute values alone,
    with no invariants and no mode-A frame.  The oracle reads (a, b, c, d)
    alone: worst_case_qfi's value, the sheet minimum one fidelity._qfi_form
    call returns beside Q, with no map T and no argmin.  It runs first, so a
    QFI form that overflows raises its own NumericalError.  The closed form
    (_closed_form, not _ip) reads (a, b, c, d) and builds no IpResult.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise InvalidStateError(f"tolerance must be finite and >= 0, got {tol}")
    _physical_nu(e)
    standard = _standard_frame(e)[0]
    oracle = max(_qfi_form(standard)[4], 0.0) / 4
    closed = _closed_form(standard)[0]
    diff = abs(closed - oracle)
    return CrossValidation(closed, oracle, diff, diff <= tol * max(1.0, closed))
