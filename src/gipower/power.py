"""Closed-form Gaussian interferometric power and oracle cross-validation.

The interferometric power of a two-mode Gaussian probe is one quarter of
the worst-case quantum Fisher information over the local Gaussian black
boxes on mode A.  It admits a closed form in the local symplectic
invariants (A, B, C, D); this module evaluates it with exact special-case
handling of the pure-state singularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidStateError, NumericalError
from .fidelity import WINDOW, _worst_case
from .symplectic import (
    CHECK_TOL,
    DC_TOL,
    ORACLE_TOL,
    PURE_TOL,
    LocalInvariants,
    StandardForm,
    _gate,
    _require_physical,
    _standard_entries,
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

    branch is one of "general", "pure" or "special_dc" (the d = -+c shortcut).
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
    """The three polynomials (X, Y, Z) of the closed formula.

    Plain arithmetic only, so exact input types (int, Fraction) stay exact.
    """
    return _xyz(A, B, C, D, A * B - D)


def _xyz(A, B, C, D, E):
    # E = AB - D comes separately: Z stays accurate where AB and D nearly cancel.
    X = (A + C) * (1 + B + C - D) - D * D
    Y = (D - 1) * (1 + A + B + 2 * C + D)
    Z = (A + D) * E + C * (2 * A + C) * (1 + B)
    return X, Y, Z


def gip_closed_form(cm) -> IpResult:
    """Interferometric power of a physical state via the closed formula.

    General branch: (X + sqrt(X^2 + YZ)) / (2Y), evaluated as
    Z / (2(sqrt(X^2 + YZ) - X)) when X < 0 so that neither form cancels.
    Pure states (|D - 1| < PURE_TOL) use the exact limit (A - 1)/4.  D
    comes from the Cholesky pivots of the physicality gate and AB - D from
    the invariant kernel, so neither is a difference of the other with AB.
    Raises NumericalError if the value is not finite (X can overflow from
    sigma entries of ~1e39 on, D from ~1e77).
    """
    _, gate = _require_physical(cm)
    return _closed_form(gate)


def _closed_form(gate, sf: StandardForm | None = None) -> IpResult:
    """gip_closed_form's arithmetic on the gate's record of one state.

    Given the state's standard form sf, a general-branch value at d = -+c
    is replaced by gip_special's (gip_from_standard_form).
    """
    inv = LocalInvariants(gate.A, gate.B, gate.C, gate.D)
    if abs(gate.D - 1) < PURE_TOL:
        return IpResult(value=(gate.A - 1) / 4, branch="pure", invariants=inv)
    # Off the pure branch |Y| >= 4 PURE_TOL, since A + B + 2C >= 2.
    X, Y, Z = _xyz(gate.A, gate.B, gate.C, gate.D, gate.E)
    radicand = X * X + Y * Z
    if not math.isfinite(radicand) and math.isfinite(X) and math.isfinite(Y) and math.isfinite(Z):
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
        raise NumericalError(f"closed formula gave {value} at det sigma = {gate.D}")
    if sf is not None and min(abs(sf.d + sf.c), abs(sf.d - sf.c)) <= DC_TOL:
        return IpResult(value=gip_special(sf), branch="special_dc", invariants=inv)
    return IpResult(value=max(value, 0.0), branch="general", invariants=inv)


def gip_special(sf: StandardForm) -> float:
    """Interferometric power of a standard-form state with d = -+c.

    Evaluates c^2 / (2(ab - c^2 +- 1)): plus sign for d = -c (squeezed
    thermal states), minus sign for d = +c (mixed thermal states).
    """
    if not isinstance(sf, StandardForm):
        sf = StandardForm(*sf)
    a, b, c, d = sf.a, sf.b, sf.c, sf.d
    if abs(d + c) <= DC_TOL:
        denom = 2 * (a * b - c * c + 1)
    elif abs(d - c) <= DC_TOL:
        denom = 2 * (a * b - c * c - 1)
    else:
        raise InvalidStateError(f"special form requires d = -+c, got c={c}, d={d}")
    if denom <= DC_TOL:
        raise InvalidStateError(f"degenerate state: denominator {denom} <= DC_TOL")
    return float(c * c / denom)


def gip_pure(a: float) -> float:
    """Interferometric power (a^2 - 1)/4 of a pure two-mode squeezed state.

    Equals n(n + 1) with n = (a - 1)/2 the mean photon number of either mode.
    """
    if not np.isfinite(a) or a < 1:
        raise InvalidStateError(f"pure-state parameter must satisfy a >= 1, got {a}")
    return (a * a - 1) / 4


def gip_from_standard_form(sf: StandardForm) -> IpResult:
    """Interferometric power of a standard-form state, using the d = -+c
    shortcut when it applies (branch "special_dc")."""
    if not isinstance(sf, StandardForm):
        sf = StandardForm(*sf)
    return _closed_form(_gate(_standard_entries(sf.a, sf.b, sf.c, sf.d)), sf)


def cross_validate(cm, tol: float = ORACLE_TOL) -> CrossValidation:
    """Check the closed formula against the worst-case QFI optimizer.

    Passes iff |closed - oracle/4| <= tol * max(1, closed); tol must be
    finite and non-negative.  sigma passes the physicality gate once: the
    closed form reads the gate's record, the oracle (fidelity._worst_case,
    on the default window of worst_case_qfi) reads sigma alone.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise InvalidStateError(f"tolerance must be finite and >= 0, got {tol}")
    sigma, gate = _require_physical(cm)
    closed = _closed_form(gate).value
    oracle = _worst_case(sigma, *WINDOW).value / 4
    diff = abs(closed - oracle)
    return CrossValidation(
        closed=closed,
        oracle=oracle,
        abs_diff=diff,
        passed=bool(diff <= tol * max(1.0, closed)),
    )
