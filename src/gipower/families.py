"""Named state families, extremal boundary curves, and random-state sampling.

Entangled squeezed thermal states are parametrized throughout by the
smallest symplectic eigenvalue nu of their partial transpose (0 < nu < 1),
via -d = c = sqrt((a - nu)(b - nu)); the boundary families below pin the
extremal performance per mean photon number at fixed entanglement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import InvalidStateError
from .power import _closed_form
from .symplectic import (
    CHECK_TOL,
    GATE_TOL,
    GUARD_BAND,
    MAX_DRAWS,
    ROOT_STEP,
    StandardForm,
    _nu_minus_standard,
    _require_physical,
    from_standard_form,
    mean_photon_A,
    validate_bona_fide,
)

__all__ = [
    "FamilySpec",
    "SampleRecord",
    "FAMILY_KINDS",
    "build_family",
    "tmsv",
    "squeezed_thermal",
    "mixed_thermal",
    "separable_extremal",
    "entangled_st_nu",
    "upper_boundary_state",
    "lower_branch1_state",
    "lower_branch2_state",
    "nu_zero",
    "en_threshold",
    "upper_bound",
    "lower_bound",
    "lower_bound_branch1",
    "lower_bound_branch2",
    "random_state",
    "sample_figure2",
    "sample_figure3",
]


#: Draws a sampling stream takes at a time; each reads four uniforms.
_BLOCK = 32
#: Sampling streams whose blocks are decided together, so memory stays flat in n.
_CHUNK = 256


@dataclass(frozen=True)
class FamilySpec:
    """A family constructor name plus its positional parameters."""

    kind: str
    params: tuple[float, ...]


@dataclass(frozen=True)
class SampleRecord:
    """Derived quantities of one sampled state, for figure-data emission."""

    sf: StandardForm
    n_bar_A: float
    e_n: float
    p_g: float
    separable: bool
    nu_tilde: float  # smallest symplectic eigenvalue of the partial transpose


def _validated(sf: StandardForm, kind: str) -> StandardForm:
    report = validate_bona_fide(from_standard_form(sf), tol=GATE_TOL)
    if not report.physical:
        raise InvalidStateError(
            f"{kind} parameters give an unphysical state (nu_minus = {report.nu_min})"
        )
    return sf


def tmsv(a: float) -> StandardForm:
    """Two-mode squeezed vacuum: b = a, -d = c = sqrt(a^2 - 1)."""
    if a < 1:
        raise InvalidStateError(f"tmsv requires a >= 1, got {a}")
    c = np.sqrt(a * a - 1)
    return StandardForm(a, a, c, -c)


def squeezed_thermal(a: float, b: float, c: float) -> StandardForm:
    """Squeezed thermal state (d = -c)."""
    return _validated(StandardForm(a, b, c, -c), "squeezed_thermal")


def mixed_thermal(a: float, b: float, c: float) -> StandardForm:
    """Mixed thermal state (d = +c)."""
    return _validated(StandardForm(a, b, c, c), "mixed_thermal")


def separable_extremal(a: float, b: float) -> StandardForm:
    """Separable states d = c = sqrt((a-1)(b-1)) maximizing power per photon.

    Separable for all a, b >= 1; the power approaches the shot-noise value
    n_bar_A from below as b grows.
    """
    if a < 1 or b < 1:
        raise InvalidStateError(f"separable_extremal requires a, b >= 1, got ({a}, {b})")
    c = np.sqrt((a - 1) * (b - 1))
    return StandardForm(a, b, c, c)


def entangled_st_nu(a: float, b: float, nu: float) -> StandardForm:
    """Squeezed thermal state with -d = c = sqrt((a - nu)(b - nu)).

    The smallest symplectic eigenvalue of its partial transpose equals nu
    exactly.  Raises if the requested (a, b, nu) combination is unphysical.
    """
    if not 0 < nu < 1:
        raise InvalidStateError(f"entangled_st_nu requires 0 < nu < 1, got {nu}")
    if a < 1 or b < 1:
        raise InvalidStateError(f"entangled_st_nu requires a, b >= 1, got ({a}, {b})")
    c = np.sqrt((a - nu) * (b - nu))
    return _validated(StandardForm(a, b, c, -c), "entangled_st_nu")


def upper_boundary_state(nu: float, b: float) -> StandardForm:
    """Thermalized state on the upper performance boundary at fixed nu.

    Uses a = (1 + b - b*nu + nu^2)/(1 + nu); as b -> infinity the power per
    photon approaches (1 + nu)/(2 nu) from below.  The state sits exactly
    on the physicality boundary (nu_minus = 1).
    """
    if not 0 < nu < 1:
        raise InvalidStateError(f"upper_boundary_state requires 0 < nu < 1, got {nu}")
    a = (1 + b - b * nu + nu * nu) / (1 + nu)
    return entangled_st_nu(a, b, nu)


def lower_branch1_state(nu: float) -> StandardForm:
    """Extremal state of the lower boundary's thermal branch (nu > nu_zero).

    a = [sqrt(2 (nu+1)^3) + 3 nu + 1]/(1 - nu), b = sqrt(2 (nu+1)) + nu + 2.
    Below nu_zero these parameters violate the uncertainty relation.
    """
    if not nu_zero() < nu < 1:
        raise InvalidStateError(f"lower_branch1_state requires nu_zero < nu < 1, got {nu}")
    a = (np.sqrt(2 * (nu + 1) ** 3) + 3 * nu + 1) / (1 - nu)
    b = np.sqrt(2 * (nu + 1)) + nu + 2
    return entangled_st_nu(a, b, nu)


def lower_branch2_state(nu: float) -> StandardForm:
    """Pure two-mode squeezed state with partial-transpose eigenvalue nu.

    a = (1 + nu^2)/(2 nu), for which the power per photon is exactly
    (1 + nu)^2/(4 nu).
    """
    if not 0 < nu < 1:
        raise InvalidStateError(f"lower_branch2_state requires 0 < nu < 1, got {nu}")
    return tmsv((1 + nu * nu) / (2 * nu))


FAMILY_KINDS = {
    "tmsv": tmsv,
    "squeezed_thermal": squeezed_thermal,
    "mixed_thermal": mixed_thermal,
    "separable_extremal": separable_extremal,
    "entangled_st_nu": entangled_st_nu,
    "upper_boundary": upper_boundary_state,
    "lower_branch1": lower_branch1_state,
    "lower_branch2": lower_branch2_state,
}


def build_family(spec: FamilySpec) -> StandardForm:
    """Construct the standard form described by a FamilySpec."""
    if spec.kind not in FAMILY_KINDS:
        raise InvalidStateError(
            f"unknown family kind {spec.kind!r}; choose from {sorted(FAMILY_KINDS)}"
        )
    try:
        return FAMILY_KINDS[spec.kind](*spec.params)
    except TypeError as exc:
        raise InvalidStateError(f"wrong parameter count for {spec.kind!r}: {exc}") from exc


@lru_cache(maxsize=1)
def nu_zero() -> float:
    """Branch point of the lower boundary: real root of x^3 + x^2 + 7x - 1.

    Newton iteration from 0.14; the residual converges below 1e-12.
    """
    x = 0.14
    for _ in range(64):
        p = x**3 + x**2 + 7 * x - 1
        dp = 3 * x**2 + 2 * x + 7
        step = p / dp
        x -= step
        if abs(step) < ROOT_STEP:
            break
    return x


def lower_bound_branch1(nu):
    """Lower boundary of power per photon on the thermal branch (nu > nu_zero)."""
    nu = np.asarray(nu, dtype=float)
    g = 2 / (nu + 1) - 2 / (nu - 1) - 2 * np.sqrt(2) / np.sqrt(nu + 1) - 1
    return 1.0 / g


def lower_bound_branch2(nu):
    """Lower boundary of power per photon on the pure branch: (1+nu)^2/(4 nu)."""
    nu = np.asarray(nu, dtype=float)
    return (1 + nu) ** 2 / (4 * nu)


def upper_bound(nu):
    """Upper boundary of power per photon at fixed nu: (1 + nu)/(2 nu)."""
    nu = np.asarray(nu, dtype=float)
    if np.any(nu <= 0) or np.any(nu >= 1):
        raise InvalidStateError("boundary curves are defined for 0 < nu < 1")
    return (1 + nu) / (2 * nu)


def lower_bound(nu):
    """Piecewise lower boundary: thermal branch above nu_zero, pure below.

    Continuous at nu_zero, where the extremal thermal state degenerates to
    the pure two-mode squeezed state.
    """
    nu = np.asarray(nu, dtype=float)
    if np.any(nu <= 0) or np.any(nu >= 1):
        raise InvalidStateError("boundary curves are defined for 0 < nu < 1")
    return np.where(nu > nu_zero(), lower_bound_branch1(nu), lower_bound_branch2(nu))


@lru_cache(maxsize=1)
def en_threshold() -> float:
    """Entanglement threshold above which every state beats shot noise.

    Solves lower_bound_branch1(nu) = 1 by Newton iteration with the
    analytic derivative and returns -ln(nu) of the root (about 1.135).
    """
    x = 0.32
    for _ in range(64):
        g = 2 / (x + 1) - 2 / (x - 1) - 2 * np.sqrt(2) / np.sqrt(x + 1) - 1
        dg = -2 / (x + 1) ** 2 + 2 / (x - 1) ** 2 + np.sqrt(2) / (x + 1) ** 1.5
        step = (g - 1) / dg
        x -= step
        if abs(step) < ROOT_STEP:
            break
    return float(-np.log(x))


def _check_bounds(a_max, b_max) -> tuple[float, float]:
    if not (a_max >= 1 and b_max >= 1 and np.isfinite(a_max * a_max * b_max * b_max)):
        raise InvalidStateError(f"need a_max, b_max >= 1, a_max^2 b_max^2 finite: {a_max}, {b_max}")
    return float(a_max), float(b_max)


def _draw(u, a_max: float, b_max: float):
    """(a, b, c, d) of one rejection-sampling draw from its four uniforms u on [0, 1).

    Each entry is rng.uniform(lo, hi), which is lo + (hi - lo) * u bit for
    bit.  Elementwise on arrays, where numpy's ** 0.25 may differ from
    Python's in the last bit.
    """
    u_a, u_b, u_c, u_d = u
    a = 1.0 + (a_max - 1.0) * u_a
    b = 1.0 + (b_max - 1.0) * u_b
    c_max = ((a * a - 1) * (b * b - 1)) ** 0.25
    c = 0.0 + (c_max - 0.0) * u_c
    d = -c + (c - -c) * u_d
    return a, b, c, d


def random_state(rng: np.random.Generator, a_max: float = 5.0, b_max: float = 5.0) -> StandardForm:
    """Random physical standard form by rejection sampling.

    a, b are uniform on [1, a_max] x [1, b_max]; c is uniform on
    [0, ((a^2-1)(b^2-1))^(1/4)] (the pure-state correlation envelope);
    d is uniform on [-c, c]; draws failing the uncertainty relation are
    rejected, and InvalidStateError is raised after MAX_DRAWS draws.
    Each draw reads four numbers of rng.random().
    """
    a_max, b_max = _check_bounds(a_max, b_max)
    for _ in range(MAX_DRAWS):
        sf = StandardForm(*_draw(rng.random(4).tolist(), a_max, b_max))
        if validate_bona_fide(sf.matrix()).physical:
            return sf
    raise InvalidStateError(f"no physical state in {MAX_DRAWS} draws")


def _accept(u, a_max: float, b_max: float, entangled_only: bool):
    """(physical, accepted) masks of the draws of uniforms u, shape (..., 4).

    Decided on arrays, except where nu_minus or, for a physical draw that
    must be entangled, the partial transpose's nu_minus lies within
    GUARD_BAND * a * b of 1 - CHECK_TOL: those draws are rebuilt from their
    uniforms by scalar arithmetic and decided by random_state's
    validate_bona_fide, whose report also carries is_separable's decision
    (one factor gives both), which fixes every decision to theirs.
    """
    a, b, c, d = _draw(np.moveaxis(u, -1, 0), a_max, b_max)
    nu, nu_pt = _nu_minus_standard(a, b, c, d)
    threshold, band = 1 - CHECK_TOL, GUARD_BAND * a * b
    physical = nu >= threshold
    near = ~(np.abs(nu - threshold) > band)
    if entangled_only:
        accepted = physical & (nu_pt < threshold)
        near |= physical & ~(np.abs(nu_pt - threshold) > band)
    else:
        accepted = physical.copy()
    for i in zip(*np.nonzero(near)):
        report = validate_bona_fide(StandardForm(*_draw(u[i].tolist(), a_max, b_max)).matrix())
        physical[i] = report.physical
        accepted[i] = report.physical and not (entangled_only and report.separable)
    return physical, accepted


def _first_accepted(streams, a_max: float, b_max: float, entangled_only: bool) -> list:
    """Per stream, in order: its first accepted draw (a, b, c, d), or why it failed.

    A stream reads 4 * _BLOCK uniforms at a time, and gets another block
    until a draw is accepted or a budget runs out: MAX_DRAWS unphysical
    draws in a row ("no physical state", random_state's count), or
    MAX_DRAWS physical separable draws when entangled_only.  The pending
    streams' blocks are decided together.
    """
    outcomes = [None] * len(streams)
    pending = np.arange(len(streams))
    run = np.zeros(len(streams), dtype=np.int64)  # unphysical draws since the last physical one
    separable = np.zeros(len(streams), dtype=np.int64)  # physical draws rejected as separable
    j = np.arange(_BLOCK)
    while pending.size:
        u = np.stack([streams[k].random(4 * _BLOCK) for k in pending]).reshape(-1, _BLOCK, 4)
        physical, accepted = _accept(u, a_max, b_max, entangled_only)
        last_physical = np.maximum.accumulate(np.where(physical, j, -1), axis=1)
        run_at = np.where(last_physical >= 0, j - last_physical, j + 1 + run[pending, None])
        separable_at = separable[pending, None] + np.cumsum(physical & ~accepted, axis=1)
        stop = accepted | (run_at >= MAX_DRAWS) | (separable_at >= MAX_DRAWS)
        done = stop.any(axis=1)
        for row in np.flatnonzero(done):
            at = stop[row].argmax()
            if accepted[row, at]:
                outcome = _draw(u[row, at].tolist(), a_max, b_max)
            elif run_at[row, at] >= MAX_DRAWS:
                outcome = f"no physical state in {MAX_DRAWS} draws"
            else:
                outcome = f"no entangled state in {MAX_DRAWS} draws; raise a_max or b_max"
            outcomes[pending[row]] = outcome
        run[pending] = run_at[:, -1]
        separable[pending] = separable_at[:, -1]
        pending = pending[~done]
    return outcomes


def _record(a: float, b: float, c: float, d: float) -> SampleRecord:
    sf = StandardForm(a, b, c, d)
    cm = from_standard_form(sf)
    _, gate = _require_physical(cm)
    return SampleRecord(
        sf=sf,
        n_bar_A=mean_photon_A(cm),
        e_n=gate.log_negativity,
        p_g=_closed_form(gate).value,
        separable=gate.separable,
        nu_tilde=gate.nu_tilde,
    )


def _sample_records(rng, n, a_max, b_max, entangled_only):
    """n records from independent per-record substreams, sorted canonically.

    Record i takes the first accepted draw of the i-th child stream
    spawned from rng, the draw random_state (and, if entangled_only, a
    loop over it that skips separable states) would return from that
    stream.  The streams are decided _CHUNK at a time; the first stream
    that fails raises, after the records of the streams before it.
    """
    if n < 1:
        raise InvalidStateError(f"sample count must be >= 1, got {n}")
    streams = rng.spawn(n)
    a_max, b_max = _check_bounds(a_max, b_max)
    records = []
    for start in range(0, n, _CHUNK):
        for outcome in _first_accepted(streams[start:start + _CHUNK], a_max, b_max, entangled_only):
            if isinstance(outcome, str):
                raise InvalidStateError(outcome)
            records.append(_record(*outcome))
    records.sort(key=lambda r: (r.sf.a, r.sf.b, r.sf.c, r.sf.d))
    return records


def sample_figure2(rng: np.random.Generator, n: int, a_max: float = 5.0,
                   b_max: float = 5.0) -> list[SampleRecord]:
    """Random states with power, photon number and separability per record."""
    return _sample_records(rng, n, a_max, b_max, entangled_only=False)


def sample_figure3(rng: np.random.Generator, n: int, a_max: float = 5.0,
                   b_max: float = 5.0) -> list[SampleRecord]:
    """Entangled-only random states (for power-versus-entanglement data)."""
    return _sample_records(rng, n, a_max, b_max, entangled_only=True)
