"""Named state families, extremal boundary curves, and random-state sampling.

Entangled squeezed thermal states are parametrized throughout by the
smallest symplectic eigenvalue nu of their partial transpose (0 < nu < 1),
via -d = c = sqrt((a - nu)(b - nu)); the boundary families below pin the
extremal performance per mean photon number at fixed entanglement.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import pairwise

from ._lazy import np
from .exceptions import InvalidStateError
from .power import _closed_form, _closed_form_columns
from .symplectic import (
    CHECK_TOL,
    GUARD_BAND,
    MAX_DRAWS,
    ROOT_STEP,
    StandardForm,
    _gate,
    _gates,
    _hypot_each,
    _hypot_nested,
    _log_negativity,
    _nu_pair,
    _standard_entries,
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

# numpy's SeedSequence hash constants and PCG64's multiplier: child streams are
# seeded with the (state, inc) that PCG64(rng.bit_generator.seed_seq.spawn(n)[i]) gets,
# and _Uniforms(seed) with default_rng(seed)'s.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1


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


#: A SampleRecord's fields as arrays, one element per kept row; (a, b, c, d) is its sf.
_Columns = namedtuple("_Columns", "a b c d n_bar_A e_n p_g separable nu_tilde")


def _validated(sf: StandardForm, kind: str) -> StandardForm:
    try:
        _gate(_standard_entries(sf.a, sf.b, sf.c, sf.d))
    except InvalidStateError as exc:
        raise InvalidStateError(f"{kind} parameters: {exc}") from None
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


def _branch1_g(nu):
    """g(nu) = 1 / lower_bound_branch1(nu), whose root of g = 1 en_threshold finds."""
    return 2 / (nu + 1) - 2 / (nu - 1) - 2 * np.sqrt(2) / np.sqrt(nu + 1) - 1


def lower_bound_branch1(nu):
    """Lower boundary of power per photon on the thermal branch (nu > nu_zero)."""
    return 1.0 / _branch1_g(np.asarray(nu, dtype=float))


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
        g = _branch1_g(x)
        dg = -2 / (x + 1) ** 2 + 2 / (x - 1) ** 2 + np.sqrt(2) / (x + 1) ** 1.5
        step = (g - 1) / dg
        x -= step
        if abs(step) < ROOT_STEP:
            break
    return float(-np.log(x))


def _check_bounds(a_max, b_max) -> tuple[float, float]:
    if not (a_max >= 1 and b_max >= 1 and math.isfinite(a_max * a_max * b_max * b_max)):
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


def _nu_minus_pt(a, b, c, d):
    """nu_minus of the standard form (a, b, c, d), floats, and of its partial transpose:
    validate_bona_fide's numbers from one factor (_nu_pair), 0 where sigma is not > 0."""
    nu_minus, _, nu_tilde, _ = _nu_pair(_standard_entries(a, b, c, d)) or (0.0,) * 4
    return nu_minus, nu_tilde


def random_state(rng: np.random.Generator, a_max: float = 5.0, b_max: float = 5.0) -> StandardForm:
    """Random physical standard form by rejection sampling.

    a, b are uniform on [1, a_max] x [1, b_max]; c is uniform on
    [0, ((a^2-1)(b^2-1))^(1/4)] (the pure-state correlation envelope);
    d is uniform on [-c, c]; draws failing the uncertainty relation are
    rejected, and InvalidStateError is raised after MAX_DRAWS draws.
    Each draw reads four numbers of rng.random().
    """
    return _random_state(lambda k: rng.random(k).tolist(), a_max, b_max)


def _random_state(random, a_max: float, b_max: float) -> StandardForm:
    """random_state on random(k), the next k uniforms on [0, 1) as a list of floats.

    Plain math, no numpy, where random is a _Uniforms.
    """
    a_max, b_max = _check_bounds(a_max, b_max)
    for _ in range(MAX_DRAWS):
        draw = _draw(random(4), a_max, b_max)
        if _nu_minus_pt(*draw)[0] >= 1 - CHECK_TOL:
            return StandardForm(*draw)
    raise InvalidStateError(f"no physical state in {MAX_DRAWS} draws")


def _accept(u, a_max: float, b_max: float, entangled_only: bool):
    """(physical, accepted) masks of the draws of uniforms u, shape (..., 4).

    Decided on arrays, except where nu_minus or, for a physical draw that
    must be entangled, the partial transpose's nu_minus lies within
    GUARD_BAND * a * b of 1 - CHECK_TOL: those draws are rebuilt from their
    uniforms by scalar arithmetic and decided on floats, as random_state
    decides them and as is_separable would (one factor gives both), which
    fixes every decision to theirs.  A sigma not > 0 gives nu = nan, so it is in the band.
    """
    a, b, c, d = _draw(np.moveaxis(u, -1, 0), a_max, b_max)
    gate = _gates(_standard_entries(a, b, c, d), _hypot_nested)
    nu, nu_pt = gate.nu_minus, gate.nu_tilde
    threshold, band = 1 - CHECK_TOL, GUARD_BAND * a * b
    physical = nu >= threshold
    near = ~(np.abs(nu - threshold) > band)
    if entangled_only:
        accepted = physical & (nu_pt < threshold)
        near |= physical & ~(np.abs(nu_pt - threshold) > band)
    else:
        accepted = physical.copy()
    for i in zip(*np.nonzero(near)):
        nu_i, nu_pt_i = _nu_minus_pt(*_draw(u[i].tolist(), a_max, b_max))
        physical[i] = nu_i >= threshold
        accepted[i] = physical[i] and not (entangled_only and nu_pt_i >= threshold)
    return physical, accepted


def _words(x) -> list[int]:
    """The uint32 words SeedSequence reads from an int (little-endian) or a sequence of ints."""
    if isinstance(x, int) or isinstance(x, np.integer):  # numpy is not loaded for an int
        x = int(x)
        return [x >> shift & _MASK32 for shift in range(0, max(x.bit_length(), 1), 32)]
    return [word for item in x for word in _words(item)]


def _hash_constants(h: int, multiplier: int, count: int) -> list[int]:
    """SeedSequence's hash constant h and the count after it, each the last times multiplier."""
    constants = [h]
    for _ in range(count):
        constants.append(constants[-1] * multiplier & _MASK32)
    return constants


def _hashmix(value, h, h_next):
    """SeedSequence's hashmix of value between hash constants h and h_next.

    On ints, and on uint32 arrays, whose products wrap mod 2**32 as numpy's do.
    """
    value = (value ^ h) * h_next & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of pool words: ints, or uint32 arrays."""
    value = (_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32) & _MASK32
    return value ^ value >> 16


def _column(values) -> np.ndarray:
    """values as a uint32 column, one row each."""
    return np.array(values, dtype=np.uint32)[:, None]


def _child_streams(seq: np.random.SeedSequence, first: int, count: int):
    """PCG64 (states, incs), lists of ints, of the children first .. first + count - 1 of seq.

    SeedSequence(seq.entropy, spawn_key=(*seq.spawn_key, i)) for child i, then PCG64's
    seeding, in array arithmetic.  A child's pool is seq.pool, numpy's mix of seq's words
    (entropy zero-padded to pool_size, then spawn_key), with its last word i mixed in: on
    an array, one row per pool word, by the hash constants that follow the size * words
    seq's mix used.  generate_state(4, uint64) and PCG64's srandom follow.  i must be
    below 2**32, one word.
    """
    size = seq.pool_size
    words = max(len(_words(seq.entropy)), size) + len(_words(seq.spawn_key))
    a = _hash_constants(_INIT_A * pow(_MULT_A, size * words, 2**32) & _MASK32, _MULT_A, size)
    index = np.arange(first, first + count, dtype=np.uint32)
    pool = _mix(_column(seq.pool), _hashmix(index, _column(a[:-1]), _column(a[1:])))
    b = _hash_constants(_INIT_B, _MULT_B, 8)
    seeds = _hashmix(pool[np.arange(8) % size], _column(b[:-1]), _column(b[1:]))
    states, incs = [], []
    # generate_state(4, uint64) pairs words little-endian
    for words in np.ascontiguousarray(seeds.T, dtype="<u4").view("<u8").tolist():
        state, inc = _srandom(*words)
        states.append(state)
        incs.append(inc)
    return states, incs


def _srandom(s0: int, s1: int, s2: int, s3: int) -> tuple[int, int]:
    """PCG64's (state, inc) from generate_state(4, uint64)'s words: srandom reads (s0 s1, s2 s3)."""
    inc = (s2 << 65 | s3 << 1 | 1) & _MASK128
    return ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128, inc


class _Uniforms:
    """default_rng(seed).random's doubles by int arithmetic, without numpy.

    SeedSequence(seed)'s pool is numpy's mix of the seed's words, each
    hashmix by the next hash constant; then generate_state(4, uint64) and
    srandom as for _child_streams.  Each double steps PCG64 and takes its
    XSL-RR output x as (x >> 11) 2**-53.  seed must be a non-negative int.
    """

    __slots__ = ("state", "inc")

    def __init__(self, seed: int):
        if seed < 0:
            raise InvalidStateError("expected non-negative integer")  # numpy's message
        words, size = _words(seed), 4  # SeedSequence's default pool_size
        constants = pairwise(_hash_constants(_INIT_A, _MULT_A, size * max(len(words), size)))

        def hashmix(value):
            return _hashmix(value, *next(constants))

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(size)]
        for src in range(size):
            for dst in range(size):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for word in words[size:]:
            for dst in range(size):
                pool[dst] = _mix(pool[dst], hashmix(word))
        b = _hash_constants(_INIT_B, _MULT_B, 8)
        seeds = [_hashmix(pool[i % size], b[i], b[i + 1]) for i in range(8)]
        self.state, self.inc = _srandom(*(seeds[i] | seeds[i + 1] << 32 for i in range(0, 8, 2)))

    def __call__(self, k: int) -> list[float]:
        """The next k doubles: default_rng(seed).random(k).tolist() at the same point."""
        state, inc, out = self.state, self.inc, []
        for _ in range(k):
            state = (state * _PCG_MULT + inc) & _MASK128
            word, rot = (state >> 64 ^ state) & _MASK64, state >> 122
            out.append((((word >> rot | word << 64 - rot) & _MASK64) >> 11) * 2.0**-53)
        self.state = state
        return out


@lru_cache
def _jump(steps: int) -> tuple[int, int]:
    """(A, C) with PCG64's state after `steps` steps from s equal to (A s + C inc) mod 2**128."""
    a, c = 1, 0
    for _ in range(steps):
        a, c = a * _PCG_MULT & _MASK128, (c * _PCG_MULT + 1) & _MASK128
    return a, c


def _first_accepted(generator, states, incs, a_max: float, b_max: float,
                    entangled_only: bool) -> list:
    """Per stream, in order: its first accepted draw (a, b, c, d), or why it failed.

    Stream k is PCG64 at (states[k], incs[k]); generator, a Generator over PCG64, is set
    to it to draw, and states[k] moves on by the draws taken.  A stream reads
    4 * _BLOCK uniforms at a time, and gets another block until a draw is accepted or a
    budget runs out: MAX_DRAWS unphysical draws in a row ("no physical state",
    random_state's count), or MAX_DRAWS physical separable draws when entangled_only.
    The pending streams' blocks are decided together.
    """
    bit_generator = generator.bit_generator
    state = bit_generator.state  # set to each stream in turn
    outcomes = [None] * len(states)
    pending = np.arange(len(states))
    run = np.zeros(len(states), dtype=np.int64)  # unphysical draws since the last physical one
    separable = np.zeros(len(states), dtype=np.int64)  # physical draws rejected as separable
    j = np.arange(_BLOCK)
    while pending.size:
        u = np.empty((pending.size, 4 * _BLOCK))
        for row, k in enumerate(pending.tolist()):
            state["state"] = {"state": states[k], "inc": incs[k]}
            bit_generator.state = state
            generator.random(out=u[row])
        u = u.reshape(-1, _BLOCK, 4)
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
        a, c = _jump(4 * _BLOCK)
        for k in pending.tolist():
            states[k] = (a * states[k] + c * incs[k]) & _MASK128
    return outcomes


def _kept_columns(draws) -> _Columns:
    """The _Columns of kept draws, a list of (a, b, c, d) floats, in their order.

    One stacked gate (_gates) and one pass of _closed_form_columns give
    every number bit for bit as the scalar gate and _closed_form give it
    per draw, and every kept draw passes the gate (its scalar nu_minus is
    >= 1 - CHECK_TOL).  The draws whose closed form rescales, clamps or raises
    go through _gate and _closed_form in order, so the first error is the scalar one.
    """
    form = tuple(np.array(draws).T)
    gate = _gates(_standard_entries(*form), _hypot_each)
    p_g, left = _closed_form_columns(form)
    for i in np.flatnonzero(left):
        p_g[i] = _closed_form(_gate(_standard_entries(*draws[i])), draws[i])[0]
    a, e_n = form[0], np.array(list(map(_log_negativity, gate.nu_tilde.tolist())))
    return _Columns(*form, (a + a - 2) / 4,  # mean_photon_A's (tr alpha - 2)/4
                    e_n, p_g, gate.separable, gate.nu_tilde)


def _sample_columns(seq: np.random.SeedSequence, n, a_max, b_max, entangled_only) -> _Columns:
    """The _Columns of n rows from independent per-row substreams, sorted canonically.

    Row i takes the first accepted draw of child seq.n_children_spawned + i of seq,
    the PCG64 stream that seq.spawn would give it: the draw random_state (and, if
    entangled_only, a loop over it that skips separable states) would return from
    that stream.  seq is left as it is.  The streams are seeded by array arithmetic,
    decided and their rows built _CHUNK at a time; the first stream that fails
    raises, after the rows of the streams before it.  Rows are sorted by
    (a, b, c, d), stably.
    """
    if n < 1:
        raise InvalidStateError(f"sample count must be >= 1, got {n}")
    a_max, b_max = _check_bounds(a_max, b_max)
    first = seq.n_children_spawned
    if first + n > _MASK32:
        raise InvalidStateError(f"child streams {first} to {first + n - 1} pass numpy's "
                                f"spawn count limit of 2**32 - 1")
    generator = np.random.Generator(np.random.PCG64(0))  # set to each stream before it draws
    chunks = []
    for start in range(0, n, _CHUNK):
        states, incs = _child_streams(seq, first + start, min(_CHUNK, n - start))
        outcomes = _first_accepted(generator, states, incs, a_max, b_max, entangled_only)
        failed = next((k for k, outcome in enumerate(outcomes) if isinstance(outcome, str)),
                      len(outcomes))
        if failed:
            chunks.append(_kept_columns(outcomes[:failed]))
        if failed < len(outcomes):
            raise InvalidStateError(outcomes[failed])
    columns = [np.concatenate(column) for column in zip(*chunks)]
    order = np.lexsort(columns[3::-1])  # by a, then b, c, d
    return _Columns(*(column[order] for column in columns))


def _seed_sequence(rng) -> np.random.SeedSequence:
    """The SeedSequence that rng.spawn spawns from; rng must be a Generator over PCG64."""
    bit_generator = getattr(rng, "bit_generator", None)
    seq = getattr(bit_generator, "seed_seq", None)
    if type(bit_generator) is not np.random.PCG64 or type(seq) is not np.random.SeedSequence:
        raise TypeError("sampling needs a numpy Generator over PCG64 seeded by a SeedSequence, "
                        f"such as default_rng(seed); got {rng!r}")
    return seq


def _sample_records(rng, n, a_max, b_max, entangled_only) -> list[SampleRecord]:
    """_sample_columns of rng's next n children, as records of Python floats.

    rng then counts those children spawned, as rng.spawn(n) would.
    """
    seq = _seed_sequence(rng)
    columns = _sample_columns(seq, n, a_max, b_max, entangled_only)
    for start in range(0, n, _CHUNK):  # a chunk at a time, so memory stays flat in n
        seq.spawn(min(_CHUNK, n - start))
    return [SampleRecord(StandardForm(*row[:4]), *row[4:])
            for row in zip(*(column.tolist() for column in columns))]


def sample_figure2(rng: np.random.Generator, n: int, a_max: float = 5.0,
                   b_max: float = 5.0) -> list[SampleRecord]:
    """Random states with power, photon number and separability per record.

    rng must be a Generator over PCG64, as default_rng(seed) gives: record i comes from
    the i-th child stream that rng.spawn(n) would give, and rng counts those spawned.
    """
    return _sample_records(rng, n, a_max, b_max, entangled_only=False)


def sample_figure3(rng: np.random.Generator, n: int, a_max: float = 5.0,
                   b_max: float = 5.0) -> list[SampleRecord]:
    """Entangled-only random states (for power-versus-entanglement data).

    rng and its child streams as for sample_figure2.
    """
    return _sample_records(rng, n, a_max, b_max, entangled_only=True)
