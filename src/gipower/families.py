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

from ._lazy import np
from ._streams import _child_streams, _fill, _pool
from .exceptions import InvalidStateError
from .power import _closed_form_columns
from .symplectic import (
    CHECK_TOL,
    GUARD_BAND,
    MAX_DRAWS,
    MAX_ROWS,
    StandardForm,
    _hypot_each,
    _log_negativity,
    _physical_nu,
    _separable,
    _standard_entries,
    _standard_nu,
)

__all__ = [
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


#: Draws in a sampling stream's first block (its later blocks double); each reads four uniforms.
_BLOCK = 32
#: Sampling streams decided together; a round holds at most _CHUNK * _BLOCK draws, so memory stays flat.
_CHUNK = 256


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
        _physical_nu(_standard_entries(sf.a, sf.b, sf.c, sf.d))
    except InvalidStateError as exc:
        raise InvalidStateError(f"{kind} parameters: {exc}") from None
    return sf


def tmsv(a: float) -> StandardForm:
    """Two-mode squeezed vacuum: b = a, -d = c = sqrt(a^2 - 1).

    c is sqrt((a - 1)(a + 1)) rounded, stepped down an ulp at a time until
    a^2 - c^2 >= 1 holds exactly, so the state as given is physical; an
    infinite c is left to StandardForm, which refuses it.
    """
    from fractions import Fraction  # ~2.5 ms to import, so not at `import gipower`
    if a < 1:
        raise InvalidStateError(f"tmsv requires a >= 1, got {a}")
    c = math.sqrt((a - 1) * (a + 1))
    while math.isfinite(c) and Fraction(c) ** 2 > Fraction(float(a)) ** 2 - 1:
        c = math.nextafter(c, 0.0)
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
    c = math.sqrt((a - 1) * (b - 1))
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
    c = math.sqrt((a - nu) * (b - nu))
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
    a = (math.sqrt(2 * (nu + 1) ** 3) + 3 * nu + 1) / (1 - nu)
    b = math.sqrt(2 * (nu + 1)) + nu + 2
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


def build_family(kind: str, params) -> StandardForm:
    """The standard form of FAMILY_KINDS[kind] at the positional parameters params."""
    if kind not in FAMILY_KINDS:
        raise InvalidStateError(f"unknown family kind {kind!r}; choose from {sorted(FAMILY_KINDS)}")
    try:
        return FAMILY_KINDS[kind](*params)
    except TypeError as exc:
        raise InvalidStateError(f"wrong parameter count for {kind!r}: {exc}") from exc


def nu_zero() -> float:
    """Branch point of the lower boundary: the real root of x^3 + x^2 + 7x - 1.

    By Cardano, (cbrt(44 + 12 sqrt(69)) - cbrt(12 sqrt(69) - 44) - 1)/3, which
    agrees with a 60-digit mpmath root to 5e-62; returned correctly rounded.
    """
    return 0.13968058199610653


def lower_bound_branch1(nu):
    """Lower boundary of power per photon on the thermal branch (nu > nu_zero)."""
    nu = np.asarray(nu, dtype=float)
    return 1.0 / (2 / (nu + 1) - 2 / (nu - 1) - 2 * np.sqrt(2) / np.sqrt(nu + 1) - 1)


def lower_bound_branch2(nu):
    """Lower boundary of power per photon on the pure branch: (1+nu)^2/(4 nu)."""
    nu = np.asarray(nu, dtype=float)
    return (1 + nu) ** 2 / (4 * nu)


def upper_bound(nu):
    """Upper boundary of power per photon at fixed nu: (1 + nu)/(2 nu)."""
    nu = np.asarray(nu, dtype=float)
    if not np.all((nu > 0) & (nu < 1)):  # NaN included
        raise InvalidStateError("boundary curves are defined for 0 < nu < 1")
    return (1 + nu) / (2 * nu)


def lower_bound(nu):
    """Piecewise lower boundary: thermal branch above nu_zero, pure below.

    Continuous at nu_zero, where the extremal thermal state degenerates to
    the pure two-mode squeezed state.
    """
    nu = np.asarray(nu, dtype=float)
    if not np.all((nu > 0) & (nu < 1)):  # NaN included
        raise InvalidStateError("boundary curves are defined for 0 < nu < 1")
    return np.where(nu > nu_zero(), lower_bound_branch1(nu), lower_bound_branch2(nu))


def en_threshold() -> float:
    """Entanglement threshold above which every state beats shot noise.

    -ln(nu) at the root nu (about 0.3213) of lower_bound_branch1(nu) = 1 above
    nu_zero, returned correctly rounded (about 1.135).
    """
    return 1.1352687373361021


def _check_bounds(a_max, b_max) -> tuple[float, float]:
    if not (a_max >= 1 and b_max >= 1 and math.isfinite(a_max * a_max * b_max * b_max)):
        raise InvalidStateError(f"need a_max, b_max >= 1, a_max^2 b_max^2 finite: {a_max}, {b_max}")
    return float(a_max), float(b_max)


def _draw(u, a_max: float, b_max: float, power=pow):
    """(a, b, c, d) of one rejection-sampling draw from its four uniforms u on [0, 1).

    Each entry is rng.uniform(lo, hi), lo + (hi - lo) * u bit for bit (c_max * u_c >= +0, and
    c - -c is c + c).  Elementwise on arrays, where numpy's ** 0.25 (power = pow) may differ
    from Python's in the last bit, and with power = _pow_each does not.
    """
    u_a, u_b, u_c, u_d = u
    a = 1.0 + (a_max - 1.0) * u_a
    b = 1.0 + (b_max - 1.0) * u_b
    c_max = power((a * a - 1) * (b * b - 1), 0.25)
    c = c_max * u_c
    d = -c + (c + c) * u_d
    return a, b, c, d


def _pow_each(x, y: float):
    """Python's x ** y of each element of an array x."""
    return np.array([v**y for v in x.tolist()])


def _nu_minus_pt(a, b, c, d):
    """nu_minus of the standard form (a, b, c, d), floats, and of its partial transpose:
    validate_bona_fide's numbers (_standard_nu), 0 where sigma is not > 0."""
    try:
        return _standard_nu(a, b, c, d, math.sqrt, math.hypot)
    except (ValueError, ZeroDivisionError):  # a pivot < 0, or a = 0
        return 0.0, 0.0


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

    Decided on arrays by polynomials in the invariants, as random_state decides on
    floats (_nu_minus_pt) and as is_separable would.  With p = ab - c^2, q = ab - d^2,
    D = pq, Delta = a^2 + b^2 + 2cd and tau = (1 - CHECK_TOL)^2, nu_minus >= 1 - CHECK_TOL
    iff sigma > 0 (a, p, q > 0), f = tau^2 - Delta tau + D >= 0 and Delta >= 2 tau: tau
    lies below both roots nu_minus^2, nu_plus^2 of x^2 - Delta x + D.  The partial
    transpose has the same D and Delta~ = a^2 + b^2 - 2cd, in f~.  A draw is decided so
    where f, and f~ of a physical draw that must be entangled, lies further from 0 than
    the band 3 GUARD_BAND ab (a + b)^2 that GUARD_BAND's comment derives, compared in
    units of (a + b)^2 so that nothing overflows.  The draws inside it are rebuilt from
    their uniforms by scalar arithmetic and decided together by nu_minus (and nu~, if
    entangled_only) as _standard_nu gives them with math.hypot per element: _nu_minus_pt's
    numbers bit for bit, or nan where _nu_minus_pt gives 0 (sigma not > 0), unphysical
    either way.  A draw with c = 0 is the product state (a, b, 0, 0), physical and
    separable, and is decided so outside the band, which holds it where a or b is 1.
    """
    a, b, c, d = _draw([u[..., k] for k in range(4)], a_max, b_max)
    ab = a * b
    p, q = ab - c * c, ab - d * d
    squares, cross = a * a + b * b, 2 * c * d
    tau = (1 - CHECK_TOL) ** 2
    det_tau2, scale, band = p * q + tau * tau, (a + b) * (a + b), 3 * GUARD_BAND * ab

    def sides(delta):
        """(tau below both roots, f within the band) of x^2 - delta x + D, read off
        f / (a + b)^2 = (tau^2 - delta tau + D) / (a + b)^2 against band."""
        f = (det_tau2 - delta * tau) / scale
        return (f > band) & (delta > 2 * tau), np.abs(f) <= band

    physical, near = sides(squares + cross)
    product = c == 0  # (a, b, 0, 0), physical and separable since a, b >= 1
    physical = (physical | product) & (np.minimum(np.minimum(a, p), q) > 0)  # sigma > 0
    accepted = physical
    if entangled_only:
        separable, near_pt = sides(squares - cross)
        accepted = physical & ~(separable | product)
        near |= physical & near_pt
    near &= ~product
    if near.any():
        at = np.nonzero(near)
        with np.errstate(invalid="ignore", divide="ignore"):
            nu, nu_pt = _standard_nu(*_draw(u[at].T, a_max, b_max, _pow_each), np.sqrt, _hypot_each)
        physical[at] = nu >= 1 - CHECK_TOL
        accepted[at] = physical[at] & ~_separable(nu_pt) if entangled_only else physical[at]
    return physical, accepted


def _first_accepted(states, incs, a_max: float, b_max: float,
                    entangled_only: bool) -> tuple[np.ndarray, dict]:
    """(kept, errors): kept[k] holds the uniforms of stream k's first accepted draw, or
    errors[k] says why stream k failed, and kept[k] is then no draw.

    Stream k is PCG64 at (states[k], incs[k]), left as it is: the streams pending in a
    round have all taken the same draws, whose uniforms _fill skips.  Their blocks are
    decided together: _BLOCK draws, then twice the last, up to _CHUNK * _BLOCK draws a
    round and to MAX_DRAWS less the largest count carried in, so only a block's last draw
    can spend a budget: MAX_DRAWS unphysical draws in a row ("no physical state",
    random_state's count), or MAX_DRAWS physical separable draws when entangled_only.
    """
    kept, errors = np.empty((len(states), 4)), {}
    pending, block, drawn = np.arange(len(states)), 0, 0
    run = separable = np.zeros_like(pending)  # unphysical draws since a physical one; separable draws
    while len(pending):
        block = min(2 * block or _BLOCK, max(_BLOCK, _CHUNK * _BLOCK // len(pending)),
                    MAX_DRAWS - int(np.maximum(run, separable).max()))
        u = np.empty((len(pending), block, 4))
        _fill(states, incs, pending.tolist(), 4 * drawn, u)
        drawn += block
        physical, accepted = _accept(u, a_max, b_max, entangled_only)
        kept[pending] = u[np.arange(len(pending)), accepted.argmax(axis=1)]
        miss = ~accepted.any(axis=1)
        if not miss.any():
            break
        physical, pending, run, separable = physical[miss], pending[miss], run[miss], separable[miss]
        run = np.where(physical.any(axis=1), physical[:, ::-1].argmax(axis=1), run + block)
        separable = separable + physical.sum(axis=1)
        spent = (run >= MAX_DRAWS) | (separable >= MAX_DRAWS)
        for k, unphysical in zip(pending[spent].tolist(), run[spent].tolist()):
            errors[k] = (f"no physical state in {MAX_DRAWS} draws" if unphysical >= MAX_DRAWS
                         else f"no entangled state in {MAX_DRAWS} draws; raise a_max or b_max")
        pending, run, separable = pending[~spent], run[~spent], separable[~spent]
    return kept, errors


def _kept_columns(form) -> _Columns:
    """The _Columns of kept draws, form = their (a, b, c, d) arrays, in their order.

    One stacked kernel (_standard_nu, with math.hypot per element) and
    _closed_form_columns give every number bit for bit as _nu_pair and
    _closed_form give it per draw, and every kept draw passes the gate (its
    scalar nu_minus is >= 1 - CHECK_TOL); the first row whose closed form
    fails raises the scalar error.
    """
    nu_tilde, p_g = _standard_nu(*form, np.sqrt, _hypot_each)[1], _closed_form_columns(form)
    a, e_n = form[0], np.array(list(map(_log_negativity, nu_tilde.tolist())))
    return _Columns(*form, (a + a - 2) / 4,  # mean_photon_A's (tr alpha - 2)/4
                    e_n, p_g, _separable(nu_tilde), nu_tilde)


def _sample_columns(seed: int, n, a_max, b_max, entangled_only) -> _Columns:
    """The _Columns of n rows from independent per-row substreams, sorted canonically.

    Row i takes the first accepted draw of child i of SeedSequence(seed), the PCG64
    stream of the i-th child default_rng(seed) spawns: the draw random_state (and, if
    entangled_only, a loop over it that skips separable states) would return from that
    stream.  n <= MAX_ROWS keeps every child index in one word.  The streams are seeded
    by array arithmetic, decided and their rows built (one _draw pass, the scalar _draw's
    bit for bit) _CHUNK at a time; the first stream that fails raises, after the rows of
    the streams before it.  Rows are sorted by (a, b, c, d), stably.  With entangled_only
    and a_max or b_max at 1, c_max is 0 and every draw a product state, so the error every
    stream would raise is raised up front.
    """
    if n < 1:
        raise InvalidStateError(f"sample count must be >= 1, got {n}")
    if n > MAX_ROWS:
        raise InvalidStateError(f"sample count must be <= {MAX_ROWS}, got {n}")
    a_max, b_max = _check_bounds(a_max, b_max)
    if entangled_only and min(a_max, b_max) == 1:
        raise InvalidStateError(f"no entangled state in {MAX_DRAWS} draws; raise a_max or b_max")
    mixed = _pool(seed)
    chunks = []
    for start in range(0, n, _CHUNK):
        states, incs = _child_streams(mixed, start, min(_CHUNK, n - start))
        kept, errors = _first_accepted(states, incs, a_max, b_max, entangled_only)
        failed = min(errors, default=len(kept))
        if failed:
            chunks.append(_kept_columns(_draw(kept[:failed].T, a_max, b_max, _pow_each)))
        if errors:
            raise InvalidStateError(errors[failed])
    columns = [np.concatenate(column) for column in zip(*chunks)]
    order = np.lexsort(columns[3::-1])  # by a, then b, c, d
    return _Columns(*(column[order] for column in columns))


def _sample_records(seed, n, a_max, b_max, entangled_only) -> list[SampleRecord]:
    """_sample_columns as records of Python floats."""
    columns = _sample_columns(seed, n, a_max, b_max, entangled_only)
    return [SampleRecord(StandardForm(*row[:4]), *row[4:])
            for row in zip(*(column.tolist() for column in columns))]


def sample_figure2(seed: int, n: int, a_max: float = 5.0,
                   b_max: float = 5.0) -> list[SampleRecord]:
    """Random states with power, photon number and separability per record.

    seed is a non-negative int: record i comes from child i of SeedSequence(seed), the
    stream of the i-th child default_rng(seed) spawns.  These are the rows `gipower
    sample --which fig2 --seed seed` writes.
    """
    return _sample_records(seed, n, a_max, b_max, entangled_only=False)


def sample_figure3(seed: int, n: int, a_max: float = 5.0,
                   b_max: float = 5.0) -> list[SampleRecord]:
    """Entangled-only random states (for power-versus-entanglement data).

    seed and its child streams as for sample_figure2; the rows of `--which fig3`.
    """
    return _sample_records(seed, n, a_max, b_max, entangled_only=True)
