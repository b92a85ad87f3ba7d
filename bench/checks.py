"""Correctness checks on gipower's outputs, run outside the timed sections.

The references here are written from the paper's formulas, not imported
from gipower, so a defect in the program cannot hide in its own checker.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import mpmath

HEADERS = {
    "fig2": "n_bar_A,P_G,separable,sql,heisenberg,a,b,c,d",
    "fig3": "E_N,ratio,nu_tilde,lower,upper,a,b,c,d",
}
CAP_REL = 1e-6        # criterion 5: shot-noise / Heisenberg caps
ENVELOPE_ABS = 1e-6   # criterion 6: lower(nu) <= P_G / n_bar <= upper(nu)
MP_DIGITS = 30
MP_REL = 1e-9         # CSV value against the 30-digit reference, beyond rounding
CSV_ROUND_REL = 5e-12  # relative rounding of a number printed to 12 digits
ORACLE_TOL = 1e-4     # |closed - oracle/4| <= ORACLE_TOL * max(1, closed)


def _nu_zero() -> float:
    """Real root of x^3 + x^2 + 7x - 1, the lower boundary's branch point."""
    with mpmath.workdps(MP_DIGITS):
        return float(mpmath.findroot(lambda x: x**3 + x**2 + 7 * x - 1, 0.14))


NU_ZERO = _nu_zero()


def lower_envelope(nu: float) -> float:
    """Least power per photon at partial-transpose eigenvalue nu."""
    if nu > NU_ZERO:
        return 1 / (2 / (nu + 1) - 2 / (nu - 1) - 2 * math.sqrt(2) / math.sqrt(nu + 1) - 1)
    return (1 + nu) ** 2 / (4 * nu)


def upper_envelope(nu: float) -> float:
    """Greatest power per photon at partial-transpose eigenvalue nu."""
    return (1 + nu) / (2 * nu)


def mp_power(a: float, b: float, c: float, d: float):
    """Interferometric power of standard form (a, b, c, d) at 30 digits.

    P_G = (X + sqrt(X^2 + Y Z)) / (2 Y) in the local invariants
    A = a^2, B = b^2, C = c d, D = (ab - c^2)(ab - d^2); (A - 1)/4 when
    the state is pure (D = 1, where Y vanishes).
    """
    with mpmath.workdps(MP_DIGITS):
        a, b, c, d = (mpmath.mpf(v) for v in (a, b, c, d))
        A, B, C = a * a, b * b, c * d
        D = (a * b - c * c) * (a * b - d * d)
        if abs(D - 1) < mpmath.mpf(10) ** (-MP_DIGITS + 5):
            return (A - 1) / 4
        X = (A + C) * (1 + B + C - D) - D * D
        Y = (D - 1) * (1 + A + B + 2 * C + D)
        Z = (A + D) * (A * B - D) + C * (2 * A + C) * (1 + B)
        return (X + mpmath.sqrt(X * X + Y * Z)) / (2 * Y)


def mp_reference(which: str, a: float, b: float, c: float, d: float) -> tuple[float, float]:
    """30-digit value of the checked CSV column, and the rounding slack.

    The column is P_G on fig2 and P_G / n_bar (n_bar = (a - 1)/2) on fig3.
    The slack is the relative change that rounding the column and each of
    a, b, c, d to 12 significant digits can cause, from the column's
    30-digit derivatives: next to a = 1, the 12 printed digits of a hold
    only a few digits of n_bar.
    """
    def value(a, b, c, d):
        p = mp_power(a, b, c, d)
        return p if which == "fig2" else p / ((a - 1) / 2)

    with mpmath.workdps(MP_DIGITS):
        x = [mpmath.mpf(v) for v in (a, b, c, d)]
        ref = value(*x)
        if ref == 0:
            return 0.0, 0.0
        h = mpmath.mpf(10) ** -15
        slack = mpmath.mpf(CSV_ROUND_REL)
        for i in range(4):
            y = list(x)
            y[i] = x[i] * (1 + h)
            slack += abs((value(*y) - ref) / (h * ref)) * CSV_ROUND_REL
        return float(ref), float(slack)


def oracle_gap(closed: float, oracle: float) -> float:
    """|closed - oracle| / max(1, closed), with oracle already divided by 4."""
    return abs(closed - oracle) / max(1.0, closed)


@dataclass
class SampleCheck:
    """Outcome of checking one `gipower sample` CSV."""

    failed_rows: set = field(default_factory=set)
    reasons: Counter = field(default_factory=Counter)
    mp_max_rel: float = 0.0

    def fail(self, rows, reason: str) -> None:
        self.failed_rows.update(rows)
        self.reasons[reason] += 1


def check_sample(which: str, text: str, n: int, mp_rows) -> SampleCheck:
    """Check a `gipower sample --which <which> --n <n>` CSV.

    Every row is one operation.  A missing or extra row, a wrong header
    or rows out of (a, b, c, d) order fail all n rows; the criterion caps
    or envelope fail single rows; rows at the indices in mp_rows are also
    recomputed in mpmath and must agree within MP_REL plus the slack that
    the CSV's rounding explains (mp_reference).
    """
    result = SampleCheck()
    lines = text.splitlines()
    if not lines or lines[0] != HEADERS[which]:
        result.fail(range(n), "header")
        return result
    try:
        rows = [line.split(",") for line in lines[1:]]
        values = [[float(v) for i, v in enumerate(r) if not (which == "fig2" and i == 2)]
                  for r in rows]
    except ValueError:
        result.fail(range(n), "unparsable")
        return result
    if len(rows) != n or any(len(r) != 9 for r in rows):
        result.fail(range(n), "row count")
        return result
    keys = [tuple(v[-4:]) for v in values]
    if any(k1 > k2 for k1, k2 in zip(keys, keys[1:])):
        result.fail(range(n), "order")

    for i, (row, v) in enumerate(zip(rows, values)):
        a, b, c, d = v[-4:]
        if which == "fig2":
            n_bar, p_g = v[0], v[1]
            cap = n_bar if row[2] == "true" else n_bar * (n_bar + 1)
            if not p_g <= cap * (1 + CAP_REL):
                result.fail([i], "cap")
        else:
            e_n, ratio, nu = v[0], v[1], v[2]
            if not (e_n > 0 and 0 < nu < 1):
                result.fail([i], "entanglement")
            elif not (lower_envelope(nu) - ENVELOPE_ABS <= ratio
                      <= upper_envelope(nu) + ENVELOPE_ABS):
                result.fail([i], "envelope")
        if i in mp_rows:
            ref, slack = mp_reference(which, a, b, c, d)
            got = v[1]  # P_G on fig2, P_G / n_bar on fig3
            rel = abs(got - ref) / abs(ref) if ref else (0.0 if got == 0 else math.inf)
            result.mp_max_rel = max(result.mp_max_rel, rel)
            if not rel <= MP_REL + slack:
                result.fail([i], "mpmath")
    return result
