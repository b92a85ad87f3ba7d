"""Command-line interface: single-state reports, oracle verification, and
figure-data emission (plot-ready CSV; plotting itself is out of scope)."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile

import numpy as np

from .exceptions import InvalidStateError, InvalidTransformError, NumericalError
from .families import (
    FamilySpec,
    build_family,
    lower_bound,
    nu_zero,
    random_state,
    sample_figure2,
    sample_figure3,
    upper_bound,
)
from .power import _closed_form, cross_validate
from .symplectic import (
    ORACLE_TOL,
    CovarianceMatrix,
    from_standard_form,
    StandardForm,
    _require_physical,
    mean_photon_A,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INVALID_INPUT = 2


def _fmt(x: float) -> str:
    """CSV number format: '.' decimal separator, 12 significant digits."""
    return f"{float(x):.12g}"


def _write_atomic(path: str, text: str) -> None:
    """Write text to path via a temporary file and atomic rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gipower-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out:
        _write_atomic(out, text)
    else:
        sys.stdout.write(text)


def _state_report(cm: CovarianceMatrix, sf: StandardForm | None) -> dict:
    """The ip report, from one physicality gate: the closed form (with the
    d = -+c shortcut when sf is given) and the spectra all read its record."""
    _, gate = _require_physical(cm)
    result = _closed_form(gate, sf)
    return {
        "value": result.value,
        "branch": result.branch,
        "invariants": {
            "A": result.invariants.A,
            "B": result.invariants.B,
            "C": result.invariants.C,
            "D": result.invariants.D,
        },
        "n_bar_A": mean_photon_A(cm),
        "log_negativity": gate.log_negativity,
        "nu_minus": gate.nu_minus,
        "nu_plus": gate.nu_plus,
        "nu_tilde": gate.nu_tilde,
        "separable": gate.separable,
    }


def cmd_ip(args) -> int:
    if args.input is not None:
        with open(args.input) as handle:
            cm = CovarianceMatrix.from_dict(json.load(handle))
        sf = None
    else:
        if None in (args.a, args.b, args.c, args.d):
            raise InvalidStateError("provide either --input FILE or all of --a --b --c --d")
        sf = StandardForm(args.a, args.b, args.c, args.d)
        cm = from_standard_form(sf)
    report = _state_report(cm, sf)
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.n < 1:
        raise InvalidStateError(f"state count must be >= 1, got {args.n}")
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    worst_sf = None
    failures = 0
    for _ in range(args.n):
        sf = random_state(rng, args.a_max, args.b_max)
        check = cross_validate(from_standard_form(sf), tol=args.tol)
        if check.abs_diff > worst:
            worst = check.abs_diff
            worst_sf = sf
        if not check.passed:
            failures += 1
    print(f"verified {args.n} random states (seed {args.seed}, tol {args.tol:g})")
    print(f"max |closed - oracle| = {worst:.3e}"
          + (f" at (a,b,c,d) = ({worst_sf.a:.6g}, {worst_sf.b:.6g}, "
             f"{worst_sf.c:.6g}, {worst_sf.d:.6g})" if worst_sf else ""))
    print("PASS" if failures == 0 else f"FAIL ({failures} states beyond tolerance)")
    return EXIT_OK if failures == 0 else EXIT_FAILURE


def cmd_sample(args) -> int:
    rng = np.random.default_rng(args.seed)
    lines = []
    if args.which == "fig2":
        records = sample_figure2(rng, args.n, args.a_max, args.b_max)
        lines.append("n_bar_A,P_G,separable,sql,heisenberg,a,b,c,d")
        for r in records:
            lines.append(",".join([
                _fmt(r.n_bar_A), _fmt(r.p_g),
                "true" if r.separable else "false",
                _fmt(r.n_bar_A), _fmt(r.n_bar_A * (r.n_bar_A + 1)),
                _fmt(r.sf.a), _fmt(r.sf.b), _fmt(r.sf.c), _fmt(r.sf.d),
            ]))
    else:
        records = sample_figure3(rng, args.n, args.a_max, args.b_max)
        lines.append("E_N,ratio,nu_tilde,lower,upper,a,b,c,d")
        nu = np.array([r.nu_tilde for r in records])
        for r, lower, upper in zip(records, lower_bound(nu).tolist(), upper_bound(nu).tolist()):
            lines.append(",".join([
                _fmt(r.e_n), _fmt(r.p_g / r.n_bar_A), _fmt(r.nu_tilde),
                _fmt(lower), _fmt(upper),
                _fmt(r.sf.a), _fmt(r.sf.b), _fmt(r.sf.c), _fmt(r.sf.d),
            ]))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_bounds(args) -> int:
    if args.grid < 1:
        raise InvalidStateError(f"grid size must be >= 1, got {args.grid}")
    branch_point = nu_zero()
    lines = ["nu_tilde,E_N,upper,lower,branch"]
    for i in range(args.grid):
        nu = (i + 1) / (args.grid + 1)
        branch = "branch1" if nu > branch_point else "branch2"
        lines.append(",".join([
            _fmt(nu), _fmt(-np.log(nu)), _fmt(upper_bound(nu)),
            _fmt(lower_bound(nu)), branch,
        ]))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_family(args) -> int:
    try:
        params = tuple(float(p) for p in args.params.split(",")) if args.params else ()
    except ValueError as exc:
        raise InvalidStateError(f"could not parse --params {args.params!r}") from exc
    sf = build_family(FamilySpec(kind=args.kind, params=params))
    cm = from_standard_form(sf)
    _emit(json.dumps(cm.to_dict(), indent=2) + "\n", args.out)
    return EXIT_OK


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="gipower",
        description="Interferometric power of two-mode Gaussian states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ip", help="closed-form power and invariants of one state")
    p.add_argument("--input", help="covariance-matrix JSON file")
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--d", type=float)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_ip)

    p = sub.add_parser("verify", help="cross-validate the closed formula against the optimizer")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float, default=ORACLE_TOL)
    p.add_argument("--a-max", type=float, default=5.0)
    p.add_argument("--b-max", type=float, default=5.0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sample", help="emit random-state figure data as CSV")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--which", choices=["fig2", "fig3"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--a-max", type=float, default=5.0)
    p.add_argument("--b-max", type=float, default=5.0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("bounds", help="emit the boundary curves as CSV")
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("family", help="write a named family state as CM JSON")
    p.add_argument("--kind", required=True)
    p.add_argument("--params", default="", help="comma-separated parameters")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_family)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidStateError, InvalidTransformError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except NumericalError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
