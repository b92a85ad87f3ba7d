"""Command-line interface: single-state reports, oracle verification, and
figure-data emission (plot-ready CSV; plotting itself is out of scope)."""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
import tempfile

from ._lazy import np
from ._streams import _Uniforms
from .exceptions import InvalidStateError, NumericalError
from .families import (
    _check_bounds,
    _random_state,
    _sample_columns,
    build_family,
    lower_bound,
    nu_zero,
    upper_bound,
)
from .power import _cross_check, _ip
from .symplectic import (
    MAX_ROWS,
    ORACLE_TOL,
    CovarianceMatrix,
    from_standard_form,
    StandardForm,
    _entries,
    _log_negativity,
    _separable,
    _standard_entries,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INVALID_INPUT = 2


#: CSV number format: '.' decimal separator, 12 significant digits;
#: '%.12g' % x gives the bytes of f"{x:.12g}", for a float and a numpy float64 cell alike.
_NUMBER = "%.12g"
#: Header and one %-format per row, of each CSV the CLI writes.
_CSV = {
    "fig2": ("n_bar_A,P_G,separable,sql,heisenberg,a,b,c,d",
             ",".join([_NUMBER] * 2 + ["%s"] + [_NUMBER] * 6)),
    "fig3": ("E_N,ratio,nu_tilde,lower,upper,a,b,c,d", ",".join([_NUMBER] * 9)),
    "bounds": ("nu_tilde,E_N,upper,lower,branch", ",".join([_NUMBER] * 4 + ["%s"])),
}


def _csv(kind: str, rows):
    """kind's CSV (a key of _CSV) as lines: the header, then each row as it is pulled."""
    header, row_format = _CSV[kind]
    yield header + "\n"
    for row in rows:
        yield row_format % row + "\n"


def _emit(lines, out: str | None) -> None:
    """Write lines to stdout, or to out.  An existing out that is not a regular file is opened
    in place, before the first line is pulled: a directory is refused, a FIFO or a device is
    written.  Otherwise the lines go into a temporary file, made before the first line is
    pulled, then renamed onto out, or onto the file a symlink out names, so the link stays;
    an existing file keeps its permission bits."""
    if not out:
        sys.stdout.writelines(lines)
        return
    try:
        mode = os.stat(out).st_mode
    except OSError:  # absent or unreachable: mkstemp names the error
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(out, "w") as handle:  # IsADirectoryError on a directory
            handle.writelines(lines)
        return
    target = os.path.realpath(out) if os.path.islink(out) else out
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(target)),
                                   prefix=".gipower-", suffix=".tmp")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, out) from exc
    try:
        with os.fdopen(fd, "w") as handle:
            if mode is not None:
                os.fchmod(handle.fileno(), stat.S_IMODE(mode))
            handle.writelines(lines)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cmd_ip(args) -> int:
    flags = (args.a, args.b, args.c, args.d)
    if args.input is None and None not in flags:
        sf = StandardForm(*flags)
        form = (sf.a, sf.b, sf.c, sf.d)
        e = _standard_entries(*form)  # from_standard_form's, without numpy
    elif args.input is not None and flags == (None,) * 4:
        with open(args.input) as handle:
            try:
                e = _entries(CovarianceMatrix.from_dict(json.load(handle)).sigma)
            except RecursionError:
                raise InvalidStateError("JSON nested too deeply") from None
        form = None
    else:
        raise InvalidStateError("provide either --input FILE or all of --a --b --c --d")
    result, (nu_minus, nu_plus, nu_tilde) = _ip(e, form)
    report = {
        "value": result.value,
        "branch": result.branch,
        "invariants": vars(result.invariants),
        "n_bar_A": (e[0] + e[4] - 2) / 4,  # mean_photon_A's (tr alpha - 2)/4
        "log_negativity": _log_negativity(nu_tilde),
        "nu_minus": nu_minus,
        "nu_plus": nu_plus,
        "nu_tilde": nu_tilde,
        "separable": _separable(nu_tilde),
    }
    _emit([json.dumps(report, indent=2) + "\n"], args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    if not 1 <= args.n <= MAX_ROWS:
        raise InvalidStateError(f"state count must be in 1 .. {MAX_ROWS}, got {args.n}")
    uniforms = _Uniforms(args.seed)  # default_rng(args.seed).random, without numpy
    worst = 0.0
    worst_sf = None
    failures = 0
    for _ in range(args.n):
        sf = _random_state(uniforms, args.a_max, args.b_max)
        check = _cross_check(_standard_entries(sf.a, sf.b, sf.c, sf.d), args.tol)
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


def _sample_rows(args):
    """The rows of `sample`, drawn when the first is pulled, as Python floats and strs (% formats them faster)."""
    fig3 = args.which == "fig3"
    kept = _sample_columns(args.seed, args.n, args.a_max, args.b_max, entangled_only=fig3)
    n_bar_A, nu_tilde = kept.n_bar_A, kept.nu_tilde
    if fig3:
        columns = [kept.e_n, kept.p_g / n_bar_A, nu_tilde, lower_bound(nu_tilde),
                   upper_bound(nu_tilde)]
    else:
        columns = [n_bar_A, kept.p_g, np.where(kept.separable, "true", "false"),
                   n_bar_A, n_bar_A * (n_bar_A + 1)]
    yield from zip(*(column.tolist() for column in (*columns, kept.a, kept.b, kept.c, kept.d)))


def cmd_sample(args) -> int:
    _check_bounds(args.a_max, args.b_max)  # refused first, whatever n is
    _emit(_csv(args.which, _sample_rows(args)), args.out)
    return EXIT_OK


def _bounds_rows(grid: int):
    """The rows of `bounds`, computed when the first is pulled: each curve runs once."""
    nu = np.arange(1, grid + 1) / (grid + 1)
    branch = ("branch1" if thermal else "branch2" for thermal in nu > nu_zero())
    yield from zip(nu, -np.log(nu), upper_bound(nu), lower_bound(nu), branch)


def cmd_bounds(args) -> int:
    if not 1 <= args.grid <= MAX_ROWS:
        raise InvalidStateError(f"grid size must be in 1 .. {MAX_ROWS}, got {args.grid}")
    _emit(_csv("bounds", _bounds_rows(args.grid)), args.out)
    return EXIT_OK


def cmd_family(args) -> int:
    try:
        params = tuple(float(p) for p in args.params.split(",")) if args.params else ()
    except ValueError as exc:
        raise InvalidStateError(f"could not parse --params {args.params!r}") from exc
    sf = build_family(args.kind, params)
    cm = from_standard_form(sf)
    _emit([json.dumps(cm.to_dict(), indent=2) + "\n"], args.out)
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
    except (OSError, KeyError, ValueError) as exc:
        # ValueError covers InvalidStateError, InvalidTransformError and json.JSONDecodeError
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except NumericalError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
