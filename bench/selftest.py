#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 bench/selftest.py

1. Runs every workload briefly, untraced and traced, checks that each run
   reports exactly the metrics of bench/spec.py, and prints every metric
   once with its unit and its value per workload.
2. Feeds corrupted outputs (a P_G above the Heisenberg cap, a dropped row,
   rows out of order, ...) to the checks, directly and through a whole
   run, and fails unless every corruption is counted as a failure.

Exits 0 when all of it holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import run
import spec

SECONDS = 0.5
CSV_ROWS = 200


def metric_table() -> bool:
    results = {}
    ok = True
    for trace in (False, True):
        expected = [m[0] for m in (spec.PER_LAYER if trace else spec.END_TO_END)]
        for w in spec.WORKLOADS:
            with contextlib.redirect_stdout(io.StringIO()):
                result = run.run_workload(w, seed=1, seconds=SECONDS, trace=trace,
                                          setup_repeats=1)
            if list(result["metrics"]) != expected or result["attempted"] < 1:
                print(f"FAIL {w} trace={int(trace)}: metrics {list(result['metrics'])}")
                ok = False
            for name, m in result["metrics"].items():
                results.setdefault((name, m["unit"]), {})[w] = m["value"]
    print(f"{'metric':52s} {'unit':6s} " + " ".join(f"{w:>15s}" for w in spec.WORKLOADS))
    for (name, unit), by_workload in results.items():
        print(f"{name:52s} {unit:6s} "
              + " ".join(f"{by_workload.get(w, float('nan')):15.6g}" for w in spec.WORKLOADS))
    return ok


def _edit(text: str, row: int, col: int, fn) -> str:
    """Replace field col of data row `row` (0-based, header excluded) by fn(field)."""
    lines = text.splitlines()
    fields = lines[row + 1].split(",")
    fields[col] = fn(fields[col])
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


def corrupted_csvs(texts: dict):
    """(label, which, text) for outputs that every check must reject."""
    fig2 = texts["fig2"]
    rows2 = [r.split(",") for r in fig2.splitlines()[1:]]
    ent = next(i for i, r in enumerate(rows2) if r[2] == "false")
    sep = next(i for i, r in enumerate(rows2) if r[2] == "true")

    def n_bar(i):
        return float(rows2[i][0])

    yield ("P_G above the Heisenberg cap", "fig2",
           _edit(fig2, ent, 1, lambda _: repr(2 * n_bar(ent) * (n_bar(ent) + 1))))
    yield ("P_G above the shot-noise cap", "fig2",
           _edit(fig2, sep, 1, lambda _: repr(2 * n_bar(sep))))
    yield ("P_G off by 1e-7 relative", "fig2",
           _edit(fig2, ent, 1, lambda v: repr(float(v) * (1 - 1e-7))))
    lines = fig2.splitlines()
    yield "row dropped", "fig2", "\n".join(lines[:-1]) + "\n"
    yield ("rows out of order", "fig2",
           "\n".join([lines[0], lines[2], lines[1], *lines[3:]]) + "\n")
    yield "header changed", "fig2", fig2.replace("P_G", "PG", 1)
    fig3 = texts["fig3"]
    nu = float(fig3.splitlines()[1].split(",")[2])
    yield ("ratio above the upper envelope", "fig3",
           _edit(fig3, 0, 1, lambda _: repr(checks.upper_envelope(nu) + 1e-3)))
    yield "E_N of a separable state", "fig3", _edit(fig3, 0, 0, lambda _: "0")


def corruption_checks(mods, workdir: Path) -> bool:
    ok = True

    def report(label, caught, detail):
        nonlocal ok
        ok &= caught
        print(f"{'ok  ' if caught else 'FAIL'} {label}: {detail}")

    # The program's own output may already fail a few rows (README.md,
    # "Known failures"); a corruption is caught when it fails more rows.
    texts, clean = {}, {}
    for which in ("fig2", "fig3"):
        out = workdir / f"{which}.csv"
        code = mods["cli"].main(["sample", "--which", which, "--seed", "7",
                                 "--n", str(CSV_ROWS), "--out", str(out)])
        texts[which] = out.read_text()
        result = checks.check_sample(which, texts[which], CSV_ROWS, set(range(CSV_ROWS)))
        clean[which] = result.failed_rows
        report(f"clean {which} output", code == 0,
               f"{len(result.failed_rows)} failed rows {dict(result.reasons)}, "
               f"mpmath max rel {result.mp_max_rel:.2e}")

    for label, which, text in corrupted_csvs(texts):
        result = checks.check_sample(which, text, CSV_ROWS, set(range(CSV_ROWS)))
        report(label, bool(result.failed_rows - clean[which]),
               f"{len(result.failed_rows)} failed rows {dict(result.reasons)}")

    gap = checks.oracle_gap(10.0, 10.0 * (1 + 2e-4))
    report("oracle 2e-4 off", gap > checks.ORACLE_TOL, f"gap {gap:.2e}")

    # Whole runs whose program output is corrupted must count failures.
    cli, gp = mods["cli"], mods["gipower"]
    real_main, real_cv = cli.main, gp.cross_validate

    def main_over_cap(argv):
        code = real_main(argv)
        out = Path(argv[argv.index("--out") + 1])
        text = out.read_text()
        row = next(i for i, r in enumerate(text.splitlines()[1:]) if ",false," in r)
        out.write_text(_edit(text, row, 1, lambda v: repr(1e6 * float(v) + 1e6)))
        return code

    def cv_off(cm, tol):
        cv = real_cv(cm, tol=tol)
        return dataclasses.replace(cv, oracle=cv.oracle * (1 + 1e-3) + 1e-3)

    for workload, attr, owner, fake in (("fig2", "main", cli, main_over_cap),
                                        ("verify", "cross_validate", gp, cv_off)):
        setattr(owner, attr, fake)
        try:
            tally = run.measure(run.make_ops(workload, 1, workdir, mods), max_ops=2)
        finally:
            setattr(owner, attr, real_main if attr == "main" else real_cv)
        report(f"{workload} run with corrupted output", tally.failed >= 2,
               f"{tally.failed} of {tally.states} failed")
    return ok


def main() -> int:
    mods = run.import_gipower()
    ok = metric_table()
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=run.BENCH))
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            ok &= corruption_checks(mods, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
