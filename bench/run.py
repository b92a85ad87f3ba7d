#!/usr/bin/env python3
"""gipower benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload fig2 --seed 1 --seconds 40 --trace 0

Workloads (bench/README.md says why each is here):

  fig2, fig3       `gipower sample --which figN` through gipower.cli.main,
                   in-process, in calls of ROWS_PER_CALL rows;
  verify           cross_validate on random_state(a_max=b_max=5) states;
  verify-boundary  cross_validate on lower_branch2 (pure), lower_branch1
                   and upper_boundary(nu, 1e3) states, round robin.

One process, one thread, closed loop: the next call starts when the last
one returned.  Each call's output is checked outside the timed section.
--trace 0 prints the end-to-end metrics of bench/spec.py.  --trace 1 runs
the inputs of the first half of the run untraced, then the same inputs
traced, and prints the per-layer metrics with the tracing overhead.
The last line of stdout is the result object; the lines before it are
for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import spec
from tracing import Tracer, gipower_modules

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

ROWS_PER_CALL = {"fig2": 500, "fig3": 50}  # about 0.15 s per call either way
MP_ROWS_PER_CALL = 8
A_MAX = B_MAX = 5.0
NU_RANGE = (0.05, 0.95)
UPPER_B = 1e3
SETUP_REPEATS = 7

# Times are rescaled to a nominal machine on which reference_kernel()
# takes REF_S: this machine's speed swings by +-30% within seconds, and
# the kernel timed next to each call tracks the swing (see README.md).
REF_S = 0.008
REF_WINDOW = 9
_REF_MATRIX = np.eye(4) + 0.1
_REF_STACK = np.random.default_rng(0).normal(size=(1500, 4, 4))


def import_gipower():
    """Import gipower from this checkout's src/ and nowhere else."""
    if not (SRC / "gipower" / "__init__.py").is_file():
        raise SystemExit(f"error: no gipower sources at {SRC / 'gipower'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gipower
    import gipower.cli  # noqa: F401

    if not Path(gipower.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported gipower from {gipower.__file__}, not {SRC}")
    return gipower_modules()


# -- operations ------------------------------------------------------------


@dataclass
class Op:
    """One timed call: the states it produced and how many failed a check."""

    states: int
    failed: int
    seconds: float
    gap: float = 0.0  # oracle gap (verify*) or largest mpmath difference (fig*)
    bytes_out: int = 0


@dataclass
class Tally:
    """The calls of one phase, each followed by a reference-kernel time."""

    ops: list = field(default_factory=list)
    ref_s: list = field(default_factory=list)

    def add(self, op: Op, ref_s: float) -> None:
        self.ops.append(op)
        self.ref_s.append(ref_s)

    @property
    def states(self) -> int:
        return sum(op.states for op in self.ops)

    @property
    def failed(self) -> int:
        return sum(op.failed for op in self.ops)

    @property
    def gap_max(self) -> float:
        return max(op.gap for op in self.ops)

    @property
    def raw_busy_s(self) -> float:
        return sum(op.seconds for op in self.ops)

    @property
    def speed(self) -> float:
        """REF_S over the median reference time: above 1 on a fast spell."""
        return REF_S / statistics.median(self.ref_s)

    def seconds(self) -> list[float]:
        """Each call's time rescaled by REF_S over the median reference
        time of the REF_WINDOW calls around it."""
        k = REF_WINDOW // 2
        return [op.seconds * REF_S / statistics.median(self.ref_s[max(0, i - k):i + k + 1])
                for i, op in enumerate(self.ops)]

    def state_ms(self) -> list[float]:
        return [1e3 * s / op.states for s, op in zip(self.seconds(), self.ops)]


def sample_ops(which: str, seed: int, workdir: Path, mods):
    """`gipower sample` calls; call i uses CLI seed seed * 10**6 + i."""
    n = ROWS_PER_CALL[which]
    out = workdir / f"{which}.csv"
    for i in count():
        argv = ["sample", "--which", which, "--seed", str(seed * 10**6 + i),
                "--n", str(n), "--out", str(out)]
        t0 = perf_counter()
        try:
            code = mods["cli"].main(argv)
        except Exception:
            traceback.print_exc()
            code = None
        dt = perf_counter() - t0
        if code != 0:
            print(f"sample call {i} returned {code}", file=sys.stderr)
            yield Op(states=n, failed=n, seconds=dt)
            continue
        text = out.read_text()
        mp_rows = set(np.random.default_rng([seed, i]).choice(n, MP_ROWS_PER_CALL, replace=False))
        result = checks.check_sample(which, text, n, mp_rows)
        if result.failed_rows:
            print(f"sample call {i}: {dict(result.reasons)}", file=sys.stderr)
        yield Op(states=n, failed=len(result.failed_rows), seconds=dt,
                 gap=result.mp_max_rel, bytes_out=len(text.encode()))


def random_states(seed: int, mods):
    rng = np.random.default_rng(seed)
    while True:
        yield mods["gipower"].random_state(rng, A_MAX, B_MAX)


def boundary_states(seed: int, mods):
    """Pure, lower-branch-1 and upper-boundary family states in turn."""
    rng = np.random.default_rng(seed)
    gp = mods["gipower"]
    lo, hi = NU_RANGE
    while True:
        yield gp.lower_branch2_state(rng.uniform(lo, hi))
        yield gp.lower_branch1_state(rng.uniform(max(lo, checks.NU_ZERO + 1e-6), hi))
        yield gp.upper_boundary_state(rng.uniform(lo, hi), UPPER_B)


def verify_ops(states, mods):
    """One cross_validate call per state, checked against ORACLE_TOL."""
    gp = mods["gipower"]
    for sf in states:
        cm = gp.from_standard_form(sf)
        t0 = perf_counter()
        try:
            cv = gp.cross_validate(cm, tol=checks.ORACLE_TOL)
        except Exception:
            traceback.print_exc()
            yield Op(states=1, failed=1, seconds=perf_counter() - t0)
            continue
        dt = perf_counter() - t0
        gap = checks.oracle_gap(cv.closed, cv.oracle)
        ok = gap <= checks.ORACLE_TOL
        if not ok:
            print(f"oracle miss: (a,b,c,d) = ({sf.a!r}, {sf.b!r}, {sf.c!r}, {sf.d!r}) "
                  f"closed {cv.closed!r} oracle/4 {cv.oracle!r} gap {gap:.3e}", file=sys.stderr)
        yield Op(states=1, failed=int(not ok), seconds=dt, gap=gap)


def make_ops(workload: str, seed: int, workdir: Path, mods):
    """A fresh, deterministic stream of operations for the workload."""
    if workload in ROWS_PER_CALL:
        return sample_ops(workload, seed, workdir, mods)
    states = random_states if workload == "verify" else boundary_states
    return verify_ops(states(seed, mods), mods)


def reference_kernel() -> float:
    """Seconds taken by a fixed kernel that does not touch gipower.

    The mix gipower's own time is made of: numpy calls on single 4x4
    matrices, numpy calls on stacks of them, and interpreted arithmetic.
    """
    t0 = perf_counter()
    for _ in range(600):
        np.linalg.det(_REF_MATRIX)
    for _ in range(8):
        np.linalg.det(_REF_STACK @ _REF_STACK)
    x = 0.0
    for i in range(10000):
        x += i * 0.5
    return perf_counter() - t0


def measure(ops, seconds: float | None = None, max_ops: int | None = None) -> Tally:
    """Run ops until `seconds` of wall time have passed or max_ops are done.

    The reference kernel runs after every call, outside the timed section,
    and the call's time is rescaled by REF_S over the kernel's time.
    """
    tally = Tally()
    t_end = perf_counter() + seconds if seconds is not None else None
    for op in ops:
        tally.add(op, reference_kernel())
        if len(tally.ops) == max_ops or (t_end is not None and perf_counter() >= t_end):
            break
    ops.close()
    return tally


# -- set-up and environment ------------------------------------------------


def measure_setup(repeats: int) -> float:
    """Median time of `import gipower, gipower.cli` in a fresh interpreter.

    Each import is rescaled by the mean reference-kernel time before and
    after it.
    One discarded run first, so byte-code caches are written before timing.
    """
    env = {k: v for k, v in os.environ.items() if k != "GIPOWER_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    cmd = [sys.executable, "-c", "import gipower, gipower.cli"]
    times = []
    ref_before = reference_kernel()
    for _ in range(repeats + 1):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)
        seconds = perf_counter() - t0
        ref_after = reference_kernel()
        times.append(seconds * 2 * REF_S / (ref_before + ref_after))
        ref_before = ref_after
    return statistics.median(times[1:])


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import mpmath
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


# -- the run ---------------------------------------------------------------


TIME_UNITS = ("s", "ms", "us")
UNITS = {name: unit for name, unit, *_ in spec.END_TO_END + spec.PER_LAYER}


def quantile(values, q: int) -> float:
    """q-th percentile (q a multiple of 10) as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=10)[q // 10 - 1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload and return the result object."""
    mods = import_gipower()
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        def ops():
            return make_ops(workload, seed, workdir, mods)

        measure(ops(), max_ops=1)  # warm-up: lazy imports and caches
        if not trace:
            setup_s = measure_setup(setup_repeats)
            tally = measure(ops(), seconds)
            state_ms = tally.state_ms()
            metrics = {
                "setup_s": setup_s,
                "states_per_s": tally.states / sum(tally.seconds()),
                "state_ms.p50": statistics.median(state_ms),
                "state_ms.p90": quantile(state_ms, 90),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            attempted, failed, gap_max = tally.states, tally.failed, tally.gap_max
            print(f"# {len(tally.ops)} calls, {tally.states} states, {tally.raw_busy_s:.3f} s busy "
                  f"as measured, machine speed {tally.speed:.3f}")
        else:
            plain = measure(ops(), seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(ops(), max_ops=len(plain.ops))
            finally:
                tracer.uninstall()
            attempted = plain.states + traced.states
            failed = plain.failed + traced.failed
            gap_max = max(plain.gap_max, traced.gap_max)
            bytes_out = sum(op.bytes_out for op in traced.ops)
            metrics = tracer.metrics(traced.states, traced.raw_busy_s, bytes_out)
            for name in metrics:
                if UNITS[name] in TIME_UNITS:
                    metrics[name] *= traced.speed
            plain_s, traced_s = sum(plain.seconds()), sum(traced.seconds())
            metrics["trace.overhead_s"] = traced_s - plain_s
            metrics["trace.overhead_pct"] = 100 * (traced_s - plain_s) / plain_s
            metrics["machine.speed"] = traced.speed
            metrics["fail_frac"] = failed / attempted
            metrics["oracle_gap.max"] = gap_max if workload.startswith("verify") else 0.0
            print(f"# {len(plain.ops)} calls untraced in {plain.raw_busy_s:.3f} s, traced in "
                  f"{traced.raw_busy_s:.3f} s as measured; machine speed "
                  f"{plain.speed:.3f} and {traced.speed:.3f}")
            print(tracer.table())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = [m[0] for m in (spec.PER_LAYER if trace else spec.END_TO_END)]
    print(f"# fail_frac {failed / attempted!r} ({failed} of {attempted}), "
          f"max check gap {gap_max!r}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": UNITS[name]} for name in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    os.environ.pop("GIPOWER_THREADS", None)  # single-threaded sampling
    import_gipower()
    print("# env " + json.dumps(environment()))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
