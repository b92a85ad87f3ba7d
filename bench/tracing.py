"""Per-layer tracing by rebinding gipower's module globals.

Nothing inside `src/` changes: `Tracer.install` replaces each traced
public function, in every gipower module namespace that holds it, with a
wrapper that records a span (name, duration, parent) and restores the
originals on `uninstall`.  Spans are aggregated in memory as they close
(calls, total time, self time, caller) and reported when the run ends;
self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

from spec import SYMPLECTIC_FNS

MODULES = ("cli", "families", "power", "fidelity", "symplectic")

# (layer, function name) of each traced public function.
TRACED = [
    ("cli", "main"),
    ("families", "sample_figure2"),
    ("families", "sample_figure3"),
    ("families", "random_state"),
    ("families", "lower_bound"),
    ("families", "upper_bound"),
    ("families", "lower_branch1_state"),
    ("families", "lower_branch2_state"),
    ("families", "upper_boundary_state"),
    *[("symplectic", fn) for fn in SYMPLECTIC_FNS],
    ("power", "gip_closed_form"),
    ("power", "cross_validate"),
    ("fidelity", "worst_case_qfi"),
]

# Spans whose individual durations are kept for percentiles.
KEEP_DURATIONS = {"fidelity.worst_case_qfi"}


def gipower_modules() -> dict:
    """The gipower package and its submodules, by short name.

    Fetched from sys.modules: `gipower.fidelity` as an attribute is the
    re-exported function `fidelity`, not the module.
    """
    mods = {name: sys.modules[f"gipower.{name}"] for name in MODULES}
    mods["gipower"] = sys.modules["gipower"]
    return mods


class SpanStats:
    __slots__ = ("calls", "total", "self_time", "callers")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.callers = Counter()


class Tracer:
    """Span recorder plus the counters read off traced return values."""

    def __init__(self):
        self.spans: dict[str, SpanStats] = defaultdict(SpanStats)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span name, child time]
        self._restore: list[tuple] = []

    def span(self, name: str, fn, on_result=None):
        """Wrap fn so each call records a span called `name`."""
        stack = self._stack
        spans = self.spans
        keep = self.durations[name] if name in KEEP_DURATIONS else None

        def traced(*args, **kwargs):
            caller = stack[-1][0] if stack else "-"
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                stats = spans[name]
                stats.calls += 1
                stats.total += dt
                stats.self_time += dt - frame[1]
                stats.callers[caller] += 1
                if keep is not None:
                    keep.append(dt)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, mods: dict, original, wrapper) -> None:
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        """Rebind every traced function wherever a gipower module holds it."""
        mods = gipower_modules()
        hooks = {
            "power.gip_closed_form": lambda r: self.counts.update([f"branch.{r.branch}"]),
            "fidelity.worst_case_qfi": lambda r: self.counts.update(
                ["at_boundary"] if r.at_boundary else []),
        }
        for layer, fn_name in TRACED:
            original = getattr(mods[layer], fn_name, None)
            if original is None:
                continue
            name = f"{layer}.{fn_name}"
            self._rebind(mods, original, self.span(name, original, hooks.get(name)))

        # Nelder-Mead refinement inside worst_case_qfi (scipy, bound in fidelity).
        minimize = getattr(mods["fidelity"], "minimize", None)
        if minimize is not None:
            def on_refine(result):
                self.counts["refine.nfev"] += int(result.nfev)
                self.counts["refine.converged"] += bool(result.success)
            self._restore.append((mods["fidelity"], "minimize", minimize))
            mods["fidelity"].minimize = self.span("fidelity.refine", minimize, on_refine)

        # Records built by the sampler: one SampleRecord per record.
        record_cls = getattr(mods["families"], "SampleRecord", None)
        if record_cls is not None:
            counts = self.counts

            class CountedRecord(record_cls):
                def __init__(self, *args, **kwargs):
                    counts["records_built"] += 1
                    super().__init__(*args, **kwargs)

            self._restore.append((mods["families"], "SampleRecord", record_cls))
            mods["families"].SampleRecord = CountedRecord

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    # -- reporting -----------------------------------------------------

    def _layer_self(self, layer: str) -> float:
        return sum(s.self_time for n, s in self.spans.items() if n.split(".")[0] == layer)

    def _get(self, name: str) -> SpanStats:
        return self.spans.get(name) or SpanStats()

    def metrics(self, rows: int, busy_s: float, bytes_out: int) -> dict:
        """Per-layer metrics; rows are the states the workload kept."""

        def ratio(num, den):
            return num / den if den else 0.0

        def us_per_call(name):
            s = self._get(name)
            return ratio(s.total, s.calls) * 1e6

        def pct_ms(name, q):
            d = self.durations.get(name) or []
            if len(d) < 2:
                return d[0] * 1e3 if d else 0.0
            return statistics.quantiles(d, n=10)[q // 10 - 1] * 1e3

        c = self.counts
        draws = self._get("families.random_state").calls
        records = c["records_built"]
        samples = [self._get(f"families.sample_figure{k}") for k in (2, 3)]
        wcq = self._get("fidelity.worst_case_qfi")
        refine = self._get("fidelity.refine")
        closed = self._get("power.gip_closed_form")
        m = {
            "families.draws": draws,
            "families.accept_ratio": ratio(rows, draws),
            "families.records_built": records,
            "families.build_ratio": ratio(rows, records),
            "families.random_state.us_per_call": us_per_call("families.random_state"),
            "families.sample.self_s": sum(s.self_time for s in samples),
        }
        for fn in SYMPLECTIC_FNS:
            m[f"symplectic.{fn}.calls"] = self._get(f"symplectic.{fn}").calls
            m[f"symplectic.{fn}.us_per_call"] = us_per_call(f"symplectic.{fn}")
        m.update({
            "symplectic.self_s": self._layer_self("symplectic"),
            "power.gip_closed_form.calls": closed.calls,
            "power.gip_closed_form.us_per_call": us_per_call("power.gip_closed_form"),
            "power.branch.general": c["branch.general"],
            "power.branch.pure": c["branch.pure"],
            "power.branch.fallback_oracle": c["branch.fallback_oracle"],
            "power.cross_validate.self_s": self._get("power.cross_validate").self_time,
            "fidelity.worst_case_qfi.calls": wcq.calls,
            "fidelity.worst_case_qfi.ms.p50": pct_ms("fidelity.worst_case_qfi", 50),
            "fidelity.worst_case_qfi.ms.p90": pct_ms("fidelity.worst_case_qfi", 90),
            "fidelity.refine_s": refine.total,
            "fidelity.grid_s": wcq.self_time,
            "fidelity.refine.nfev_per_call": ratio(c["refine.nfev"], refine.calls),
            "fidelity.refine.converged_ratio": ratio(c["refine.converged"], refine.calls),
            "fidelity.at_boundary": c["at_boundary"],
            "fidelity.share": ratio(wcq.total, busy_s),
            "cli.self_s": self._layer_self("cli"),
            "cli.bytes_out": bytes_out,
        })
        return m

    def table(self) -> str:
        """Span summary, slowest total first."""
        lines = [f"{'span':40s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s} "
                 f"{'us/call':>10s}  callers"]
        for name, s in sorted(self.spans.items(), key=lambda kv: -kv[1].total):
            callers = ", ".join(f"{k} x{v}" for k, v in s.callers.most_common(3))
            lines.append(f"{name:40s} {s.calls:9d} {s.total:10.4f} {s.self_time:10.4f} "
                         f"{1e6 * s.total / s.calls:10.1f}  {callers}")
        return "\n".join(lines)
