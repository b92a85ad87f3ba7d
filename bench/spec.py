"""What the benchmark measures: workloads, metrics, units and bounds.

`bench/all.py` writes BENCHMARK.json from this module, and `bench/run.py`
reports exactly these metric names, so the two cannot drift apart.
"""

from __future__ import annotations

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 40

# Workload -> why it is in the benchmark.  BENCHMARK.json lists only
# LISTED_WORKLOADS, on which no operation fails.  fig2 and verify-boundary
# run through the same command and report their failures, which come from
# two known defects of the program (README.md, "Known failures").
WORKLOADS = {
    "fig2": "sample --which fig2 via the CLI: per-state symplectic/power/families cost, no rejections, oracle idle",
    "fig3": "sample --which fig3 via the CLI: about 13 draws per kept row, so the sampler's wasted records dominate",
    "verify": "cross_validate on random states: about 99% of the time is the worst-case QFI oracle",
    "verify-boundary": "cross_validate on pure and extremal family states: pure branches, Richardson retry, slowest oracle calls",
}
LISTED_WORKLOADS = ["fig3", "verify"]

# (name, unit, better, bound): metrics a user of gipower sees.  A "state"
# is one CSV row on fig2/fig3 and one oracle-checked state on verify*.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("states_per_s", "1/s", "higher", 0.2),
    ("state_ms.p50", "ms", "lower", 0.2),
    ("state_ms.p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

SYMPLECTIC_FNS = [
    "validate_bona_fide",
    "from_standard_form",
    "mean_photon_A",
    "log_negativity",
    "is_separable",
    "pt_min_symplectic_eigenvalue",
    "block_determinants",
]

# (name, unit, better): metrics of single layers, from the traced run.
PER_LAYER = [
    ("families.draws", "count", "lower"),
    ("families.accept_ratio", "ratio", "higher"),
    ("families.records_built", "count", "lower"),
    ("families.build_ratio", "ratio", "higher"),
    ("families.random_state.us_per_call", "us", "lower"),
    ("families.sample.self_s", "s", "lower"),
    *[(f"symplectic.{fn}.{kind}", unit, "lower")
      for fn in SYMPLECTIC_FNS for kind, unit in (("calls", "count"), ("us_per_call", "us"))],
    ("symplectic.self_s", "s", "lower"),
    ("power.gip_closed_form.calls", "count", "lower"),
    ("power.gip_closed_form.us_per_call", "us", "lower"),
    ("power.branch.general", "count", "higher"),
    ("power.branch.pure", "count", "higher"),
    ("power.branch.fallback_oracle", "count", "lower"),
    ("power.cross_validate.self_s", "s", "lower"),
    ("fidelity.worst_case_qfi.calls", "count", "lower"),
    ("fidelity.worst_case_qfi.ms.p50", "ms", "lower"),
    ("fidelity.worst_case_qfi.ms.p90", "ms", "lower"),
    ("fidelity.refine_s", "s", "lower"),
    ("fidelity.grid_s", "s", "lower"),
    ("fidelity.refine.nfev_per_call", "count", "lower"),
    ("fidelity.refine.converged_ratio", "ratio", "higher"),
    ("fidelity.at_boundary", "count", "lower"),
    ("fidelity.share", "ratio", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_out", "bytes", "higher"),
    ("fail_frac", "ratio", "lower"),
    ("oracle_gap.max", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("machine.speed", "ratio", "higher"),
]


def benchmark_json() -> dict:
    """The BENCHMARK.json document for the listed workloads."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WORKLOADS[w]} for w in LISTED_WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
