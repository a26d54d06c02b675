"""The benchmark's metric table: one source for ``BENCHMARK.json``.

Each per-layer metric names the end-to-end metric it should move and on
which workloads (``moves``); ``BENCHMARK.json`` has no field for that, so
it lives here. Regenerate the JSON after editing this table::

    python3 perfbench/metrics.py > BENCHMARK.json
"""
from __future__ import annotations

import json

SPARK = "spark-fig2x64-ac-block"
WV = "local-wv-sc-block"
AM = "local-am-ac-vertex"
ALL = f"{SPARK}, {WV}, {AM}"
LOCAL = f"{WV}, {AM}"

WORKLOADS = [
    (SPARK, "Spark engine, AC, block mode, 64 copies of the paper's Figure 2: "
            "the per-superstep parquet barrier, driver actions and int-array "
            "state dominate, kernels barely run"),
    (WV, "LocalEngine, SC, block mode, WV analog: bound by the D-index kernel "
         "(about 70% of the time) and the block-local fixpoint; bypasses Spark"),
    (AM, "LocalEngine, AC, vertex mode, AM analog: H-index, LUpp and Refine "
         "kernels plus vertex-mode fan-out and payload_size; bypasses Spark "
         "and D-index"),
]

# name, unit, better, bound
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("decompose_s", "s", "lower", 0.25),
    ("driver_peak_rss_mb", "MB", "lower", 0.1),
    ("success_rate", "ratio", "higher", 0.01),
    ("rounds", "count", "lower", 0.01),
    ("messages", "count", "lower", 0.01),
    ("volume", "count", "lower", 0.01),
]

# name, unit, better, moves
PER_LAYER = [
    # The cold first call is one sample per run, so on a host whose speed
    # drifts it cannot hold an end-to-end bound; it is reported here.
    ("first_decompose_s", "s", "lower", f"nothing else: the cold call a jobs/run_decomposition.py user pays, on {ALL}"),
    ("graphs.load_s", "s", "lower", f"setup_s on {ALL}"),
    ("graphs.input_df_s", "s", "lower", f"setup_s on {SPARK} (no DataFrame on {LOCAL})"),
    ("partition.s", "s", "lower", f"decompose_s on {ALL}; small under HASH"),
    ("partition.edge_cut", "ratio", "lower", f"messages on {ALL}"),
    ("partition.block_skew", "ratio", "lower", f"decompose_s on {ALL}"),
    ("engine.init_s", "s", "lower", f"decompose_s, first_decompose_s, driver_peak_rss_mb on {SPARK}"),
    ("engine.run_s", "s", "lower", f"decompose_s, first_decompose_s on {SPARK}"),
    ("engine.supersteps", "count", "lower", f"decompose_s on {SPARK}; engine-invariant"),
    ("spark.jobs", "count", "lower", f"decompose_s on {SPARK}"),
    ("spark.writes", "count", "lower", f"decompose_s on {SPARK}"),
    ("spark.write_s", "s", "lower", f"decompose_s on {SPARK}"),
    ("spark.write_p50_s", "s", "lower", f"decompose_s on {SPARK}"),
    ("spark.write_max_s", "s", "lower", f"decompose_s on {SPARK}"),
    ("spark.written_mb", "MB", "lower", f"decompose_s on {SPARK}"),
    ("spark.written_mb_per_superstep", "MB", "lower", f"decompose_s on {SPARK}"),
    ("spark.actions", "count", "lower", f"decompose_s on {SPARK}"),
    ("spark.action_s", "s", "lower", f"decompose_s on {SPARK}"),
    ("engine.driver_self_s", "s", "lower", f"decompose_s on {SPARK}"),
    ("driver.cpu_s", "s", "lower", f"decompose_s on {ALL}"),
    ("engine.compute_floor_s", "s", "lower", f"decompose_s on {SPARK} (its lower bound)"),
    ("local_engine.init_s", "s", "lower", f"decompose_s on {LOCAL}"),
    ("local_engine.run_s", "s", "lower", f"decompose_s on {LOCAL}"),
    ("runtime.block_rounds", "count", "lower", f"decompose_s on {LOCAL}"),
    ("runtime.block_round_self_s", "s", "lower", f"decompose_s on {AM} (fan-out), {WV} (fixpoint)"),
    ("runtime.updates", "count", "lower", f"decompose_s on {LOCAL}"),
    ("runtime.useful_update_ratio", "ratio", "higher", f"decompose_s on {LOCAL}"),
    ("runtime.block_work_skew", "ratio", "lower", f"decompose_s on {LOCAL}"),
    ("runtime.payload_size_calls", "count", "lower", f"decompose_s on {AM}"),
    ("runtime.payload_size_s", "s", "lower", f"decompose_s on {AM}"),
    ("kernel.h_index_calls", "count", "lower", f"decompose_s on {AM}"),
    ("kernel.h_index_s", "s", "lower", f"decompose_s on {AM}"),
    ("kernel.d_index_calls", "count", "lower", f"decompose_s on {WV}"),
    ("kernel.d_index_s", "s", "lower", f"decompose_s on {WV}"),
    ("program.hindex.update_calls", "count", "lower", f"decompose_s on {AM}"),
    ("program.hindex.update_s", "s", "lower", f"decompose_s on {AM}"),
    ("program.lupp.update_calls", "count", "lower", f"decompose_s on {AM}"),
    ("program.lupp.update_s", "s", "lower", f"decompose_s on {AM}"),
    ("program.refine.update_calls", "count", "lower", f"decompose_s on {AM}"),
    ("program.refine.update_s", "s", "lower", f"decompose_s on {AM}"),
    ("program.skyline.update_calls", "count", "lower", f"decompose_s on {WV}"),
    ("program.skyline.update_s", "s", "lower", f"decompose_s on {WV}"),
    ("micro.h_index_us", "us", "lower", f"decompose_s on {AM}"),
    ("micro.d_index_us", "us", "lower", f"decompose_s on {WV}"),
    ("micro.lupp_update_us", "us", "lower", f"decompose_s on {AM}"),
    ("micro.refine_update_us", "us", "lower", f"decompose_s on {AM}"),
    ("phase.phase1_s", "s", "lower", f"decompose_s on {SPARK}, {AM}"),
    ("phase.phase2_s", "s", "lower", f"decompose_s on {SPARK}, {AM}"),
    ("phase.phase3_s", "s", "lower", f"decompose_s on {SPARK}, {AM}"),
    ("phase.init_in_s", "s", "lower", f"decompose_s on {WV}"),
    ("phase.init_out_s", "s", "lower", f"decompose_s on {WV}"),
    ("phase.dindex_s", "s", "lower", f"decompose_s on {WV}"),
    ("phase.glue_s", "s", "lower", f"decompose_s, driver_peak_rss_mb on {SPARK}, {AM}"),
    ("decompose.convert_s", "s", "lower", f"decompose_s on {ALL}"),
    ("peeling.s", "s", "lower", "nothing: the Exp-3 reference"),
    ("peeling.rounds", "count", "lower", "nothing: the Exp-3 reference"),
    ("bench.calib_s", "s", "lower", "nothing: machine drift context"),
    ("trace.overhead_ratio", "ratio", "lower", "nothing: tracing cost"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 10,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
