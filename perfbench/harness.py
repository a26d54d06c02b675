"""The benchmark's measurement loop; ``run.py`` is its command line.

Imports the program, so it is loaded only after ``run.py`` has put the
checkout's ``src`` on the path.
"""
from __future__ import annotations

import os
import resource
import shlex
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from pyspark import SparkContext
from pyspark.sql import SparkSession

from layers import Tracer, replay
from metrics import END_TO_END, PER_LAYER, UNITS
from repro.baseline.peeling import peel_decompose
from repro.core.decompose import decompose
from repro.framework.partition import block_sizes, edge_cut, hash_partition
from repro.graphs.generators import edges_to_spark
from workloads import N_BLOCKS, PARTITIONER, WORKLOADS, relabel

SPARK_CORES = min(4, os.cpu_count() or 1)
#: Set-ups per run: a Spark restart costs about a second, a local set-up
#: (graph generation only) a few tens of milliseconds.
SETUP_REPS = {"spark": 3, "local": 9}
MIN_WARM = 1
CAPTURE_LIMIT = 1000

pc = time.perf_counter


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def calibrate() -> float:
    """A fixed pure-Python loop, timed to put run-to-run drift of the
    machine in context."""
    t0 = pc()
    x = 0
    for i in range(2_000_000):
        x += i ^ (i >> 3)
    return pc() - t0


class SparkHost:
    """The run's one ``local[k]`` SparkSession. Settings match
    ``jobs/_common.get_spark``; every temporary file goes to ``scratch``."""

    def __init__(self, scratch: Path):
        os.environ["SPARK_LOCAL_DIRS"] = str(scratch)
        # Both JVMs spark-submit starts (launcher and driver) keep their
        # temporary files in scratch and write no hsperfdata under /tmp.
        os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={scratch} -XX:-UsePerfData"
        os.environ["PYSPARK_SUBMIT_ARGS"] = (
            f"--master local[{SPARK_CORES}] --driver-memory 2g "
            "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
            "--conf spark.ui.showConsoleProgress=false "
            f"--conf spark.local.dir={shlex.quote(str(scratch))} pyspark-shell"
        )
        self.spark = None
        self._gateway = None

    def restart(self) -> None:
        if self.spark is not None:
            self.spark.stop()
        self.spark = (
            SparkSession.builder.appName("perfbench")
            .config("spark.sql.shuffle.partitions", "16")
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", -1)
            .getOrCreate()
        )
        self.spark.sparkContext.setLogLevel("ERROR")
        self._gateway = SparkContext._gateway

    def close(self) -> None:
        if self.spark is not None:
            self.spark.stop()
            self.spark = None
        if self._gateway is not None:
            proc = getattr(self._gateway, "proc", None)
            self._gateway.shutdown()
            if proc is not None:
                proc.stdin.close()
                try:
                    proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            self._gateway = None


class Bench:
    """One workload at one seed: inputs, oracle and the checked call."""

    def __init__(self, workload, seed: int, host: SparkHost | None):
        self.w = workload
        self.seed = seed
        self.host = host
        self.failures: list[str] = []
        self.attempted = 0

    def setup(self) -> dict[str, float]:
        """Set the workload up ``SETUP_REPS`` times; median stage times."""
        stages: dict[str, list[float]] = {"setup": [], "load": [], "input": []}
        for _ in range(SETUP_REPS[self.w.engine]):
            t0 = pc()
            if self.host:
                self.host.restart()
            t1 = pc()
            base = self.w.make()
            edges = relabel(base, self.seed)
            t2 = pc()
            inp = edges_to_spark(self.host.spark, edges) if self.host else edges
            t3 = pc()
            stages["setup"].append(t3 - t0)
            stages["load"].append(t2 - t1)
            stages["input"].append(t3 - t2 if self.host else 0.0)
        self.w.check_base(base)
        self.edges, self.input = edges, inp
        self.oracle, _ = peel_decompose(edges)
        return {k: statistics.median(v) for k, v in stages.items()}

    def call(self, engine: str | None = None, data=None):
        """One ``decompose()``; returns (seconds, result or None)."""
        engine = engine or self.w.engine
        spark = self.host.spark if engine == "spark" else None
        self.attempted += 1
        t0 = pc()
        try:
            res = decompose(
                spark, self.input if data is None else data,
                algo=self.w.algo, mode=self.w.mode, partitioner=PARTITIONER,
                n_blocks=N_BLOCKS, engine=engine,
            )
        except Exception as exc:  # noqa: BLE001 - a failure is a result
            log(traceback.format_exc())
            self.failures.append(f"{engine} decompose raised {exc!r}")
            return pc() - t0, None
        dt = pc() - t0
        got = (res.total_rounds, res.total_messages, res.total_volume)
        if res.anchored != self.oracle:
            self.failures.append(f"{engine}: anchored values differ from peel_decompose")
        elif got != self.w.expected:
            self.failures.append(f"{engine}: rounds/messages/volume {got} != {self.w.expected}")
        return dt, res

    def warm_calls(self, seconds: float, minimum: int) -> list[float]:
        times: list[float] = []
        t0 = pc()
        while len(times) < minimum or pc() - t0 < seconds:
            times.append(self.call()[0])
        return times


def end_to_end(b: Bench, seconds: float) -> dict[str, float]:
    setup = b.setup()["setup"]
    first, res = b.call()
    warm = b.warm_calls(seconds, MIN_WARM)
    log(f"setup {setup:.3f}s first {first:.3f}s warm {[round(t, 3) for t in warm]}")
    counts = (res.total_rounds, res.total_messages, res.total_volume) if res else (0, 0, 0)
    return {
        "setup_s": setup,
        "decompose_s": statistics.median(warm),
        "driver_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": 1 - len(b.failures) / b.attempted,
        "rounds": counts[0],
        "messages": counts[1],
        "volume": counts[2],
    }


def _round_lists(res) -> dict[str, tuple]:
    return {
        phase: (s.msgs_per_round, s.changed_per_round, s.volume_per_round)
        for phase, s in res.stats.items()
    }


def per_layer(b: Bench, seconds: float) -> dict[str, float]:
    setup = b.setup()
    first, _ = b.call()  # cold call, so the traced calls below are warm
    untraced = b.warm_calls(seconds / 2, 1)
    tracer = Tracer(b.w.algo, CAPTURE_LIMIT)
    traced: list[float] = []
    jobs = 0
    cpu0 = time.process_time()
    t0 = pc()
    with tracer.active():
        while not traced or pc() - t0 < seconds / 2:
            if b.host:
                group = f"perfbench-traced-{len(traced)}"
                b.host.spark.sparkContext.setJobGroup(group, "traced decompose")
            dt, res = b.call()
            traced.append(dt)
            if b.host:
                jobs += len(b.host.spark.sparkContext.statusTracker().getJobIdsForGroup(group))
    cpu = time.process_time() - cpu0
    calls = len(traced)
    m = tracer.metrics(calls)
    log(f"untraced {untraced} traced {traced}")

    if b.w.engine == "spark":
        floor, local = b.call(engine="local", data=b.edges)
        if res is not None and local is not None and _round_lists(res) != _round_lists(local):
            b.failures.append("engine invariance: Spark per-round counts differ from LocalEngine")
    else:
        floor = statistics.median(untraced)
    peel = []
    for _ in range(3):
        t1 = pc()
        _, pstats = peel_decompose(b.edges)
        peel.append(pc() - t1)
    micro, bad = replay(tracer.captures)
    b.failures += [f"replayed {k} output differs from the captured one" for k in bad]

    part = hash_partition(b.edges, N_BLOCKS)
    sizes = block_sizes(part)
    m.update({
        "first_decompose_s": first,
        "graphs.load_s": setup["load"],
        "graphs.input_df_s": setup["input"],
        "partition.edge_cut": edge_cut(b.edges, part),
        "partition.block_skew": max(sizes) / statistics.mean(sizes),
        "engine.supersteps": sum(len(s.msgs_per_round) for s in res.stats.values()) if res else 0,
        "spark.jobs": jobs / calls,
        "driver.cpu_s": cpu / calls,
        "engine.compute_floor_s": floor,
        "peeling.s": statistics.median(peel),
        "peeling.rounds": pstats.rounds,
        "bench.calib_s": calibrate(),
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(untraced),
        **micro,
    })
    return m


def run(workload: str, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    w = WORKLOADS[workload]
    host = SparkHost(scratch) if w.engine == "spark" else None
    b = Bench(w, seed, host)
    try:
        metrics = (per_layer if trace else end_to_end)(b, seconds)
    finally:
        if host:
            host.close()
    log(f"calibration loop {calibrate():.3f}s")
    expected = {m[0] for m in (PER_LAYER if trace else END_TO_END)}
    if set(metrics) != expected:
        raise RuntimeError(f"metric set drifted from metrics.py: {set(metrics) ^ expected}")
    for f in b.failures:
        log(f"FAIL {f}")
    return {
        "correct": not b.failures,
        "attempted": b.attempted,
        "failed": len(b.failures),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
