"""Spark distributed engine tests: the one-job-per-superstep dataflow
(grouped ``applyInPandas``, observed round stats, local-checkpoint
barrier) must be observationally identical to the local reference engine
(values, per-round message/changed/volume counts, per-vertex convergence
rounds), correct vs the peeling oracle, and leave no checkpoint behind.

Graphs are kept small — every superstep is a real Spark job."""
import pytest

from repro.baseline.peeling import peel_decompose
from repro.core.anchored import (
    HIndexProgram,
    LUppProgram,
    RefineProgram,
    anchored_to_skyline,
    neighbor_attr_map,
)
from repro.core.decompose import decompose
from repro.core.skyline import SkylineProgram
from repro.framework.block_runtime import VertexProgram
from repro.framework.engine import SparkEngine
from repro.framework.local_engine import LocalEngine
from repro.framework.partition import hash_partition, metis_lite_partition
from repro.graphs.datasets import paper_figure2
from repro.graphs.generators import edges_to_spark, er_digraph

EDGES = er_digraph(40, 220, seed=11)
PART = hash_partition(EDGES, 3)


@pytest.fixture(scope="module")
def spark_engine(spark):
    return SparkEngine(spark, edges_to_spark(spark, EDGES), PART, 3)


@pytest.fixture(scope="module")
def peel():
    return peel_decompose(EDGES)[0]


def test_adjacency_matches_local(spark_engine):
    local = LocalEngine(EDGES, PART)
    assert {v: sorted(t) for v, t in spark_engine.in_nbrs.items()} == {
        v: sorted(t) for v, t in local.in_nbrs.items()
    }
    assert {v: sorted(t) for v, t in spark_engine.out_nbrs.items()} == {
        v: sorted(t) for v, t in local.out_nbrs.items()
    }


@pytest.mark.parametrize("mode", ["vertex", "block"])
@pytest.mark.parametrize("direction", ["in", "out"])
def test_hindex_program_engine_invariance(spark_engine, mode, direction):
    """Same values, same per-round message/changed counts as the
    reference engine — the distributed run is a faithful execution."""
    prog = HIndexProgram(direction)
    sv, ss = spark_engine.run(prog, mode=mode)
    lv, ls = LocalEngine(EDGES, PART).run(prog, mode=mode)
    assert sv == lv
    assert ss.rounds == ls.rounds
    assert ss.msgs_per_round == ls.msgs_per_round
    assert ss.changed_per_round == ls.changed_per_round


@pytest.fixture(scope="module")
def phase_inputs():
    """Each array/skyline program with the attrs its phase driver passes:
    ``nbr_kmax`` keyed by int vid, ``init_pair`` as a list."""
    local = LocalEngine(EDGES, PART)
    kmax, _ = local.run(HIndexProgram("in"))
    lmax, _ = local.run(HIndexProgram("out"))
    nbr_kmax = neighbor_attr_map(local.in_nbrs, local.out_nbrs, kmax)
    attrs2 = {v: {"kmax": kmax[v], "nbr_kmax": nbr_kmax[v]} for v in kmax}
    lupp, _ = local.run(LUppProgram(), attrs=attrs2)
    attrs3 = {v: dict(attrs2[v], lupp=lupp[v]) for v in kmax}
    return {
        "lupp": (LUppProgram(), attrs2),
        "refine": (RefineProgram(), attrs3),
        "skyline": (
            SkylineProgram(),
            {v: {"init_pair": [kmax[v], lmax[v]]} for v in kmax},
        ),
    }


@pytest.mark.parametrize("mode", ["vertex", "block"])
@pytest.mark.parametrize("name", ["lupp", "refine", "skyline"])
def test_program_values_engine_invariance(spark_engine, phase_inputs, name, mode):
    """Raw engine values, not passed through ``skyline()``, equal the
    reference engine's: an l-array stays a list of ints and a skyline a
    list of (k, l) tuples through the Spark supersteps."""
    prog, attrs = phase_inputs[name]
    sv, ss = spark_engine.run(prog, mode=mode, attrs=attrs)
    lv, ls = LocalEngine(EDGES, PART).run(prog, mode=mode, attrs=attrs)
    assert sv == lv
    assert ss.msgs_per_round == ls.msgs_per_round
    assert ss.changed_per_round == ls.changed_per_round
    assert ss.volume_per_round == ls.volume_per_round
    assert ss.converge_round == ls.converge_round


@pytest.mark.parametrize("algo,mode", [
    ("AC", "vertex"), ("AC", "block"), ("SC", "vertex"), ("SC", "block"),
])
def test_decompose_spark_correct(spark, algo, mode, peel):
    res = decompose(
        spark, edges_to_spark(spark, EDGES), algo=algo, mode=mode,
        partitioner="hash", n_blocks=3, engine="spark",
    )
    assert res.anchored == peel
    assert res.skyline == anchored_to_skyline(peel)
    assert res.total_rounds >= 1
    assert res.total_messages > 0


def test_decompose_engines_agree_on_stats(spark, peel):
    """Rounds and message counts are engine-invariant by construction."""
    kw = dict(algo="SC", mode="block", partitioner="metis", n_blocks=4)
    r_spark = decompose(spark, edges_to_spark(spark, EDGES), engine="spark", **kw)
    r_local = decompose(None, EDGES, engine="local", **kw)
    assert r_spark.anchored == r_local.anchored
    assert r_spark.rounds == r_local.rounds
    assert r_spark.total_messages == r_local.total_messages


def test_spark_engine_on_paper_figure2(spark):
    edges = paper_figure2()
    res = decompose(
        spark, edges_to_spark(spark, edges), algo="SC", mode="block",
        n_blocks=2, engine="spark",
    )
    assert {v: set(p) for v, p in res.skyline.items()} == {
        1: {(2, 2)}, 2: {(2, 0)}, 3: {(2, 0)}, 4: {(2, 2)}, 5: {(2, 2)},
        6: {(2, 2)}, 7: {(0, 2), (1, 1)}, 8: {(1, 1), (2, 0)},
    }


def test_spark_engine_restores_shuffle_partitions(spark, spark_engine):
    before = spark.conf.get("spark.sql.shuffle.partitions")
    spark_engine.run(HIndexProgram("in"), mode="vertex")
    assert spark.conf.get("spark.sql.shuffle.partitions") == before


def test_spark_engine_rejects_partial_partition(spark):
    with pytest.raises(ValueError):
        SparkEngine(spark, edges_to_spark(spark, EDGES), {0: 0}, 1)


class _WavefrontProgram(VertexProgram):
    """Distance-from-vertex-0 propagation: converges in exactly
    path-length rounds, one wavefront step per superstep."""

    consumes = "in"
    BIG = 1 << 30

    def init_value(self, ctx):
        return 0 if ctx.vid == 0 else self.BIG

    def update(self, ctx, value, cache):
        best = min((cache.get(u, self.BIG) for u in ctx.in_nbrs),
                   default=self.BIG)
        return min(value, best + 1 if best < self.BIG else self.BIG)


def test_spark_engine_many_rounds_regression(spark):
    """Regression guard for the Catalyst sizeInBytes blowup (see
    engine.py docstring): >30 supersteps in a single run must complete
    in bounded time. A directed path forces one wavefront per round."""
    import time

    n = 35
    path_edges = [(i, i + 1) for i in range(n)]
    eng = SparkEngine(spark, edges_to_spark(spark, path_edges),
                      hash_partition(path_edges, 2), 2)
    t0 = time.perf_counter()
    values, stats = eng.run(_WavefrontProgram(), mode="vertex")
    elapsed = time.perf_counter() - t0
    assert values == {i: i for i in range(n + 1)}
    assert stats.rounds >= n - 1
    # Pre-fix, round ~25 alone took minutes; the whole run must not.
    assert elapsed < 120, f"superstep loop degraded: {elapsed:.0f}s"


def _persisted(spark) -> int:
    return len(spark.sparkContext._jsc.getPersistentRDDs())


def test_spark_engine_run_frees_round_checkpoints(spark):
    eng = SparkEngine(spark, edges_to_spark(spark, EDGES), PART, 3)
    before = _persisted(spark)
    eng.run(HIndexProgram("in"), mode="block")
    assert _persisted(spark) == before
    eng.close()
    assert _persisted(spark) == before - 1


def test_decompose_spark_frees_checkpoints(spark):
    before = _persisted(spark)
    decompose(spark, paper_figure2(), algo="AC", mode="block", n_blocks=2)
    assert _persisted(spark) == before


@pytest.mark.parametrize("engine", ["spark", "local"])
@pytest.mark.parametrize("mode", ["vertex", "block"])
def test_non_convergence_names_program_and_mode(spark, engine, mode):
    eng = (
        SparkEngine(spark, edges_to_spark(spark, EDGES), PART, 3)
        if engine == "spark" else LocalEngine(EDGES, PART)
    )
    with pytest.raises(RuntimeError) as err:
        eng.run(HIndexProgram("in"), mode=mode, max_rounds=1)
    assert str(err.value) == (
        f"HIndexProgram ({mode} mode): no convergence within 1 rounds"
    )
    if engine == "spark":
        eng.close()


DEGENERATE = {
    "empty": [],
    "single_edge": [(0, 1)],
    "duplicates_self_loops": [
        (0, 1), (0, 1), (1, 0), (1, 1), (1, 2), (1, 2), (2, 2), (2, 0),
    ],
    "self_loop_only_vertex": [(1, 2), (3, 3)],
    "all_sink_star": [(0, i) for i in range(1, 7)],
    "two_cycles": [(0, 1), (1, 2), (2, 0), (10, 11), (11, 12), (12, 13), (13, 10)],
}


@pytest.mark.parametrize("algo", ["AC", "SC"])
@pytest.mark.parametrize("mode", ["vertex", "block"])
@pytest.mark.parametrize("graph", list(DEGENERATE))
def test_degenerate_graph_engine_invariance(spark, graph, mode, algo):
    """Every phase's per-round counts and per-vertex convergence rounds
    match the reference engine, and values match peeling, on inputs that
    exercise the engine's edge cases (no rows, no messages, vertices
    without edges)."""
    edges = DEGENERATE[graph]
    kw = dict(algo=algo, mode=mode, partitioner="hash", n_blocks=3)
    r_spark = decompose(spark, edges, engine="spark", **kw)
    r_local = decompose(None, edges, engine="local", **kw)
    assert r_spark.anchored == r_local.anchored == peel_decompose(edges)[0]
    assert r_spark.stats.keys() == r_local.stats.keys()
    for phase, ls in r_local.stats.items():
        ss = r_spark.stats[phase]
        assert ss.msgs_per_round == ls.msgs_per_round, phase
        assert ss.changed_per_round == ls.changed_per_round, phase
        assert ss.volume_per_round == ls.volume_per_round, phase
        assert ss.converge_round == ls.converge_round, phase


def test_decompose_spark_dataframe_keeps_self_loop_only_vertex(spark):
    """A DataFrame input's self-loop-only vertex reaches the partition
    and the result, as it does for an edge-list input."""
    edges = DEGENERATE["self_loop_only_vertex"]
    res = decompose(spark, edges_to_spark(spark, edges), algo="AC",
                    n_blocks=3, engine="spark")
    assert res.anchored == peel_decompose(edges)[0] == {1: [0], 2: [0], 3: [0]}
