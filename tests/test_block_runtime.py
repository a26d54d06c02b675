"""Block-runtime semantics tests: message accounting, activation rules,
mode equivalence, and the convergence metrics."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.anchored import HIndexProgram, run_anchored
from repro.framework.block_runtime import (
    RunStats,
    VertexCtx,
    VertexProgram,
    VRec,
    run_block_round,
)
from repro.framework.local_engine import LocalEngine, adjacency
from repro.framework.partition import hash_partition, metis_lite_partition
from repro.graphs.generators import chung_lu_digraph, er_digraph

EDGES = er_digraph(80, 500, seed=2)


def test_adjacency_dedupes_and_covers():
    in_n, out_n = adjacency([(1, 2), (1, 2), (2, 3), (3, 3), (2, 1)])
    assert in_n[2] == (1,) and out_n[1] == (2,)
    assert in_n[3] == (2,) and out_n[3] == ()  # self-loop dropped
    assert set(in_n) == {1, 2, 3}


def test_partition_must_cover_vertices():
    with pytest.raises(ValueError):
        LocalEngine([(1, 2)], {1: 0})


def test_unknown_mode_rejected():
    eng = LocalEngine(EDGES)
    with pytest.raises(ValueError):
        eng.run(HIndexProgram("in"), mode="banana")


def test_hindex_direction_validation():
    with pytest.raises(ValueError):
        HIndexProgram("sideways")


def test_vertex_and_block_modes_same_fixpoint():
    for direction in ("in", "out"):
        prog = HIndexProgram(direction)
        vals = []
        for mode in ("vertex", "block"):
            for nb in (1, 3, 7):
                eng = LocalEngine(EDGES, hash_partition(EDGES, nb))
                v, _ = eng.run(prog, mode=mode)
                vals.append(v)
        assert all(v == vals[0] for v in vals)


def test_block_mode_fewer_or_equal_messages():
    """Block mode counts only cross-block traffic, so it can never send
    more messages than vertex mode on the same partition."""
    part = hash_partition(EDGES, 4)
    eng = LocalEngine(EDGES, part)
    _, s_v = eng.run(HIndexProgram("in"), mode="vertex")
    _, s_b = eng.run(HIndexProgram("in"), mode="block")
    assert s_b.total_messages <= s_v.total_messages


def test_single_block_block_mode_sends_nothing():
    eng = LocalEngine(EDGES)  # one block
    vals, stats = eng.run(HIndexProgram("in"), mode="block")
    assert stats.total_messages == 0
    assert stats.rounds <= 1  # everything converges inside round 1
    eng2 = LocalEngine(EDGES)
    vals2, _ = eng2.run(HIndexProgram("in"), mode="vertex")
    assert vals == vals2


def test_block_mode_rounds_never_exceed_vertex_mode():
    for nb in (2, 4, 8):
        part = hash_partition(EDGES, nb)
        eng = LocalEngine(EDGES, part)
        _, s_v = eng.run(HIndexProgram("in"), mode="vertex")
        _, s_b = eng.run(HIndexProgram("in"), mode="block")
        assert s_b.rounds <= s_v.rounds


def test_locality_partition_cuts_messages():
    """A locality partitioner must reduce cross-block traffic vs HASH in
    block mode (Exp-6's communication result)."""
    edges = chung_lu_digraph(200, 1_500, seed=5)
    eng_h = LocalEngine(edges, hash_partition(edges, 8))
    eng_m = LocalEngine(edges, metis_lite_partition(edges, 8))
    _, s_h = eng_h.run(HIndexProgram("in"), mode="block")
    _, s_m = eng_m.run(HIndexProgram("in"), mode="block")
    assert s_m.total_messages < s_h.total_messages


def test_monotone_iterates_non_increasing():
    """Theorem 4.1's workhorse: per-vertex iH values never increase
    across rounds (observed through a recording program)."""
    history: dict[int, list[int]] = {}

    class Recording(HIndexProgram):
        def update(self, ctx, value, cache):
            new = super().update(ctx, value, cache)
            history.setdefault(ctx.vid, []).append(new)
            return new

    eng = LocalEngine(EDGES)
    eng.run(Recording("in"), mode="vertex")
    for vals in history.values():
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_runstats_metrics():
    eng = LocalEngine(EDGES, hash_partition(EDGES, 4))
    _, stats = eng.run(HIndexProgram("in"), mode="vertex")
    assert stats.rounds >= 1
    assert stats.total_messages == sum(stats.msgs_per_round)
    assert set(stats.converge_round) == set(eng.vertices)
    # convergence_rate is monotone in the round index and hits 1.0
    rates = [stats.convergence_rate(r) for r in range(stats.rounds + 1)]
    assert all(a <= b for a, b in zip(rates, rates[1:]))
    assert rates[-1] == 1.0


def test_runstats_merge_offsets_rounds():
    a = RunStats(msgs_per_round=[5, 3], changed_per_round=[0, 2],
                 converge_round={1: 1, 2: 0})
    b = RunStats(msgs_per_round=[4, 0], changed_per_round=[0, 1],
                 converge_round={1: 1, 2: 0})
    m = a.merged_with(b)
    assert m.total_messages == 12
    assert m.converge_round[1] == 3  # offset by len(a.msgs_per_round)
    assert m.converge_round[2] == 0


def test_non_monotone_program_guard():
    """A program that oscillates must trip the block-local budget guard
    instead of hanging."""

    class Oscillator(VertexProgram):
        consumes = "both"

        def init_value(self, ctx):
            return 0

        def update(self, ctx, value, cache):
            return 1 - value

    eng = LocalEngine([(1, 2), (2, 1)])
    with pytest.raises(
        RuntimeError,
        match=r"^Oscillator \(block mode\): block 0 did not converge "
        r"locally in round 1$",
    ):
        eng.run(Oscillator(), mode="block", max_rounds=50)


def test_vertex_mode_oscillator_hits_round_cap():
    class Oscillator(VertexProgram):
        consumes = "both"

        def init_value(self, ctx):
            return 0

        def update(self, ctx, value, cache):
            return 1 - value

    eng = LocalEngine([(1, 2), (2, 1)])
    with pytest.raises(RuntimeError):
        eng.run(Oscillator(), mode="vertex", max_rounds=50)


def _payload_size_recursive(value) -> int:
    """The recursive reference form of ``VertexProgram.payload_size``."""
    if isinstance(value, int):
        return 1
    if isinstance(value, (list, tuple)):
        return sum(_payload_size_recursive(v) for v in value)
    return 1


_ints = st.integers(min_value=0, max_value=1 << 30)
_payloads = st.one_of(
    _ints,  # Phase-I H-index value
    st.lists(_ints, max_size=30),  # l-array (AC Phases II/III)
    st.lists(st.tuples(_ints, _ints), max_size=15),  # skyline (SC)
    st.lists(st.lists(_ints, min_size=2, max_size=2), max_size=15),  # JSON skyline
)


@given(_payloads)
def test_payload_size_closed_form_matches_recursive(value):
    """Message volumes (Fig. 4(b)) must not change with the closed form."""
    assert HIndexProgram("in").payload_size(value) == _payload_size_recursive(value)


def test_self_active_message_target_updates_once_per_round():
    """A vertex that is both a message destination and self-active is
    updated once in a vertex-mode round."""
    calls = []

    class Counting(VertexProgram):
        consumes = "both"

        def init_value(self, ctx):
            return 5

        def update(self, ctx, value, cache):
            calls.append(ctx.vid)
            return value

    recs = {
        v: VRec(ctx=VertexCtx(v, (), (), {}), block=0, consumers=(), value=5,
                self_active=True)
        for v in (1, 2, 3)
    }
    changed, out = run_block_round(
        0, recs, [(1, 9, 4), (1, 8, 4), (2, 9, 4)], Counting(), "vertex", 2
    )
    assert sorted(calls) == [1, 2, 3]
    assert changed == set() and out == []
    assert not any(r.self_active for r in recs.values())
