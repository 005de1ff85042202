"""Differential tests: pooled image computation vs. the sequential fixpoint.

``RelationalEngineOptions(parallel=N)`` runs the fixpoint's image
computations on a persistent pool of spawned workers
(:mod:`repro.verification.parallel`), in either of two modes — frontier
sharding (image distributes over disjunction) and cluster parallelism
(per-cluster partial products under the private-variable restriction).
Both must be *pinned equal* to the sequential engine: verdicts, reachable
state counts, iteration counts, per-ring state counts and rendered
counterexample traces, across the boolean and the finite-integer corpus.

CI runs this file at ``REPRO_PARALLEL_WORKERS`` = 1, 2 and 4 (the
``parallel_workers`` fixture in the repo conftest), so every pool width is
exercised; locally it defaults to 2.
"""

import os

import pytest

from repro.clocks.bdd import (
    BDDManager,
    IncrementalDumper,
    IncrementalLoader,
    load_nodes,
)
from repro.signal.library import (
    alternator_process,
    boolean_shift_register_process,
    bounded_channel_process,
    edge_detector_process,
    modulo_counter_process,
    saturating_accumulator_process,
)
from repro.verification import (
    ReactionPredicate as P,
    SymbolicIntOptions,
    symbolic_int_explore,
)
from repro.verification.parallel import (
    PARALLEL_MODES,
    WORKERS_ENV,
    WorkerGroup,
    global_stats,
    reset_global_stats,
    resolve_workers,
    shared_group,
    shatter_frontier,
)

# Pool regressions deadlock rather than fail; the guard turns a hang into a
# pointed failure (see the repo conftest).
pytestmark = pytest.mark.timeout(300)


BOOL_CORPUS = [
    ("alternator", alternator_process),
    ("edge-detector", edge_detector_process),
    ("shift-register-6", lambda: boolean_shift_register_process(6)),
]

INT_CORPUS = [
    ("modulo-5", lambda: modulo_counter_process(5)),
    ("saturating-7", lambda: saturating_accumulator_process(7)),
    ("channel-3", lambda: bounded_channel_process(3)),
]


def _witness_predicate(process):
    """A deterministic reachable-reaction predicate: the first output fires."""
    return P.present(process.outputs[0].name)


def _pin_equal(sequential, pooled, predicate):
    """Assert a pooled result is indistinguishable from the sequential one."""
    assert pooled.state_count == sequential.state_count
    assert pooled.iterations == sequential.iterations
    assert pooled.complete is sequential.complete
    assert len(pooled.frontiers) == len(sequential.frontiers)
    for ring_pooled, ring_sequential in zip(pooled.frontiers, sequential.frontiers):
        assert pooled.engine.count_states(ring_pooled) == sequential.engine.count_states(
            ring_sequential
        )
    trace_sequential = sequential.trace_to(predicate)
    trace_pooled = pooled.trace_to(predicate)
    if trace_sequential is None:
        assert trace_pooled is None
    else:
        assert trace_pooled is not None
        assert trace_pooled.render() == trace_sequential.render()


@pytest.mark.parametrize("mode", PARALLEL_MODES)
@pytest.mark.parametrize("label,factory", BOOL_CORPUS, ids=[label for label, _ in BOOL_CORPUS])
class TestBooleanDifferential:
    def test_pooled_fixpoint_equals_sequential(self, label, factory, mode, parallel_workers):
        process = factory()
        sequential = symbolic_int_explore(process)
        pooled = symbolic_int_explore(
            process, SymbolicIntOptions(parallel=parallel_workers, parallel_mode=mode)
        )
        _pin_equal(sequential, pooled, _witness_predicate(process))
        stats = pooled.statistics()
        assert stats["parallel_workers"] == parallel_workers
        assert stats["parallel_mode"] == mode
        assert stats["parallel_images"] == pooled.iterations
        assert stats["parallel_requests"] >= stats["parallel_images"]
        assert stats["parallel_bytes_sent"] > 0
        assert stats["parallel_bytes_received"] > 0


@pytest.mark.parametrize("mode", PARALLEL_MODES)
@pytest.mark.parametrize("label,factory", INT_CORPUS, ids=[label for label, _ in INT_CORPUS])
class TestIntegerDifferential:
    def test_pooled_fixpoint_equals_sequential(self, label, factory, mode, parallel_workers):
        process = factory()
        sequential = symbolic_int_explore(process)
        pooled = symbolic_int_explore(
            process, SymbolicIntOptions(parallel=parallel_workers, parallel_mode=mode)
        )
        _pin_equal(sequential, pooled, _witness_predicate(process))
        assert pooled.statistics()["parallel_workers"] == parallel_workers


class TestStatisticsSurface:
    def test_sequential_results_carry_no_parallel_keys(self):
        stats = symbolic_int_explore(alternator_process()).statistics()
        assert not any(key.startswith("parallel_") for key in stats)

    def test_global_counters_track_pool_use(self, parallel_workers):
        reset_global_stats()
        assert global_stats() == {"workers": 0, "images": 0}
        result = symbolic_int_explore(
            boolean_shift_register_process(4), SymbolicIntOptions(parallel=parallel_workers)
        )
        counters = global_stats()
        assert counters["workers"] == parallel_workers
        assert counters["images"] == result.iterations

    def test_workbench_design_knob_reaches_both_engines_and_the_summary(self):
        from repro.workbench import Design

        design = Design.from_process(boolean_shift_register_process(4), parallel=2)
        assert design.symbolic_int_options.parallel == 2
        report = design.check_all(reachables={"tail": P.present("s3")}, backend="symbolic")
        assert report.all_hold
        summary = report.summary()
        assert "parallel_workers=2" in summary
        assert "parallel_mode=frontier" in summary


class TestResolveWorkers:
    def test_none_and_zero_stay_sequential(self):
        assert resolve_workers(None) is None
        assert resolve_workers(0) is None

    def test_explicit_count_taken_as_is(self):
        assert resolve_workers(3) == 3

    def test_auto_honours_the_environment(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_workers("auto") == 5

    def test_auto_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers("auto") == max(1, os.cpu_count() or 1)

    def test_auto_rejects_a_malformed_environment(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ValueError, match=WORKERS_ENV):
            resolve_workers("auto")

    @pytest.mark.parametrize("bogus", [True, False, -1, 1.5, "four"])
    def test_everything_else_is_a_configuration_error(self, bogus):
        with pytest.raises(ValueError):
            resolve_workers(bogus)

    def test_bad_options_fail_before_any_bdd_work(self):
        with pytest.raises(ValueError):
            symbolic_int_explore(alternator_process(), SymbolicIntOptions(parallel=-2))
        with pytest.raises(ValueError, match="parallel_mode"):
            symbolic_int_explore(alternator_process(), SymbolicIntOptions(parallel_mode="bogus"))


class TestShatterFrontier:
    def _manager_and_states(self):
        manager = BDDManager(["a", "b", "c"])
        states = manager.disj_all(
            [
                manager.conj_all([manager.var("a"), manager.var("b")]),
                manager.conj_all([manager.nvar("a"), manager.var("c")]),
                manager.conj_all([manager.nvar("a"), manager.nvar("b"), manager.nvar("c")]),
            ]
        )
        return manager, states

    def test_shards_are_disjoint_and_cover_the_input(self):
        manager, states = self._manager_and_states()
        shards = shatter_frontier(manager, states, 4, ["a", "b", "c"])
        assert 1 <= len(shards) <= 4
        assert manager.disj_all(shards) is states
        for index, shard in enumerate(shards):
            assert shard is not manager.false
            for other in shards[index + 1 :]:
                assert manager.conj(shard, other) is manager.false

    def test_empty_set_yields_no_shards(self):
        manager, _ = self._manager_and_states()
        assert shatter_frontier(manager, manager.false, 4, ["a", "b", "c"]) == []

    def test_single_piece_is_the_identity(self):
        manager, states = self._manager_and_states()
        assert shatter_frontier(manager, states, 1, ["a", "b", "c"]) == [states]

    def test_single_state_cannot_split(self):
        manager = BDDManager(["a", "b"])
        point = manager.conj(manager.var("a"), manager.nvar("b"))
        shards = shatter_frontier(manager, point, 4, ["a", "b"])
        assert shards == [point]


class TestIncrementalDump:
    def test_second_dump_of_a_shipped_root_carries_no_nodes(self):
        manager = BDDManager(["a", "b", "c"])
        function = manager.disj(manager.var("a"), manager.conj(manager.var("b"), manager.var("c")))
        dumper = IncrementalDumper(manager)
        first = dumper.dump([function])
        assert first["delta"] is True and first["nodes"]
        second = dumper.dump([function])
        assert second["nodes"] == []
        assert second["roots"] == first["roots"]

    def test_loader_rebuilds_identical_functions_across_deltas(self):
        from repro.clocks.bdd import dump_nodes

        manager = BDDManager(["a", "b", "c"])
        dumper = IncrementalDumper(manager)
        first = manager.var("c")
        second = manager.disj(manager.var("a"), first)
        replica = BDDManager(["a", "b", "c"])
        loader = IncrementalLoader(replica)
        (loaded_first,) = loader.load(dumper.dump([first]))
        delta = dumper.dump([second])
        (loaded_second,) = loader.load(delta)
        # ``second`` shares the ``c`` node already shipped with ``first``, so
        # the delta re-encodes strictly less than a cold dump would.
        assert len(delta["nodes"]) < len(dump_nodes(manager, [second])["nodes"])
        # The replica manager hash-conses too, so functional equality is
        # node identity against a fresh non-incremental reload.
        assert load_nodes(replica, dump_nodes(manager, [first]))[0] is loaded_first
        assert load_nodes(replica, dump_nodes(manager, [second]))[0] is loaded_second


class TestWorkerGroup:
    def test_shared_group_is_reused_per_count(self):
        first = shared_group(2)
        assert shared_group(2) is first
        assert shared_group(3) is not first

    def test_closed_shared_group_is_replaced(self):
        group = shared_group(2)
        group.close()
        replacement = shared_group(2)
        assert replacement is not group
        assert not replacement.closed

    def test_group_needs_at_least_one_worker(self):
        with pytest.raises(ValueError):
            WorkerGroup(0)

    def test_engines_reuse_one_pool_across_fixpoints(self, parallel_workers):
        options = SymbolicIntOptions(parallel=parallel_workers)
        group = shared_group(parallel_workers)
        first = symbolic_int_explore(boolean_shift_register_process(3), options)
        second = symbolic_int_explore(alternator_process(), options)
        assert shared_group(parallel_workers) is group
        assert not group.closed
        assert first.state_count == 8
        assert second.statistics()["parallel_workers"] == parallel_workers
