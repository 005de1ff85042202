"""Pooled image computation: differential guard + wall-clock scaling.

The relational fixpoint's image step can run on a persistent pool of
spawned workers (``RelationalEngineOptions(parallel=N)``, see
:mod:`repro.verification.parallel`) in two modes — frontier sharding and
per-cluster partial products.  Two claims are pinned here, on the
register family of :mod:`bench_variable_ordering` scaled past 2^20 states:

* **differential** — the pooled fixpoint is *equal* to the sequential one
  (state counts, iterations, per-ring counts), on both the boolean and the
  finite-integer corpus and in both modes.  This guard runs at every size,
  so a soundness regression in the worker protocol cannot hide behind the
  scaling numbers;
* **scaling** — at the full depth (2^21 reachable states) the 4-worker
  pooled fixpoint beats the 1-worker pooled fixpoint by >=1.5x wall-clock.
  The assertion only fires on hosts with at least 4 cores; below that the
  speedup is only printed (an oversubscribed pool proves nothing either
  way), and CI's bench gate likewise skips wall-clock scaling on small
  runners.  The printed report also times the sequential engine under the
  same reorder policy, the baseline the pool has to beat to earn its keep.
"""

import os
import random
from time import perf_counter

import pytest

from repro.signal.dsl import ProcessBuilder
from repro.signal.library import modulo_counter_process
from repro.verification import (
    IntSymbolicEngine,
    SymbolicIntOptions,
    symbolic_int_explore,
)
from repro.verification.parallel import PARALLEL_MODES

#: Past 2^20 states: the depth the headline scaling claim is made at.
FULL_DEPTH = 21
#: Scaling is only asserted with enough cores to actually run 4 workers.
MIN_SCALING_CPUS = 4
SPEEDUP_FLOOR = 1.5


def _shuffled_register(depth: int, seed: int = 11):
    """The shuffled shift register of :mod:`bench_variable_ordering`.

    Redefined locally — benchmark modules are loaded standalone (via
    ``spec_from_file_location``) and cannot import their siblings.
    """
    order = list(range(depth))
    random.Random(seed).shuffle(order)
    builder = ProcessBuilder(f"Shuffled{depth}")
    x = builder.input("x", "boolean")
    stages = [builder.output(f"s{index}", "boolean") for index in range(depth)]
    for index in order:
        source = x if index == 0 else stages[index - 1]
        builder.define(stages[index], source.delayed(False))
    return builder.build()


def _options(workers=None, mode="frontier") -> SymbolicIntOptions:
    return SymbolicIntOptions(
        partition=True,
        reorder="auto",
        reorder_threshold=2000,
        parallel=workers,
        parallel_mode=mode,
    )


def _pin_equal(sequential, pooled) -> None:
    assert pooled.state_count == sequential.state_count
    assert pooled.iterations == sequential.iterations
    assert pooled.complete is sequential.complete
    assert len(pooled.frontiers) == len(sequential.frontiers)
    for ring_pooled, ring_sequential in zip(pooled.frontiers, sequential.frontiers):
        assert pooled.engine.count_states(ring_pooled) == sequential.engine.count_states(
            ring_sequential
        )


@pytest.mark.parametrize("mode", PARALLEL_MODES)
@pytest.mark.parametrize("depth", [8, 12])
def test_bench_pooled_image_differential_boolean(depth, mode):
    """Pooled == sequential on the boolean register family, both modes."""
    process = _shuffled_register(depth)
    sequential = IntSymbolicEngine(process, _options()).reach()
    pooled = IntSymbolicEngine(process, _options(2, mode)).reach()
    assert sequential.state_count == 2 ** depth
    _pin_equal(sequential, pooled)
    assert pooled.statistics()["parallel_mode"] == mode


@pytest.mark.parametrize("mode", PARALLEL_MODES)
@pytest.mark.parametrize("modulo", [5, 12])
def test_bench_pooled_image_differential_integer(modulo, mode):
    """Pooled == sequential on the bit-blasted integer engine, both modes."""
    process = modulo_counter_process(modulo)
    sequential = symbolic_int_explore(process)
    pooled = symbolic_int_explore(
        process, SymbolicIntOptions(parallel=2, parallel_mode=mode)
    )
    _pin_equal(sequential, pooled)


@pytest.mark.parametrize("depth", [10, FULL_DEPTH])
def test_bench_parallel_image_scaling(depth):
    """4 pooled workers vs 1 on the register family, 2^depth states.

    Both pooled runs go through the pool (so serialisation overhead
    cancels) and the full-depth speedup is asserted only on >=4-core hosts.
    The sequential engine runs beside them under the same reorder policy;
    its time is reported, never asserted on.
    """
    process = _shuffled_register(depth)

    def timed(workers):
        started = perf_counter()
        result = IntSymbolicEngine(process, _options(workers)).reach()
        return result, perf_counter() - started

    _sequential, sequential_seconds = timed(None)
    single, single_seconds = timed(1)
    pooled, pooled_seconds = timed(4)
    assert single.state_count == pooled.state_count == 2 ** depth
    assert single.iterations == pooled.iterations

    speedup = single_seconds / max(pooled_seconds, 1e-9)
    cores = os.cpu_count() or 1
    print(
        f"parallel-image scaling report (depth {depth}, {cores} cores): "
        f"sequential {sequential_seconds:.3f}s, 1 worker {single_seconds:.3f}s, "
        f"4 workers {pooled_seconds:.3f}s, speedup {speedup:.2f}x"
    )
    if depth == FULL_DEPTH and cores >= MIN_SCALING_CPUS:
        assert speedup >= SPEEDUP_FLOOR, (
            f"4 workers gave only {speedup:.2f}x over 1 at depth {depth} "
            f"on a {cores}-core host (floor: {SPEEDUP_FLOOR}x)"
        )
