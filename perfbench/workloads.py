"""The four benchmark workloads: seeded items, how each is run, and its known answer.

Every item is generated from ``(workload, seed, index)`` alone, so the program
under test only ever sees the generated inputs.  Each item ends as an
:class:`Outcome`: its latency (from constructing the ``Design``, or calling
the public entry point, to the checked result), whether the result matched
an answer that does not come from the engine under test, and the
host-independent counters the determinism guard compares.

This module imports ``repro`` lazily: the client times ``import repro`` as
part of cold set-up.
"""

from __future__ import annotations

import contextlib
import random
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Optional

WORKLOADS = ("shuffled-registers", "epc-chain", "design-batch", "job-service")

#: Seconds of ``--seconds`` given to one item, used only to size the item
#: list; the list is then fixed, so every run of a workload does the same
#: work whatever the host's speed.  The slow workloads get more items than
#: their cost (about 3 s a register, 4.3 s an EPC chain on a 2-core host)
#: would fit, because their latency median needs many samples to ride out
#: the host's second-to-second speed swings; the fast ones give some of that
#: time back.  A run of 20 s then holds 12, 7, 800 and 1000 items and takes
#: 20-45 s in all, client start-up included.
NOMINAL_ITEM_SECONDS = {
    "shuffled-registers": 1.7,
    "epc-chain": 2.9,
    "design-batch": 0.025,
    "job-service": 0.02,
}

#: Items in the list the determinism guard reruns under two hash seeds.
GUARD_ITEMS = {
    "shuffled-registers": 1,
    "epc-chain": 1,
    "design-batch": 64,
    "job-service": 64,
}

#: Every shuffled-registers item checks the same depth-15 register, defined
#: in the order of one fixed shuffle; ``--seed`` picks the stage each item's
#: properties name.  How much sifting a shuffle costs swings between none and
#: two reorders (0.15, about 3 and about 6 s), so a corpus of shuffles makes
#: the latency median the cost of whichever one or two items sit in the
#: middle, and with a seeded corpus the run's work would follow the seed.
#: This shuffle (the fifth draw of ``random.Random(2003)``) takes one reorder,
#: like most depth-15 shuffles: 431,821 nodes created for a peak near 20,000.
#: From depth 16 on most shuffles take two reorders, at 4-8 s an item.
REGISTER_SHUFFLE = 1255150740
REGISTER_DEPTH = 15

#: The design-batch stream: one round is one process of each kind, and every
#: ``BANK_EVERY``-th round adds the composed modulo-counter bank that ``auto``
#: routes to the finite-integer symbolic engine (one fixed bank: at about
#: 40 small items' cost, a bank whose size followed the seed would make the
#: run's work follow it too).
ROUND_KINDS = ("modulo", "saturating", "channel", "alternator", "register")
BANK_EVERY = 16
BANK_MODULI = (10, 11, 12, 13)
#: Parameter ranges of the kinds that take one (the alternator takes none).
PARAMETER_RANGES = {
    "modulo": range(2, 10),
    "saturating": range(2, 7),
    "channel": range(1, 7),
    "register": range(4, 14),
}


@dataclass
class Outcome:
    """What one item produced."""

    latency_s: float
    ok: bool
    error: str = ""
    counters: dict = field(default_factory=dict)


#: What an item runner returns: its latency, and a check to run after the
#: timed phase that gives the answer's errors and the item's counters.
Timed = tuple[float, Callable[[], tuple[list[str], dict]]]


def item_count(workload: str, seconds: float) -> int:
    """The size of the fixed item list a run of ``seconds`` measures."""
    return max(1, round(seconds / NOMINAL_ITEM_SECONDS[workload]))


# --------------------------------------------------------------------------- item generation

def make_items(workload: str, seed: int, count: int) -> list[dict]:
    """The seeded item list of a run (plain data, no ``repro`` objects)."""
    if workload == "shuffled-registers":
        return _register_items(seed, count)
    if workload == "epc-chain":
        rng = random.Random(seed)
        return [{"words": [rng.randrange(256) for _ in range(8)]} for _ in range(count)]
    if workload in ("design-batch", "job-service"):
        return _batch_items(seed, count)
    raise ValueError(f"unknown workload {workload!r}")


def _register_items(seed: int, count: int) -> list[dict]:
    rng = random.Random(seed)
    return [
        {"depth": REGISTER_DEPTH, "shuffle": REGISTER_SHUFFLE, "stage": rng.randrange(REGISTER_DEPTH)}
        for _ in range(count)
    ]


def _batch_items(seed: int, count: int) -> list[dict]:
    """Rounds of one process per kind; parameters cycle through seeded
    permutations of their ranges, so every run holds the same mix."""
    rng = random.Random(seed)
    decks: dict[str, list[int]] = {}

    def draw(kind: str) -> Optional[int]:
        if kind not in PARAMETER_RANGES:
            return None
        if not decks.get(kind):
            deck = list(PARAMETER_RANGES[kind])
            rng.shuffle(deck)
            decks[kind] = deck
        return decks[kind].pop()

    items: list[dict] = []
    round_index = 0
    while len(items) < count:
        for kind in ROUND_KINDS:
            items.append({"kind": kind, "parameter": draw(kind), "pick": rng.randrange(4)})
        round_index += 1
        if round_index % BANK_EVERY == 0:
            items.append({"kind": "bank", "parameter": list(BANK_MODULI), "pick": rng.randrange(4)})
    return items[:count]


# --------------------------------------------------------------------------- designs and known answers

def shuffled_register(depth: int, shuffle: int):
    """A boolean shift register whose stages are defined in a shuffled order."""
    from repro.signal.dsl import ProcessBuilder

    order = list(range(depth))
    random.Random(shuffle).shuffle(order)
    builder = ProcessBuilder(f"Shuffled{depth}")
    x = builder.input("x", "boolean")
    stages = [builder.output(f"s{index}", "boolean") for index in range(depth)]
    for index in order:
        source = x if index == 0 else stages[index - 1]
        builder.define(stages[index], source.delayed(False))
    return builder.build()


def modulo_bank(moduli, name: str = "Bank"):
    """Independent modulo counters, one tick each: every combination is reachable."""
    from repro.signal.dsl import ProcessBuilder, const

    builder = ProcessBuilder(name)
    for index, modulo in enumerate(moduli):
        tick = builder.input(f"tick{index}", "event")
        value = builder.output(f"n{index}", "integer")
        carry = builder.output(f"carry{index}", "event")
        previous = builder.local(f"previous{index}", "integer")
        builder.define(previous, value.delayed(modulo - 1))
        builder.define(value, ((previous + 1) % const(modulo)).when(tick.clock()))
        builder.define(carry, tick.clock().when(value.eq(0)))
        builder.synchronize(value, tick)
    return builder.build()


@dataclass
class BatchCase:
    """One design-batch item: SIGNAL source, properties, and planted answers."""

    source: str
    invariants: dict
    reachables: dict
    expected: dict
    state_count: int


def batch_case(item: dict, suffix: str = "") -> BatchCase:
    """Render a design-batch item to SIGNAL text with its planted verdicts.

    ``suffix`` renames the process, which gives each job-service client its
    own designs (and so its own cache keys).
    """
    from repro.signal import library
    from repro.signal.printer import render_process
    from repro.verification import ReactionPredicate as P
    from repro.workbench.jobs import Compare

    kind, parameter, pick = item["kind"], item["parameter"], item["pick"]

    def within(name: str, low: int, high: int):
        return P.present(name).implies(P.value(name, Compare("between", (low, high))))

    def below(name: str, bound: int):
        return P.present(name).implies(P.value(name, Compare("<", bound)))

    if kind == "modulo":
        process = library.modulo_counter_process(parameter, name=f"Mod{parameter}{suffix}")
        invariants = {"in-range": within("n", 0, parameter - 1), "below-top": below("n", parameter - 1)}
        reachables = {"carry": P.present("carry")}
        expected = {"in-range": True, "below-top": False, "carry": True}
        states = parameter
    elif kind == "saturating":
        process = library.saturating_accumulator_process(parameter, name=f"Sat{parameter}{suffix}")
        invariants = {"in-range": within("total", 0, parameter), "below-cap": below("total", parameter)}
        reachables = {"clear": P.present("clear")}
        expected = {"in-range": True, "below-cap": False, "clear": True}
        states = parameter + 1
    elif kind == "channel":
        process = library.bounded_channel_process(parameter, name=f"Chan{parameter}{suffix}")
        invariants = {"in-range": within("level", 0, parameter), "below-full": below("level", parameter)}
        reachables = {"push-and-pop": P.present("push") & P.present("pop")}
        expected = {"in-range": True, "below-full": False, "push-and-pop": True}
        states = parameter + 1
    elif kind == "alternator":
        process = library.alternator_process(name=f"Alt{suffix}")
        invariants = {
            "flip-on-tick": P.present("flip").implies(P.present("tick")),
            "flip-never-high": P.present("flip").implies(P.value("flip", Compare("!=", True))),
        }
        reachables = {"flip": P.present("flip")}
        expected = {"flip-on-tick": True, "flip-never-high": False, "flip": True}
        states = 2
    elif kind == "register":
        process = library.boolean_shift_register_process(parameter, name=f"Reg{parameter}{suffix}")
        invariants, reachables, expected = register_properties(parameter, pick % parameter)
        states = 2 ** parameter
    elif kind == "bank":
        moduli = parameter
        process = modulo_bank(moduli, name=f"Bank{''.join(map(str, moduli))}{suffix}")
        first, second = pick % len(moduli), (pick + 1) % len(moduli)
        invariants = {
            "in-range": within(f"n{first}", 0, moduli[first] - 1),
            "below-top": below(f"n{second}", moduli[second] - 1),
        }
        reachables = {"two-carries": P.present(f"carry{first}") & P.present(f"carry{second}")}
        expected = {"in-range": True, "below-top": False, "two-carries": True}
        states = 1
        for modulo in moduli:
            states *= modulo
    else:
        raise ValueError(f"unknown design-batch kind {kind!r}")
    return BatchCase(render_process(process), invariants, reachables, expected, states)


def register_properties(depth: int, stage: int) -> tuple[dict, dict, dict]:
    """A boolean shift register's properties and their planted verdicts.

    Every stage is clocked by the input ``x``: the last stage never fires
    without it, and stage ``stage`` fires (so "always silent" fails) but
    never without the input (so that reachability property does not hold).
    """
    from repro.verification import ReactionPredicate as P

    invariants = {
        "tail-needs-input": P.present(f"s{depth - 1}").implies(P.present("x")),
        "stage-silent": P.absent(f"s{stage}"),
    }
    reachables = {"stage-without-input": P.present(f"s{stage}") & P.absent("x")}
    expected = {"tail-needs-input": True, "stage-silent": False, "stage-without-input": False}
    return invariants, reachables, expected


#: Engines that decode reactions through the Z/3Z abstraction (an event
#: reads as True there).
ABSTRACT_BACKENDS = ("polynomial", "symbolic")


def report_errors(report, expected: dict, states: int) -> list[str]:
    """Mismatches between a checked Report and its planted answers."""
    errors = []
    if report.state_count != states:
        errors.append(f"state_count {report.state_count} != {states}")
    for check in report:
        if check.error is not None:
            errors.append(f"{check.name} refused: {check.error}")
        elif check.holds is not expected[check.name]:
            errors.append(f"{check.name} holds={check.holds}, expected {expected[check.name]}")
    if len(report) != len(expected):
        errors.append(f"{len(report)} checks for {len(expected)} properties")
    return errors


def replay_errors(design, report, properties: dict) -> list[str]:
    """Every trace of ``report`` must replay through ``Design.simulate``.

    The stimulus of each step is the traced reaction projected on the inputs;
    the simulated instant must agree with the trace on every signal it names,
    and the last instant must violate the invariant (or witness the
    reachability property).  Every failed invariant must carry a trace.
    """
    from repro.core.values import ABSENT, EVENT

    compiled = design.compiled
    abstract = report.backend_name in ABSTRACT_BACKENDS
    errors = []
    for check in report:
        trace = check.trace
        if check.kind == "invariant" and check.holds is False and trace is None:
            errors.append(f"{check.name}: failed invariant without a trace")
        if trace is None:
            continue
        scenario = []
        for step in trace:
            stimulus = {}
            for name in compiled.input_names:
                value = step.reaction.get(name, ABSENT)
                if value is not ABSENT and compiled.signal_types.get(name) == "event":
                    value = EVENT
                stimulus[name] = value
            scenario.append(stimulus)
        simulated = design.simulate(scenario)
        for index, step in enumerate(trace):
            instant = simulated[index]
            for name, recorded in step.reaction.items():
                actual = instant.get(name, ABSENT)
                if abstract and actual is EVENT:
                    actual = True
                if abstract and recorded is EVENT:
                    recorded = True
                if actual != recorded:
                    errors.append(f"{check.name}: step {index} {name}={actual!r}, trace says {recorded!r}")
                    break
        final = simulated[len(trace) - 1]
        satisfied = properties[check.name].evaluate(final)
        if satisfied is (check.kind == "invariant"):
            errors.append(f"{check.name}: the replayed last instant does not end the trace")
    return errors


def report_counters(report) -> dict:
    """Host-independent counters of one checked Report."""
    stats = report.engine_statistics
    return {
        "backend": report.backend_name,
        "states": report.state_count,
        "nodes_created": stats.get("nodes_created", 0),
        "reorders": stats.get("reorders", 0),
    }


# --------------------------------------------------------------------------- runners

class Runner:
    """Runs the items of one workload inside a client process."""

    def __init__(self, workload: str, store: str) -> None:
        self.workload = workload
        self.store = store
        self.pool = None
        # Kept per item instead of the Reports, which would keep every
        # item's engines alive and inflate the client's peak memory.
        self.statistics: list[dict] = []
        self.events: list[list] = []

    # -- set-up ----------------------------------------------------------------

    def warm_up(self) -> dict:
        """The workload's warm-up, part of cold set-up; returns its counters.

        Every client runs the same warm-up, so its counters must agree across
        clients (and across the two hash seeds the clients alternate).
        """
        if self.workload == "shuffled-registers":
            from repro.verification import ReactionPredicate as P
            from repro.workbench import Design

            # Deep enough for auto to pick the BDD engine, too small to reorder.
            design = Design.from_process(shuffled_register(9, REGISTER_SHUFFLE))
            report = design.check_all(invariants={"tail": P.present("s8").implies(P.present("x"))})
            return report_counters(report)
        if self.workload == "epc-chain":
            from repro.epc.refinement import check_refinement_chain

            result = check_refinement_chain((1, 2))
            return {"holds": result.holds, "counts": list(result.rtl.counts)}
        if self.workload == "design-batch":
            _latency, check = self._batch_item({"kind": "modulo", "parameter": 3, "pick": 0})
            errors, counters = check()
            return dict(counters, errors=errors)
        if self.workload == "job-service":
            from repro.workbench import DiskArtifactStore, WorkerPool

            self.pool = WorkerPool(2, cache=DiskArtifactStore(self.store), name="bench")
            if not self.pool.wait_ready(120.0):
                raise RuntimeError("worker pool did not become ready")
            return {"workers": self.pool.statistics()["workers"]}
        raise ValueError(f"unknown workload {self.workload!r}")

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=True, timeout=60.0)

    # -- items -------------------------------------------------------------------

    def run(self, items: list[dict], quiet: Callable = contextlib.nullcontext) -> tuple[list[Outcome], float]:
        """Run the items in a closed loop; returns their outcomes and the
        seconds the program spent on them.

        The known-answer checks, trace replays included, stay out of the
        timed phase and run under ``quiet()``, which the traced run uses to
        pause its spans.  A single client checks each item as soon as it is
        answered, so no design outlives its item; the two job-service clients
        check after both are done, so checks never compete with a job.
        """
        self.statistics.clear()
        self.events.clear()
        if self.workload == "job-service":
            finishers, timed_s = self._run_jobs(items)
            with quiet():
                return [finish() for finish in finishers], timed_s
        run_one = {
            "shuffled-registers": self._register_item,
            "epc-chain": self._epc_item,
            "design-batch": self._batch_item,
        }[self.workload]
        outcomes, timed_s = [], 0.0
        for item in items:
            started = perf_counter()
            finish = _timed(run_one, item)
            timed_s += perf_counter() - started
            with quiet():
                outcomes.append(finish())
        return outcomes, timed_s

    def _register_item(self, item: dict) -> Timed:
        from repro.workbench import Design

        depth = item["depth"]
        process = shuffled_register(depth, item["shuffle"])
        invariants, reachables, expected = register_properties(depth, item["stage"])
        started = perf_counter()
        design = Design.from_process(process)
        report = design.check_all(invariants=invariants, reachables=reachables, backend="auto")
        latency = perf_counter() - started
        self.statistics.append(report.engine_statistics)
        return latency, lambda: (report_errors(report, expected, 2 ** depth), report_counters(report))

    def _epc_item(self, item: dict) -> Timed:
        from repro.epc.refinement import check_refinement_chain

        words = item["words"]
        started = perf_counter()
        chain = check_refinement_chain(words, include_bisimulation=True, bisimulation_width=3)
        latency = perf_counter() - started

        def check() -> tuple[list[str], dict]:
            golden = [bin(word).count("1") for word in words]
            errors = [] if chain.holds else ["refinement chain does not hold"]
            for level in ("specification", "architecture", "gals", "communication", "rtl"):
                counts = list(getattr(chain, level).counts)
                if counts != golden:
                    errors.append(f"{level} counts {counts} != {golden}")
            obligations = sum(len(step.obligations) for step in chain.steps)
            return errors, {"obligations": obligations}

        return latency, check

    def _batch_item(self, item: dict) -> Timed:
        from repro.workbench import Design

        case = batch_case(item)
        started = perf_counter()
        design = Design.from_source(case.source, cache=None)
        report = design.check_all(
            invariants=case.invariants, reachables=case.reachables, traces=True
        )
        latency = perf_counter() - started
        self.statistics.append(report.engine_statistics)

        def check() -> tuple[list[str], dict]:
            errors = report_errors(report, case.expected, case.state_count)
            errors += replay_errors(design, report, {**case.invariants, **case.reachables})
            kernels = design.artifact_counts.get("step_kernels", 0)
            return errors, dict(report_counters(report), kernels=kernels)

        return latency, check

    def _run_jobs(self, items: list[dict]) -> tuple[list[Callable[[], Outcome]], float]:
        """Two closed-loop clients, one thread each: two jobs in flight.

        Client ``k`` takes items ``k, k + 2, ...`` and renames its designs,
        so the two never race on the same cache keys and the hit and miss
        counts are a function of the item list alone.
        """
        finishers: list[Optional[Callable[[], Outcome]]] = [None] * len(items)

        def client(offset: int) -> None:
            for index in range(offset, len(items), 2):
                finishers[index] = _timed(self._job_item, items[index], f"c{offset}")

        threads = [threading.Thread(target=client, args=(offset,)) for offset in (0, 1)]
        started = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return list(finishers), perf_counter() - started

    def _job_item(self, item: dict, suffix: str) -> Timed:
        from repro.workbench import Design

        case = batch_case(item, suffix)
        started = perf_counter()
        design = Design.from_source(case.source, cache=None)
        handle = self.pool.submit(
            design, invariants=case.invariants, reachables=case.reachables, traces=True
        )
        report = handle.result(timeout=120.0)
        latency = perf_counter() - started
        self.statistics.append(report.engine_statistics)
        self.events.append(report.events)

        def check() -> tuple[list[str], dict]:
            errors = report_errors(report, case.expected, case.state_count)
            errors += replay_errors(design, report, {**case.invariants, **case.reachables})
            return errors, dict(report_counters(report), hits=report.cache_hits, misses=report.cache_misses)

        return latency, check


def _timed(run_one: Callable[..., Timed], *args: Any) -> Callable[[], Outcome]:
    """Run one item now; the returned callable checks its answer later.

    An exception, in the item or in its check, is a failed operation, not a
    crash of the benchmark.
    """
    started = perf_counter()
    try:
        latency, check = run_one(*args)
    except Exception as error:  # noqa: BLE001 - every failure is counted and reported
        failed = Outcome(perf_counter() - started, False, f"{type(error).__name__}: {error}")
        return lambda: failed

    def finish() -> Outcome:
        try:
            errors, counters = check()
        except Exception as error:  # noqa: BLE001 - as above
            return Outcome(latency, False, f"{type(error).__name__}: {error}")
        return Outcome(latency, not errors, "; ".join(errors), counters)

    return finish
