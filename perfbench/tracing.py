"""Spans around the public calls into each layer, for the traced run only.

:func:`install` wraps, from outside the program, the ``Design`` artifact
accessors and ``check_all``, the module-level entry points of the layers
(``parse_process``, ``explore``, ``check_bisimulation``,
``analyse_endochrony`` and the EPC level runs) and three inner public
methods (``RelationalFixpointEngine.image``, ``BDDManager.reorder`` and every
engine's ``trace_to``).  A span's self time is its duration minus the time
its child spans cover; the recorder keeps self time and call counts per span
name in memory, plus the explorer's counters read off each result.
"""

from __future__ import annotations

import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter
from typing import Any, Callable, Iterator

#: Design accessors that build (or return the memoised) artifacts.
DESIGN_ACCESSORS = (
    "compiled", "clock_hierarchy", "endochrony", "encoding", "exploration", "polynomial",
    "symbolic_engine", "symbolic", "ranges", "symbolic_int_engine", "symbolic_int", "simulator",
)

#: Module-level entry points: (defining module, function name, span name).
FUNCTIONS = (
    ("repro.signal.parser", "parse_process", "parse"),
    ("repro.verification.explorer", "explore", "explore"),
    ("repro.verification.bisimulation", "check_bisimulation", "bisimulation"),
    ("repro.clocks.endochrony", "analyse_endochrony", "endochrony"),
    ("repro.epc.spec_level", "run_specification", "epc.level"),
    ("repro.epc.architecture_level", "run_architecture", "epc.level"),
    ("repro.epc.architecture_level", "run_gals_architecture", "epc.level"),
    ("repro.epc.communication_level", "run_communication", "epc.level"),
    ("repro.epc.rtl_level", "run_rtl", "epc.level"),
)

#: Modules whose imported names are patched too (``from x import f`` copies).
IMPORTING_MODULES = (
    "repro.workbench.design", "repro.epc.refinement", "repro.epc.signal_model",
    "repro.gals.architecture", "repro.verification", "repro.signal", "repro.clocks",
)


class Recorder:
    """Self time and call count per span name, plus explorer counters."""

    def __init__(self) -> None:
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.recording = True
        self._local = threading.local()

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Record nothing inside the block (the benchmark's own checks)."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    def call(self, name: str, function: Callable, *args: Any, **kwargs: Any) -> Any:
        if not self.recording:
            return function(*args, **kwargs)
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        frame = [0.0]  # time covered by child spans
        stack.append(frame)
        started = perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            duration = perf_counter() - started
            stack.pop()
            self.self_seconds[name] += duration - frame[0]
            self.calls[name] += 1
            if stack:
                stack[-1][0] += duration

    def summary(self) -> dict:
        return {
            "self_seconds": dict(self.self_seconds),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
        }


def _span(recorder: Recorder, name: str, function: Callable) -> Callable:
    @wraps(function)
    def traced(*args: Any, **kwargs: Any) -> Any:
        return recorder.call(name, function, *args, **kwargs)

    return traced


def _explore_span(recorder: Recorder, function: Callable) -> Callable:
    @wraps(function)
    def traced(*args: Any, **kwargs: Any) -> Any:
        result = recorder.call("explore", function, *args, **kwargs)
        if not recorder.recording:
            return result
        recorder.counters["explorer.states"] += result.state_count
        recorder.counters["explorer.transitions"] += result.transition_count
        recorder.counters["explorer.stimuli_rejected"] += result.rejected_stimuli
        return result

    return traced


def install(recorder: Recorder) -> None:
    """Wrap every traced entry point of the already importable program."""
    import importlib

    from repro.clocks.bdd import BDDManager
    from repro.verification.reachability import Reachability
    from repro.verification.relational import RelationalFixpointEngine
    from repro.workbench.design import Design

    for module_name in IMPORTING_MODULES:
        importlib.import_module(module_name)
    for module_name, attribute, span in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attribute)
        wrapper = (
            _explore_span(recorder, original) if span == "explore" else _span(recorder, span, original)
        )
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and getattr(
                module, attribute, None
            ) is original:
                setattr(module, attribute, wrapper)

    for accessor in DESIGN_ACCESSORS:
        getter = getattr(Design, accessor).fget
        setattr(Design, accessor, property(_span(recorder, f"design.{accessor}", getter)))
    Design.check_all = _span(recorder, "design.check_all", Design.check_all)
    RelationalFixpointEngine.image = _span(recorder, "image", RelationalFixpointEngine.image)
    BDDManager.reorder = _span(recorder, "reorder", BDDManager.reorder)

    pending = [Reachability]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "trace_to" in vars(cls):
            setattr(cls, "trace_to", _span(recorder, "trace_to", vars(cls)["trace_to"]))
