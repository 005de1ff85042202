"""The per-layer metrics: what each measures and which end-to-end metric it should move.

``LAYERS`` is the design record of the traced run.  Each row names a metric
``<module>.<what>``, the program layer it reads, the workload that loads that
layer, and the end-to-end metric a change to the layer should move.  Units
and directions are in ``BENCHMARK.json``'s ``per_layer`` list, whose names
must be exactly these.

Span self times are summed over the traced items; counters are summed over
the items' Reports (``bdd.peak_nodes`` is the largest single peak).

Deliberately not measured:

* ``verification.parallel``: the pooled image layer is only worth judging on
  four or more cores, and the reference host has two;
* the object BDD core and the step interpreter: they are oracles kept for the
  differential tests, not paths a user runs.
"""

from __future__ import annotations

import statistics

# name, layer (modules), loaded by, should move
LAYERS = (
    ("bdd.reorder_s", "clocks.bdd reorder (sifting)", "shuffled-registers",
     "latency_s_p50 and items_per_s on shuffled-registers; no move on epc-chain or design-batch"),
    ("bdd.reorders", "clocks.bdd reorder", "shuffled-registers", "as bdd.reorder_s"),
    ("bdd.nodes_created", "clocks.bdd_array", "shuffled-registers", "as bdd.reorder_s"),
    ("bdd.created_per_peak", "clocks.bdd_array (wasted vs useful nodes)",
     "shuffled-registers", "as bdd.reorder_s"),
    ("bdd.peak_nodes", "clocks.bdd_array", "shuffled-registers",
     "peak_rss_mb and latency_s_p50 on shuffled-registers"),
    ("bdd.cache_hit_ratio", "clocks.bdd_array computed table", "shuffled-registers",
     "latency_s_p50 on shuffled-registers"),
    ("relational.build_s", "verification.symbolic / symbolic_int relation build "
     "(with the Z/3Z encoding)", "shuffled-registers; small in design-batch", "latency_s_p50 on shuffled-registers"),
    ("relational.fixpoint_s", "verification.relational fixpoint (self time)",
     "shuffled-registers", "latency_s_p50 on shuffled-registers"),
    ("relational.image_s", "verification.relational image", "shuffled-registers",
     "latency_s_p50 on shuffled-registers"),
    ("relational.iterations", "verification.relational", "shuffled-registers",
     "latency_s_p50 on shuffled-registers"),
    ("relational.clusters", "verification.relational partition", "shuffled-registers",
     "latency_s_p50 on shuffled-registers"),
    ("workbench.backend_explicit", "workbench.registry routing", "all",
     "explains a latency step when routing changes"),
    ("workbench.backend_symbolic", "workbench.registry routing", "all",
     "explains a latency step when routing changes"),
    ("workbench.backend_symbolic_int", "workbench.registry routing", "all",
     "explains a latency step when routing changes"),
    ("explorer.explore_s", "verification.explorer over simulation.codegen kernels",
     "epc-chain; about a quarter of design-batch", "latency_s_p50 and items_per_s on epc-chain"),
    ("explorer.states", "verification.explorer", "epc-chain", "as explorer.explore_s"),
    ("explorer.transitions", "verification.explorer", "epc-chain", "as explorer.explore_s"),
    ("explorer.stimuli_rejected", "verification.explorer", "epc-chain",
     "as explorer.explore_s"),
    ("explorer.accept_ratio", "verification.explorer (useful vs tried stimuli)",
     "epc-chain", "as explorer.explore_s"),
    ("bisimulation.check_s", "verification.bisimulation", "epc-chain",
     "epc-chain latency (little)"),
    ("epc.levels_s", "epc.* level runs", "epc-chain", "epc-chain latency (little)"),
    ("clocks.endochrony_s", "clocks.hierarchy / endochrony", "epc-chain",
     "epc-chain latency (little)"),
    ("signal.parse_s", "signal.parser", "design-batch", "latency_s_p50 on design-batch"),
    ("simulation.compile_s", "simulation.compiler / codegen", "design-batch",
     "latency_s_p50 and items_per_s on design-batch"),
    ("simulation.kernels", "simulation.codegen", "design-batch",
     "latency_s_p50 and items_per_s on design-batch"),
    ("ranges.infer_s", "verification.ranges", "design-batch", "latency_s_p50 on design-batch"),
    ("workbench.check_s", "workbench.design / report property evaluation (self time)",
     "design-batch", "latency tail on design-batch, where failing items carry traces"),
    ("workbench.trace_s", "engine trace_to", "design-batch",
     "latency tail on design-batch, where failing items carry traces"),
    ("jobs.queue_wait_s", "workbench.jobs (Report.events)", "job-service",
     "latency_s_p50 and items_per_s on job-service"),
    ("jobs.run_s", "workbench.jobs worker", "job-service",
     "latency_s_p50 and items_per_s on job-service"),
    ("jobs.return_s", "workbench.jobs result transfer", "job-service",
     "latency_s_p50 and items_per_s on job-service"),
    ("cache.hits", "workbench.cache", "job-service", "items_per_s on job-service"),
    ("cache.misses", "workbench.cache", "job-service", "items_per_s on job-service"),
    ("cache.hit_ratio", "workbench.cache", "job-service", "items_per_s on job-service"),
    ("trace.items_s", "all traced items, end to end", "all",
     "the base the span times are shares of"),
    ("trace.latency_s_p50_overhead", "the tracing itself", "all",
     "traced minus untraced latency_s_p50"),
    ("trace.items_per_s_overhead", "the tracing itself", "all",
     "untraced over traced items_per_s, minus one"),
)

#: Span self times summed into each time metric.
SPAN_METRICS = {
    "bdd.reorder_s": ("reorder",),
    "relational.build_s": ("design.encoding", "design.symbolic_engine", "design.symbolic_int_engine"),
    "relational.fixpoint_s": ("design.symbolic", "design.symbolic_int", "design.polynomial"),
    "relational.image_s": ("image",),
    "explorer.explore_s": ("explore", "design.exploration"),
    "bisimulation.check_s": ("bisimulation",),
    "epc.levels_s": ("epc.level",),
    "clocks.endochrony_s": ("endochrony", "design.endochrony", "design.clock_hierarchy"),
    "signal.parse_s": ("parse",),
    "simulation.compile_s": ("design.compiled", "design.simulator"),
    "ranges.infer_s": ("design.ranges",),
    "workbench.check_s": ("design.check_all",),
    "workbench.trace_s": ("trace_to",),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(traced: list[dict], plain: dict) -> dict:
    """Per-layer metrics from the traced clients, with the tracing overhead
    measured against the untraced end-to-end figures ``plain``."""
    spans: dict[str, float] = {}
    explorer: dict[str, int] = {}
    layer: dict[str, int] = {}
    for result in traced:
        for name, seconds in result["spans"]["self_seconds"].items():
            spans[name] = spans.get(name, 0.0) + seconds
        for name, value in result["spans"]["counters"].items():
            explorer[name] = explorer.get(name, 0) + value
        for name, value in result["layer"].items():
            if name == "bdd.peak_nodes":
                layer[name] = max(layer.get(name, 0), value)
            else:
                layer[name] = layer.get(name, 0) + value
    outcomes = [o for r in traced for o in r["outcomes"]]
    latencies = [o["latency_s"] for o in outcomes]
    timed = sum(r["timed_s"] for r in traced)
    backends = [o["counters"].get("backend") for o in outcomes]

    metrics = {name: sum(spans.get(span, 0.0) for span in names) for name, names in SPAN_METRICS.items()}
    metrics.update({
        "bdd.reorders": layer["bdd.reorders"],
        "bdd.nodes_created": layer["bdd.nodes_created"],
        "bdd.created_per_peak": _ratio(layer["bdd.nodes_created"], layer["bdd.peak_nodes_sum"]),
        "bdd.peak_nodes": layer["bdd.peak_nodes"],
        "bdd.cache_hit_ratio": _ratio(
            layer["bdd.cache_hits"], layer["bdd.cache_hits"] + layer["bdd.cache_misses"]
        ),
        "relational.iterations": layer["relational.iterations"],
        "relational.clusters": layer["relational.clusters"],
        "workbench.backend_explicit": backends.count("explicit"),
        "workbench.backend_symbolic": backends.count("symbolic"),
        "workbench.backend_symbolic_int": backends.count("symbolic-int"),
        "explorer.states": explorer.get("explorer.states", 0),
        "explorer.transitions": explorer.get("explorer.transitions", 0),
        "explorer.stimuli_rejected": explorer.get("explorer.stimuli_rejected", 0),
        "simulation.kernels": sum(o["counters"].get("kernels", 0) for o in outcomes),
        "cache.hits": layer.get("cache.hits", 0),
        "cache.misses": layer.get("cache.misses", 0),
        "trace.items_s": sum(latencies),
        "trace.latency_s_p50_overhead": statistics.median(latencies) - plain["latency_s_p50"],
        "trace.items_per_s_overhead": _ratio(plain["items_per_s"], len(latencies) / timed) - 1.0,
    })
    transitions, rejected = metrics["explorer.transitions"], metrics["explorer.stimuli_rejected"]
    metrics["explorer.accept_ratio"] = _ratio(transitions, transitions + rejected)
    metrics["cache.hit_ratio"] = _ratio(metrics["cache.hits"], metrics["cache.hits"] + metrics["cache.misses"])
    jobs = [timing for r in traced for timing in r["events"]]
    for position, name in enumerate(("jobs.queue_wait_s", "jobs.run_s", "jobs.return_s")):
        metrics[name] = sum(timing[position] for timing in jobs)
    return {name: metrics[name] for name, *_record in LAYERS}
