"""One client process of a benchmark run.

Usage: ``python3 perfbench/client.py '<json config>'`` with ``PYTHONPATH``
pointing at the program's ``src``.  The config names the workload, the seed,
the item count and which of the seeded items this client runs, whether to
trace, and the job-service artifact store directory.  The client:

1. times its cold set-up: ``import repro`` plus the workload's warm-up;
2. runs its items in a closed loop (tracing installed only when asked);
3. prints one JSON line: set-up seconds, per-item outcomes, the timed
   seconds, peak resident memory, warm-up and layer counters, and spans.
"""

from time import perf_counter

STARTED = perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(config: dict) -> dict:
    import repro  # noqa: F401 - the import is part of the timed cold set-up

    from workloads import Runner, make_items

    runner = Runner(config["workload"], config["store"])
    try:
        warm_up = runner.warm_up()
        setup_s = perf_counter() - STARTED
        recorder = None
        if config["trace"]:
            from tracing import Recorder, install

            recorder = Recorder()
            install(recorder)
        items = make_items(config["workload"], config["seed"], config["count"])
        outcomes, timed_s = runner.run(
            [items[index] for index in config["indices"]],
            quiet=contextlib.nullcontext if recorder is None else recorder.paused,
        )
        layer = layer_counters(runner)
    finally:
        runner.close()
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Pool workers have been joined: RUSAGE_CHILDREN holds the largest one.
    worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    workers = 0 if runner.pool is None else runner.pool.workers
    return {
        "setup_s": setup_s,
        "warm_up": warm_up,
        "timed_s": timed_s,
        "outcomes": [vars(outcome) for outcome in outcomes],
        "peak_rss_mb": (self_kb + workers * worker_kb) / 1024.0,
        "layer": layer,
        "spans": None if recorder is None else recorder.summary(),
        "events": job_events(runner),
    }


def layer_counters(runner) -> dict:
    """Counters read from the public Report and WorkerPool statistics."""
    counters = {
        "bdd.nodes_created": 0, "bdd.reorders": 0, "bdd.peak_nodes": 0, "bdd.peak_nodes_sum": 0,
        "bdd.cache_hits": 0, "bdd.cache_misses": 0, "relational.iterations": 0,
        "relational.clusters": 0,
    }
    for stats in runner.statistics:
        if "nodes_created" in stats:
            counters["bdd.nodes_created"] += stats["nodes_created"]
            counters["bdd.reorders"] += stats.get("reorders", 0)
            counters["bdd.peak_nodes"] = max(counters["bdd.peak_nodes"], stats.get("peak_nodes", 0))
            counters["bdd.peak_nodes_sum"] += stats.get("peak_nodes", 0)
            counters["bdd.cache_hits"] += stats.get("cache_hits", 0)
            counters["bdd.cache_misses"] += stats.get("cache_misses", 0)
            counters["relational.iterations"] += stats.get("iterations", 0)
            counters["relational.clusters"] += stats.get("clusters", 0)
    if runner.pool is not None:
        pool_stats = runner.pool.statistics()
        counters["cache.hits"] = pool_stats["cache_hits"]
        counters["cache.misses"] = pool_stats["cache_misses"]
    return counters


def job_events(runner) -> list:
    """Per job: queue wait, worker run time and return time, from Report.events."""
    if runner.pool is None:
        return []
    timings = []
    for events in runner.events:
        at = {event["kind"]: event for event in events}
        submitted, started, finished = at["submitted"], at["started"], at["finished"]
        run_s = finished["elapsed"]
        timings.append([
            started["at"] - submitted["at"],
            run_s,
            max(0.0, finished["at"] - started["at"] - run_s),
        ])
    return timings


if __name__ == "__main__":
    result = main(json.loads(sys.argv[1]))
    print(json.dumps(result))
