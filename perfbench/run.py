"""Benchmark entry point: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a checkout of the repository; the program is imported
from its ``src`` directory.  Load comes from one process at a time: each run
starts several fresh client processes (``perfbench/client.py``) one after
another, which spreads the cold set-up samples through the run and splits the
seeded item list between them.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``:

* ``setup_s``: median cold set-up over the run's clients (a fresh
  interpreter, ``import repro`` and the workload's warm-up);
* ``items_per_s``: items completed per second of the clients' timed phases;
* ``latency_s_p50``: median time to verdict per item;
* ``peak_rss_mb``: median over the clients that ran items of each one's
  peak resident memory, pool workers included.

``--trace 1`` prints the per-layer metrics instead: the same kind of run,
on half the items, once untraced and once with spans installed
(``perfbench/tracing.py``), plus the tracing overhead between the two.

Both modes check every item against its known answer and require the
warm-up counters to agree across all clients, which alternate
``PYTHONHASHSEED`` 0 and 1.  The traced run ends with the determinism guard:
two more clients rerun the first items traced, one under each hash seed, and
every host-independent counter must agree between them.  A mismatch is
reported as ``"correct": false``.  The summary line of an untraced run holds
a digest of every item's host-independent counters, which runs of the same
seed must share; every summary line ends with the median host calibration
time (``CALIBRATION_LOOP``) and the run's length.  The last stdout line is
the JSON result.  Clients run without any ``REPRO_*`` variable, so they
measure the program's default engines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import per_layer_metrics  # noqa: E402
from workloads import GUARD_ITEMS, WORKLOADS, item_count  # noqa: E402

#: Fresh client processes per timed run, one cold set-up sample each, so
#: ``setup_s`` is a median of this many samples spread through the run.  A
#: list of fewer items gives one item to each of its clients and interleaves
#: set-up-only clients between them.  Shuffled-registers has one client per
#: item, and job-service fewer, because each of its clients spawns and shuts
#: down a worker pool (about 1.5 s): both keep a run within its time budget.
CLIENTS = {"shuffled-registers": 12, "epc-chain": 15, "design-batch": 15, "job-service": 9}
#: Iterations of the fixed pure-Python loop timed before each client: a
#: host-speed reference logged with every run (about 0.03 s on a 2-core host
#: at Python 3.11), so a slow host can be told apart from a slow program.
CALIBRATION_LOOP = 300_000
#: Client pairs (untraced, traced) of a traced run.
TRACED_PAIRS = 2
#: The two hash seeds the clients alternate and the guard compares.
HASH_SEEDS = ("0", "1")
#: Every client of a run must end within this many seconds of its start.
RUN_DEADLINE_S = 170


class ClientFailed(RuntimeError):
    """A client process exited abnormally."""


def calibration_s() -> float:
    """Seconds the fixed calibration loop takes in this process."""
    started = time.perf_counter()
    total = 0
    for value in range(CALIBRATION_LOOP):
        total += value * value % 7
    return time.perf_counter() - started


def run_client(root: str, config: dict, hash_seed: str, deadline: float) -> dict:
    """Run one client to completion and return its JSON result, with the
    calibration time measured just before it started.

    The client runs in its own session, so a client that overruns the run's
    deadline, or outlives an interrupted run, is killed together with any
    pool workers it started.
    """
    # The REPRO_* switches select oracle engines or worker counts: drop them,
    # so every run measures the program's defaults, the path users run.
    env = {name: value for name, value in os.environ.items() if not name.startswith("REPRO_")}
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = hash_seed
    calibration = calibration_s()
    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "client.py"), json.dumps(config)],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as interruption:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        if isinstance(interruption, subprocess.TimeoutExpired):
            raise ClientFailed("client overran the run's deadline") from None
        raise
    if process.returncode != 0:
        tail = stderr.strip().splitlines()[-5:]
        raise ClientFailed(f"client exited {process.returncode}: " + " | ".join(tail))
    return dict(json.loads(stdout.strip().splitlines()[-1]), calibration_s=calibration)


def percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def split(indices: list[int], parts: int) -> list[list[int]]:
    """Contiguous, evenly sized slices (some empty when items are fewer than
    parts), so each client runs whole rounds of the stream."""
    bounds = [part * len(indices) // parts for part in range(parts + 1)]
    return [indices[low:high] for low, high in zip(bounds, bounds[1:])]


def end_to_end(results: list[dict]) -> dict:
    """The end-to-end figures of a set of clients (p90 for the summary line)."""
    latencies = [o["latency_s"] for r in results for o in r["outcomes"]]
    timed = sum(r["timed_s"] for r in results)
    return {
        "items_per_s": len(latencies) / timed,
        "latency_s_p50": statistics.median(latencies),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results if r["outcomes"]),
        "latency_s_p90": percentile(latencies, 0.9),
        "samples": len(latencies),
    }


def guard_digest(result: dict) -> dict:
    """The host-independent counters of one guard client."""
    return {
        "items": [o["counters"] for o in result["outcomes"]],
        "layer": result["layer"],
        "explorer": result["spans"]["counters"],
        "span_calls": result["spans"]["calls"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so the running client is stopped and the
    # scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2

    with open(os.path.join(root, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    # BENCHMARK.json is the one list of metric names and units.
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    count = item_count(args.workload, args.seconds)
    base = {"workload": args.workload, "seed": args.seed, "count": count}
    indices = list(range(count))
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    failures: list[str] = []

    def store(name: str) -> str:
        """A job-service artifact store, shared by the clients of one pass:
        the stream repeats, so later clients read what earlier ones wrote."""
        return os.path.join(scratch, name)

    try:
        if args.trace:
            traced_count = max(1, count // 2)
            untraced, traced = [], []
            for part, chunk in enumerate(split(indices[:traced_count], TRACED_PAIRS)):
                hash_seed = HASH_SEEDS[part % 2]
                for mode, sink in ((False, untraced), (True, traced)):
                    config = dict(base, indices=chunk, trace=mode, store=store(f"trace-{mode}"))
                    sink.append(run_client(root, config, hash_seed, deadline))
            clients = untraced + traced
            guard_chunk = indices[: GUARD_ITEMS[args.workload]]
            guards = [
                run_client(
                    root, dict(base, indices=guard_chunk, trace=True, store=store(f"guard-{hash_seed}")),
                    hash_seed, deadline,
                )
                for hash_seed in HASH_SEEDS
            ]
        else:
            clients = [
                run_client(
                    root, dict(base, indices=chunk, trace=False, store=store("timed")),
                    HASH_SEEDS[part % 2], deadline,
                )
                for part, chunk in enumerate(split(indices, CLIENTS[args.workload]))
            ]
            guards = []
    except ClientFailed as failure:
        print(f"perfbench: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(1, count), "failed": max(1, count),
                          "metrics": {}}))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    everything = clients + guards
    outcomes = [o for r in everything for o in r["outcomes"]]
    for outcome in outcomes:
        if not outcome["ok"]:
            failures.append(outcome["error"])
    warm_ups = {json.dumps(r["warm_up"], sort_keys=True) for r in everything}
    if len(warm_ups) != 1:
        failures.append(f"warm-up counters differ between clients: {sorted(warm_ups)}")
    digests = [json.dumps(guard_digest(r), sort_keys=True) for r in guards]
    if len(set(digests)) > 1:
        failures.append(f"host-independent counters differ between hash seeds: {digests}")
    for failure in failures[:10]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    host = (
        f"host calibration {statistics.median(r['calibration_s'] for r in everything):.4f}s "
        f"(median of {len(everything)}), run {time.monotonic() - started:.1f}s"
    )

    if args.trace:
        metrics = per_layer_metrics(traced, end_to_end(untraced))
        print(f"perfbench: {args.workload} seed {args.seed} traced: {host}")
    else:
        e2e = dict(end_to_end(clients), setup_s=statistics.median(r["setup_s"] for r in clients))
        # Same seed, same digest: the host-independent counters of every item.
        counters = json.dumps([o["counters"] for o in outcomes], sort_keys=True)
        print(
            f"perfbench: {args.workload} seed {args.seed}: {e2e['samples']} items, "
            f"latency p50 {e2e['latency_s_p50']:.6f}s p90 {e2e['latency_s_p90']:.6f}s, "
            f"{e2e['items_per_s']:.3f} items/s, setup {e2e['setup_s']:.4f}s "
            f"(median of {len(clients)}), peak rss {e2e['peak_rss_mb']:.1f} MB, "
            f"counters {hashlib.sha256(counters.encode()).hexdigest()[:16]}, {host}"
        )
        metrics = {name: e2e[name] for name in units if name in e2e}
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(metrics)} are not BENCHMARK.json's {sorted(units)}",
              file=sys.stderr)
        return 2
    failed = sum(1 for o in outcomes if not o["ok"])
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
