"""Multiprocess image computation inside the relational fixpoint.

The transition relation of the symbolic engine is *conjunctively
partitioned* (:class:`~repro.verification.relational.PartitionedRelation`),
and image computation is embarrassingly parallel along two independent
axes.  This module runs either axis on a persistent pool of spawned worker
processes:

* **frontier sharding** (``parallel_mode="frontier"``, the default) — the
  image distributes over disjunction, so the frontier is shattered into
  pairwise-disjoint shards by cofactoring on state variables
  (:func:`shatter_frontier`); each worker computes the *full* early-quantified
  image of its shards and the parent disjoins the results.  Exactly the
  dist_zero-style sharding of a reactive network: disjoint state sets evolve
  independently under one shared relation.

* **cluster parallelism** (``parallel_mode="clusters"``) — one task per
  relation cluster: each worker computes ``∃ privateᵢ . (frontier ∧
  clusterᵢ)``.  Existential quantification does **not** distribute over
  conjunction, so a worker may only eliminate the quantified variables
  *private* to its cluster — mentioned by no other cluster and never by a
  frontier (frontier supports lie inside the state bits).  The parent
  conjoins the partial products and eliminates the remaining shared
  variables with the usual early-quantification fold, so the result is the
  sequential image, function for function.

Workers are spawned once and reused: a :class:`WorkerGroup` is shared
process-wide (:func:`shared_group`) and engines *attach* to it — shipping
the variable order and cluster BDDs (PR 6's :func:`~repro.clocks.bdd.dump_nodes`
payloads) exactly once per worker — then stream per-iteration frontiers as
*delta* payloads through an :class:`~repro.clocks.bdd.IncrementalDumper`, so
nodes a worker already holds are referenced by index instead of re-encoded.
Worker managers never reorder (their loader tables must stay canonical);
they inherit the parent's attach-time sifted order instead.

Everything is differential by construction: pooled and sequential fixpoints
run in the *same parent manager* and hash-consing makes equal functions the
identical node, which ``tests/test_parallel_image.py`` pins across the
boolean and integer corpora (verdicts, state counts, rings, rendered traces).
"""

from __future__ import annotations

import atexit
import os
import pickle
import signal
import time
from multiprocessing import get_context
from multiprocessing.connection import wait as _connection_wait
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

from ..clocks.bdd import (
    BDDManager,
    BDDNode,
    IncrementalDumper,
    IncrementalLoader,
    dump_nodes,
    load_nodes,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .relational import RelationalFixpointEngine

__all__ = [
    "PARALLEL_MODES",
    "WORKERS_ENV",
    "ParallelImageEngine",
    "WorkerGroup",
    "resolve_workers",
    "shared_group",
    "shatter_frontier",
    "shutdown_shared_groups",
    "global_stats",
    "reset_global_stats",
]

#: The frontier-sharding and cluster-parallel image modes.
PARALLEL_MODES = ("frontier", "clusters")

#: Environment variable ``parallel="auto"`` honours before ``os.cpu_count()``
#: — the CI matrix leg sets it to pin pooled-vs-sequential equality at fixed
#: worker counts, and the repo conftest serves it to the differential suite.
WORKERS_ENV = "REPRO_PARALLEL_WORKERS"

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Process-wide counters the bench-smoke trajectory records per benchmark
#: (``workers`` = largest pool used since the last reset, ``images`` = pooled
#: image computations) — same reset-per-test pattern as the BDD globals.
GLOBAL_STATS = {"workers": 0, "images": 0}


def reset_global_stats() -> None:
    """Zero the process-wide pooled-image counters (per-benchmark scoping)."""
    GLOBAL_STATS["workers"] = 0
    GLOBAL_STATS["images"] = 0


def global_stats() -> dict:
    """A snapshot of the process-wide pooled-image counters."""
    return dict(GLOBAL_STATS)


def resolve_workers(parallel: Optional[Union[int, str]]) -> Optional[int]:
    """Worker count for an ``options.parallel`` value (None = stay sequential).

    ``"auto"`` reads :data:`WORKERS_ENV` when set, else ``os.cpu_count()``;
    an explicit positive integer is taken as-is.  ``None`` and ``0`` mean
    sequential.  Anything else is a configuration error.
    """
    if isinstance(parallel, bool):
        raise ValueError(f"parallel must be a positive int, 'auto' or None, not {parallel!r}")
    if parallel is None or parallel == 0:
        return None
    if parallel == "auto":
        configured = os.environ.get(WORKERS_ENV)
        if configured is not None:
            try:
                count = int(configured)
            except ValueError:
                raise ValueError(
                    f"{WORKERS_ENV} must be an integer, not {configured!r}"
                ) from None
        else:
            count = os.cpu_count() or 1
        return max(1, count)
    if not isinstance(parallel, int):
        raise ValueError(f"parallel must be a positive int, 'auto' or None, not {parallel!r}")
    if parallel < 0:
        raise ValueError(f"parallel must be a positive int, 'auto' or None, not {parallel!r}")
    return parallel


def shatter_frontier(
    manager: BDDManager, states: BDDNode, pieces: int, variables: Sequence[str]
) -> list[BDDNode]:
    """Split a state set into at most ``pieces`` pairwise-disjoint shards.

    Repeatedly cofactors the currently largest shard on the first of
    ``variables`` (state bits, declaration order — so usually the shard's
    top level) with two non-empty cofactors: ``shard ∧ ¬v`` and ``shard ∧
    v``.  The shards are disjoint by construction and disjoin back to
    ``states``, so — image distributing over disjunction — their images
    disjoin to the image of ``states``.  A shard pinning every variable
    (one concrete state) cannot split; it is kept whole.
    """
    if states is manager.false:
        return []
    if pieces <= 1:
        return [states]
    shards = [states]
    whole: list[BDDNode] = []
    while shards and len(shards) + len(whole) < pieces:
        shards.sort(key=manager.size)
        candidate = shards.pop()
        split = _split_one(manager, candidate, variables)
        if split is None:
            whole.append(candidate)
        else:
            shards.extend(split)
    return shards + whole


def _split_one(
    manager: BDDManager, shard: BDDNode, variables: Sequence[str]
) -> Optional[list[BDDNode]]:
    for name in variables:
        low = manager.conj(shard, manager.nvar(name))
        if low is manager.false or low is shard:
            continue
        # ``low`` is a proper non-empty subset, so the positive cofactor is
        # non-empty too.
        return [low, manager.conj(shard, manager.var(name))]
    return None


# ------------------------------------------------------------------ worker side

class _WorkerRelation:
    """One attached relation inside a worker process.

    Rehydrated exactly once per (worker, engine) from the attach payload —
    its own manager (reordering off: the incremental loader table must stay
    canonical), the cluster BDDs reloaded under the parent's attach-time
    order, and the early-quantification machinery of
    :class:`~repro.verification.relational.PartitionedRelation` reused
    verbatim.  Per-iteration frontiers arrive as delta payloads.
    """

    def __init__(self, payload: dict) -> None:
        from .relational import PartitionedRelation

        manager = BDDManager(payload["order"])
        clusters = load_nodes(manager, payload["clusters"])
        self.manager = manager
        self.relation = PartitionedRelation(manager, clusters, cluster_size=0)
        self.quantified = list(payload["quantified"])
        self.unprime = dict(payload["unprime"])
        self.private = [list(names) for names in payload["private"]]
        self.loader = IncrementalLoader(manager)

    def image(self, request: dict) -> dict:
        """The full early-quantified, unprimed image of one frontier shard."""
        (seed,) = self.loader.load(request["seed"])
        successors = self.relation.product(seed, self.quantified)
        return dump_nodes(self.manager, [self.manager.rename(successors, self.unprime)])

    def partial(self, request: dict) -> dict:
        """``∃ privateᵢ . (frontier ∧ clusterᵢ)`` — one cluster's partial product."""
        (seed,) = self.loader.load(request["seed"])
        index = request["cluster"]
        part = self.manager.and_exists(seed, self.relation.clusters[index], self.private[index])
        return dump_nodes(self.manager, [part])


def _image_worker_main(connection) -> None:
    """Entry point of one pooled image worker (spawn-safe, module-level).

    Serves attach/detach/image/partial requests over its pipe until the
    parent sends ``stop`` or closes the channel; any per-request failure is
    answered as a structured error instead of killing the worker.
    """
    if hasattr(signal, "SIGINT"):
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    relations: dict[int, _WorkerRelation] = {}
    while True:
        try:
            request = pickle.loads(connection.recv_bytes())
        except (EOFError, OSError):
            break
        operation = request.get("op")
        if operation == "stop":
            break
        try:
            started = time.perf_counter()
            if operation == "attach":
                relations[request["relation"]] = _WorkerRelation(request)
                reply = {"ok": True}
            elif operation == "detach":
                relations.pop(request["relation"], None)
                reply = {"ok": True}
            elif operation in ("image", "partial"):
                relation = relations[request["relation"]]
                dump = relation.image(request) if operation == "image" else relation.partial(request)
                reply = {"ok": True, "dump": dump}
            else:
                raise ValueError(f"unknown image-worker request {operation!r}")
            reply["seconds"] = time.perf_counter() - started
        except Exception as error:  # noqa: BLE001 - every failure must reach the parent
            reply = {"error": f"{type(error).__name__}: {error}"}
        connection.send_bytes(pickle.dumps(reply, protocol=_PICKLE_PROTOCOL))
    connection.close()


# ------------------------------------------------------------------ parent side

class WorkerGroup:
    """A persistent pool of spawned image workers, shared across engines.

    Processes start lazily on first use and host any number of attached
    relations concurrently (each under its own worker-side manager), keyed
    by parent-assigned relation ids — so one group serves every engine of a
    process, across fixpoints, which is what makes the spawn cost a
    once-per-process constant instead of a per-reach tax.  Workers are
    daemons: a dying parent never leaks them.
    """

    def __init__(self, count: int) -> None:
        if count < 1:
            raise ValueError(f"a worker group needs at least one worker, not {count}")
        self.count = count
        self._context = get_context("spawn")
        self._processes: list = []
        self.connections: list = []
        self._started = False
        self.closed = False
        self._next_relation = 0

    def start(self) -> None:
        """Spawn the workers (idempotent)."""
        if self._started:
            if self.closed:
                raise RuntimeError("this worker group has been shut down")
            return
        self._started = True
        for index in range(self.count):
            parent_end, child_end = self._context.Pipe(duplex=True)
            process = self._context.Process(
                target=_image_worker_main,
                args=(child_end,),
                name=f"repro-image-worker-{index}",
                daemon=True,
            )
            process.start()
            child_end.close()
            self._processes.append(process)
            self.connections.append(parent_end)
        GLOBAL_STATS["workers"] = max(GLOBAL_STATS["workers"], self.count)

    def new_relation_id(self) -> int:
        """A fresh id for an engine attaching its relation to this group."""
        self._next_relation += 1
        return self._next_relation

    def send(self, worker: int, request: dict) -> int:
        """Ship one request to ``worker``; returns the serialised byte count."""
        data = pickle.dumps(request, protocol=_PICKLE_PROTOCOL)
        self.connections[worker].send_bytes(data)
        return len(data)

    def receive(self, worker: int) -> tuple[dict, int]:
        """One reply from ``worker`` as ``(payload, byte_count)``."""
        try:
            data = self.connections[worker].recv_bytes()
        except (EOFError, OSError) as error:
            raise RuntimeError(
                f"parallel image worker {worker} died mid-request"
            ) from error
        reply = pickle.loads(data)
        if "error" in reply:
            raise RuntimeError(f"parallel image worker {worker} failed: {reply['error']}")
        return reply, len(data)

    def close(self) -> None:
        """Stop every worker; the group cannot be used afterwards."""
        if self.closed:
            return
        self.closed = True
        for connection in self.connections:
            try:
                connection.send_bytes(pickle.dumps({"op": "stop"}, protocol=_PICKLE_PROTOCOL))
            except (OSError, ValueError):
                pass
        for connection in self.connections:
            try:
                connection.close()
            except OSError:
                pass
        for process in self._processes:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - defensive teardown
                process.terminate()
                process.join(timeout=5)
        self._processes.clear()
        self.connections.clear()


_SHARED_GROUPS: dict[int, WorkerGroup] = {}


def shared_group(count: int) -> WorkerGroup:
    """The process-wide worker group of ``count`` workers (created on demand).

    Shared across engines *and* across fixpoints — including the job layer's
    worker processes, where one group serves every job the worker runs.
    """
    group = _SHARED_GROUPS.get(count)
    if group is None or group.closed:
        group = WorkerGroup(count)
        _SHARED_GROUPS[count] = group
    return group


def shutdown_shared_groups() -> None:
    """Stop every shared worker group (atexit, and job-worker teardown)."""
    for group in _SHARED_GROUPS.values():
        group.close()
    _SHARED_GROUPS.clear()


atexit.register(shutdown_shared_groups)


class ParallelImageEngine:
    """Pooled image computation over one engine's partitioned relation.

    A drop-in for :meth:`RelationalFixpointEngine.image
    <repro.verification.relational.RelationalFixpointEngine.image>` inside
    the reach fixpoint: results are computed in the parent's own manager, so
    hash-consing makes a pooled image the *identical node* the sequential
    fold would have produced.  Attachment (shipping the variable order and
    cluster dumps to every worker) happens lazily on the first image;
    :meth:`finish` detaches and returns the accumulated statistics, leaving
    the shared worker group alive for the next engine.
    """

    def __init__(
        self,
        engine: "RelationalFixpointEngine",
        workers: int,
        mode: str = "frontier",
        group: Optional[WorkerGroup] = None,
    ) -> None:
        if mode not in PARALLEL_MODES:
            raise ValueError(f"parallel_mode must be one of {PARALLEL_MODES}, not {mode!r}")
        self.engine = engine
        self.mode = mode
        self.group = group if group is not None else shared_group(workers)
        self._relation_id: Optional[int] = None
        self._dumpers: list[IncrementalDumper] = []
        self._attached = False
        self._remaining: list[str] = []
        self.stats: dict = {
            "parallel_workers": self.group.count,
            "parallel_mode": mode,
            "parallel_images": 0,
            "parallel_requests": 0,
            "parallel_bytes_sent": 0,
            "parallel_bytes_received": 0,
            "parallel_worker_seconds": 0.0,
        }

    # -- attachment --------------------------------------------------------------

    def _private_variables(self) -> list[list[str]]:
        """Per cluster: the quantified variables only that cluster mentions.

        A worker may eliminate a variable locally only when no *other*
        conjunct of the product mentions it — neither another cluster nor
        the frontier seed, whose support always lies inside the state bits.
        Everything else stays for the parent's shared fold.
        """
        engine = self.engine
        quantified = frozenset(engine.signal_bits) | frozenset(engine.state_bits)
        seed_bits = frozenset(engine.state_bits)
        supports = engine.relation._supports
        private: list[list[str]] = []
        eliminated: set[str] = set()
        for index, support in enumerate(supports):
            others: frozenset = frozenset()
            for other_index, other in enumerate(supports):
                if other_index != index:
                    others |= other
            names = (support & quantified) - seed_bits - others
            private.append(sorted(names))
            eliminated |= names
        self._remaining = sorted(quantified - eliminated)
        return private

    def _attach(self) -> None:
        engine = self.engine
        group = self.group
        group.start()
        # Recorded here as well as at spawn time: the group outlives the
        # per-benchmark counter resets, so a reused pool must still show up.
        GLOBAL_STATS["workers"] = max(GLOBAL_STATS["workers"], group.count)
        payload = {
            "op": "attach",
            "relation": group.new_relation_id(),
            "order": list(engine.manager.variables),
            "clusters": dump_nodes(engine.manager, engine.relation.clusters),
            "quantified": list(engine.signal_bits) + list(engine.state_bits),
            "unprime": dict(engine._unprime_map),
            "private": self._private_variables(),
        }
        self._relation_id = payload["relation"]
        self._broadcast(payload)
        self._dumpers = [IncrementalDumper(engine.manager) for _ in range(group.count)]
        self._attached = True

    def _broadcast(self, request: dict) -> None:
        # Replies to attach/detach are tiny, so send-all-then-read-all cannot
        # fill both pipe directions at once.
        group = self.group
        for worker in range(group.count):
            self.stats["parallel_bytes_sent"] += group.send(worker, request)
        for worker in range(group.count):
            reply, received = group.receive(worker)
            self.stats["parallel_bytes_received"] += received
            self.stats["parallel_worker_seconds"] += reply.get("seconds", 0.0)

    # -- the image ----------------------------------------------------------------

    def image(self, states: BDDNode) -> BDDNode:
        """Successors of ``states``, computed on the pool (≡ sequential image)."""
        engine = self.engine
        manager = engine.manager
        if not self._attached:
            self._attach()
        self.stats["parallel_images"] += 1
        GLOBAL_STATS["images"] += 1
        relation_id = self._relation_id
        if self.mode == "frontier":
            shards = shatter_frontier(manager, states, self.group.count, engine.state_bits)
            if not shards:
                return manager.false

            def build_shard(shard: BDDNode) -> Callable[[int], dict]:
                def build(worker: int) -> dict:
                    return {
                        "op": "image",
                        "relation": relation_id,
                        "seed": self._dumpers[worker].dump([shard]),
                    }

                return build

            replies = self._run([build_shard(shard) for shard in shards])
            return manager.disj_all(load_nodes(manager, reply["dump"])[0] for reply in replies)

        def build_cluster(index: int) -> Callable[[int], dict]:
            def build(worker: int) -> dict:
                return {
                    "op": "partial",
                    "relation": relation_id,
                    "cluster": index,
                    "seed": self._dumpers[worker].dump([states]),
                }

            return build

        from .relational import PartitionedRelation

        replies = self._run([build_cluster(i) for i in range(len(engine.relation.clusters))])
        partials = [load_nodes(manager, reply["dump"])[0] for reply in replies]
        # The shared variables (and those quantified out of the seed alone)
        # are eliminated here, with the usual early-quantification fold over
        # the partial products.
        folded = PartitionedRelation(manager, partials, cluster_size=0).product(
            manager.true, self._remaining
        )
        return manager.rename(folded, engine._unprime_map)

    def _run(self, builders: Sequence[Callable[[int], dict]]) -> list[dict]:
        """Dispatch tasks one-outstanding-per-worker and collect all replies.

        Payloads are built *at dispatch time* for the worker actually chosen,
        so each worker's incremental dump channel sees its requests in send
        order.  Keeping a single request in flight per worker bounds what
        either pipe direction buffers — large frontier dumps and large result
        dumps can never deadlock against each other.
        """
        group = self.group
        connections = group.connections
        results: list = [None] * len(builders)
        idle = list(range(group.count))
        pending: dict = {}
        next_task = 0
        while next_task < len(builders) or pending:
            while idle and next_task < len(builders):
                worker = idle.pop()
                request = builders[next_task](worker)
                self.stats["parallel_bytes_sent"] += group.send(worker, request)
                self.stats["parallel_requests"] += 1
                pending[connections[worker]] = (next_task, worker)
                next_task += 1
            for connection in _connection_wait(list(pending)):
                index, worker = pending.pop(connection)
                reply, received = group.receive(worker)
                self.stats["parallel_bytes_received"] += received
                self.stats["parallel_worker_seconds"] += reply.get("seconds", 0.0)
                results[index] = reply
                idle.append(worker)
        return results

    # -- teardown ----------------------------------------------------------------

    def finish(self) -> dict:
        """Detach from the pool and return the accumulated statistics.

        The worker group itself stays up for the next engine; only this
        engine's worker-side relation state is dropped.  Safe to call on a
        never-attached engine (a fixpoint whose frontier emptied before the
        first image still reports its configuration).
        """
        if self._attached and not self.group.closed:
            self._broadcast({"op": "detach", "relation": self._relation_id})
        self._attached = False
        self._dumpers = []
        stats = dict(self.stats)
        stats["parallel_worker_seconds"] = round(stats["parallel_worker_seconds"], 6)
        return stats
