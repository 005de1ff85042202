"""A small reduced ordered binary decision diagram (ROBDD) package.

The SIGNAL compiler's clock calculus manipulates boolean formulas over
presence and value conditions; canonicalising them is what lets the compiler
decide clock equivalence, inclusion and emptiness.  This module provides the
minimal ROBDD machinery needed for that: a manager with hash-consed nodes,
the ``ite`` combinator, the usual boolean connectives, restriction,
satisfiability and model enumeration.

The same engine is reused by the verification layer to represent state
predicates symbolically: quantification, variable renaming and the combined
relational product (``and_exists``) are the primitives the symbolic
reachability engine of :mod:`repro.verification.symbolic_int` builds its image
computation from.

Two interchangeable cores implement the manager:

* ``core="object"`` — the reference implementation: one Python
  :class:`BDDNode` object per node, dict-based unique table, per-operation
  dict caches.  Kept as the differential oracle.
* ``core="array"`` (the default) — the hot core of
  :mod:`repro.clocks.bdd_array`: nodes are indices into flat parallel
  ``var/low/high`` arrays, edges are integers carrying a *complement* bit
  (so negation is O(1) and each diagram is shared with its complement), the
  unique table is an open-addressed integer hash table, and every boolean
  connective collapses into a single ITE primitive backed by one lossy
  array-mapped computed cache with standard-triple normalisation.

``BDDManager(...)`` dispatches between them via the ``core=`` keyword,
defaulting to the ``REPRO_BDD_CORE`` environment variable (mirroring
``REPRO_STEP_COMPILE``).  Both cores expose the same node handle API
(``variable``/``low``/``high``/``identifier``/``is_terminal``) with
hash-consed ``is``-identity, so the clock calculus, the symbolic engine,
the parallel image layer and the persistent cache run unmodified on either.

Variable ordering is dynamic: beyond the static first-use order the callers
establish with :meth:`BDDManager.declare`, the manager implements the
classical in-place adjacent *level exchange* and group-aware Rudell
*sifting* (:meth:`BDDManager.reorder`), auto-triggered on unique-table
growth when ``auto_reorder`` is on.  Every exchange rewrites the affected
nodes in place — same handle, same identifier, same boolean function — so
node references held by callers and name-based renaming maps stay valid
across reorders.  :meth:`BDDManager.group_variables` pins variable tuples
(the symbolic engine's prime/unprime pairs) adjacent through every reorder.
"""

from __future__ import annotations

import os
import weakref
from typing import Iterable, Iterator, Mapping, Optional, Sequence


class NodeBudgetExceeded(RuntimeError):
    """The unique table outgrew the manager's declared ``node_budget``.

    Raised *before* the node that would overflow is created, so the diagram
    is left consistent; benchmarking uses this to demonstrate orderings a
    static encoding cannot survive.  The budget is not enforced *during* a
    reorder (an exception mid-exchange would corrupt the diagram) — growth
    there is bounded instead by the sifting ``max_growth`` abort factor,
    and auto-reorder checkpoints arm early (at half the budget) so sifting
    gets a chance to shrink the table before the budget can fire.
    """


#: Name of the environment variable selecting the default BDD core, and the
#: fallback when it is unset.  Mirrors ``REPRO_STEP_COMPILE``: CI runs the
#: same suites under both values, everyone else gets the fast core with the
#: object core kept as the oracle.
BDD_CORE_ENV = "REPRO_BDD_CORE"
DEFAULT_BDD_CORE = "array"

#: Core registry, filled in as the implementations are defined (the array
#: core registers itself from :mod:`repro.clocks.bdd_array`, imported at the
#: bottom of this module).
_CORES: dict[str, type] = {}


def resolve_bdd_core(core: Optional[str] = None) -> str:
    """The effective core name: explicit argument, else env, else default."""
    chosen = core if core is not None else (os.environ.get(BDD_CORE_ENV) or DEFAULT_BDD_CORE)
    if chosen not in ("object", "array"):
        raise ValueError(f"unknown BDD core {chosen!r} (choose 'object' or 'array')")
    return chosen


#: Process-wide accumulators over every manager, so test harnesses can record
#: peak BDD pressure per benchmark without threading managers around.
#: ``core_speedup`` is written by ``benchmarks/bench_bdd_core.py`` (the
#: measured array-vs-object relational throughput ratio); 0.0 elsewhere.
GLOBAL_STATS = {
    "managers": 0,
    "peak_nodes": 0,
    "reorders": 0,
    "cache_hits": 0,
    "cache_misses": 0,
    "core_speedup": 0.0,
}

#: Live managers, so :func:`global_stats` can fold their cache counters in
#: without the managers having to push on every operation.
_MANAGERS: "weakref.WeakSet[BDDManager]" = weakref.WeakSet()


def reset_global_stats() -> None:
    """Zero the process-wide BDD counters (per-benchmark bookkeeping)."""
    GLOBAL_STATS.update(
        managers=0, peak_nodes=0, reorders=0, cache_hits=0, cache_misses=0, core_speedup=0.0
    )
    for manager in list(_MANAGERS):
        manager._stat_base_hits = manager.cache_hits
        manager._stat_base_misses = manager.cache_misses


def global_stats() -> dict:
    """A snapshot of the process-wide BDD counters.

    Cache hits/misses are summed over the live managers (relative to the
    last :func:`reset_global_stats`) plus whatever finalised managers
    flushed into the accumulators.
    """
    snapshot = dict(GLOBAL_STATS)
    for manager in list(_MANAGERS):
        snapshot["cache_hits"] += manager.cache_hits - manager._stat_base_hits
        snapshot["cache_misses"] += manager.cache_misses - manager._stat_base_misses
    return snapshot


def record_core_speedup(ratio: float) -> None:
    """Record the measured array-vs-object throughput ratio (benchmarks)."""
    GLOBAL_STATS["core_speedup"] = round(float(ratio), 3)


#: Version tag of the :func:`dump_nodes` payload layout.  Bump on any change
#: to the node-table encoding so stale persisted dumps are rejected as a
#: cache miss instead of being mis-decoded.  Both cores emit and accept the
#: same layout — payloads are cross-core portable.
DUMP_FORMAT = 1


def dump_nodes(manager: "BDDManager", roots: Sequence["BDDNode"]) -> dict:
    """Serialise the diagrams of ``roots`` into a pure-data payload.

    The payload is a children-first node table over the dump-time variable
    order — plain strings, ints and lists, so it pickles/JSONs freely::

        {"format": DUMP_FORMAT,
         "order": [...variable names, dump-time level order, support only...],
         "nodes": [[variable, low_index, high_index], ...],
         "roots": [index, ...]}          # parallel to ``roots``

    Indices 0 and 1 denote the false/true terminals; internal nodes are
    numbered from 2 in table order.  Shared sub-diagrams are emitted once,
    so the table size equals the shared node count of the root set.  The
    payload records *which* order the nodes were reduced under, but
    :func:`load_nodes` does not depend on it — diagrams are rebuilt
    bottom-up with ``ite``, which re-canonicalises under whatever order the
    target manager currently has.
    """
    index: dict[int, int] = {manager.false.identifier: 0, manager.true.identifier: 1}
    nodes: list[list] = []
    for root in roots:
        if root.identifier in index:
            continue
        stack: list[tuple[BDDNode, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if node.identifier in index:
                continue
            if expanded:
                nodes.append([node.variable, index[node.low.identifier], index[node.high.identifier]])
                index[node.identifier] = len(nodes) + 1
            else:
                stack.append((node, True))
                stack.append((node.high, False))
                stack.append((node.low, False))
    used = {entry[0] for entry in nodes}
    return {
        "format": DUMP_FORMAT,
        "order": [name for name in manager.variables if name in used],
        "nodes": nodes,
        "roots": [index[root.identifier] for root in roots],
    }


def load_nodes(manager: "BDDManager", payload: Mapping) -> list["BDDNode"]:
    """Rebuild the diagrams of a :func:`dump_nodes` payload in ``manager``.

    Returns the root nodes, parallel to the ``roots`` the dump was taken
    over.  The target manager may have a *different* current variable order
    than the dump-time one: every table entry is rebuilt bottom-up through
    ``ite(var, high, low)``, which re-reduces the diagram under the target
    order, and hash-consing guarantees that reloading a function the
    manager already holds yields the identical node object.  Variables the
    payload mentions that the manager has not seen are declared (appended
    to the order) on the fly.

    Raises:
        ValueError: on a payload whose ``format`` tag or table shape this
            version does not understand (a torn or stale cache entry).
    """
    if not isinstance(payload, Mapping) or payload.get("format") != DUMP_FORMAT:
        raise ValueError(f"unsupported BDD dump payload (format {payload.get('format')!r})"
                         if isinstance(payload, Mapping) else "BDD dump payload is not a mapping")
    loader = getattr(manager, "_load_payload", None)
    if loader is not None:
        return loader(payload)
    for name in payload["order"]:
        manager.declare(name)
    table: list[BDDNode] = [manager.false, manager.true]
    for entry in payload["nodes"]:
        variable, low, high = entry
        if not isinstance(variable, str) or not (0 <= low < len(table)) or not (0 <= high < len(table)):
            raise ValueError(f"malformed BDD dump entry {entry!r}")
        table.append(manager.ite(manager.var(variable), table[high], table[low]))
    roots = payload["roots"]
    if any(not isinstance(index, int) or not (0 <= index < len(table)) for index in roots):
        raise ValueError("BDD dump root index out of range")
    return [table[index] for index in roots]


class IncrementalDumper:
    """Serialise successive root sets against one growing shared node table.

    :func:`dump_nodes` re-encodes the full diagram of every root on each
    call; a long-lived channel shipping closely related diagrams (the
    per-iteration frontiers of a fixpoint, say) re-pays that cost for nodes
    the receiver already holds.  An ``IncrementalDumper`` keeps the node
    index *across* calls: each :meth:`dump` payload carries only the nodes
    not shipped on an earlier call, referencing the rest by their previously
    assigned table indices, and a matching :class:`IncrementalLoader` on the
    receiving side grows the mirror table.  Payloads are therefore deltas —
    they only decode through the loader fed every earlier payload in order.

    Identity is tracked by ``BDDNode.identifier``, which the manager never
    reuses, and dynamic reordering preserves the *function* of every live
    node it touches — so an index entry keeps denoting the function it was
    shipped as, across reorders and garbage collections alike.  The one
    contract: only dump roots that are live in ``manager`` (reachable from
    protected roots or freshly computed), as all engine code does.
    """

    def __init__(self, manager: "BDDManager") -> None:
        self.manager = manager
        self._index: dict[int, int] = {manager.false.identifier: 0, manager.true.identifier: 1}
        self._next = 2

    def dump(self, roots: Sequence["BDDNode"]) -> dict:
        """A delta payload for ``roots``: new nodes only, old ones by index."""
        index = self._index
        nodes: list[list] = []
        for root in roots:
            if root.identifier in index:
                continue
            stack: list[tuple[BDDNode, bool]] = [(root, False)]
            while stack:
                node, expanded = stack.pop()
                if node.identifier in index:
                    continue
                if expanded:
                    nodes.append(
                        [node.variable, index[node.low.identifier], index[node.high.identifier]]
                    )
                    index[node.identifier] = self._next
                    self._next += 1
                else:
                    stack.append((node, True))
                    stack.append((node.high, False))
                    stack.append((node.low, False))
        return {
            "format": DUMP_FORMAT,
            "delta": True,
            "nodes": nodes,
            "roots": [index[root.identifier] for root in roots],
        }


class IncrementalLoader:
    """The receiving half of :class:`IncrementalDumper`: a growing node table.

    Feed it every payload of one dumper **in dump order**; each load appends
    the payload's new nodes (rebuilt bottom-up through ``ite``, so the local
    variable order may differ from the dumper's) and resolves the roots
    against the accumulated table.  The table entries must stay valid BDDs of
    this manager between loads — intended for managers that never
    garbage-collect (no dynamic reordering), e.g. the short-lived worker
    managers of :mod:`repro.verification.parallel`.
    """

    def __init__(self, manager: "BDDManager") -> None:
        self.manager = manager
        self._table: list[BDDNode] = [manager.false, manager.true]

    def load(self, payload: Mapping) -> list["BDDNode"]:
        """Append one delta payload and return its root nodes."""
        if not isinstance(payload, Mapping) or payload.get("format") != DUMP_FORMAT:
            raise ValueError(
                f"unsupported BDD dump payload (format {payload.get('format')!r})"
                if isinstance(payload, Mapping)
                else "BDD dump payload is not a mapping"
            )
        if not payload.get("delta"):
            raise ValueError("IncrementalLoader needs delta payloads (IncrementalDumper.dump)")
        table = self._table
        for entry in payload["nodes"]:
            variable, low, high = entry
            if not isinstance(variable, str) or not (0 <= low < len(table)) or not (0 <= high < len(table)):
                raise ValueError(f"malformed BDD dump entry {entry!r}")
            table.append(self.manager.ite(self.manager.var(variable), table[high], table[low]))
        roots = payload["roots"]
        if any(not isinstance(index, int) or not (0 <= index < len(table)) for index in roots):
            raise ValueError("BDD dump root index out of range")
        return [table[index] for index in roots]


class BDDNode:
    """A hash-consed BDD node (internal: use :class:`BDDManager`).

    ``refcount`` is only meaningful while a reorder is in flight: it counts
    live in-table parents plus root references, letting level exchanges
    delete dead nodes eagerly instead of accumulating garbage.
    """

    __slots__ = ("variable", "low", "high", "identifier", "refcount")

    def __init__(self, variable: Optional[str], low: Optional["BDDNode"], high: Optional["BDDNode"], identifier: int):
        self.variable = variable
        self.low = low
        self.high = high
        self.identifier = identifier
        self.refcount = 0

    @property
    def is_terminal(self) -> bool:
        return self.variable is None

    def __repr__(self) -> str:
        if self.is_terminal:
            return f"BDD({'1' if self.identifier == 1 else '0'})"
        return f"BDD({self.variable}, id={self.identifier})"


class BDDManager:
    """Factory and algebra of ROBDDs over a growable, ordered variable set.

    Instantiating ``BDDManager(...)`` yields one of two cores (see the
    module docstring): ``core="array"`` (default, overridable through the
    ``REPRO_BDD_CORE`` environment variable) or ``core="object"`` (the
    reference oracle).  This base class holds the shared surface — variable
    bookkeeping, the generic algorithms expressed over the node handle
    protocol, and the group-aware sifting driver — while the subclasses
    provide node construction, ITE, quantification and level exchanges.
    """

    #: Overridden per core ("object" / "array"); also the ``core=`` value
    #: that selects the class through the dispatching constructor.
    core = "object"

    #: Default operation-cache budget as a multiple of the unique-table
    #: size; see ``cache_ratio`` in ``__init__``.
    _default_cache_ratio = 8.0

    def __new__(cls, *args, **kwargs):
        if cls is BDDManager:
            cls = _CORES[resolve_bdd_core(kwargs.get("core"))]
        return super().__new__(cls)

    def __init__(
        self,
        variables: Iterable[str] = (),
        *,
        core: Optional[str] = None,
        auto_reorder: bool = False,
        reorder_threshold: int = 20000,
        node_budget: Optional[int] = None,
        cache_ratio: Optional[float] = None,
    ) -> None:
        if core is not None and resolve_bdd_core(core) != self.core:
            raise ValueError(f"cannot build a {self.core!r}-core manager with core={core!r}")
        self._order: list[str] = []
        self._rank: dict[str, int] = {}
        #: Reordering state: grouped variables stay adjacent, protected nodes
        #: are the live roots sifting minimises, and the flag defers budget
        #: enforcement while exchanges are in flight.
        self._groups: dict[str, tuple[str, ...]] = {}
        self._protected: list[BDDNode] = []
        self._protected_ids: set[int] = set()
        self.auto_reorder = auto_reorder
        # Arm the first auto-reorder before a node budget can fire (a design
        # one sift would fit must reach a checkpoint while still under
        # budget); post-reorder doubling then governs re-arming as usual.
        if node_budget is not None:
            reorder_threshold = min(reorder_threshold, max(node_budget // 2, 1))
        self.reorder_threshold = reorder_threshold
        self.node_budget = node_budget
        self.reorder_count = 0
        self.peak_nodes = 0
        self._reordering = False
        #: Operation-cache policy and counters.  ``cache_ratio`` bounds the
        #: cache between reorders: the object core clears its dict caches
        #: once they outgrow ``ratio × table``, the array core sizes its
        #: lossy direct-mapped cache at ``ratio × table capacity``.
        self.cache_ratio = self._default_cache_ratio if cache_ratio is None else float(cache_ratio)
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_clears = 0
        self._stat_base_hits = 0
        self._stat_base_misses = 0
        self._setup_core()
        GLOBAL_STATS["managers"] += 1
        _MANAGERS.add(self)
        for name in variables:
            self.declare(name)

    def __del__(self):  # pragma: no cover - exercised indirectly
        # Fold this manager's cache counters into the process accumulators
        # so global_stats() keeps counting after the manager is collected.
        try:
            GLOBAL_STATS["cache_hits"] += self.cache_hits - self._stat_base_hits
            GLOBAL_STATS["cache_misses"] += self.cache_misses - self._stat_base_misses
        except Exception:
            pass

    def _setup_core(self) -> None:
        """Core-specific state (tables, terminals); called by ``__init__``."""
        raise NotImplementedError

    # -- variables ---------------------------------------------------------------

    def declare(self, name: str) -> None:
        """Declare a variable (appended at the end of the ordering)."""
        if name not in self._rank:
            self._rank[name] = len(self._order)
            self._order.append(name)
            self._declared(name)

    def _declared(self, name: str) -> None:
        """Core hook: ``name`` was appended at the last ordering position."""

    @property
    def variables(self) -> tuple[str, ...]:
        """Variables in ordering position."""
        return tuple(self._order)

    def group_variables(self, names: Sequence[str]) -> None:
        """Pin ``names`` together as one reordering group.

        The variables must already sit contiguously in the current order (the
        symbolic engine declares a state bit and its primed copy back to
        back); sifting then moves the whole block as a unit, so prime/unprime
        pairs stay adjacent — the property that keeps renamed relation BDDs
        small — across every reorder.
        """
        group = tuple(names)
        if len(group) < 2:
            return
        for name in group:
            self.declare(name)
        ranks = [self._rank[name] for name in group]
        if ranks != list(range(ranks[0], ranks[0] + len(group))):
            raise ValueError(f"group {group} is not contiguous in the current order")
        for name in group:
            existing = self._groups.get(name)
            if existing is not None and existing != group:
                raise ValueError(f"variable {name!r} already belongs to group {existing}")
        for name in group:
            self._groups[name] = group

    def protect(self, node: BDDNode) -> BDDNode:
        """Register ``node`` as a live root of the reordering metric.

        Protection never affects correctness — every node stays valid across
        reorders whether protected or not (exchanges preserve node identity
        and function).  It only tells sifting which diagrams' total size to
        minimise: the engines protect their durable artifacts (transition
        clusters, reached sets, frontier rings) and scratch nodes stay out of
        the metric.  Returns ``node`` for chaining.
        """
        if not node.is_terminal and node.identifier not in self._protected_ids:
            self._protected_ids.add(node.identifier)
            self._protected.append(node)
        return node

    # -- generic node helpers -----------------------------------------------------

    def _top_variable(self, *nodes: BDDNode) -> str:
        best: Optional[str] = None
        best_rank = len(self._order)
        for node in nodes:
            if node.is_terminal:
                continue
            rank = self._rank[node.variable]
            if rank < best_rank:
                best_rank = rank
                best = node.variable
        assert best is not None
        return best

    def _cofactors(self, node: BDDNode, variable: str) -> tuple[BDDNode, BDDNode]:
        if node.is_terminal or node.variable != variable:
            return node, node
        return node.low, node.high

    # -- boolean connectives ------------------------------------------------------------

    def conj(self, left: BDDNode, right: BDDNode) -> BDDNode:
        """Conjunction ``left ∧ right``."""
        return self.ite(left, right, self.false)

    def disj(self, left: BDDNode, right: BDDNode) -> BDDNode:
        """Disjunction ``left ∨ right``."""
        return self.ite(left, self.true, right)

    def neg(self, node: BDDNode) -> BDDNode:
        """Negation ``¬node``."""
        return self.ite(node, self.false, self.true)

    def diff(self, left: BDDNode, right: BDDNode) -> BDDNode:
        """Difference ``left ∧ ¬right``."""
        return self.conj(left, self.neg(right))

    def xor(self, left: BDDNode, right: BDDNode) -> BDDNode:
        """Exclusive or."""
        return self.ite(left, self.neg(right), right)

    def implies(self, left: BDDNode, right: BDDNode) -> BDDNode:
        """Implication ``left ⇒ right``."""
        return self.ite(left, right, self.true)

    def conj_all(self, nodes: Iterable[BDDNode]) -> BDDNode:
        """Conjunction of a collection (true when empty)."""
        result = self.true
        for node in nodes:
            result = self.conj(result, node)
        return result

    def disj_all(self, nodes: Iterable[BDDNode]) -> BDDNode:
        """Disjunction of a collection (false when empty)."""
        result = self.false
        for node in nodes:
            result = self.disj(result, node)
        return result

    def cube(self, assignment: Mapping[str, bool]) -> BDDNode:
        """The conjunction of literals described by ``assignment``."""
        result = self.true
        for name, value in assignment.items():
            result = self.conj(result, self.var(name) if value else self.nvar(name))
        return result

    # -- rename validation (shared by both cores) ---------------------------------------

    def _rename_relevant(self, node: BDDNode, mapping: Mapping[str, str]) -> dict[str, str]:
        """The support-restricted, validated renaming (targets declared)."""
        support = self.support(node)
        relevant = {old: new for old, new in mapping.items() if old in support}
        clashes = (set(relevant.values()) & support) - set(relevant)
        if clashes:
            raise ValueError(f"rename targets {sorted(clashes)} collide with the support")
        if len(set(relevant.values())) != len(relevant):
            duplicated = sorted({new for new in relevant.values() if list(relevant.values()).count(new) > 1})
            raise ValueError(f"rename is not injective on the support: targets {duplicated} are duplicated")
        for new in relevant.values():
            self.declare(new)
        return relevant

    def preimage(
        self,
        relation: BDDNode,
        states: BDDNode,
        prime_map: Mapping[str, str],
        quantified: Iterable[str],
    ) -> BDDNode:
        """Predecessors of ``states`` under ``relation`` (backward image).

        The backward counterpart of the image relational product: ``states``
        (over unprimed state variables) is renamed onto the primed variables
        via ``prime_map``, conjoined with the transition relation, and the
        ``quantified`` variables (signal and primed state bits) are
        existentially eliminated in the same pass.  This is the primitive the
        counterexample-trace extraction of the symbolic engine walks the
        per-iteration frontier rings back through.
        """
        return self.and_exists(relation, self.rename(states, prime_map), quantified)

    # -- dynamic variable reordering -----------------------------------------------------

    def maybe_reorder(self, roots: Iterable[BDDNode] = ()) -> bool:
        """Reorder if the unique table outgrew ``reorder_threshold``.

        This is the *checkpoint* the engines call at points where they know
        their complete live set — between fixpoint iterations, between
        relation conjuncts — passing the still-unprotected working nodes as
        ``roots`` (combined with every :meth:`protect`-ed node).  Reordering
        garbage-collects down to those roots first (see :meth:`reorder`), so
        a checkpoint is only safe when everything the caller will touch again
        is protected or listed.  Returns True when a reorder actually ran.
        """
        if not self.auto_reorder or self._reordering:
            return False
        population = self._population()
        # A checkpoint near the node budget always gets to collect and
        # re-sift, whatever the threshold has doubled to — dying on budget
        # without having tried a reorder would defeat the budget's purpose.
        near_budget = (
            self.node_budget is not None and population >= (3 * self.node_budget) // 4
        )
        if population < self.reorder_threshold and not near_budget:
            return False
        self.reorder(roots=[*self._protected, *roots])
        # Classic threshold doubling: don't re-sift until the table has
        # genuinely outgrown what this pass settled on.
        self.reorder_threshold = max(self.reorder_threshold, 2 * self._population())
        return True

    def reorder(
        self, roots: Optional[Iterable[BDDNode]] = None, max_growth: float = 1.4
    ) -> int:
        """One pass of group-aware Rudell sifting over the live diagrams.

        The unique table is first garbage-collected down to the nodes
        reachable from ``roots`` (default: the :meth:`protect`-ed set) —
        **nodes outside those diagrams are dropped and must not be passed
        back into the manager afterwards**.  Then every group (prime/unprime
        pairs declared via :meth:`group_variables`; other variables are
        singletons) is moved through the order by adjacent level exchanges —
        largest population first — and parked where the total live node
        count is smallest; a sweep direction is abandoned once the count
        exceeds ``max_growth`` times the best seen.  Live nodes are mutated
        in place — same handle, same identifier, same function — so
        references *into the root diagrams* and name-based renaming maps all
        survive.  Returns the live node count after the pass.
        """
        root_nodes = [
            node
            for node in (list(roots) if roots is not None else self._protected)
            if not node.is_terminal
        ]
        if not root_nodes or len(self._order) < 2:
            return 0
        self._reordering = True
        try:
            self._begin_reorder(root_nodes)
            groups = self._grouped_order()
            counts = self._live_counts(root_nodes)
            population = {group: sum(counts[name] for name in group) for group in groups}
            for group in sorted(groups, key=lambda g: population[g], reverse=True):
                self._sift_group(groups, group, max_growth)
            total = self._population()
            self._end_reorder(root_nodes)
        finally:
            self._reordering = False
        self.reorder_count += 1
        GLOBAL_STATS["reorders"] += 1
        return total

    def _grouped_order(self) -> list[tuple[str, ...]]:
        """The current order partitioned into reordering units (groups)."""
        groups: list[tuple[str, ...]] = []
        index = 0
        while index < len(self._order):
            group = self._groups.get(self._order[index])
            if group is None:
                groups.append((self._order[index],))
                index += 1
                continue
            if tuple(self._order[index : index + len(group)]) != group:
                raise RuntimeError(f"group {group} lost its adjacency")
            groups.append(group)
            index += len(group)
        return groups

    def _swap_groups(self, groups: list[tuple[str, ...]], index: int) -> None:
        """Exchange the adjacent groups at ``index`` and ``index + 1``."""
        above, below = groups[index], groups[index + 1]
        base = self._rank[above[0]]
        span = len(above)
        for offset in range(len(below)):
            for position in range(base + span + offset - 1, base + offset - 1, -1):
                self._swap_adjacent(position)
        groups[index], groups[index + 1] = below, above

    def _sift_group(
        self,
        groups: list[tuple[str, ...]],
        group: tuple[str, ...],
        max_growth: float,
    ) -> None:
        """Sift one group to the position minimising the live table size."""
        position = groups.index(group)
        best_total, best_index = self._population(), position
        while position < len(groups) - 1:  # sweep down
            self._swap_groups(groups, position)
            position += 1
            total = self._population()
            if total < best_total:
                best_total, best_index = total, position
            if total > max_growth * best_total:
                break
        while position > 0:  # sweep up, through the start position
            self._swap_groups(groups, position - 1)
            position -= 1
            total = self._population()
            if total < best_total:
                best_total, best_index = total, position
            if total > max_growth * best_total and position <= best_index:
                break
        while position < best_index:  # park at the best position seen
            self._swap_groups(groups, position)
            position += 1
        while position > best_index:
            self._swap_groups(groups, position - 1)
            position -= 1

    def statistics(self) -> dict:
        """Counters of the manager's life so far (sizes, peaks, caches)."""
        return {
            "core": self.core,
            "variables": len(self._order),
            "table_nodes": self._population(),
            "live_nodes": sum(self._live_counts(self._protected).values()),
            "peak_nodes": self.peak_nodes,
            "reorders": self.reorder_count,
            "nodes_created": self._nodes_created(),
            "cache_entries": self._cache_entries(),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_clears": self.cache_clears,
        }

    # -- bit-vector circuits ------------------------------------------------------------
    #
    # Unsigned bit-vectors are plain lists of BDD nodes, least significant bit
    # first; a vector of width 0 denotes the constant 0.  The symbolic
    # engine (:mod:`repro.verification.symbolic_int`) compiles SIGNAL
    # arithmetic onto these circuits: addition is a ripple-carry adder,
    # comparisons are the classical LSB-to-MSB comparator chain, and selection
    # is a bitwise multiplexer.  Widths are the caller's business — every
    # operation below is exact over the width it is asked to produce.

    def bv_const(self, value: int, width: int) -> list[BDDNode]:
        """The constant vector of ``value`` over ``width`` bits (LSB first)."""
        if value < 0 or (width < value.bit_length()):
            raise ValueError(f"constant {value} is not representable over {width} unsigned bits")
        return [self.true if (value >> index) & 1 else self.false for index in range(width)]

    def bv_not(self, bits: Sequence[BDDNode]) -> list[BDDNode]:
        """Bitwise complement (one's complement over the vector's own width)."""
        return [self.neg(bit) for bit in bits]

    def bv_extend(self, bits: Sequence[BDDNode], width: int) -> list[BDDNode]:
        """Zero-extend a vector to ``width`` bits."""
        if width < len(bits):
            raise ValueError(f"cannot shrink a {len(bits)}-bit vector to {width} bits")
        return list(bits) + [self.false] * (width - len(bits))

    def bv_add(self, left: Sequence[BDDNode], right: Sequence[BDDNode], width: Optional[int] = None) -> list[BDDNode]:
        """Ripple-carry addition, exact by default, truncated mod 2^width if narrower.

        The default width ``max(len(left), len(right)) + 1`` always holds the
        exact sum; passing a smaller width drops the high carries (the wrap
        the modulo circuit exploits deliberately).
        """
        if width is None:
            width = max(len(left), len(right), 1) + 1 if (left or right) else 0
        a = self.bv_extend(left, max(width, len(left)))
        b = self.bv_extend(right, max(width, len(right)))
        result: list[BDDNode] = []
        carry = self.false
        for index in range(width):
            x, y = a[index], b[index]
            partial = self.xor(x, y)
            result.append(self.xor(partial, carry))
            # carry-out = majority(x, y, carry) = (x ∧ y) ∨ (carry ∧ (x ⊕ y))
            carry = self.disj(self.conj(x, y), self.conj(carry, partial))
        return result

    def bv_eq(self, left: Sequence[BDDNode], right: Sequence[BDDNode]) -> BDDNode:
        """Equality of two unsigned vectors (the shorter is zero-extended)."""
        width = max(len(left), len(right))
        a = self.bv_extend(left, width)
        b = self.bv_extend(right, width)
        return self.conj_all(self.neg(self.xor(x, y)) for x, y in zip(a, b))

    def bv_lt(self, left: Sequence[BDDNode], right: Sequence[BDDNode]) -> BDDNode:
        """Unsigned strict comparison ``left < right`` (comparator chain)."""
        width = max(len(left), len(right))
        a = self.bv_extend(left, width)
        b = self.bv_extend(right, width)
        less = self.false
        for x, y in zip(a, b):  # LSB to MSB: the MSB verdict dominates
            less = self.ite(self.xor(x, y), y, less)
        return less

    def bv_le(self, left: Sequence[BDDNode], right: Sequence[BDDNode]) -> BDDNode:
        """Unsigned comparison ``left <= right``."""
        return self.neg(self.bv_lt(right, left))

    def bv_mux(self, condition: BDDNode, then: Sequence[BDDNode], otherwise: Sequence[BDDNode]) -> list[BDDNode]:
        """Bitwise multiplexer: ``then`` when ``condition`` holds, else ``otherwise``."""
        width = max(len(then), len(otherwise))
        a = self.bv_extend(then, width)
        b = self.bv_extend(otherwise, width)
        return [self.ite(condition, x, y) for x, y in zip(a, b)]

    def bv_value(self, bits: Sequence[BDDNode], assignment: Mapping[str, bool]) -> int:
        """Evaluate a vector of (variable or constant) bits under an assignment."""
        value = 0
        for index, bit in enumerate(bits):
            if self.evaluate(bit, dict(assignment)):
                value |= 1 << index
        return value

    # -- queries ----------------------------------------------------------------------------

    def equivalent(self, left: BDDNode, right: BDDNode) -> bool:
        """Canonical-form equality of two functions."""
        return left is right

    def entails(self, left: BDDNode, right: BDDNode) -> bool:
        """``left ⇒ right`` is a tautology."""
        return self.diff(left, right) is self.false

    def is_false(self, node: BDDNode) -> bool:
        """The constant-false function."""
        return node is self.false

    def is_true(self, node: BDDNode) -> bool:
        """The constant-true function."""
        return node is self.true

    def restrict(self, node: BDDNode, assignment: dict[str, bool]) -> BDDNode:
        """Cofactor ``node`` by a partial assignment."""
        if node.is_terminal:
            return node
        low = self.restrict(node.low, assignment)
        high = self.restrict(node.high, assignment)
        if node.variable in assignment:
            return high if assignment[node.variable] else low
        return self._node(node.variable, low, high)

    def support(self, node: BDDNode) -> set[str]:
        """Variables the function actually depends on."""
        seen: set[int] = set()
        variables: set[str] = set()
        stack = [node]
        while stack:
            current = stack.pop()
            if current.is_terminal or current.identifier in seen:
                continue
            seen.add(current.identifier)
            variables.add(current.variable)
            stack.append(current.low)
            stack.append(current.high)
        return variables

    def _counting_order(self, node: BDDNode, variables: Optional[list[str]]) -> list[str]:
        """Normalise a variable list to diagram order (undeclared names are
        declared): the positional cofactor walks below would silently skip a
        support variable listed out of order or omitted, losing models."""
        if variables is None:
            return sorted(self.support(node), key=lambda v: self._rank[v])
        names = set(variables)  # duplicates would double-count via identity cofactors
        for name in names:
            self.declare(name)
        missing = self.support(node) - names
        if missing:
            raise ValueError(f"variable list omits support variables {sorted(missing)}")
        return sorted(names, key=lambda v: self._rank[v])

    def satisfying_assignments(self, node: BDDNode, variables: Optional[list[str]] = None) -> Iterator[dict[str, bool]]:
        """Enumerate total satisfying assignments over ``variables``."""
        names = self._counting_order(node, variables)

        def recurse(index: int, current: BDDNode, assignment: dict[str, bool]) -> Iterator[dict[str, bool]]:
            if index == len(names):
                if current is self.true:
                    yield dict(assignment)
                return
            variable = names[index]
            low, high = self._cofactors(current, variable)
            for value, branch in ((False, low), (True, high)):
                if branch is self.false:
                    continue
                assignment[variable] = value
                yield from recurse(index + 1, branch, assignment)
                del assignment[variable]

        yield from recurse(0, node, {})

    def count_satisfying(self, node: BDDNode, variables: Optional[list[str]] = None) -> int:
        """Number of satisfying assignments over ``variables``.

        Computed by dynamic programming over the diagram (not by enumeration),
        so counting the 2^n states of a large symbolic reachable set is cheap.
        """
        names = self._counting_order(node, variables)
        memo: dict[tuple[int, int], int] = {}

        def count(current: BDDNode, index: int) -> int:
            if index == len(names):
                return 1 if current is self.true else 0
            key = (current.identifier, index)
            cached = memo.get(key)
            if cached is None:
                low, high = self._cofactors(current, names[index])
                cached = count(low, index + 1) + count(high, index + 1)
                memo[key] = cached
            return cached

        return count(node, 0)

    def evaluate(self, node: BDDNode, assignment: dict[str, bool]) -> bool:
        """Evaluate the function under a total assignment of its support."""
        current = node
        while not current.is_terminal:
            try:
                value = assignment[current.variable]
            except KeyError:
                raise KeyError(f"assignment misses variable {current.variable!r}") from None
            current = current.high if value else current.low
        return current is self.true

    def to_expression(self, node: BDDNode) -> str:
        """A readable sum-of-cubes rendering of the function."""
        if node is self.true:
            return "true"
        if node is self.false:
            return "false"
        cubes = []
        for assignment in self.satisfying_assignments(node):
            literals = [name if value else f"¬{name}" for name, value in sorted(assignment.items())]
            cubes.append(" ∧ ".join(literals) if literals else "true")
        return " ∨ ".join(cubes) if cubes else "false"

    def size(self, node: BDDNode) -> int:
        """Number of distinct decision nodes of the diagram."""
        seen: set[int] = set()
        stack = [node]
        count = 0
        while stack:
            current = stack.pop()
            if current.is_terminal or current.identifier in seen:
                continue
            seen.add(current.identifier)
            count += 1
            stack.append(current.low)
            stack.append(current.high)
        return count


class ObjectBDDManager(BDDManager):
    """The reference core: one Python object per node, dict-based tables.

    Slower than the array core but structurally transparent — every node is
    a :class:`BDDNode` with real attributes — which is what makes it the
    differential oracle the array core is pinned against in
    ``tests/test_bdd_core.py`` and the CI ``bdd-core`` matrix leg.
    """

    core = "object"
    _default_cache_ratio = 8.0

    #: Never trim the dict caches below this many entries, whatever the
    #: ratio says — tiny tables would otherwise thrash the caches on every
    #: recursion.
    _CACHE_FLOOR = 1 << 15

    def _setup_core(self) -> None:
        self.false = BDDNode(None, None, None, 0)
        self.true = BDDNode(None, None, None, 1)
        self._next_id = 2
        self._unique: dict[tuple[str, int, int], BDDNode] = {}
        self._ite_cache: dict[tuple[int, int, int], BDDNode] = {}
        self._quant_cache: dict[tuple[int, int, bool], BDDNode] = {}
        self._relprod_cache: dict[tuple[int, int, int], BDDNode] = {}
        self._varsets: dict[frozenset, int] = {}
        #: Per-variable node index, so a level exchange touches one level's
        #: nodes instead of scanning the whole unique table.
        self._var_nodes: dict[str, list[BDDNode]] = {}

    # -- core accounting -----------------------------------------------------------

    def _population(self) -> int:
        return len(self._unique)

    def _nodes_created(self) -> int:
        return self._next_id - 2

    def _cache_entries(self) -> int:
        return len(self._ite_cache) + len(self._quant_cache) + len(self._relprod_cache)

    def _note_cache_insert(self) -> None:
        """Clear the dict caches once they outgrow ``cache_ratio × table``."""
        limit = max(self._CACHE_FLOOR, int(self.cache_ratio * len(self._unique)))
        if self._cache_entries() > limit:
            self._ite_cache.clear()
            self._quant_cache.clear()
            self._relprod_cache.clear()
            self.cache_clears += 1

    # -- variables -----------------------------------------------------------------

    def var(self, name: str) -> BDDNode:
        """The BDD of the literal ``name``."""
        self.declare(name)
        return self._node(name, self.false, self.true)

    def nvar(self, name: str) -> BDDNode:
        """The BDD of the negated literal ``¬name``."""
        self.declare(name)
        return self._node(name, self.true, self.false)

    # -- node construction ---------------------------------------------------------

    def _node(self, variable: str, low: BDDNode, high: BDDNode) -> BDDNode:
        if low is high:
            return low
        node = self._unique.get((variable, low.identifier, high.identifier))
        if node is None:
            if (
                self.node_budget is not None
                and not self._reordering
                and len(self._unique) >= self.node_budget
            ):
                raise NodeBudgetExceeded(
                    f"unique table would outgrow the node budget of {self.node_budget}"
                )
            node = self._new_node(variable, low, high)
        return node

    def _new_node(self, variable: str, low: BDDNode, high: BDDNode) -> BDDNode:
        """Create and register a fresh node (table, level index, peak stats)."""
        node = BDDNode(variable, low, high, self._next_id)
        self._next_id += 1
        self._unique[(variable, low.identifier, high.identifier)] = node
        self._var_nodes.setdefault(variable, []).append(node)
        population = len(self._unique)
        if population > self.peak_nodes:
            self.peak_nodes = population
            if population > GLOBAL_STATS["peak_nodes"]:
                GLOBAL_STATS["peak_nodes"] = population
        return node

    def ite(self, condition: BDDNode, then: BDDNode, otherwise: BDDNode) -> BDDNode:
        """The if-then-else combinator, core of every boolean connective."""
        if condition is self.true:
            return then
        if condition is self.false:
            return otherwise
        if then is otherwise:
            return then
        if then is self.true and otherwise is self.false:
            return condition
        key = (condition.identifier, then.identifier, otherwise.identifier)
        cached = self._ite_cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        variable = self._top_variable(condition, then, otherwise)
        c_low, c_high = self._cofactors(condition, variable)
        t_low, t_high = self._cofactors(then, variable)
        o_low, o_high = self._cofactors(otherwise, variable)
        result = self._node(
            variable,
            self.ite(c_low, t_low, o_low),
            self.ite(c_high, t_high, o_high),
        )
        self._ite_cache[key] = result
        self._note_cache_insert()
        return result

    # -- quantification and relational operations ---------------------------------------

    def _varset_id(self, variables: Iterable[str]) -> tuple[frozenset, int]:
        names = variables if isinstance(variables, frozenset) else frozenset(variables)
        identifier = self._varsets.get(names)
        if identifier is None:
            identifier = len(self._varsets)
            self._varsets[names] = identifier
        return names, identifier

    def exists(self, node: BDDNode, variables: Iterable[str]) -> BDDNode:
        """Existential quantification ``∃ variables . node``."""
        names, set_id = self._varset_id(variables)
        return self._quantify(node, names, set_id, existential=True)

    def forall(self, node: BDDNode, variables: Iterable[str]) -> BDDNode:
        """Universal quantification ``∀ variables . node``."""
        names, set_id = self._varset_id(variables)
        return self._quantify(node, names, set_id, existential=False)

    def _quantify(self, node: BDDNode, names: frozenset, set_id: int, existential: bool) -> BDDNode:
        if node.is_terminal:
            return node
        key = (node.identifier, set_id, existential)
        cached = self._quant_cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        low = self._quantify(node.low, names, set_id, existential)
        high = self._quantify(node.high, names, set_id, existential)
        if node.variable in names:
            result = self.disj(low, high) if existential else self.conj(low, high)
        else:
            result = self._node(node.variable, low, high)
        self._quant_cache[key] = result
        self._note_cache_insert()
        return result

    def rename(self, node: BDDNode, mapping: Mapping[str, str]) -> BDDNode:
        """Simultaneous substitution of variables by variables.

        The substitution is functional composition, so it is correct even when
        the renaming does not preserve the variable ordering (the result is
        rebuilt with ``ite``); renaming onto a variable in the support of
        ``node`` that is not itself renamed away is rejected.
        """
        relevant = self._rename_relevant(node, mapping)
        memo: dict[int, BDDNode] = {}

        def walk(current: BDDNode) -> BDDNode:
            if current.is_terminal:
                return current
            done = memo.get(current.identifier)
            if done is not None:
                return done
            low = walk(current.low)
            high = walk(current.high)
            target = relevant.get(current.variable, current.variable)
            result = self.ite(self.var(target), high, low)
            memo[current.identifier] = result
            return result

        return walk(node)

    def and_exists(self, left: BDDNode, right: BDDNode, variables: Iterable[str]) -> BDDNode:
        """The relational product ``∃ variables . left ∧ right`` in one pass.

        Quantifying while conjoining avoids materialising the (often much
        larger) conjunction — the classical optimisation of symbolic image
        computation.
        """
        names, set_id = self._varset_id(variables)
        return self._and_exists(left, right, names, set_id)

    def _and_exists(self, left: BDDNode, right: BDDNode, names: frozenset, set_id: int) -> BDDNode:
        if left is self.false or right is self.false:
            return self.false
        if left is self.true and right is self.true:
            return self.true
        if left is self.true:
            return self._quantify(right, names, set_id, existential=True)
        if right is self.true:
            return self._quantify(left, names, set_id, existential=True)
        key = (min(left.identifier, right.identifier), max(left.identifier, right.identifier), set_id)
        cached = self._relprod_cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        variable = self._top_variable(left, right)
        l_low, l_high = self._cofactors(left, variable)
        r_low, r_high = self._cofactors(right, variable)
        low = self._and_exists(l_low, r_low, names, set_id)
        if variable in names and low is self.true:
            result = self.true
        else:
            high = self._and_exists(l_high, r_high, names, set_id)
            if variable in names:
                result = self.disj(low, high)
            else:
                result = self._node(variable, low, high)
        self._relprod_cache[key] = result
        self._note_cache_insert()
        return result

    # -- dynamic variable reordering -----------------------------------------------------

    def _begin_reorder(self, root_nodes: Sequence[BDDNode]) -> None:
        self._collect(root_nodes)
        # Root and parent reference counts let exchanges delete dead
        # diagrams eagerly: from here on the table holds exactly the
        # live nodes, so ``len(self._unique)`` is the sifting metric.
        for node in self._unique.values():
            node.refcount = 0
        for node in self._unique.values():
            if not node.low.is_terminal:
                node.low.refcount += 1
            if not node.high.is_terminal:
                node.high.refcount += 1
        for root in root_nodes:
            root.refcount += 1

    def _end_reorder(self, root_nodes: Sequence[BDDNode]) -> None:
        self._collect(root_nodes)  # rebuild the level index, drop dead entries

    def _collect(self, roots: Sequence[BDDNode]) -> None:
        """Mark-and-sweep the unique table down to ``roots``' diagrams.

        Nodes unreachable from the roots are dropped from the table (their
        Python objects become dead weight the moment the caller lets go);
        the operation caches are cleared wholesale since they may reference
        swept nodes.  Only called inside :meth:`reorder` — the sweep is what
        keeps level exchanges proportional to the live diagrams instead of
        every node ever created.
        """
        live: dict[int, BDDNode] = {}
        stack = list(roots)
        while stack:
            node = stack.pop()
            if node.is_terminal or node.identifier in live:
                continue
            live[node.identifier] = node
            stack.append(node.low)
            stack.append(node.high)
        self._unique = {
            (node.variable, node.low.identifier, node.high.identifier): node
            for node in live.values()
        }
        self._var_nodes = {}
        for node in live.values():
            self._var_nodes.setdefault(node.variable, []).append(node)
        self._ite_cache.clear()
        self._quant_cache.clear()
        self._relprod_cache.clear()
        self.cache_clears += 1

    def _swap_adjacent(self, position: int) -> None:
        """Exchange the variables at ``position`` and ``position + 1`` in place.

        The classical level exchange: every live node labelled by the upper
        variable whose cofactors mention the lower one is rewritten *in
        place* — same object, same identifier, same boolean function — so
        references into the root diagrams, and name-based maps, stay valid.
        Nodes without a lower-variable cofactor simply travel with their
        label's new rank.  The exchange preserves canonicity because a
        rewritten node can collide neither with a pre-existing lower-variable
        node (those are ordered below both levels, hence free of the upper
        variable, while a rewrite keeps at least one upper-variable cofactor)
        nor with another rewrite (distinct functions stay distinct).

        Reference counts (established by :meth:`reorder` after its garbage
        collection) are maintained: rewired-away children are released and
        dead diagrams deleted eagerly, so ``len(self._unique)`` *is* the live
        node count throughout sifting — the metric positions are judged by.
        """
        upper = self._order[position]
        lower = self._order[position + 1]
        affected: list[BDDNode] = []
        remaining: list[BDDNode] = []
        for node in self._var_nodes.get(upper, ()):
            if node.refcount <= 0 or node.variable != upper:
                continue  # died, or migrated in an earlier exchange
            if node.low.variable == lower or node.high.variable == lower:
                affected.append(node)
            else:
                remaining.append(node)
        # Reset the level index before rewriting: freshly created upper-level
        # children re-register themselves through ``_claim``.
        self._var_nodes[upper] = remaining
        lower_level = self._var_nodes.setdefault(lower, [])
        for node in affected:
            del self._unique[(upper, node.low.identifier, node.high.identifier)]
        self._order[position], self._order[position + 1] = lower, upper
        self._rank[upper], self._rank[lower] = self._rank[lower], self._rank[upper]
        for node in affected:
            old_low, old_high = node.low, node.high
            low_low, low_high = self._cofactors(old_low, lower)
            high_low, high_high = self._cofactors(old_high, lower)
            new_low = self._claim(upper, low_low, high_low)
            new_high = self._claim(upper, low_high, high_high)
            node.variable = lower
            node.low = new_low
            node.high = new_high
            new_key = (lower, new_low.identifier, new_high.identifier)
            assert new_key not in self._unique, "level exchange produced a duplicate"
            self._unique[new_key] = node
            lower_level.append(node)
            self._release(old_low)
            self._release(old_high)

    def _claim(self, variable: str, low: BDDNode, high: BDDNode) -> BDDNode:
        """Reduced node construction during a reorder, claiming one reference."""
        if low is high:
            if not low.is_terminal:
                low.refcount += 1
            return low
        node = self._unique.get((variable, low.identifier, high.identifier))
        if node is not None:
            node.refcount += 1
            return node
        node = self._new_node(variable, low, high)
        node.refcount = 1
        if not low.is_terminal:
            low.refcount += 1
        if not high.is_terminal:
            high.refcount += 1
        return node

    def _release(self, node: BDDNode) -> None:
        """Drop one reference; delete the node (and cascade) when none remain."""
        if node.is_terminal:
            return
        node.refcount -= 1
        if node.refcount > 0:
            return
        del self._unique[(node.variable, node.low.identifier, node.high.identifier)]
        self._release(node.low)
        self._release(node.high)

    def _live_counts(self, roots: Sequence[BDDNode]) -> dict[str, int]:
        """Per-variable node counts of the diagrams reachable from ``roots``."""
        counts = {name: 0 for name in self._order}
        seen: set[int] = set()
        stack = list(roots)
        while stack:
            current = stack.pop()
            if current.is_terminal or current.identifier in seen:
                continue
            seen.add(current.identifier)
            counts[current.variable] += 1
            stack.append(current.low)
            stack.append(current.high)
        return counts


_CORES["object"] = ObjectBDDManager

# The array core lives in its own module (it shares nothing structural with
# the object core beyond the base class); importing it registers it under
# _CORES["array"].  Imported last so the base machinery above is defined.
from .bdd_array import ArrayBDDManager, ArrayBDDNode  # noqa: E402

_CORES["array"] = ArrayBDDManager
