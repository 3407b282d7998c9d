"""Instrumentation plan data structures.

LDX's compiler pass attaches counter updates to CFG edges.  Our
interpreter executes the unmodified IR but consults a *plan* on every
control transfer: the plan maps edges to actions, and call sites to
counter-scope behaviour.  This keeps the IR unchanged (the same module
runs natively, under taint, or under LDX) while being semantically the
same as rewriting edges.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

Edge = Tuple[int, int]


class EdgeAction:
    """Base class for actions executed when control crosses an edge."""

    __slots__ = ()


class CounterAdd(EdgeAction):
    """``cnt += delta`` — Algorithm 1's edge compensation."""

    __slots__ = ("delta",)

    def __init__(self, delta: int) -> None:
        self.delta = delta

    def __repr__(self) -> str:
        sign = "+" if self.delta >= 0 else ""
        return f"cnt {sign}{self.delta}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CounterAdd) and self.delta == other.delta


class ElidedAdd(EdgeAction):
    """Accounting ghost of *count* pruned counter updates.

    The instrumenter emits this in place of a ``CounterAdd`` run on a
    counter-elidable edge (analysis/relevance.py proves the deltas can
    never be sampled by any event).  The virtual cost model is the
    simulation's semantics, so the ghost still charges the clock and the
    ``edge_actions`` stat exactly as the pruned adds would — what is
    elided is the counter state machine itself.  This keeps every
    observable (clocks, Figure 6 overheads, stats, event counters)
    byte-identical between pruned and unpruned plans.
    """

    __slots__ = ("count",)

    def __init__(self, count: int) -> None:
        self.count = count

    def __repr__(self) -> str:
        return f"cnt pruned x{self.count}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ElidedAdd) and self.count == other.count


class LoopSync(EdgeAction):
    """Back-edge barrier: ``sync(); cnt = reset_to`` (Algorithm 3).

    ``head`` identifies the loop (its head node index) so runtime queue
    pruning can discard per-iteration syscall outcomes; ``reset_to`` is
    the static counter value at the loop head.
    """

    __slots__ = ("head", "reset_to")

    def __init__(self, head: int, reset_to: int) -> None:
        self.head = head
        self.reset_to = reset_to

    def __repr__(self) -> str:
        return f"sync(loop@{self.head}); cnt = {self.reset_to}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LoopSync)
            and self.head == other.head
            and self.reset_to == other.reset_to
        )


class LoopExit(EdgeAction):
    """Marks leaving a barrier loop; closes its iteration bookkeeping.

    The runtime keeps a per-thread stack of (loop, iteration-count)
    records so back-edge barriers can rendezvous on the *same iteration*
    of the *same loop*; this action pops the record when the loop is
    left through any exit edge.
    """

    __slots__ = ("head",)

    def __init__(self, head: int) -> None:
        self.head = head

    def __repr__(self) -> str:
        return f"exit(loop@{self.head})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LoopExit) and self.head == other.head


def fold_counter_adds(actions: List[EdgeAction]) -> Optional[Tuple[int, int]]:
    """Compile-time folding hook for pure counter edges.

    When *actions* is a run of :class:`CounterAdd` (or pruned
    :class:`ElidedAdd`) only, return the ``(total_delta, action_count)``
    pair so a backend can apply the whole edge as one integer add (the
    count is kept because the cost model charges, and the stats count,
    per original action; an ``ElidedAdd`` contributes zero delta but its
    full count).  Edges carrying barrier or loop bookkeeping return
    None — they must run through the general action machinery.
    """
    total = 0
    count = 0
    for action in actions:
        kind = type(action)
        if kind is CounterAdd:
            total += action.delta
            count += 1
        elif kind is ElidedAdd:
            count += action.count
        else:
            return None
    return total, count


class FunctionPlan:
    """Instrumentation of one function."""

    def __init__(self, name: str) -> None:
        self.name = name
        # Edge -> ordered action list (barrier first, then counter math).
        self.actions: Dict[Edge, List[EdgeAction]] = {}
        # Call-site instruction indices that open a fresh counter scope
        # (indirect calls + calls to recursive functions).
        self.scoped_calls: Set[int] = set()
        # Static counter value on arrival at each node (after its syscall
        # +1, before its call increment).
        self.counter_at: Dict[int, int] = {}
        # Static counter value after each node (Algorithm 1's cnt[]).
        self.counter_after: Dict[int, int] = {}
        # Total counter increment of the function (FCNT).
        self.fcnt: int = 0
        # Loops that received back-edge barriers, by head node.
        self.barrier_loops: Set[int] = set()
        # Loops considered at all (with back edges), by head node.
        self.loop_heads: Set[int] = set()

    def actions_for(self, src: int, dst: int) -> Optional[List[EdgeAction]]:
        """Actions on edge src->dst, or None."""
        return self.actions.get((src, dst))

    def add_action(self, edge: Edge, action: EdgeAction) -> None:
        self.actions.setdefault(edge, []).append(action)

    def __repr__(self) -> str:
        return (
            f"<FunctionPlan {self.name} edges={len(self.actions)} "
            f"fcnt={self.fcnt} scoped={len(self.scoped_calls)}>"
        )


class ModulePlan:
    """Instrumentation of a whole module plus static statistics."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionPlan] = {}
        # FCNT per non-recursive function (Algorithm 1's FCNT table).
        self.fcnt: Dict[str, int] = {}
        self.recursive_functions: Set[str] = set()
        self.may_reach_syscall: Set[str] = set()
        # Sink-relevance classification (analysis/relevance.py),
        # attached by the pipeline once planning is done.  Purely
        # derived from the module + this plan: the instrumenter's
        # pruning pass acts on it when the relevance switch is on, the
        # threaded backend always fuses its fusible set, and reporting
        # renders it.
        self.relevance = None
        # True once prune_counter_adds() rewrote counter-elidable edges
        # (the --no-relevance path leaves full plans and this False).
        self.pruned = False

    def plan_for(self, name: str) -> FunctionPlan:
        return self.functions[name]

    def prune_counter_adds(self) -> int:
        """Rewrite every counter-elidable edge's ``CounterAdd`` run into
        one accounting-only :class:`ElidedAdd` ghost.

        Consults the attached relevance classification (its
        ``prunable_edges`` proof); barriers and sink-reaching edges are
        untouched.  Returns the number of counter updates pruned.
        """
        if self.relevance is None:
            return 0
        pruned = 0
        for name, plan in self.functions.items():
            relevance = self.relevance.functions.get(name)
            if relevance is None or not relevance.prunable_edges:
                continue
            for edge, count in relevance.prunable_edges.items():
                actions = plan.actions.get(edge)
                if not actions or not all(
                    type(action) is CounterAdd for action in actions
                ):
                    continue  # defensive: the proof covers pure runs only
                plan.actions[edge] = [ElidedAdd(len(actions))]
                pruned += len(actions)
        if pruned:
            self.pruned = True
        return pruned

    # -- static statistics for Table 1 ----------------------------------------

    @property
    def instrumented_instruction_count(self) -> int:
        """Number of inserted counter-update/barrier sites.

        Counts *logical* sites: a pruned edge's :class:`ElidedAdd` ghost
        counts as the updates it replaced, so Table 1's Inst. column is
        identical for pruned and unpruned plans (the PrunedCnt column —
        from the classification — reports what pruning removes).
        """
        return sum(
            (action.count if type(action) is ElidedAdd else 1)
            for plan in self.functions.values()
            for actions in plan.actions.values()
            for action in actions
        )

    @property
    def pruned_site_count(self) -> int:
        """Counter updates physically pruned from this plan."""
        return sum(
            action.count
            for plan in self.functions.values()
            for actions in plan.actions.values()
            for action in actions
            if type(action) is ElidedAdd
        )

    @property
    def instrumented_loop_count(self) -> int:
        return sum(len(plan.barrier_loops) for plan in self.functions.values())

    @property
    def scoped_call_count(self) -> int:
        return sum(len(plan.scoped_calls) for plan in self.functions.values())

    @property
    def max_static_counter(self) -> int:
        """Largest static counter value anywhere (paper's "Max Cnt.")."""
        best = 0
        for plan in self.functions.values():
            if plan.counter_after:
                best = max(best, max(plan.counter_after.values()))
        return best
