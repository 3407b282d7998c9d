"""Dominator and postdominator trees (Cooper–Harvey–Kennedy).

Function CFGs here are instruction-granular, so a set-per-node fixpoint
costs O(n²) per graph.  The immediate-dominator tree is computed with
the iterative algorithm of Cooper, Harvey and Kennedy instead: visit the
reachable nodes in reverse postorder and set each node's idom to the
meet of its processed predecessors, found by climbing the partial tree
by postorder rank, until nothing changes.  On reducible CFGs one pass
settles it, so the cost is near-linear.  The idom tree is unique, so
the result equals any correct algorithm's; the property tests check it
against a brute-force path-avoidance oracle.

Full dominator sets (loop detection, locksets) are read off the tree.
Nodes unreachable from the root get no idom and an empty set.

Postdominators are dominators of the reversed CFG, rooted at the unique
exit node every :class:`~repro.ir.function.IRFunction` guarantees.  They
close branch regions in DualEx's execution indexing and anchor the
control-dependence computation of the static analyzer.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.cfg.graph import Digraph, function_digraph


def _dominator_tree(graph: Digraph, entry: int) -> Tuple[List[int], Dict[int, int]]:
    """(reachable nodes in reverse postorder, idom with idom[entry] == entry)."""
    order: List[int] = []
    stack = [(entry, iter(graph.succs(entry)))]
    seen = {entry}
    while stack:
        node, children = stack[-1]
        for child in children:
            if child not in seen:
                seen.add(child)
                stack.append((child, iter(graph.succs(child))))
                break
        else:
            stack.pop()
            order.append(node)
    order.reverse()
    rank = {node: position for position, node in enumerate(order)}
    idom: Dict[int, int] = {entry: entry}
    changed = True
    while changed:
        changed = False
        for node in order[1:]:
            # A DFS parent precedes its child in reverse postorder, so
            # some predecessor is always processed already.
            new = None
            for pred in graph.preds(node):
                if pred not in idom:
                    continue  # unreachable, or not yet processed
                if new is None:
                    new = pred
                    continue
                while pred != new:
                    while rank[pred] > rank[new]:
                        pred = idom[pred]
                    while rank[new] > rank[pred]:
                        new = idom[new]
            if idom.get(node) != new:
                idom[node] = new
                changed = True
    return order, idom


def immediate_dominators(graph: Digraph, entry: int) -> Dict[int, int]:
    """Map each reachable node (except entry) to its immediate dominator."""
    _order, idom = _dominator_tree(graph, entry)
    del idom[entry]
    return idom


def compute_dominators(graph: Digraph, entry: int) -> Dict[int, Set[int]]:
    """Return a map node -> set of its dominators (including itself).

    Unreachable nodes get an empty dominator set and are ignored by loop
    detection.
    """
    order, idom = _dominator_tree(graph, entry)
    dominators: Dict[int, Set[int]] = {node: set() for node in graph.nodes}
    dominators[entry] = {entry}
    for node in order[1:]:  # an idom precedes its node
        dominators[node] = dominators[idom[node]] | {node}
    return dominators


def dominates(dominators: Dict[int, Set[int]], a: int, b: int) -> bool:
    """True when node *a* dominates node *b*."""
    return a in dominators.get(b, ())


# -- postdominators ------------------------------------------------------------


def reversed_digraph(graph: Digraph) -> Digraph:
    """The same nodes with every edge flipped."""
    reverse = Digraph(graph.nodes)
    for src, dst in graph.edges():
        reverse.add_edge(dst, src)
    return reverse


def compute_postdominators(graph: Digraph, exit_node: int) -> Dict[int, Set[int]]:
    """Map node -> set of its postdominators (including itself).

    Nodes with no path to *exit_node* (e.g. bodies of infinite loops)
    get an empty set, symmetric to how :func:`compute_dominators`
    treats nodes unreachable from the entry.
    """
    return compute_dominators(reversed_digraph(graph), exit_node)


def postdominates(postdominators: Dict[int, Set[int]], a: int, b: int) -> bool:
    """True when node *a* postdominates node *b*."""
    return a in postdominators.get(b, ())


def immediate_postdominators_of(graph: Digraph, exit_node: int) -> Dict[int, int]:
    """ipostdom per node, computed as idom on the reversed graph."""
    return immediate_dominators(reversed_digraph(graph), exit_node)


def immediate_postdominators(function) -> Dict[int, int]:
    """ipostdom per node of an :class:`~repro.ir.function.IRFunction`.

    Promoted from ``baselines/dualex/indexing.py`` (which re-exports it
    for backward compatibility): branch regions in execution indexing
    close at the predicate's immediate postdominator, and the static
    analyzer's control-dependence pass walks the same tree.
    """
    return immediate_postdominators_of(function_digraph(function), function.exit)
