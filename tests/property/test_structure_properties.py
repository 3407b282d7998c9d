"""Property-based tests for the supporting data structures."""

from hypothesis import example, given, settings, strategies as st

from repro.cfg.dominators import (
    compute_dominators,
    immediate_dominators,
    immediate_postdominators_of,
    reversed_digraph,
)
from repro.cfg.graph import Digraph, function_digraph
from repro.core.channel import counter_geq, counter_less
from repro.core.mutation import (
    bit_flip,
    global_off_by_one,
    off_by_minus_one,
    off_by_one,
    zeroing,
)
from repro.ir.ops import apply_binop, apply_unop, stringify, truthy
from repro.vos.filesystem import VirtualFS

counters = st.lists(st.integers(0, 6), min_size=1, max_size=4).map(tuple)


@given(counters, counters)
def test_counter_order_is_total(a, b):
    assert counter_less(a, b) or counter_less(b, a) or a == b


@given(counters, counters)
def test_counter_order_is_antisymmetric(a, b):
    assert not (counter_less(a, b) and counter_less(b, a))


@given(counters, counters, counters)
def test_counter_order_is_transitive(a, b, c):
    if counter_less(a, b) and counter_less(b, c):
        assert counter_less(a, c)


@given(counters)
def test_infinity_is_greatest(a):
    assert counter_less(a, None)
    assert not counter_less(None, a)
    assert counter_geq(None, a)


# -- dominators vs brute force -------------------------------------------------


@st.composite
def small_digraphs(draw):
    node_count = draw(st.integers(2, 7))
    graph = Digraph(range(node_count))
    edge_count = draw(st.integers(1, node_count * 2))
    for _ in range(edge_count):
        src = draw(st.integers(0, node_count - 1))
        dst = draw(st.integers(0, node_count - 1))
        if src != dst:
            graph.add_edge(src, dst)
    return graph


def _paths_avoiding(graph, start, target, avoid):
    """Is target reachable from start without passing through avoid?"""
    seen = set()
    stack = [start]
    while stack:
        node = stack.pop()
        if node == avoid or node in seen:
            continue
        if node == target:
            return True
        seen.add(node)
        stack.extend(graph.succs(node))
    return False


@given(small_digraphs())
@settings(max_examples=60, deadline=None)
def test_dominators_match_brute_force(graph):
    entry = 0
    dominators = compute_dominators(graph, entry)
    reachable = graph.reachable_from(entry)
    for node in reachable:
        for candidate in reachable:
            brute = candidate == node or not _paths_avoiding(
                graph, entry, node, candidate
            )
            assert (candidate in dominators[node]) == brute


@st.composite
def larger_digraphs(draw):
    """Up to ~40 nodes; self-loops, unreachable islands and regions with
    no path to the last node (the "exit") all occur."""
    node_count = draw(st.integers(1, 40))
    graph = Digraph(range(node_count))
    nodes = st.integers(0, node_count - 1)
    edges = st.lists(
        st.tuples(nodes, nodes), min_size=node_count, max_size=3 * node_count
    )
    for src, dst in draw(edges):
        graph.add_edge(src, dst)
    return graph


def _brute_idom(graph, root):
    """idom per node reachable from *root*, by path avoidance: *c*
    dominates *n* iff removing *c* cuts every root->n path."""
    reachable = graph.reachable_from(root)
    cut_off = {
        candidate: reachable - _reach_avoiding(graph, root, candidate)
        for candidate in reachable
    }
    strict = {
        node: {c for c in reachable if c != node and node in cut_off[c]}
        for node in reachable
    }
    idom = {}
    for node in reachable - {root}:
        # The strict dominator that every other strict dominator dominates.
        (closest,) = [d for d in strict[node] if strict[node] - {d} <= strict[d]]
        idom[node] = closest
    return idom


def _reach_avoiding(graph, start, avoid):
    if start == avoid:
        return set()
    seen = {start}
    stack = [start]
    while stack:
        for succ in graph.succs(stack.pop()):
            if succ != avoid and succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


@given(larger_digraphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_immediate_dominators_match_path_avoidance(graph, data):
    entry = data.draw(st.sampled_from(graph.nodes))
    assert immediate_dominators(graph, entry) == _brute_idom(graph, entry)


@given(larger_digraphs())
@settings(max_examples=150, deadline=None)
def test_immediate_postdominators_match_path_avoidance(graph):
    exit_node = max(graph.nodes)
    expected = _brute_idom(reversed_digraph(graph), exit_node)
    ipostdom = immediate_postdominators_of(graph, exit_node)
    assert ipostdom == expected
    # Nodes with no path to the exit get no immediate postdominator.
    can_exit = reversed_digraph(graph).reachable_from(exit_node)
    assert set(ipostdom) == can_exit - {exit_node}


def _reference_dominators(graph, entry):
    """The set-intersection fixpoint the tree algorithm replaced."""
    reachable = graph.reachable_from(entry)
    doms = {node: set() for node in graph.nodes}
    for node in reachable:
        doms[node] = {entry} if node == entry else set(reachable)
    changed = True
    while changed:
        changed = False
        for node in sorted(reachable - {entry}):
            preds = [doms[p] for p in graph.preds(node) if p in reachable]
            new = set.intersection(*preds) | {node}
            if new != doms[node]:
                doms[node] = new
                changed = True
    return doms


def _reference_idom(doms, entry):
    return {
        node: next(d for d in nodes - {node} if nodes - {node} <= doms[d])
        for node, nodes in doms.items()
        if nodes and node != entry
    }


def _workload_graphs():
    from repro.workloads import ALL_WORKLOADS

    for workload in ALL_WORKLOADS:
        for function in workload.module.functions.values():
            graph = function_digraph(function)
            yield f"{workload.name}:{function.name}", graph, function.entry
            yield (
                f"{workload.name}:{function.name}:post",
                reversed_digraph(graph),
                function.exit,
            )


def test_dominator_tree_matches_set_reference_on_workloads():
    checked = 0
    for label, graph, root in _workload_graphs():
        reference = _reference_dominators(graph, root)
        assert compute_dominators(graph, root) == reference, label
        assert immediate_dominators(graph, root) == _reference_idom(
            reference, root
        ), label
        checked += 1
    assert checked >= 2 * 28


# -- mutation strategies -------------------------------------------------------


mutable_values = st.one_of(
    st.integers(-1000, 1000),
    st.text(min_size=0, max_size=20),
    st.booleans(),
    st.lists(st.integers(0, 100), max_size=4),
)


@given(mutable_values)
def test_mutations_preserve_type(value):
    for mutate in (off_by_one, off_by_minus_one, zeroing, bit_flip, global_off_by_one):
        mutated = mutate(value)
        assert type(mutated) is type(value)


@given(st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
               min_size=1, max_size=20))
def test_off_by_one_changes_alnum_strings(value):
    assert off_by_one(value) != value


@given(st.text(min_size=0, max_size=20))
def test_off_by_one_preserves_length(value):
    assert len(off_by_one(value)) == len(value)


@given(st.text(min_size=1, max_size=20))
@example("🄰")  # isupper() but not isalnum(): must pass through unshifted
def test_global_off_by_one_keeps_non_alnum_chars(value):
    mutated = global_off_by_one(value)
    for original, shifted in zip(value, mutated):
        if not original.isalnum():
            assert original == shifted


# -- operator semantics -----------------------------------------------------------


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_comparison_trichotomy(a, b):
    assert (
        apply_binop("<", a, b)
        or apply_binop(">", a, b)
        or apply_binop("==", a, b)
    )


@given(st.integers(-10**6, 10**6), st.integers(1, 1000))
def test_c_division_identity(a, b):
    quotient = apply_binop("/", a, b)
    remainder = apply_binop("%", a, b)
    assert quotient * b + remainder == a
    assert abs(remainder) < b


@given(st.integers(-100, 100))
def test_unary_minus_involution(a):
    assert apply_unop("-", apply_unop("-", a)) == a


@given(mutable_values)
def test_stringify_total(value):
    assert isinstance(stringify(value), str)
    truthy(value)  # must not raise


# -- filesystem clone isolation -----------------------------------------------


path_segments = st.lists(
    st.text(alphabet="abcd", min_size=1, max_size=3), min_size=1, max_size=3
)


@given(
    st.lists(st.tuples(path_segments, st.text(max_size=8)), min_size=1, max_size=5)
)
def test_fs_clone_isolated_under_random_writes(files):
    fs = VirtualFS()
    for segments, content in files:
        fs.add_file("/" + "/".join(segments), content)
    snapshot = {path: fs.file(path).content for path in fs.paths()}
    clone = fs.clone()
    for path in clone.paths():
        clone.file(path).content += "!"
        clone.rename(path, path + ".bak")
    assert {p: fs.file(p).content for p in fs.paths()} == snapshot
