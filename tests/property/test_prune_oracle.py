"""Differential test: counter-edge pruning against the round-robin fixpoint.

``prunable_counter_edges`` finds each function's observation tail by
backward reachability from its observing nodes, and re-checks a
function's return only when a caller's tail grew.  The function below
keeps the older computation: every function's tail re-swept over all
nodes until nothing changed, and every function recomputed whenever one
``ret_observes`` flag flipped.  Both compute the least fixpoint of the
same monotone equations, so their pruned edge sets must be identical.

Each comparison runs twice: with Algorithm 2's elidable restriction
(the instrumenter's call) and without it, so a tail difference on an
edge outside the elidable set cannot hide.

Inputs: all registered workloads, with full and pruned plans; the
``random_programs`` strategy; and generated programs whose helpers call
each other, pure or printing, so that returns observe through callers.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.relevance import ModuleRelevance, prunable_counter_edges
from repro.cfg.graph import function_digraph
from repro.instrument import instrument_module
from repro.instrument.plan import CounterAdd, LoopSync
from repro.ir import compile_source
from repro.ir import instructions as ins
from repro.workloads import ALL_WORKLOADS

from tests.property.test_counter_properties import _gen_block, random_programs


def fixpoint_prunable_counter_edges(module, plan, relevance=None):
    """The round-robin fixpoint ``prunable_counter_edges`` replaced."""
    functions = module.functions
    may_reach = plan.may_reach_syscall
    graphs = {name: function_digraph(fn) for name, fn in functions.items()}

    callsites = {name: [] for name in functions}
    for gname, fn in functions.items():
        scoped = plan.functions[gname].scoped_calls
        for index, instr in enumerate(fn.instrs):
            if (
                type(instr) is ins.CallDirect
                and instr.func in callsites
                and index not in scoped
            ):
                callsites[instr.func].append((gname, index))

    ret_observes = {name: False for name in functions}
    observes = {}

    def recompute(fname):
        fn = functions[fname]
        graph = graphs[fname]
        fplan = plan.functions[fname]
        instrs = fn.instrs

        def instr_observes(index):
            instr = instrs[index]
            kind = type(instr)
            if kind is ins.Syscall or kind is ins.CallIndirect:
                return True
            if kind is ins.CallDirect:
                return instr.func in may_reach
            if kind is ins.Ret:
                return ret_observes[fname]
            return False

        def barrier_edge(src, dst):
            actions = fplan.actions.get((src, dst))
            return bool(actions) and any(
                type(action) is LoopSync for action in actions
            )

        tail = {node: False for node in graph.nodes}
        changed = True
        while changed:
            changed = False
            for node in graph.nodes:
                if tail[node]:
                    continue
                succs = graph.succs(node)
                if (
                    instr_observes(node)
                    or (not succs and ret_observes[fname])
                    or any(
                        barrier_edge(node, succ) or tail[succ]
                        for succ in succs
                    )
                ):
                    tail[node] = True
                    changed = True
        observes[fname] = tail

    for name in functions:
        recompute(name)
    changed = True
    while changed:
        changed = False
        for fname in functions:
            if ret_observes[fname]:
                continue
            for gname, index in callsites[fname]:
                if observes[gname].get(index + 1, True):
                    ret_observes[fname] = True
                    changed = True
                    for name in functions:
                        recompute(name)
                    break

    if relevance is None:
        relevance = getattr(plan, "relevance", None)
    prunable = {}
    for fname, fplan in plan.functions.items():
        fn_relevance = relevance.functions.get(fname) if relevance else None
        edges = {}
        for (src, dst), actions in fplan.actions.items():
            if not all(type(action) is CounterAdd for action in actions):
                continue
            if observes[fname].get(dst, True):
                continue
            if fn_relevance is not None and (
                src not in fn_relevance.elidable
                or dst not in fn_relevance.elidable
            ):
                continue
            edges[(src, dst)] = len(actions)
        if edges:
            prunable[fname] = edges
    return prunable


# No function entry, so no elidable restriction: every edge whose tail
# is clear counts.
UNRESTRICTED = ModuleRelevance({}, frozenset())


def _assert_same_edges(source):
    """Both computations agree on *source*, under full and pruned plans."""
    for prune in (False, True):
        artifact = instrument_module(compile_source(source), prune=prune)
        for relevance in (None, UNRESTRICTED):
            expected = fixpoint_prunable_counter_edges(
                artifact.module, artifact.plan, relevance
            )
            assert prunable_counter_edges(
                artifact.module, artifact.plan, relevance
            ) == expected


@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_workload_edges_match_fixpoint(workload):
    _assert_same_edges(workload.source)


def _chain_link(name, out, callee):
    """``name`` reaches a syscall on one branch only, then calls
    *callee* (unscoped) after its last event: its counter edge on the
    other branch, and the call site, are dead unless its return
    observes."""
    call = f"{callee}(a);\n  " if callee else ""
    return (
        f"fn {name}(a) {{\n"
        f"  if (a > 1) {{ print({out}); }} else {{ a = a + 1; }}\n"
        f"  {call}return a;\n}}\n"
    )


CHAIN = {"a": _chain_link("a", 1, "b"), "b": _chain_link("b", 2, "c"),
         "c": _chain_link("c", 3, None)}


@pytest.mark.parametrize("order", [("a", "b", "c"), ("c", "b", "a")])
def test_return_observation_propagates_down_a_call_chain(order):
    """Not vacuous: ``main -> a -> b -> c``.  When ``main`` prints after
    calling ``a``, every return down the chain observes and ``c`` keeps
    its counter edge; otherwise ``c``'s edge is prunable.  Both
    definition orders, so no visiting order can skip a step."""
    found = []
    for main in (
        "fn main() { var x = a(3); print(x); }",
        "fn main() { print(0); a(3); }",
    ):
        source = "".join(CHAIN[name] for name in order) + main
        _assert_same_edges(source)
        artifact = instrument_module(compile_source(source), prune=False)
        found.append(
            prunable_counter_edges(artifact.module, artifact.plan, UNRESTRICTED)
        )
    assert "c" not in found[0]
    assert found[1]["c"]


@st.composite
def call_programs(draw):
    """A ``main`` and one to three helpers ``f0..fk``; each helper is
    pure or prints, and calls later helpers (never itself, so every call
    stays unscoped)."""
    fresh = [0]
    count = draw(st.integers(1, 3))
    helpers = []
    for k in range(count):
        if draw(st.booleans()):
            body = _gen_block(draw, 1, 0, fresh)
        else:
            body = f"x = x + {draw(st.integers(0, 9))};"
        calls = "".join(
            f"  f{j}();\n" for j in range(k + 1, count) if draw(st.booleans())
        )
        helpers.append(
            f"fn f{k}() {{\n  var x = {k};\n{calls}{body}\n{calls}  return x;\n}}\n"
        )
    main_calls = "".join(
        f"  f{k}();\n" for k in range(count) if draw(st.booleans())
    )
    body = _gen_block(draw, 0, 0, fresh)
    return (
        "".join(helpers)
        + "fn main() {\n  var x = 1;\n"
        + main_calls
        + f"{body}\n"
        + main_calls
        + "  print(x);\n}\n"
    )


@given(random_programs())
@settings(max_examples=40, deadline=None)
def test_random_program_edges_match_fixpoint(source):
    _assert_same_edges(source)


@given(call_programs())
@settings(max_examples=40, deadline=None)
def test_call_program_edges_match_fixpoint(source):
    _assert_same_edges(source)
