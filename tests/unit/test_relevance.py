"""Unit tests for the sink-relevance analysis (paper Algorithm 2).

Edge cases the classifier must get right: calls that only matter
because they abort, environment-channel reads feeding sinks, loop back
edges that reach a syscall, and the all-sink-relevant fixed point where
nothing but structural glue can be elided.
"""

from hypothesis import given, settings

from repro.analysis import compute_relevance
from repro.baselines.native import run_native
from repro.core import LdxConfig, SinkSpec, SourceSpec, run_dual
from repro.instrument import instrument_module
from repro.interp import relevance_enabled, set_relevance_enabled
from repro.ir import compile_source
from repro.ir import instructions as ins
from repro.vos.world import World

from tests.property.test_counter_properties import random_programs


def _relevance(source):
    instrumented = instrument_module(compile_source(source))
    return instrumented, instrumented.plan.relevance


def _indices(module, fn_name, predicate):
    function = module.functions[fn_name]
    return [i for i, instr in enumerate(function.instrs) if predicate(instr)]


def test_dead_computation_is_elidable():
    instrumented, relevance = _relevance(
        """
        fn main() {
          var shown = 1 + 2;
          var wasted = 40 + 2;
          var wasted2 = wasted * 3;
          print(shown);
        }
        """
    )
    main = relevance.functions["main"]
    module = instrumented.module
    binops = _indices(module, "main", lambda i: isinstance(i, ins.Binop))
    # 1 + 2 feeds the print; the wasted chain feeds nothing.
    assert binops[0] in main.relevant
    assert binops[1] in main.elidable
    assert binops[2] in main.elidable
    # The sink itself is always relevant.
    for index in module.functions["main"].syscall_indices():
        assert index in main.relevant


def test_aborting_call_site_is_relevant():
    instrumented, relevance = _relevance(
        """
        fn die() {
          exit(3);
        }
        fn main() {
          var unused = 7 * 7;
          die();
          print(1);
        }
        """
    )
    module = instrumented.module
    main = relevance.functions["main"]
    # die() returns nothing anyone reads, but it reaches an abort
    # syscall: the call site must be sink-relevant.
    calls = _indices(module, "main", lambda i: isinstance(i, ins.CallDirect))
    assert calls, "expected a direct call in main"
    assert all(index in main.relevant for index in calls)
    # The unused product still elides.
    binops = _indices(module, "main", lambda i: isinstance(i, ins.Binop))
    assert all(index in main.elidable for index in binops)


def test_env_channel_taint_reaches_sink():
    instrumented, relevance = _relevance(
        """
        fn main() {
          var secret = getenv("MODE");
          var derived = len(secret) + 1;
          var dropped = len(secret) * 2;
          if (derived > 3) {
            print("long");
          }
        }
        """
    )
    module = instrumented.module
    main = relevance.functions["main"]
    builtins = _indices(
        module, "main", lambda i: isinstance(i, ins.CallBuiltin)
    )
    binops = _indices(module, "main", lambda i: isinstance(i, ins.Binop))
    # The env read is a syscall root; `derived` guards the print so its
    # whole chain (len + add + compare) is relevant.
    function = module.functions["main"]
    relevant_ops = [i for i in binops if i in main.relevant]
    assert relevant_ops, "derived chain must be relevant"
    assert any(i in main.relevant for i in builtins)
    # `dropped` is env-derived but never observed: elidable.
    mul = [
        i
        for i in binops
        if getattr(function.instrs[i], "op", None) == "*"
    ]
    assert mul and all(i in main.elidable for i in mul)


def test_loop_back_edge_reaching_syscall():
    instrumented, relevance = _relevance(
        """
        fn main() {
          var i = 0;
          while (i < 3) {
            print(i);
            i = i + 1;
          }
        }
        """
    )
    module = instrumented.module
    main = relevance.functions["main"]
    # The increment flows into the next iteration's print *and* the
    # loop condition that control-depends the print: both paths make
    # every Binop here relevant.
    binops = _indices(module, "main", lambda i: isinstance(i, ins.Binop))
    cjumps = _indices(module, "main", lambda i: isinstance(i, ins.CJump))
    assert binops and all(i in main.relevant for i in binops)
    assert cjumps and all(i in main.relevant for i in cjumps)


def test_every_syscall_site_is_a_relevant_site():
    # Detections always anchor at syscall sites, and every syscall site
    # is a relevance root: the oracle must accept all of them.
    instrumented, relevance = _relevance(
        """
        fn helper(x) {
          print(x);
          return x + 1;
        }
        fn main() {
          var v = getenv("A");
          helper(len(v));
          exit(0);
        }
        """
    )
    module = instrumented.module
    for fn_name, function in module.functions.items():
        for index in function.syscall_indices():
            name = function.instrs[index].name
            assert relevance.relevant_site(fn_name, name)
    assert not relevance.relevant_site("main", "no_such_syscall")
    assert not relevance.relevant_site("ghost_fn", "print")


def test_classification_partitions_instructions():
    instrumented, relevance = _relevance(
        """
        fn main() {
          var a = 1;
          var b = a + 1;
          print(b);
          var c = b * 2;
        }
        """
    )
    for fn_name, fn_relevance in relevance.functions.items():
        function = instrumented.module.functions[fn_name]
        everything = frozenset(range(len(function.instrs)))
        assert fn_relevance.relevant | fn_relevance.elidable == everything
        assert not (fn_relevance.relevant & fn_relevance.elidable)


def test_region_summaries_are_consistent():
    instrumented, relevance = _relevance(
        """
        fn main() {
          var total = 0;
          var i = 0;
          while (i < 10) {
            total = total + i * i;
            i = i + 1;
          }
          print(total);
        }
        """
    )
    main = relevance.functions["main"]
    assert main.fusible, "a pure loop body must be fusible"
    assert main.regions, "fusible loop body must form a region"
    for region in main.regions:
        assert region.size >= 2
        assert region.head in main.fusible
        assert region.action_count >= 0
    assert main.summarizable_instructions == sum(r.size for r in main.regions)
    payload = relevance.payload()
    assert payload["summarizable"] == relevance.summarizable_count
    assert payload["functions"][0]["function"] == "main"


def test_relevance_is_deterministic():
    source = """
        fn main() {
          var i = 0;
          while (i < 4) {
            print(i);
            i = i + 1;
          }
        }
    """
    instrumented = instrument_module(compile_source(source))
    first = compute_relevance(instrumented.module, instrumented.plan)
    second = compute_relevance(instrumented.module, instrumented.plan)
    for name in first.functions:
        assert first.functions[name].relevant == second.functions[name].relevant
        assert first.functions[name].elidable == second.functions[name].elidable
        assert first.functions[name].fusible == second.functions[name].fusible
    assert first.relevant_syscalls == second.relevant_syscalls


ALL_RELEVANT_SOURCE = """
fn main() {
  var acc = 0;
  var i = 0;
  while (i < 50) {
    acc = acc + i;
    i = i + 1;
  }
  print(acc);
  print(i);
}
"""


def _native_observables(result):
    return (
        result.stdout,
        result.machine.time,
        result.machine.stats.instructions,
        result.machine.stats.edge_actions,
        result.machine.stats.syscalls,
    )


def _dual_observables(result):
    return (
        result.report.summary(),
        [(d.kind, d.where, d.syscall) for d in result.report.detections],
        result.master_stdout,
        result.slave_stdout,
        result.master.time,
        result.slave.time,
        result.master.stats.instructions,
        result.slave.stats.instructions,
        result.master.stats.edge_actions,
        result.slave.stats.edge_actions,
        result.master.stats.counter_samples,
        result.slave.stats.counter_samples,
    )


def test_all_relevant_workload_elides_no_computation():
    instrumented, relevance = _relevance(ALL_RELEVANT_SOURCE)
    module = instrumented.module
    structural = (ins.Nop, ins.Jump, ins.Ret)
    for fn_name, fn_relevance in relevance.functions.items():
        function = module.functions[fn_name]
        for index in fn_relevance.elidable:
            assert isinstance(function.instrs[index], structural), (
                f"{fn_name}[{index}] {function.instrs[index]} elided "
                "in an all-relevant workload"
            )


def test_all_relevant_workload_byte_identical_on_off():
    instrumented, _ = _relevance(ALL_RELEVANT_SOURCE)
    module = instrumented.module
    config = LdxConfig(sources=SourceSpec(), sinks=SinkSpec(syscall_names=()))
    saved = relevance_enabled()
    observed = {}
    try:
        for enabled in (True, False):
            set_relevance_enabled(enabled)
            native = run_native(
                module, World(seed=1), plan=instrumented.plan, backend="threaded"
            )
            dual = run_dual(instrumented, World(seed=1), config, backend="threaded")
            observed[enabled] = (
                _native_observables(native),
                _dual_observables(dual),
            )
    finally:
        set_relevance_enabled(saved)
    assert observed[True] == observed[False]


def _members_by_rescan(self, name):
    # The definition the grouped classes must reproduce, order
    # included: the root, then every other name whose root it is, in
    # parent-map order (one find per name, per call).
    root = self.find(name)
    return [root] + [
        other for other in self.parent
        if other != root and self.find(other) == root
    ]


def _classification(module):
    relevance = compute_relevance(module, instrument_module(module).plan)
    return (
        relevance.payload(),
        sorted(relevance.relevant_syscalls),
        {
            name: (sorted(fn.relevant), sorted(fn.fusible))
            for name, fn in relevance.functions.items()
        },
    )


@given(random_programs())
@settings(max_examples=40, deadline=None)
def test_grouped_alias_classes_match_rescanned_members(source):
    from repro.analysis import relevance as relevance_mod

    module = compile_source(source)
    grouped = _classification(module)
    saved = relevance_mod._UnionFind.members
    relevance_mod._UnionFind.members = _members_by_rescan
    try:
        rescanned = _classification(module)
    finally:
        relevance_mod._UnionFind.members = saved
    assert grouped == rescanned


def test_alias_classes_group_every_joined_name():
    from repro.analysis.relevance import _UnionFind

    aliases = _UnionFind()
    for left, right in (("a", "b"), ("c", "d"), ("b", "d"), ("e", "f")):
        aliases.join(left, right)
    for name in "abcdef":
        assert aliases.members(name) == _members_by_rescan(aliases, name)
    assert sorted(aliases.members("a")) == ["a", "b", "c", "d"]
    assert aliases.members("z") == ["z"]
