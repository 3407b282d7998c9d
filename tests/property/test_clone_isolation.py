"""Property-based tests of clone isolation.

The paper's Section 7 invariant: the slave's outputs land in a private
clone and can never become externally visible.  These tests drive
random sequences of fs/network/env/source mutations against a cloned
:class:`World` and assert that no mutation on the clone is observable
in the original (nor vice versa) — for both the overlay clone path
(``World.clone`` / ``VirtualFS.clone``) and the materialized
``deep_clone`` reference path.
"""

from hypothesis import given, settings, strategies as st

from repro.vos.filesystem import VirtualFS
from repro.vos.world import World

# A small path universe keeps collisions (and thus interesting
# tombstone/copy-up interleavings) frequent.
PATHS = ["/a", "/a/x", "/a/y", "/b", "/d/e/f", "/tmp/t"]
LABELS = ["s1", "s2"]
ENV_KEYS = ["HOME", "LANG"]

_mutations = st.lists(
    st.one_of(
        st.tuples(st.just("add_file"), st.sampled_from(PATHS), st.text(max_size=5)),
        st.tuples(st.just("edit_file"), st.sampled_from(PATHS), st.text(max_size=5)),
        st.tuples(st.just("unlink"), st.sampled_from(PATHS)),
        st.tuples(st.just("rename"), st.sampled_from(PATHS), st.sampled_from(PATHS)),
        st.tuples(st.just("mkdir"), st.sampled_from(PATHS)),
        st.tuples(st.just("env"), st.sampled_from(ENV_KEYS), st.text(max_size=5)),
        st.tuples(st.just("source"), st.sampled_from(LABELS), st.text(max_size=5)),
        st.tuples(st.just("send"), st.text(max_size=5)),
        st.tuples(st.just("recv"), st.integers(0, 8)),
        st.tuples(st.just("rng"),),
        st.tuples(st.just("clock"),),
    ),
    max_size=12,
)


def _build_world() -> World:
    world = World(seed=3)
    world.fs.add_file("/a/x", "ax")
    world.fs.add_file("/b", "b")
    world.env["HOME"] = "/home"
    world.sources["s1"] = ["v1"]
    world.sources["s2"] = {"k": "v2"}
    world.network.register_factory("srv", 1, _counting_endpoint)
    world.network.connect("srv", 1).send("hello")
    return world


def _counting_endpoint():
    state = [0]

    def script(req):
        state[0] += 1
        return f"n{state[0]}:{req};"

    return script


def _apply(world: World, mutation) -> None:
    kind = mutation[0]
    fs = world.fs
    if kind == "add_file":
        fs.add_file(mutation[1], mutation[2])
    elif kind == "edit_file":
        vfile = fs.file(mutation[1])
        if vfile is not None:
            vfile.content = mutation[2]
    elif kind == "unlink":
        fs.unlink(mutation[1])
    elif kind == "rename":
        fs.rename(mutation[1], mutation[2])
    elif kind == "mkdir":
        fs.mkdir(mutation[1])
    elif kind == "env":
        world.env[mutation[1]] = mutation[2]
    elif kind == "source":
        value = world.sources[mutation[1]]
        if isinstance(value, list):
            value.append(mutation[2])
        else:
            value["extra"] = mutation[2]
    elif kind == "send":
        world.network.connections[0].send(mutation[1])
    elif kind == "recv":
        world.network.connections[0].recv(mutation[1])
    elif kind == "rng":
        world.rng.next_int(100)
    elif kind == "clock":
        world.clock.read()


def _observe(world: World):
    """Everything externally observable about a world."""
    fs = world.fs
    connection = world.network.connections[0]
    return (
        fs.paths(),
        {p: (fs.read_file(p).content, fs.read_file(p).mtime) for p in fs.paths()},
        dict(world.env),
        {k: repr(v) for k, v in world.sources.items()},
        list(connection.sent),
        connection.closed,
        # The unread stream and the next random draw, read on clones so
        # observing them advances nothing.
        connection.clone().recv(1 << 20),
        world.clock.peek(),
        world.rng.clone().next_int(),
    )


@settings(max_examples=60, deadline=None)
@given(clone_mutations=_mutations, original_mutations=_mutations)
def test_world_clone_isolation_both_directions(
    clone_mutations, original_mutations
):
    world = _build_world()
    clone = world.clone()
    before_world = _observe(world)
    before_clone = _observe(clone)
    assert before_world == before_clone  # clones start identical

    for mutation in clone_mutations:
        _apply(clone, mutation)
    assert _observe(world) == before_world  # clone writes invisible

    snapshot_clone = _observe(clone)
    for mutation in original_mutations:
        _apply(world, mutation)
    assert _observe(clone) == snapshot_clone  # and vice versa


@settings(max_examples=60, deadline=None)
@given(mutations=_mutations)
def test_overlay_clone_matches_deep_clone_semantics(mutations):
    """The overlay path and the materialized deep-clone path expose
    identical observable state under identical mutation sequences."""
    base = VirtualFS()
    base.add_file("/a/x", "ax")
    base.add_file("/b", "b")

    overlay = base.clone()
    deep = base.deep_clone()
    fs_kinds = ("add_file", "edit_file", "unlink", "rename", "mkdir")
    for mutation in mutations:
        if mutation[0] not in fs_kinds:
            continue
        for fs in (overlay, deep):
            world_like = type("W", (), {"fs": fs})()
            _apply(world_like, mutation)
    assert overlay.paths() == deep.paths()
    for path in overlay.paths():
        assert overlay.read_file(path).content == deep.read_file(path).content
    for path in PATHS:
        assert overlay.exists(path) == deep.exists(path)
        assert overlay.is_dir(path) == deep.is_dir(path)
    # Neither path leaked anything into the shared base.
    assert base.paths() == ["/a/x", "/b"]
    assert base.read_file("/a/x").content == "ax"
