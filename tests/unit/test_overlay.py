"""Unit tests for the copy-on-write overlay filesystem.

The generic VirtualFS behaviour (paths, listdir, rename, normalize) is
covered by test_vos.py; these tests target the overlay mechanics —
layer sharing, tombstones, copy-up — and the
isolation invariant cloning exists for.
"""

from repro.vos.filesystem import VirtualFS


def populated():
    fs = VirtualFS()
    fs.add_file("/etc/conf", "base-conf", mtime=5)
    fs.add_file("/data/a", "alpha")
    fs.add_file("/data/b", "beta")
    fs.mkdir("/empty")
    return fs


# -- layer sharing and isolation ----------------------------------------------


def test_clone_shares_base_without_copying():
    fs = populated()
    clone = fs.clone()
    # Same underlying VirtualFile object until someone writes.
    assert clone.read_file("/data/a") is fs.read_file("/data/a")
    # A mutable handle forces a private copy-up.
    assert clone.file("/data/a") is not fs.read_file("/data/a")


def test_writes_after_clone_are_invisible_both_ways():
    fs = populated()
    clone = fs.clone()
    fs.file("/data/a").content = "master-write"
    clone.file("/data/b").content = "slave-write"
    clone.add_file("/data/new", "slave-only")
    fs.unlink("/etc/conf")
    assert clone.read_file("/data/a").content == "alpha"
    assert fs.read_file("/data/b").content == "beta"
    assert not fs.exists("/data/new")
    assert clone.read_file("/etc/conf").content == "base-conf"


def test_original_stays_usable_after_multiple_clones():
    fs = populated()
    clones = [fs.clone() for _ in range(3)]
    fs.add_file("/data/c", "gamma")
    for clone in clones:
        assert not clone.exists("/data/c")
        assert clone.paths() == ["/data/a", "/data/b", "/etc/conf"]
    assert "/data/c" in fs.paths()


def test_empty_top_reuse_bounds_layer_depth():
    """Cloning without intervening writes must not stack empty layers
    (a benchmark loop would otherwise deepen lookups per iteration)."""
    fs = populated()
    first = fs.clone()
    depth_after_first = fs.depth
    for _ in range(50):
        fs.clone()
    assert fs.depth == depth_after_first
    assert first.depth == depth_after_first


def test_tombstone_hides_base_file_and_recreation_wins():
    fs = populated()
    clone = fs.clone()
    clone.unlink("/data/a")
    assert not clone.exists("/data/a")
    assert "/data/a" not in clone.paths()
    assert clone.listdir("/data") == ["b"]
    # Re-creating the deleted path replaces the tombstone.
    clone.add_file("/data/a", "reborn")
    assert clone.read_file("/data/a").content == "reborn"
    # The base never noticed any of it.
    assert fs.read_file("/data/a").content == "alpha"


def test_unlink_dir_tombstone_across_layers():
    fs = populated()
    clone = fs.clone()
    assert clone.unlink("/empty")
    assert not clone.is_dir("/empty")
    assert fs.is_dir("/empty")
    # A deleted directory can be re-made in the overlay.
    assert clone.mkdir("/empty")
    assert clone.is_dir("/empty")


def test_rename_from_base_layer():
    fs = populated()
    clone = fs.clone()
    assert clone.rename("/data/a", "/data/moved")
    assert clone.read_file("/data/moved").content == "alpha"
    assert not clone.exists("/data/a")
    assert fs.read_file("/data/a").content == "alpha"
    assert not fs.exists("/data/moved")


def test_read_file_never_copies_up():
    fs = populated()
    clone = fs.clone()
    clone.read_file("/data/a")
    clone.read_file("/etc/conf")
    assert clone._top.files == {}
    # file() does copy up — that is the point of the split.
    clone.file("/data/a")
    assert "/data/a" in clone._top.files


def test_deep_clone_matches_overlay_view():
    fs = populated()
    overlay = fs.clone()
    overlay.file("/data/a").content = "edited"
    overlay.unlink("/data/b")
    overlay.add_file("/fresh/x", "new")
    deep = overlay.deep_clone()
    assert deep.paths() == overlay.paths()
    for path in overlay.paths():
        assert deep.read_file(path).content == overlay.read_file(path).content
    assert deep.depth == 1
    # And the deep copy is fully detached.
    deep.file("/data/a").content = "detached"
    assert overlay.read_file("/data/a").content == "edited"
