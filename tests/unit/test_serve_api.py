"""Unit tests for the serve wire format (parsing + canonical payloads)."""

import json

import pytest

from repro.serve import api


def _workload_payload(**overrides):
    payload = {"id": "r1", "workload": "gzip", "variant": "leak"}
    payload.update(overrides)
    return payload


def _source_payload(**overrides):
    payload = {
        "id": "r2",
        "source": "fn main() { return 0; }",
        "world": {"stdin": "x", "files": {"/etc/secret": "s"}},
        "sources": {"files": ["/etc/secret"]},
        "sinks": "network",
    }
    payload.update(overrides)
    return payload


# -- parsing -------------------------------------------------------------------


def test_workload_request_parses():
    request = api.parse_request(_workload_payload())
    assert request.workload == "gzip"
    assert request.variant == "leak"
    assert request.source is None


def test_source_request_parses():
    request = api.parse_request(_source_payload())
    assert request.source.startswith("fn main")
    assert request.world_spec["files"] == {"/etc/secret": "s"}


def test_json_string_and_bytes_accepted():
    text = json.dumps(_workload_payload())
    assert api.parse_request(text).workload == "gzip"
    assert api.parse_request(text.encode()).workload == "gzip"


def test_invalid_json_is_diagnosed():
    with pytest.raises(api.RequestError, match="not valid JSON"):
        api.parse_request("{nope")


@pytest.mark.parametrize(
    "payload",
    [b'{"id": "\xff"}', "[" * 100000, b"[" * 100000],
    ids=["invalid-utf8", "nested-str", "nested-bytes"],
)
def test_undecodable_request_bytes_are_diagnosed(payload):
    # Invalid UTF-8 raised UnicodeDecodeError and a nesting bomb
    # RecursionError; both escaped validation and took the transport down.
    with pytest.raises(api.RequestError, match="not valid JSON"):
        api.parse_request(payload)


def test_missing_id_rejected():
    with pytest.raises(api.RequestError, match="'id'"):
        api.parse_request({"workload": "gzip"})


def test_unknown_keys_rejected():
    with pytest.raises(api.RequestError, match="unknown request keys"):
        api.parse_request(_workload_payload(bogus=1))


def test_unknown_variant_rejected():
    with pytest.raises(api.RequestError, match="unknown variant"):
        api.parse_request(_workload_payload(variant="nope"))


def test_neither_workload_nor_source_rejected():
    with pytest.raises(api.RequestError, match="either 'workload' or 'source'"):
        api.parse_request({"id": "r"})


def test_oversized_source_rejected_before_compiling():
    huge = "x" * (api.MAX_SOURCE_BYTES + 1)
    with pytest.raises(api.RequestError, match="oversized"):
        api.parse_request(_source_payload(source=huge))


def test_bad_deadline_rejected():
    with pytest.raises(api.RequestError, match="deadline"):
        api.parse_request(_workload_payload(deadline=-1))
    with pytest.raises(api.RequestError, match="deadline"):
        api.parse_request(_workload_payload(deadline="soon"))


def test_bad_fault_rate_rejected():
    with pytest.raises(api.RequestError, match="fault_rate"):
        api.parse_request(_workload_payload(fault_rate=1.5))


def test_world_mappings_must_be_string_to_string():
    with pytest.raises(api.RequestError, match="world.files"):
        api.parse_request(_source_payload(world={"files": {"/x": 3}}))
    with pytest.raises(api.RequestError, match="unknown world keys"):
        api.parse_request(_source_payload(world={"bogus": {}}))


@pytest.mark.parametrize(
    "world, field",
    [({"seed": "x"}, "world.seed"), ({"seed": True}, "world.seed"),
     ({"seed": 1.5}, "world.seed"), ({"stdin": 5}, "world.stdin")],
    ids=["seed-str", "seed-bool", "seed-float", "stdin-int"],
)
def test_world_values_are_typed_at_parse_time(world, field):
    # These used to reach the engine: a str seed answered `error` and
    # counted a breaker failure, an int stdin answered `ok` with an
    # engine failure in its degradation.
    with pytest.raises(api.RequestError, match=field):
        api.parse_request(_source_payload(world=world))


def test_bad_config_spec_rejected_at_admission():
    with pytest.raises(api.RequestError):
        api.parse_request(_source_payload(sources={"bogus": True}))
    with pytest.raises(api.RequestError):
        api.parse_request(_source_payload(mutation="not-a-strategy"))


@pytest.mark.parametrize(
    "payload, diagnosis",
    [(_workload_payload(workload="nosuch"), "unknown workload 'nosuch'"),
     (_workload_payload(variant="noleak"), "'gzip' has no noleak variant"),
     (_source_payload(world={"endpoints": {"hostonly": "r"}}), "HOST:PORT"),
     (_source_payload(world={"endpoints": {"host:notaport": "r"}}),
      "HOST:PORT, got 'host:notaport'"),
     ('{"id": "r", "workload": "gzip", "deadline": NaN}', "deadline")],
    ids=["unknown-workload", "missing-variant", "endpoint-no-port",
         "endpoint-bad-port", "nan-deadline"],
)
def test_unrunnable_requests_fail_at_parse_time(payload, diagnosis):
    # Each used to parse and fail only once admitted and running.
    with pytest.raises(api.RequestError, match=diagnosis):
        api.parse_request(payload)


def test_parse_resolves_the_run_config():
    from repro.workloads import get_workload

    workload = api.parse_request(_workload_payload())
    assert workload.registered is get_workload("gzip")
    assert workload.config.sources.count > 0
    source = api.parse_request(_source_payload(mutation="zeroing"))
    assert source.registered is None
    assert source.config.sources.file_paths == {"/etc/secret"}
    assert source.config.mutation.__name__ == "zeroing"


# -- identity ------------------------------------------------------------------


def test_module_key_stable_and_distinct():
    a = api.parse_request(_workload_payload()).module_key()
    assert a == api.parse_request(_workload_payload()).module_key()
    b = api.parse_request(_workload_payload(workload="bzip2")).module_key()
    assert a != b
    s1 = api.parse_request(_source_payload()).module_key()
    s2 = api.parse_request(_source_payload()).module_key()
    assert s1 == s2
    s3 = api.parse_request(
        _source_payload(source="fn main() { return 1; }")
    ).module_key()
    assert s1 != s3


def test_module_key_covers_world_spec():
    base = api.parse_request(_source_payload()).module_key()
    other = api.parse_request(
        _source_payload(world={"stdin": "different"})
    ).module_key()
    assert base != other


# -- responses -----------------------------------------------------------------


def test_error_response_shape_and_encode_determinism():
    response = api.error_response("r1", api.STATUS_OVERLOADED, "queue full",
                                  retry_after=1.0)
    assert response["status"] == "overloaded"
    assert response["protocol"] == api.PROTOCOL
    assert api.encode(response) == api.encode(json.loads(api.encode(response)))


def test_verdict_payload_is_pure_and_excludes_timing():
    from repro.core import run_dual
    from repro.workloads import get_workload

    workload = get_workload("gzip")
    result = run_dual(
        workload.instrumented, workload.build_world(1), workload.leak_variant()
    )
    payload = api.verdict_payload(result)
    again = api.verdict_payload(result)
    assert json.dumps(payload, sort_keys=True) == json.dumps(again, sort_keys=True)
    assert "dual_time" not in payload
    assert payload["causality"] is True


def test_ok_response_carries_degradation():
    from repro.core import run_dual
    from repro.workloads import get_workload

    workload = get_workload("gzip")
    result = run_dual(
        workload.instrumented, workload.build_world(1), workload.leak_variant()
    )
    response = api.ok_response("r1", result, timing={"service_s": 0.1})
    assert response["status"] == api.STATUS_OK
    assert response["degradation"]["confidence"] == "full"
    assert response["timing"]["service_s"] == 0.1
    json.dumps(response)  # must be JSON-serializable as-is
