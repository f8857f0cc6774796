"""End-to-end tests of the HTTP service over a real socket.

One ephemeral-port server per test class; requests go through the full
stdlib HTTP stack, so routing, size bounds, error mapping, and response
encoding are all exercised exactly as a client would see them.
"""

import io
import json
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
from http.client import HTTPConnection

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.isa.instructions import TCADescriptor
from repro.isa.trace import TraceBuilder
from repro.isa.trace_io import dump_trace
from repro.obs.metrics import get_registry
from repro.serve import service
from repro.serve.params import (
    RequestError,
    parse_accelerator,
    parse_core,
    parse_drain,
    parse_modes,
    parse_workload,
)
from repro.serve.service import ServeApp, _encode_json, make_server
from repro.workloads.heap import HeapWorkloadSpec, generate_heap_program


@pytest.fixture(scope="module")
def server_port():
    server = make_server(port=0, app=ServeApp())
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield port
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def _request(port, path, payload=None, method=None):
    """(status, decoded-JSON body) for one request to the test server.

    ``payload`` is JSON-encoded unless it is already ``bytes``.
    """
    data = payload
    if payload is not None and not isinstance(payload, bytes):
        data = json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        headers={"Content-Type": "application/json"},
        method=method or ("POST" if data is not None else "GET"),
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _trace_text(name="svc-trace", latency=10):
    builder = TraceBuilder(name)
    builder.independent_block(40, [0, 1, 2, 3])
    builder.tca(
        TCADescriptor(
            name="t", compute_latency=latency, replaced_instructions=50
        )
    )
    builder.independent_block(40, [4, 5, 6, 7])
    buffer = io.StringIO()
    dump_trace(builder.build(), buffer)
    return buffer.getvalue()


EVALUATE_QUERY = {
    "core": "a72",
    "accelerator": {"acceleration": 3.0},
    "workload": {"granularity": 53, "acceleratable_fraction": 0.3},
}


class TestHealthz:
    def test_reports_ok_with_cache_and_manifest(self, server_port):
        status, body = _request(server_port, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert "+" in body["schema"]
        assert set(body["cache"]) == {"memory"}
        assert body["manifest"]["package_version"]
        assert body["manifest"]["cache"]["memory"]["max_entries"] >= 1


class TestEvaluate:
    def test_repeat_request_is_a_cache_hit(self, server_port):
        query = dict(
            EVALUATE_QUERY,
            workload={"granularity": 77, "acceleratable_fraction": 0.4},
        )
        status1, body1 = _request(server_port, "/evaluate", query)
        status2, body2 = _request(server_port, "/evaluate", query)
        assert status1 == status2 == 200
        assert not body1["results"][0]["cached"]
        assert body2["results"][0]["cached"]
        assert body1["results"][0]["speedups"] == body2["results"][0]["speedups"]

    def test_batched_queries_come_back_in_order(self, server_port):
        granularities = [11, 222, 3333, 44]
        payload = {
            "queries": [
                dict(
                    EVALUATE_QUERY,
                    workload={
                        "granularity": g,
                        "acceleratable_fraction": 0.3,
                    },
                )
                for g in granularities
            ]
        }
        status, body = _request(server_port, "/evaluate", payload)
        assert status == 200
        assert len(body["results"]) == len(granularities)
        # from_granularity sets v = a / g, so g echoes back as a / v
        echoed = [
            r["workload"]["acceleratable_fraction"]
            / r["workload"]["invocation_frequency"]
            for r in body["results"]
        ]
        assert echoed == pytest.approx(granularities)

    def test_mode_subset_and_best_mode(self, server_port):
        query = dict(EVALUATE_QUERY, modes=["L_T", "NL_NT"])
        status, body = _request(server_port, "/evaluate", query)
        assert status == 200
        result = body["results"][0]
        assert set(result["speedups"]) == {"L_T", "NL_NT"}
        assert result["best_mode"] in result["speedups"]

    def test_unknown_preset_is_structured_400(self, server_port):
        status, body = _request(
            server_port, "/evaluate", dict(EVALUATE_QUERY, core="bogus")
        )
        assert status == 400
        assert "bogus" in body["error"]
        assert body["field"] == "core"

    def test_bad_workload_reports_field_path(self, server_port):
        payload = {
            "queries": [
                EVALUATE_QUERY,
                dict(EVALUATE_QUERY, workload={"granularity": -5}),
            ]
        }
        status, body = _request(server_port, "/evaluate", payload)
        assert status == 400
        assert body["field"].startswith("queries[1].workload")

    def test_invalid_json_is_400(self, server_port):
        req = urllib.request.Request(
            f"http://127.0.0.1:{server_port}/evaluate",
            data=b"{nope",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400


def _expected_result(query):
    """``api.evaluate`` on parameter objects parsed afresh from ``query``."""
    return api.evaluate(
        parse_core(query.get("core")),
        parse_accelerator(query.get("accelerator")),
        parse_workload(query.get("workload")),
        parse_modes(query.get("modes", query.get("mode"))),
        parse_drain(query.get("drain")),
    ).to_dict()


class TestTemplates:
    """Each distinct query template is parsed and keyed once; values
    Python deems equal but JSON does not must never share a template."""

    # 3 / 3.0 / True, and 0.0 / -0.0, in every template position.
    VARIANTS = [
        {"accelerator": {"acceleration": 3}},
        {"accelerator": {"acceleration": 3.0}},
        {"accelerator": {"name": 1, "acceleration": 3.0}},
        {"accelerator": {"name": 1.0, "acceleration": 3.0}},
        {"accelerator": {"name": True, "acceleration": 3.0}},
        {"accelerator": {"latency": 0.0}},
        {"accelerator": {"latency": -0.0}},
        {"core": {"ipc": 3, "rob_size": 128, "issue_width": 3,
                  "commit_stall": 0.0}},
        {"core": {"ipc": 3.0, "rob_size": 128, "issue_width": 3,
                  "commit_stall": -0.0}},
        {"core": {"ipc": 3.0, "rob_size": 128, "issue_width": 3,
                  "commit_stall": 0.0, "name": True}},
        {"core": {"ipc": 3.0, "rob_size": 128, "issue_width": 3,
                  "commit_stall": 0.0, "name": 1}},
        {"drain": {"kind": "explicit", "cycles": 3}},
        {"drain": {"kind": "explicit", "cycles": 3.0}},
        {"drain": {"kind": "explicit", "cycles": 0.0}},
        {"drain": {"kind": "explicit", "cycles": -0.0}},
        {"modes": ["L_T", "NL_T"]},
        {"modes": ["L_T", "L_T"]},
        {"mode": "NL_NT"},
        {"modes": None, "mode": "NL_NT"},
    ]

    def _queries(self):
        return [
            dict(
                EVALUATE_QUERY,
                workload={"granularity": 10.0 + i, "acceleratable_fraction": 0.3},
                **variant,
            )
            for i, variant in enumerate(self.VARIANTS)
        ]

    def test_body_matches_api_evaluate_on_fresh_objects(self):
        app = ServeApp()
        queries = self._queries()
        expected = [_expected_result(query) for query in queries]
        for _ in range(2):  # the second pass answers every template from the memo
            for query, want in zip(queries, expected):
                got = app.handle_evaluate(json.loads(json.dumps(query)))
                got = got["results"][0]
                assert _encode_json({**got, "cached": False}) == _encode_json(
                    want
                ), query
            batch = app.handle_evaluate({"queries": queries})["results"]
            assert [
                _encode_json({**result, "cached": False}) for result in batch
            ] == [_encode_json(want) for want in expected]

    def test_only_successful_parses_are_memoized(self):
        app = ServeApp()
        bad = dict(EVALUATE_QUERY, accelerator={"acceleration": -1.0})
        for _ in range(2):
            with pytest.raises(RequestError) as info:
                app.handle_evaluate(bad)
            assert info.value.field == "accelerator"
        assert not app._templates
        # A known template still reports a bad workload under its path.
        app.handle_evaluate(EVALUATE_QUERY)
        with pytest.raises(RequestError) as info:
            app.handle_evaluate(
                {"queries": [dict(EVALUATE_QUERY, workload={"granularity": -5})]}
            )
        assert info.value.field.startswith("queries[0].workload")

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(service, "TEMPLATE_MEMO_SIZE", 8)
        app = ServeApp()
        for i in range(20):
            query = dict(EVALUATE_QUERY, accelerator={"acceleration": 1.0 + i})
            assert app.handle_evaluate(query)["results"][0] == dict(
                _expected_result(query), cached=False
            )
        assert 0 < len(app._templates) <= 8


    def test_memo_under_racing_threads(self, monkeypatch):
        monkeypatch.setattr(service, "TEMPLATE_MEMO_SIZE", 4)
        app = ServeApp()
        queries = [
            dict(EVALUATE_QUERY, accelerator={"acceleration": 1.0 + i % 12})
            for i in range(48)
        ]
        expected = [
            _encode_json(_expected_result(query)) for query in queries
        ]
        failures = []

        def hammer(offset):
            for i in range(len(queries)):
                j = (i + offset) % len(queries)
                got = app.handle_evaluate(queries[j])["results"][0]
                if _encode_json({**got, "cached": False}) != expected[j]:
                    failures.append(queries[j])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(k * 7,)) for k in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert 0 < len(app._templates) <= 4


def _raw_exchange(port, data):
    """Everything the server sends on one connection for ``data``, up to
    its close (a server that keeps the connection open times out)."""
    chunks = []
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(data)
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:  # closed with our bytes unread
            pass
    return b"".join(chunks)


#: A request hidden in a body the server must not read as one.
_SMUGGLED = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"


class TestConnections:
    def test_two_requests_reuse_one_socket(self, server_port):
        conn = HTTPConnection("127.0.0.1", server_port, timeout=30)
        try:
            bodies = []
            for _ in range(2):
                conn.request(
                    "POST", "/evaluate", body=json.dumps(EVALUATE_QUERY),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                assert response.status == 200
                bodies.append(json.loads(response.read()))
                if len(bodies) == 1:
                    sock = conn.sock
            assert conn.sock is sock is not None
            assert bodies[1]["results"][0]["cached"]
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "head, status",
        [
            (b"POST /nope HTTP/1.1\r\nContent-Length: %d\r\n\r\n", 404),
            (b"POST /evaluate HTTP/1.1\r\nContent-Length: x%d\r\n\r\n", 400),
            (b"POST /evaluate HTTP/1.1\r\nContent-Length: -%d\r\n\r\n", 400),
            (b"POST /evaluate HTTP/1.1\r\n\r\n%d", 400),
        ],
    )
    def test_reply_leaving_the_body_unread_closes(self, server_port, head, status):
        raw = _raw_exchange(server_port, head % len(_SMUGGLED) + _SMUGGLED)
        assert raw.startswith(b"HTTP/1.1 %d " % status), raw[:80]
        assert raw.count(b"HTTP/1.1 ") == 1, raw  # the body was not served
        head = raw.split(b"\r\n\r\n")[0].split(b"\r\n")
        assert b"Connection: close" in head
        assert _request(server_port, "/healthz")[0] == 200

    def test_oversize_body_closes(self):
        server = make_server(port=0, max_request_bytes=16)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            body = _SMUGGLED + b" " * 8
            raw = _raw_exchange(
                port,
                b"POST /evaluate HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                % len(body) + body,
            )
            assert raw.startswith(b"HTTP/1.1 413 "), raw[:80]
            assert raw.count(b"HTTP/1.1 ") == 1, raw
            assert _request(port, "/healthz")[0] == 200
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_ndjson_ends_at_close(self, server_port):
        conn = HTTPConnection("127.0.0.1", server_port, timeout=60)
        try:
            conn.request(
                "POST", "/sweep", body=json.dumps(_pareto_payload()),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.getheader("Connection") == "close"
            assert response.getheader("Content-Length") is None
            lines = response.read().splitlines()
            assert "summary" in json.loads(lines[-1])
            assert conn.sock is None  # http.client saw the close
        finally:
            conn.close()


class TestRequestTimers:
    def test_cpu_and_write_timers_count_every_request(self, server_port):
        registry = get_registry()
        names = ("serve.cpu.evaluate", "serve.cpu.healthz", "serve.write")

        def counts():
            return [registry.timer(name).count for name in names]

        before = counts()
        for _ in range(3):
            assert _request(server_port, "/evaluate", EVALUATE_QUERY)[0] == 200
        for _ in range(2):
            assert _request(server_port, "/healthz")[0] == 200
        want = [before[0] + 3, before[1] + 2, before[2] + 5]
        deadline = time.monotonic() + 5  # recorded just after the reply
        while counts() != want and time.monotonic() < deadline:
            time.sleep(0.01)
        assert counts() == want
        page = urllib.request.urlopen(
            f"http://127.0.0.1:{server_port}/metrics", timeout=30
        ).read().decode()
        assert "repro_serve_cpu_evaluate_seconds_count" in page
        assert "repro_serve_write_seconds_count" in page


_WORKLOAD = '"workload": {"granularity": 53, "acceleratable_fraction": 0.3}'
_CORE = '"ipc": 1, "issue_width": 4, "commit_stall": 1'


class TestNonFiniteNumbers:
    """``json.loads`` takes ``NaN``/``Infinity`` tokens, overflows
    ``1e999`` to ``inf`` and keeps huge integers exact; every such
    value must be a field-tagged 400, never a 500 or a 200."""

    @pytest.mark.parametrize(
        "path, raw, field",
        [
            (
                "/evaluate",
                '{"core": {%s, "rob_size": 1e999}, '
                '"accelerator": {"acceleration": 3}, %s}' % (_CORE, _WORKLOAD),
                "core.rob_size",
            ),
            (
                "/evaluate",
                '{"core": {%s, "rob_size": 1%s}, '
                '"accelerator": {"acceleration": 3}, %s}'
                % (_CORE, "0" * 400, _WORKLOAD),
                "core.rob_size",
            ),
            (
                "/evaluate",
                '{"core": "a72", "accelerator": {"acceleration": NaN}, %s}'
                % _WORKLOAD,
                "accelerator.acceleration",
            ),
            (
                "/evaluate",
                '{"core": "a72", "accelerator": {"acceleration": 3}, '
                '"workload": {"granularity": -Infinity, '
                '"acceleratable_fraction": 0.3}}',
                "workload.granularity",
            ),
            (
                "/sweep",
                '{"kind": "pareto", "cores": ["a72"], '
                '"accelerator": {"acceleration": 4}, '
                '"fractions": [0.1, Infinity], "frequencies": [0.01]}',
                "fractions[1]",
            ),
            (
                "/sweep",
                '{"kind": "pareto", "cores": ["a72"], '
                '"accelerator": {"acceleration": 4}, "fractions": [0.5], '
                '"frequencies": {"start": 0.01, "stop": 1, "num": 1e999}}',
                "frequencies.num",
            ),
            (
                "/sweep",
                '{"kind": "granularity", "core": "a72", '
                '"accelerator": {"acceleration": 3}, "x": [10, 1%s], '
                '"acceleratable_fraction": 0.3}' % ("0" * 400),
                "x[1]",
            ),
            (
                "/sweep",
                '{"kind": "granularity", "core": "a72", '
                '"accelerator": {"acceleration": 3}, "x": [10], '
                '"acceleratable_fraction": NaN}',
                "acceleratable_fraction",
            ),
        ],
        ids=[
            "rob_size-1e999",
            "rob_size-huge-int",
            "acceleration-NaN",
            "granularity-minus-Infinity",
            "axis-list-Infinity",
            "axis-num-1e999",
            "sweep-x-huge-int",
            "sweep-fraction-NaN",
        ],
    )
    def test_non_finite_value_is_field_tagged_400(
        self, server_port, path, raw, field
    ):
        status, body = _request(server_port, path, raw.encode("utf-8"))
        assert status == 400, body
        assert body["field"] == field
        assert "finite" in body["error"]


#: A valid ``/evaluate`` query whose numeric and mode leaves the
#: property test below overwrites.
_FUZZ_QUERY = {
    "core": {"ipc": 1.5, "rob_size": 128, "issue_width": 4, "commit_stall": 2},
    "accelerator": {"acceleration": 3.0},
    "workload": {
        "granularity": 53,
        "acceleratable_fraction": 0.3,
        "drain_time": 12.0,
    },
    "drain": {"kind": "power_law", "beta": 1.9, "scale": 2.43},
    "modes": ["L_T", "NL_NT"],
}

_FUZZ_LEAVES = [
    ("core", "ipc"),
    ("core", "rob_size"),
    ("core", "issue_width"),
    ("core", "commit_stall"),
    ("accelerator", "acceleration"),
    ("workload", "granularity"),
    ("workload", "acceleratable_fraction"),
    ("workload", "drain_time"),
    ("drain", "beta"),
    ("drain", "scale"),
    ("modes", 0),
    ("modes", 1),
]

_JSON_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(),
    st.sampled_from([10**400, -(10**400), 2**63, 1e308, -0.0, 0]),
    st.text(max_size=8),
    st.booleans(),
    st.none(),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)

_FUZZ_APP = ServeApp()


@settings(max_examples=300, deadline=None)
@given(
    edits=st.lists(
        st.tuples(st.sampled_from(_FUZZ_LEAVES), _JSON_VALUES),
        min_size=1,
        max_size=2,
        unique_by=lambda edit: edit[0],
    )
)
def test_evaluate_answers_or_names_the_bad_field(edits):
    """Any leaf replaced by any JSON value: a result or a tagged 4xx."""
    query = json.loads(json.dumps(_FUZZ_QUERY))
    for (parent, leaf), value in edits:
        query[parent][leaf] = value
    try:
        _FUZZ_APP.handle_evaluate(query)
    except RequestError as exc:
        assert exc.field is not None, exc


class TestSweep:
    def test_granularity_sweep_round_trips(self, server_port):
        payload = {
            "kind": "granularity",
            "core": "hp",
            "accelerator": {"acceleration": 3.0},
            "x": [10, 100, 1000],
            "acceleratable_fraction": 0.3,
        }
        status, body = _request(server_port, "/sweep", payload)
        assert status == 200
        result = body["result"]
        assert result["x"] == [10.0, 100.0, 1000.0]
        assert set(result["speedups"]) == {"NL_NT", "L_NT", "NL_T", "L_T"}

    def test_missing_fixed_axis_is_400(self, server_port):
        payload = {
            "kind": "fraction",
            "core": "a72",
            "accelerator": {"acceleration": 2.0},
            "x": [0.1, 0.5],
        }
        status, body = _request(server_port, "/sweep", payload)
        assert status == 400
        assert "granularity" in body["error"]


def _pareto_payload(**overrides):
    payload = {
        "kind": "pareto",
        "cores": ["a72", "hp"],
        "accelerator": {"acceleration": 4.0},
        "fractions": {"start": 0.0, "stop": 1.0, "num": 9},
        "frequencies": {"start": 1e-3, "stop": 1.0, "num": 6, "space": "log"},
        "tech": ["cmos-hp-45", "finfet-hp-20"],
        "block_size": 40,
    }
    payload.update(overrides)
    return payload


def _ndjson_request(port, payload):
    """(status, content-type, parsed NDJSON lines) for one /sweep POST."""
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}/sweep",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(req, timeout=60) as resp:
        raw = resp.read()
        lines = [
            _strict_loads(line)
            for line in raw.split(b"\n")
            if line.strip()
        ]
        return resp.status, resp.headers.get("Content-Type"), lines


class TestParetoSweepEndpoint:
    def test_streaming_ndjson_chunks_and_summary(self, server_port):
        status, content_type, lines = _ndjson_request(
            server_port, _pareto_payload()
        )
        assert status == 200
        assert content_type == "application/x-ndjson"
        # Every line is strict JSON; all but the last are chunk records.
        chunks, summary = lines[:-1], lines[-1]
        assert len(chunks) >= 2
        for index, record in enumerate(chunks):
            assert record["chunk"] == index
            assert record["mode"] in {"NL_NT", "L_NT", "NL_T", "L_T"}
            assert record["tech"] in {"cmos-hp-45", "finfet-hp-20"}
            assert record["lattice_points"] <= 40
            assert record["frontier_size"] >= 0
        assert summary["summary"]["frontier_size"] == len(
            summary["summary"]["frontier"]
        )
        assert summary["summary"]["total_points"] == 2 * 4 * 2 * 9 * 6
        assert "cache" in summary

    def test_stream_false_matches_streamed_summary(self, server_port):
        status, body = _request(
            server_port, "/sweep", _pareto_payload(stream=False)
        )
        assert status == 200
        _, _, lines = _ndjson_request(server_port, _pareto_payload())
        assert body["result"] == lines[-1]["summary"]

    def test_repeat_request_is_served_from_cache(self, server_port):
        payload = _pareto_payload(
            fractions=[0.25, 0.5, 0.75], frequencies=[0.1, 0.2]
        )
        _ndjson_request(server_port, payload)
        _, _, lines = _ndjson_request(server_port, payload)
        assert all(record["cached"] for record in lines[:-1])

    def test_frontier_matches_api_facade(self, server_port):
        from repro import api
        from repro.core.parameters import ARM_A72, AcceleratorParameters

        payload = _pareto_payload(
            cores=["a72"], fractions=[0.2, 0.6, 1.0], frequencies=[0.05, 0.5]
        )
        status, body = _request(
            server_port, "/sweep", dict(payload, stream=False)
        )
        assert status == 200
        expected = api.pareto_sweep(
            ARM_A72,
            AcceleratorParameters(acceleration=4.0),
            [0.2, 0.6, 1.0],
            [0.05, 0.5],
            tech=["cmos-hp-45", "finfet-hp-20"],
        )
        assert body["result"]["frontier"] == [
            p.to_dict() for p in expected.frontier
        ]

    def test_bad_axis_is_400(self, server_port):
        status, body = _request(
            server_port,
            "/sweep",
            _pareto_payload(fractions={"start": 0, "stop": 1}),
        )
        assert status == 400
        assert "fractions" in body["field"]
        status, body = _request(
            server_port,
            "/sweep",
            _pareto_payload(
                frequencies={"start": 0, "stop": 1, "num": 4, "space": "log"}
            ),
        )
        assert status == 400
        assert "frequencies" in body["field"]
        assert "positive" in body["error"]

    def test_unknown_tech_is_400(self, server_port):
        status, body = _request(
            server_port, "/sweep", _pareto_payload(tech=["not-a-node"])
        )
        assert status == 400
        assert "tech" in body["field"]

    def test_unknown_energy_field_is_400(self, server_port):
        status, body = _request(
            server_port, "/sweep", _pareto_payload(energy={"warp_drive": 1})
        )
        assert status == 400
        assert "energy" in body["field"]
        assert "warp_drive" in body["error"]


class TestSimulate:
    def test_simulation_and_cache_hit(self, server_port):
        payload = {"trace": _trace_text(), "config": "a72"}
        status1, body1 = _request(server_port, "/simulate", payload)
        status2, body2 = _request(server_port, "/simulate", payload)
        assert status1 == status2 == 200
        assert not body1["result"]["cached"]
        assert body2["result"]["cached"]
        assert (
            body1["result"]["stats"]["cycles"]
            == body2["result"]["stats"]["cycles"]
            > 0
        )

    def test_multi_run_request_preserves_order(self, server_port):
        payload = {
            "runs": [
                {
                    "trace": _trace_text("multi", latency),
                    "config": {"preset": "a72", "mode": "NL_T"},
                }
                for latency in (5, 30)
            ]
        }
        status, body = _request(server_port, "/simulate", payload)
        assert status == 200
        cycles = [r["stats"]["cycles"] for r in body["results"]]
        assert cycles[0] < cycles[1]
        assert all(r["mode"] == "NL_T" for r in body["results"])

    def test_malformed_trace_is_400(self, server_port):
        status, body = _request(
            server_port, "/simulate", {"trace": "not a trace", "config": "a72"}
        )
        assert status == 400
        assert body["field"] == "trace"

    def test_out_of_range_address_is_400(self, server_port):
        builder = TraceBuilder("huge")
        builder.store(1, 1 << 63)
        text = io.StringIO()
        dump_trace(builder.build(), text)
        status, body = _request(
            server_port,
            "/simulate",
            {"runs": [{"trace": _trace_text()}, {"trace": text.getvalue()}]},
        )
        assert status == 400
        assert body["field"] == "runs[1].trace"
        assert "2**62" in body["error"]

    @pytest.mark.parametrize("source", [[1], "x", 1.5, True, 2**70])
    def test_bad_register_id_is_400(self, source):
        # A source register that is not an in-range int (JSON lets a
        # client send any value) is the client's fault, tagged with the
        # run's trace field, never a 500 or a silently coerced id.
        lines = [
            {"format": "repro-trace", "version": 1, "name": "bad-reg", "length": 2},
            {"op": "int_alu", "d": [1]},
            {"op": "int_alu", "s": [source], "d": [2]},
        ]
        bad = "".join(json.dumps(line) + "\n" for line in lines)
        app = ServeApp()
        for payload, field in (
            ({"trace": bad}, "trace"),
            ({"runs": [{"trace": _trace_text()}, {"trace": bad}]}, "runs[1].trace"),
        ):
            with pytest.raises(RequestError, match="register ids") as info:
                app.handle_simulate(payload)
            assert info.value.field == field

    def test_cache_fault_is_not_a_malformed_trace(self, monkeypatch):
        # Only the compiler's rejection is the client's fault; a
        # ValueError from the compiled-trace cache is a server error.
        app = ServeApp()

        def broken_get(key):
            raise ValueError("cache fault")

        monkeypatch.setattr(app._compiled, "get", broken_get)
        with pytest.raises(ValueError, match="cache fault") as info:
            app.handle_simulate({"trace": _trace_text()})
        assert not isinstance(info.value, RequestError)

    def test_unknown_config_override_is_400(self, server_port):
        status, body = _request(
            server_port,
            "/simulate",
            {
                "trace": _trace_text(),
                "config": {"preset": "a72", "bogus_knob": 1},
            },
        )
        assert status == 400
        assert "bogus_knob" in body["error"]


    @pytest.mark.parametrize(
        "override",
        [
            {"mshrs": 0},
            {"max_cycles": "100000"},
            {"l1d_assoc": "8"},
            {"l1d_latency": -3},
            {"max_cycles": -5},
            {"l1d_latency": 3.5},
            {"rob_size": True},
            {"prefetch_next_line": 1},
            {"l2_size": 1000},
            {"iq_size": 10**12},
            {"l2_size": 2**50},
            {"rob_size": 2**40},
            {"mshrs": 10**9},
            {"tca_units": 10**6},
            {"l1d_assoc": 2**20},
            {"issue_width": 10**9},
        ],
        ids=lambda override: "{}={!r}".format(*next(iter(override.items()))),
    )
    def test_bad_config_override_is_field_tagged_400(self, server_port, override):
        # Refused when the config is built, before any run: mshrs=0 used
        # to spin to the 200M-cycle watchdog on a trace with L1 misses.
        heap = generate_heap_program(HeapWorkloadSpec(slots=40, seed=3))
        text = io.StringIO()
        dump_trace(heap.accelerated(), text)
        config = {"preset": "a72", **override}
        for payload, field in (
            ({"trace": text.getvalue(), "config": config}, "config"),
            (
                {"runs": [{"trace": _trace_text()},
                          {"trace": text.getvalue(), "config": config}]},
                "runs[1].config",
            ),
        ):
            started = time.monotonic()
            status, body = _request(server_port, "/simulate", payload)
            assert time.monotonic() - started < 1.0
            assert status == 400, body
            assert body["field"] == field
            assert next(iter(override)) in body["error"]

    @pytest.mark.parametrize(
        "warm_ranges",
        [
            [[-(2**70), 64]],
            [[0, 10**12]],
            [[0, 64], [2**62, 64]],
            [[0, 64 * (1 << 20) + 1]],
            [[0, 64 * (1 << 19)], [1 << 40, 64 * (1 << 19) + 64]],
            [[0, 64.0]],
            [[0, True]],
            [[0]],
        ],
        ids=str,
    )
    def test_bad_warm_ranges_are_field_tagged_400(
        self, server_port, warm_ranges
    ):
        # Refused before any line address is built: a 2**70 address
        # used to answer 500, and a 10**12-byte range would expand into
        # ~1.6e10 line addresses.
        bad = len(warm_ranges) - 1
        for payload, field in (
            (
                {"trace": _trace_text(), "warm_ranges": warm_ranges},
                f"warm_ranges[{bad}]",
            ),
            (
                {"runs": [{"trace": _trace_text()},
                          {"trace": _trace_text(), "warm_ranges": warm_ranges}]},
                f"runs[1].warm_ranges[{bad}]",
            ),
        ):
            started = time.monotonic()
            status, body = _request(server_port, "/simulate", payload)
            assert time.monotonic() - started < 1.0
            assert status == 400, body
            assert body["field"] == field

    def test_warm_ranges_at_the_line_cap_are_accepted(self):
        from repro.serve.params import MAX_WARM_LINES, parse_warm_ranges

        ranges = [[0, 64 * (MAX_WARM_LINES - 1)], [1 << 40, 64]]
        assert parse_warm_ranges(ranges) == [tuple(pair) for pair in ranges]
        assert parse_warm_ranges([[-(2**62) + 1, 0]]) == [(-(2**62) + 1, 0)]

    def test_exceeding_client_max_cycles_is_tagged_400(self, server_port):
        # The client chose the bound, so overrunning it is a 400 on that
        # run's max_cycles field, not a server error.
        short = {"preset": "a72", "max_cycles": 5}
        for payload, field in (
            ({"trace": _trace_text(), "config": short}, "config.max_cycles"),
            (
                {"runs": [{"trace": _trace_text()},
                          {"trace": _trace_text(), "config": short}]},
                "runs[1].config.max_cycles",
            ),
        ):
            started = time.monotonic()
            status, body = _request(server_port, "/simulate", payload)
            assert time.monotonic() - started < 1.0
            assert status == 400, body
            assert body["field"] == field
            assert "max_cycles=5" in body["error"]

    def test_engine_deadlock_stays_a_server_error(self, monkeypatch):
        # "No progress possible" breaks an engine invariant: not the
        # client's fault, so it must not become a 400.
        from repro.serve import service
        from repro.sim.core import DeadlockError

        def deadlock(*args, **kwargs):
            raise DeadlockError("no progress possible at cycle 7")

        monkeypatch.setattr(service.api, "simulate", deadlock)
        with pytest.raises(DeadlockError) as info:
            ServeApp().handle_simulate({"trace": _trace_text()})
        assert not isinstance(info.value, RequestError)


class TestLimitsAndRouting:
    def test_oversize_request_is_413(self):
        server = make_server(port=0, max_request_bytes=256)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            big = dict(EVALUATE_QUERY, padding="x" * 1024)
            status, body = _request(port, "/evaluate", big)
            assert status == 413
            assert "limit" in body["error"]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_unknown_endpoint_is_404(self, server_port):
        status, body = _request(server_port, "/nope", {"x": 1})
        assert status == 404

    def test_get_on_post_endpoint_is_404(self, server_port):
        status, _ = _request(server_port, "/evaluate")
        assert status == 404

    def test_request_metrics_recorded(self, server_port):
        from repro.obs.metrics import get_registry

        registry = get_registry()
        before = registry.counter("serve.requests.evaluate").value
        _request(server_port, "/evaluate", EVALUATE_QUERY)
        assert registry.counter("serve.requests.evaluate").value == before + 1


def _strict_loads(raw: bytes):
    """Parse as an RFC 8259-strict client would: bare NaN/Infinity fail."""

    def _reject(token):
        raise ValueError(f"non-standard JSON constant {token!r}")

    return json.loads(raw, parse_constant=_reject)


def _heap_trace_text():
    from repro.workloads import HeapWorkloadSpec, generate_heap_program

    program = generate_heap_program(HeapWorkloadSpec(slots=100, seed=7))
    buffer = io.StringIO()
    dump_trace(program.baseline, buffer)
    return buffer.getvalue()


class TestStrictJson:
    """Every response must parse under a strict (non-Python) JSON reader.

    ``json.dumps`` defaults to emitting bare ``NaN``/``Infinity`` tokens
    for non-finite floats — the model emits ``inf`` speedups for
    degenerate cells (zero-latency accelerator at full coverage), which
    used to make the whole ``/sweep`` response unparseable outside
    Python.
    """

    def test_sweep_with_infinite_cells_is_strict_json(self, server_port):
        payload = {
            "kind": "fraction",
            "x": [0.5, 1.0],
            "granularity": 1,
            "core": "a72",
            "accelerator": {"latency": 0.0},
        }
        req = urllib.request.Request(
            f"http://127.0.0.1:{server_port}/sweep",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(req, timeout=30) as resp:
            raw = resp.read()
            assert resp.status == 200
        body = _strict_loads(raw)  # must not hit a bare Infinity token
        speedups = body["result"]["speedups"]
        flat = [value for series in speedups.values() for value in series]
        assert "Infinity" in flat  # the sentinel string survives
        assert all(
            isinstance(value, (int, float)) or value == "Infinity"
            for value in flat
        )

    def test_json_safe_sanitizes_every_nonfinite_shape(self):
        from repro.serve.service import _json_safe

        payload = {
            "nan": float("nan"),
            "nested": [{"inf": float("inf")}, (float("-inf"), 1.5)],
        }
        safe = _json_safe(payload)
        assert safe["nan"] is None
        assert safe["nested"][0]["inf"] == "Infinity"
        assert safe["nested"][1] == ["-Infinity", 1.5]
        # allow_nan=False round-trips cleanly once sanitized
        _strict_loads(json.dumps(safe, allow_nan=False).encode("utf-8"))


class TestSimulateSampling:
    SAMPLING = {
        "interval": 200,
        "period": 4,
        "warmup": 100,
        "head": 400,
        "min_instructions": 1000,
    }

    def test_sampled_run_reports_mode_and_confidence(self, server_port):
        text = _heap_trace_text()
        payload = {
            "runs": [
                {"trace": text, "config": "a72"},
                {"trace": text, "config": "a72", "sampling": self.SAMPLING},
                {"trace": text, "config": "a72", "sampling": "exact"},
            ]
        }
        status, body = _request(server_port, "/simulate", payload)
        assert status == 200
        exact, sampled, forced = body["results"]
        assert exact["sim_mode"] == forced["sim_mode"] == "exact"
        assert sampled["sim_mode"] == "sampled"
        assert sampled["sampling"]["windows"] >= 2
        assert sampled["sampling"]["confidence"]["cycles"]["ci95"] >= 0
        # explicit exact-mode sampling is byte-identical to the default
        assert forced["stats"] == exact["stats"]
        # the sampled estimate lands near the oracle even on this short
        # trace (the tight acceptance bound lives in test_sim_sample)
        truth = exact["stats"]["cycles"]
        assert abs(sampled["stats"]["cycles"] - truth) / truth < 0.10

    def test_a_plan_costlier_than_the_exact_run_answers_exact(self, server_port):
        # One-instruction windows over the 26,760-instruction heap x6
        # trace would be 26,760 segment runs; the exact run is one.
        from repro.isa.trace import Trace
        from repro.workloads import HeapWorkloadSpec, generate_heap_program

        unit = generate_heap_program(HeapWorkloadSpec(slots=100, seed=7)).baseline
        buffer = io.StringIO()
        dump_trace(Trace(unit.instructions * 6), buffer)
        every = {"interval": 1, "period": 1, "warmup": 0, "head": 0, "min_instructions": 0}
        payload = {
            "runs": [
                {"trace": buffer.getvalue(), "config": "a72", "sampling": every},
                {"trace": buffer.getvalue(), "config": "a72"},
            ]
        }
        status, body = _request(server_port, "/simulate", payload)
        assert status == 200
        fallback, exact = body["results"]
        assert fallback["sim_mode"] == "exact"
        assert fallback["sampling"]["forced_exact"] == "costlier_than_exact"
        assert fallback["stats"] == exact["stats"]
        assert fallback["stats"]["instructions"] == 26_760

    def test_sampled_results_cache_with_their_mode(self, server_port):
        text = _heap_trace_text()
        run = {"trace": text, "config": "a72", "sampling": self.SAMPLING}
        status1, body1 = _request(server_port, "/simulate", run)
        status2, body2 = _request(server_port, "/simulate", run)
        assert status1 == status2 == 200
        assert body2["result"]["cached"]
        assert body2["result"]["sim_mode"] == "sampled"
        assert body2["result"]["sampling"] == body1["result"]["sampling"]

    def test_exact_sampling_shares_cache_with_default(self, server_port):
        text = _trace_text("share-check")
        _request(server_port, "/simulate", {"trace": text, "config": "a72"})
        status, body = _request(
            server_port,
            "/simulate",
            {"trace": text, "config": "a72", "sampling": "exact"},
        )
        assert status == 200
        assert body["result"]["cached"]  # exact mode keys like no sampling

    def test_bad_sampling_spec_is_structured_400(self, server_port):
        # JSON text spliced in raw: 1e400 decodes to inf, which json.dumps
        # would send as the non-standard token Infinity instead.
        template = json.dumps(
            {"trace": _trace_text(), "config": "a72", "sampling": {"interval": 0}}
        )
        for interval in ("0", "1e400", "1.9", "true"):
            raw = template.replace('"interval": 0', f'"interval": {interval}')
            status, body = _request(server_port, "/simulate", raw.encode("utf-8"))
            assert (status, body["field"]) == (400, "sampling"), interval

    def test_mode_counters_reach_metrics(self, server_port):
        text = _trace_text("metrics-mode")
        _request(server_port, "/simulate", {"trace": text, "config": "a72"})
        req = urllib.request.Request(
            f"http://127.0.0.1:{server_port}/metrics", method="GET"
        )
        with urllib.request.urlopen(req, timeout=30) as resp:
            page = resp.read().decode("utf-8")
        assert "serve_simulate_exact_runs" in page
