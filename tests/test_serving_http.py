"""Tests for repro.serving.http — the ServingServer HTTP front end.

Everything talks to a real socket on 127.0.0.1 (ephemeral ports), through
``http.client`` for well-formed requests and a raw socket where the test
needs to send protocol garbage.
"""

import dataclasses
import http.client
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro import PFR
from repro.graphs import pairwise_judgment_graph
from repro.serving import (
    ModelRecord,
    ModelRegistry,
    ServingServer,
    TransformService,
)


@pytest.fixture(scope="module")
def fitted():
    """Two fitted PFR versions (different n_components so outputs differ)."""
    rng = np.random.default_rng(12345)
    X = rng.normal(size=(60, 5))
    WF1 = pairwise_judgment_graph([(0, 1), (4, 9)], n=60)
    model_v1 = PFR(n_components=2, gamma=0.5, n_neighbors=4).fit(X, WF1)
    WF2 = pairwise_judgment_graph([(2, 3)], n=60)
    model_v2 = PFR(n_components=3, gamma=0.2, n_neighbors=4).fit(X, WF2)
    return X, model_v1, model_v2


@pytest.fixture
def registry(fitted, tmp_path):
    _, model_v1, _ = fitted
    registry = ModelRegistry(tmp_path / "registry")
    registry.register("pfr", model_v1)
    return registry


@pytest.fixture
def server(registry):
    with ServingServer(TransformService(registry), n_workers=4) as srv:
        yield srv


def _call(server, method, path, payload=None, body=None, headers=None):
    """One request over a fresh connection; returns (status, parsed, resp)."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        if payload is not None:
            body = json.dumps(payload)
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        raw = response.read()
        content_type = response.headers.get("Content-Type", "")
        parsed = (
            json.loads(raw) if content_type.startswith("application/json")
            else raw.decode("utf-8")
        )
        return response.status, parsed, response
    finally:
        conn.close()


class TestLifecycle:
    def test_ephemeral_port_and_url(self, server):
        assert server.port > 0
        assert server.url == f"http://127.0.0.1:{server.port}"

    def test_close_is_idempotent(self, registry):
        srv = ServingServer(TransformService(registry)).start()
        srv.close()
        srv.close()

    def test_double_start_rejected(self, server):
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError, match="already running"):
            server.start()

    def test_bind_failure_raised_in_start(self, registry, server):
        clash = ServingServer(TransformService(registry), port=server.port)
        with pytest.raises(OSError):
            clash.start()

    def test_bad_parameters(self, registry):
        from repro.exceptions import ValidationError

        service = TransformService(registry)
        for kwargs in (
            {"n_workers": 0},
            {"max_queue": 0},
            {"max_body_bytes": 0},
            {"request_timeout": 0.0},
        ):
            with pytest.raises(ValidationError):
                ServingServer(service, **kwargs)


class TestHealthAndMetrics:
    def test_healthz(self, server):
        status, body, _ = _call(server, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["workers"] == 4

    def test_metrics_prometheus_format(self, fitted, server):
        X, model_v1, _ = fitted
        _call(server, "POST", "/transform",
              payload={"model": "pfr", "rows": X[:3].tolist()})
        status, text, response = _call(server, "GET", "/metrics")
        assert status == 200
        assert response.headers["Content-Type"].startswith("text/plain")
        assert "# TYPE repro_http_requests_total counter" in text
        assert 'route="/transform"' in text
        assert 'status="200"' in text
        assert "repro_http_inflight" in text
        assert "repro_serving_rows_total" in text

    def test_metrics_export_cache_gauges(self, fitted, server):
        # One fresh batch posted three times: recorded, stored, hit.
        X, _, _ = fitted
        n = 7
        for _ in range(3):
            status, _, _ = _call(server, "POST", "/transform",
                                 payload={"model": "pfr@1", "rows": X[:n].tolist()})
            assert status == 200
        _, text, _ = _call(server, "GET", "/metrics")
        gauges = {
            line.split("{")[0]: float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_serving_cache_") and 'model="pfr@1"' in line
        }
        assert gauges == {
            "repro_serving_cache_size": n,
            "repro_serving_cache_hits": n,
            "repro_serving_cache_misses": 2 * n,
            "repro_serving_cache_declined": n,
        }
        assert "# TYPE repro_serving_cache_size gauge" in text


class TestTransform:
    def test_single_row(self, fitted, server):
        X, model_v1, _ = fitted
        status, body, _ = _call(
            server, "POST", "/transform",
            payload={"model": "pfr", "row": X[0].tolist()},
        )
        assert status == 200
        assert body["model"] == "pfr@1"
        np.testing.assert_allclose(
            body["row"], model_v1.transform(X[:1])[0], atol=1e-10
        )

    def test_batch_rows(self, fitted, server):
        X, model_v1, _ = fitted
        status, body, _ = _call(
            server, "POST", "/transform",
            payload={"model": "pfr@latest", "rows": X[:5].tolist()},
        )
        assert status == 200
        assert body["model"] == "pfr@1"
        np.testing.assert_allclose(
            body["rows"], model_v1.transform(X[:5]), atol=1e-10
        )

    def test_spec_forms_agree(self, fitted, server):
        X, *_ = fitted
        results = []
        for spec in ("pfr", "pfr@latest", "pfr@1"):
            status, body, _ = _call(
                server, "POST", "/transform",
                payload={"model": spec, "row": X[0].tolist()},
            )
            assert status == 200
            results.append(body["row"])
        np.testing.assert_allclose(results[0], results[1])
        np.testing.assert_allclose(results[0], results[2])

    def test_keep_alive_reuses_connection(self, fitted, server):
        X, *_ = fitted
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            for _ in range(3):
                conn.request(
                    "POST", "/transform",
                    body=json.dumps({"model": "pfr", "row": X[0].tolist()}),
                )
                response = conn.getresponse()
                assert response.status == 200
                response.read()
        finally:
            conn.close()


    def test_worker_routes_encode_on_the_worker(self, fitted, server,
                                                monkeypatch):
        # A worker route's JSON body is encoded by the worker that computed
        # it: float formatting on the event-loop thread would stall every
        # other connection. The bytes are the sorted-key JSON line.
        import repro.serving.http as http_module

        X, model_v1, _ = fitted
        encoders = []
        encode = http_module._json_bytes

        def spy(obj):
            encoders.append(threading.current_thread().name)
            return encode(obj)

        monkeypatch.setattr(http_module, "_json_bytes", spy)
        requests = [
            ("POST", "/transform", {"model": "pfr", "rows": X[:4].tolist()}),
            ("POST", "/transform", {"model": "pfr@1", "row": X[5].tolist()}),
            ("GET", "/models", None),
            ("GET", "/models/pfr", None),
            ("GET", "/drift", None),
            ("POST", "/models/pfr/promote", {"version": 1}),
        ]
        for method, path, payload in requests:
            assert _call(server, method, path, payload=payload)[0] == 200
        assert len(encoders) == len(requests)
        assert all(name.startswith("repro-http_") for name in encoders), encoders

        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            conn.request("POST", "/transform", body=json.dumps(
                {"model": "pfr", "rows": X[:4].tolist()}))
            raw = conn.getresponse().read()
        finally:
            conn.close()
        expected = {"model": "pfr@1", "rows": model_v1.transform(X[:4]).tolist()}
        assert raw == (json.dumps(expected, sort_keys=True) + "\n").encode()


class TestInternalErrors:
    def test_500_body_hides_the_exception(self, fitted, server, monkeypatch,
                                          capsys):
        # Regression: a 500 body echoed "type: message", so a worker bug
        # whose message named a path leaked it to the client.
        X, _, _ = fitted
        serve = server.service.transform_versioned
        calls = []

        def buggy(spec, rows):
            calls.append(spec)
            if len(calls) == 1:
                raise RuntimeError("cannot read /srv/secret/weights.npz")
            return serve(spec, rows)

        monkeypatch.setattr(server.service, "transform_versioned", buggy)
        payload = {"model": "pfr", "rows": X[:2].tolist()}
        status, body, _ = _call(server, "POST", "/transform", payload=payload)
        assert status == 500
        assert body == {"error": "internal error"}
        assert "/srv/secret" in capsys.readouterr().err
        status, body, _ = _call(server, "POST", "/transform", payload=payload)
        assert status == 200
        assert len(body["rows"]) == 2


class TestTransformValidation:
    @pytest.mark.parametrize("payload,fragment", [
        ({"row": [1, 2, 3, 4, 5]}, "model"),
        ({"model": 7, "row": [1, 2, 3, 4, 5]}, "model"),
        ({"model": "pfr"}, "exactly one"),
        ({"model": "pfr", "row": [1.0] * 5, "rows": [[1.0] * 5]},
         "exactly one"),
        ({"model": "pfr", "row": ["a", "b"]}, "numeric"),
        ({"model": "pfr", "row": [[1.0] * 5]}, "flat array"),
        ({"model": "pfr", "rows": [1.0] * 5}, "equal-length"),
        ({"model": "pfr", "rows": [[1.0, 2.0], [3.0]]}, "numeric"),
        ({"model": "pfr", "row": [1.0, 2.0]}, "schema mismatch"),
    ])
    def test_400s(self, server, payload, fragment):
        status, body, _ = _call(server, "POST", "/transform", payload=payload)
        assert status == 400
        assert fragment in body["error"]

    def test_malformed_json_body(self, server):
        status, body, _ = _call(server, "POST", "/transform", body="{nope")
        assert status == 400
        assert "not valid JSON" in body["error"]

    def test_non_object_json_body(self, server):
        status, body, _ = _call(server, "POST", "/transform", body="[1,2]")
        assert status == 400
        assert "JSON object" in body["error"]

    @pytest.mark.parametrize("body", [
        # An integer too large for float64 (OverflowError on coercion).
        '{"model": "pfr", "row": [1%s, 1, 2, 3, 4]}' % ("0" * 400),
        '{"model": "pfr", "rows": [[1%s, 1, 2, 3, 4]]}' % ("0" * 400),
        # An integer literal past the interpreter's digit limit (json.loads
        # raises a bare ValueError, not JSONDecodeError).
        '{"model": "pfr", "row": [%s, 1, 2, 3, 4]}' % ("9" * 5000),
        # Nesting too deep to parse (RecursionError).
        '{"model": "pfr", "row": %s1%s}' % ("[" * 100_000, "]" * 100_000),
    ], ids=["overflow-row", "overflow-rows", "digit-limit", "deep-nesting"])
    def test_unrepresentable_input_answers_400(self, server, body):
        status, answer, _ = _call(server, "POST", "/transform", body=body)
        assert status == 400, answer
        # The worker survived: the next valid request is served.
        assert _call(
            server, "POST", "/transform",
            payload={"model": "pfr", "row": [1.0] * 5},
        )[0] == 200

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity",
                                         "1e400"])
    @pytest.mark.parametrize("field", ["row", "rows"])
    def test_non_finite_answers_400(self, server, literal, field):
        values = f"[{literal}, 1, 2, 3, 4]"
        if field == "rows":
            values = f"[[1, 2, 3, 4, 5], {values}]"
        body = f'{{"model": "pfr", "{field}": {values}}}'
        status, answer, _ = _call(server, "POST", "/transform", body=body)
        assert status == 400
        assert "NaN or infinity" in answer["error"]
        assert _call(
            server, "POST", "/transform",
            payload={"model": "pfr", "rows": [[1.0] * 5]},
        )[0] == 200

    def test_unknown_model_404(self, server):
        status, body, _ = _call(
            server, "POST", "/transform",
            payload={"model": "ghost", "row": [1.0] * 5},
        )
        assert status == 404
        assert "unknown model" in body["error"]

    def test_unknown_version_404(self, server):
        status, body, _ = _call(
            server, "POST", "/transform",
            payload={"model": "pfr@99", "row": [1.0] * 5},
        )
        assert status == 404


class TestRouting:
    def test_unknown_route_404(self, server):
        status, body, _ = _call(server, "GET", "/nope")
        assert status == 404

    def test_method_not_allowed(self, server):
        for method, path in (
            ("GET", "/transform"),
            ("POST", "/healthz"),
            ("POST", "/metrics"),
            ("POST", "/models"),
            ("GET", "/models/pfr/promote"),
        ):
            status, body, _ = _call(server, method, path)
            assert status == 405, (method, path)

    def test_query_string_ignored(self, server):
        status, body, _ = _call(server, "GET", "/healthz?verbose=1")
        assert status == 200


class TestModelsEndpoints:
    def test_models_list(self, server):
        status, body, _ = _call(server, "GET", "/models")
        assert status == 200
        (record,) = body["models"]
        assert record["name"] == "pfr"
        assert record["version"] == 1
        assert record["model_type"] == "PFR"
        assert record["n_features_in"] == 5

    def test_model_show(self, fitted, registry, server):
        _, _, model_v2 = fitted
        registry.register("pfr", model_v2)
        status, body, _ = _call(server, "GET", "/models/pfr@1")
        assert status == 200
        assert body["spec"] == "pfr@1"
        assert body["all_versions"] == [1, 2]
        assert body["is_latest"] is False
        # Every manifest field but the on-disk path, so none is forgotten.
        fields = {field.name for field in dataclasses.fields(ModelRecord)}
        assert set(body) == fields - {"path"} | {"spec", "all_versions"}

    def test_model_show_unknown_404(self, server):
        status, body, _ = _call(server, "GET", "/models/ghost")
        assert status == 404

    def test_promote_flips_latest(self, fitted, registry, server):
        X, model_v1, model_v2 = fitted
        registry.register("pfr", model_v2)  # pfr@2 becomes latest

        def latest_width():
            _, body, _ = _call(
                server, "POST", "/transform",
                payload={"model": "pfr@latest", "row": X[0].tolist()},
            )
            return body["model"], len(body["row"])

        assert latest_width() == ("pfr@2", 3)
        status, body, _ = _call(
            server, "POST", "/models/pfr/promote", payload={"version": 1},
        )
        assert status == 200
        assert body["spec"] == "pfr@1"
        assert body["is_latest"] is True
        assert latest_width() == ("pfr@1", 2)

    @pytest.mark.parametrize("version", ["1", 1.5, True, None])
    def test_promote_requires_integer_version(self, server, version):
        status, body, _ = _call(
            server, "POST", "/models/pfr/promote",
            payload={"version": version},
        )
        assert status == 400
        assert "integer" in body["error"]

    def test_promote_unknown_version_404(self, server):
        status, body, _ = _call(
            server, "POST", "/models/pfr/promote", payload={"version": 42},
        )
        assert status == 404


class TestProtocolEdges:
    def _raw(self, server, data: bytes) -> bytes:
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            sock.sendall(data)
            sock.settimeout(10)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        return b"".join(chunks)

    def test_malformed_request_line(self, server):
        response = self._raw(server, b"GARBAGE\r\n\r\n")
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"malformed HTTP request line" in response

    def test_malformed_header(self, server):
        response = self._raw(
            server, b"GET /healthz HTTP/1.1\r\nnot a header\r\n\r\n"
        )
        assert response.startswith(b"HTTP/1.1 400 ")

    def test_chunked_body_not_implemented(self, server):
        response = self._raw(
            server,
            b"POST /transform HTTP/1.1\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n",
        )
        assert response.startswith(b"HTTP/1.1 501 ")

    def test_bad_content_length(self, server):
        response = self._raw(
            server,
            b"POST /transform HTTP/1.1\r\nContent-Length: nan\r\n\r\n",
        )
        assert response.startswith(b"HTTP/1.1 400 ")

    # Lines over the server's 64 KiB line limit get an answer, and the
    # server goes on serving.
    def test_overlong_request_line_414(self, server):
        path = b"/" + b"a" * 70_000
        response = self._raw(
            server, b"GET " + path + b" HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert response.startswith(b"HTTP/1.1 414 URI Too Long\r\n")
        assert b"request line longer than" in response
        assert _call(server, "GET", "/healthz")[0] == 200

    def test_overlong_header_line_431(self, server):
        response = self._raw(
            server,
            b"GET /healthz HTTP/1.1\r\nX-Big: " + b"b" * 70_000 + b"\r\n\r\n",
        )
        assert response.startswith(
            b"HTTP/1.1 431 Request Header Fields Too Large\r\n"
        )
        assert b"header line longer than" in response
        assert _call(server, "GET", "/healthz")[0] == 200

    def test_oversized_body_413(self, registry):
        with ServingServer(
            TransformService(registry), max_body_bytes=64
        ) as small:
            payload = {"model": "pfr", "rows": [[1.0] * 5] * 100}
            status, body, _ = _call(
                small, "POST", "/transform", payload=payload
            )
            assert status == 413
            assert "exceeds" in body["error"]

    def test_connection_close_honored(self, fitted, server):
        X, *_ = fitted
        status, body, response = _call(
            server, "POST", "/transform",
            payload={"model": "pfr", "row": X[0].tolist()},
            headers={"Connection": "close"},
        )
        assert status == 200
        assert response.headers["Connection"] == "close"


def _exchange(server, data: bytes, *, half_close=False, wait=10.0):
    """Send raw bytes, read until the server closes; ``(reply, seconds)``.

    ``half_close`` shuts the client's write side after sending. A server
    that keeps the connection open past ``wait`` seconds fails the test.
    """
    start = time.perf_counter()
    with socket.create_connection((server.host, server.port), timeout=wait) as sock:
        sock.sendall(data)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks), time.perf_counter() - start


class TestTruncatedRequests:
    """A client that half-closes mid-request gets 400, and serving goes on."""

    @pytest.mark.parametrize("data", [
        b"GET /healthz HTTP/1.1",
        b"GET /healthz HTTP/1.1\r\nHost: x",
        b"GET /healthz HTTP/1.1\r\nHost: x\r\n",
        b"POST /transform HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
        b'{"model": ',
    ], ids=["request-line", "header-line", "header-block", "body"])
    def test_half_close_answers_400(self, server, data):
        reply, _ = _exchange(server, data, half_close=True)
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"truncated" in reply
        assert b"Connection: close" in reply
        assert _call(server, "GET", "/healthz")[0] == 200

    def test_complete_request_then_half_close_answers(self, server):
        reply, _ = _exchange(
            server, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
            half_close=True,
        )
        assert reply.startswith(b"HTTP/1.1 200 ")


class TestReadDeadline:
    """A started request must complete within ``request_timeout`` (408);
    an idle keep-alive connection closes silently after ``_IDLE_TIMEOUT``."""

    @pytest.fixture
    def quick(self, registry):
        with ServingServer(
            TransformService(registry), n_workers=2, request_timeout=0.3
        ) as srv:
            yield srv

    @pytest.mark.parametrize("data", [
        b"POS",
        b"POST /transform HTTP/1.1\r\n",
        b"POST /transform HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
        b"0123456789",
    ], ids=["request-line", "headers", "body"])
    def test_stalled_request_answers_408(self, quick, data):
        reply, seconds = _exchange(quick, data)
        assert reply.startswith(b"HTTP/1.1 408 ")
        assert b"not complete within 0.3s" in reply
        assert b"Connection: close" in reply
        assert 0.25 <= seconds < 5.0
        assert _call(quick, "GET", "/healthz")[0] == 200

    def test_idle_connection_closes_silently(self, quick, monkeypatch):
        from repro.serving import http as http_module

        monkeypatch.setattr(http_module, "_IDLE_TIMEOUT", 0.3)
        reply, seconds = _exchange(quick, b"")
        assert reply == b""
        assert 0.25 <= seconds < 5.0

    def test_slow_request_within_timeout_served(self, registry, monkeypatch):
        # Sent in pieces over more than the idle timeout, but within
        # request_timeout: the connection's one timer fires early and
        # re-arms itself for the request's deadline.
        from repro.serving import http as http_module

        monkeypatch.setattr(http_module, "_IDLE_TIMEOUT", 0.3)
        with ServingServer(TransformService(registry), request_timeout=2.0) as srv:
            with socket.create_connection((srv.host, srv.port), timeout=10) as sock:
                for piece in (b"GET /heal", b"thz HTTP/1.1\r\n", b"\r\n"):
                    sock.sendall(piece)
                    time.sleep(0.2)
                assert sock.recv(65536).startswith(b"HTTP/1.1 200 ")

    def test_connection_in_use_stays_open(self, fitted, registry, monkeypatch):
        # Requests spaced under the idle timeout, each taking longer to
        # serve than it, keep one connection alive well past it: the
        # deadline covers reads only.
        from repro.serving import http as http_module

        monkeypatch.setattr(http_module, "_IDLE_TIMEOUT", 0.3)
        X, model, _ = fitted

        class _Slow(TransformService):
            def transform_one_versioned(self, spec, row):
                time.sleep(0.4)
                return super().transform_one_versioned(spec, row)

        with ServingServer(_Slow(registry), request_timeout=2.0) as srv:
            conn = http.client.HTTPConnection(srv.host, srv.port, timeout=10)
            try:
                start = time.perf_counter()
                for x in X[:4]:
                    conn.request("POST", "/transform", body=json.dumps(
                        {"model": "pfr", "row": x.tolist()}
                    ))
                    response = conn.getresponse()
                    body = json.loads(response.read())
                    assert response.status == 200
                    np.testing.assert_allclose(
                        body["row"], model.transform(x[None])[0]
                    )
                    time.sleep(0.2)
                assert time.perf_counter() - start > 4 * 0.3
            finally:
                conn.close()


class _GatedService(TransformService):
    """TransformService whose single-row path blocks until released."""

    def __init__(self, registry, **kwargs):
        super().__init__(registry, **kwargs)
        self.started = threading.Event()
        self.release = threading.Event()

    def transform_one_versioned(self, spec, row):
        self.started.set()
        self.release.wait(30.0)
        return super().transform_one_versioned(spec, row)


class TestOverload:
    def test_queue_full_answers_429(self, registry, fitted):
        X, *_ = fitted
        service = _GatedService(registry)
        with ServingServer(service, n_workers=1, max_queue=1) as srv:
            try:
                payload = {"model": "pfr", "row": X[0].tolist()}
                slow = {}

                def blocked_client():
                    slow["response"] = _call(
                        srv, "POST", "/transform", payload=payload
                    )

                thread = threading.Thread(target=blocked_client)
                thread.start()
                assert service.started.wait(10.0)
                # One admitted request saturates max_queue=1: the next is
                # refused immediately instead of queueing behind it.
                status, body, _ = _call(
                    srv, "POST", "/transform", payload=payload
                )
                assert status == 429
                assert "overloaded" in body["error"]
                # Health stays answerable while the worker is saturated.
                assert _call(srv, "GET", "/healthz")[0] == 200
            finally:
                service.release.set()
            thread.join(10.0)
            assert not thread.is_alive()
            assert slow["response"][0] == 200

    def test_slow_request_answers_503(self, registry, fitted):
        X, *_ = fitted
        service = _GatedService(registry)
        with ServingServer(service, request_timeout=0.2) as srv:
            try:
                status, body, _ = _call(
                    srv, "POST", "/transform",
                    payload={"model": "pfr", "row": X[0].tolist()},
                )
                assert status == 503
                assert "timed out" in body["error"]
            finally:
                service.release.set()


class TestPromoteUnderLoad:
    def test_latest_is_never_torn_over_http(self, fitted, registry):
        # Clients hammer @latest over keep-alive connections while another
        # thread promotes back and forth over HTTP. Every response's
        # "model" label must match that version's expected output exactly —
        # a 2-wide row labeled pfr@2 (or vice versa) is a torn read.
        X, model_v1, model_v2 = fitted
        registry.register("pfr", model_v2)
        row = X[0]
        expected = {
            "pfr@1": model_v1.transform(row[None])[0],
            "pfr@2": model_v2.transform(row[None])[0],
        }
        errors = []
        stop = threading.Event()

        with ServingServer(TransformService(registry), n_workers=8) as srv:
            def flipper():
                conn = http.client.HTTPConnection(
                    srv.host, srv.port, timeout=10
                )
                version = 1
                try:
                    while not stop.is_set():
                        conn.request(
                            "POST", "/models/pfr/promote",
                            body=json.dumps({"version": version}),
                        )
                        response = conn.getresponse()
                        assert response.status == 200
                        response.read()
                        version = 3 - version
                        time.sleep(0.001)
                finally:
                    conn.close()

            def client():
                conn = http.client.HTTPConnection(
                    srv.host, srv.port, timeout=10
                )
                try:
                    for _ in range(60):
                        if errors:
                            return
                        conn.request(
                            "POST", "/transform",
                            body=json.dumps(
                                {"model": "pfr@latest", "row": row.tolist()}
                            ),
                        )
                        response = conn.getresponse()
                        body = json.loads(response.read())
                        if response.status != 200:
                            raise AssertionError(f"status {response.status}: {body}")
                        np.testing.assert_allclose(
                            body["row"], expected[body["model"]], atol=1e-10
                        )
                except Exception as exc:  # pragma: no cover - only on failure
                    errors.append(exc)
                finally:
                    conn.close()

            flip = threading.Thread(target=flipper)
            clients = [threading.Thread(target=client) for _ in range(4)]
            flip.start()
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join()
            stop.set()
            flip.join()
        assert not errors


class TestOnePath:
    """Every way into the service serves exactly the artifact's transform."""

    @pytest.fixture(params=["exact", "nystrom"])
    def registry(self, request, fitted, tmp_path):
        from repro.graphs import knn_graph

        X, model, _ = fitted
        if request.param == "nystrom":
            model = PFR(
                n_components=2, gamma=0.5, extension="nystrom", landmarks=30
            ).fit(X, knn_graph(X, n_neighbors=6))
        registry = ModelRegistry(tmp_path / "registry")
        registry.register("pfr", model)
        return registry

    def test_all_paths_bitwise_equal_to_loaded_model(self, registry, fitted):
        from repro.io import load_model

        X = fitted[0][:6] + 0.25
        loaded = load_model(registry.record("pfr").path)
        expected_rows = loaded.transform(X)
        expected_each = [loaded.transform(x[None, :])[0] for x in X]

        # One fresh service per path: a one-row and a many-row matmul may
        # round differently, and a shared cache would hand one path the
        # other's rows.
        Z = TransformService(registry).transform("pfr", X)
        assert np.array_equal(Z, expected_rows)
        service = TransformService(registry)
        for x, expected in zip(X, expected_each):
            assert np.array_equal(service.transform_one("pfr", x), expected)

        with ServingServer(TransformService(registry), n_workers=2) as srv:
            status, body, _ = _call(
                srv, "POST", "/transform",
                payload={"model": "pfr", "rows": X.tolist()},
            )
            assert status == 200
            assert np.array_equal(np.asarray(body["rows"]), expected_rows)
        with ServingServer(TransformService(registry), n_workers=2) as srv:
            for x, expected in zip(X, expected_each):
                status, body, _ = _call(
                    srv, "POST", "/transform",
                    payload={"model": "pfr", "row": x.tolist()},
                )
                assert status == 200
                assert np.array_equal(np.asarray(body["row"]), expected)


class TestDriftEndpoint:
    def test_drift_route(self, fitted, registry):
        X, *_ = fitted
        service = TransformService(registry, drift=True)
        with ServingServer(service, n_workers=2) as server:
            status, body, _ = _call(server, "GET", "/drift")
            assert status == 200
            assert body == {"enabled": True, "models": {}}
            _call(
                server,
                "POST",
                "/transform",
                payload={"model": "pfr@latest", "rows": X[:4].tolist()},
            )
            status, body, _ = _call(server, "GET", "/drift")
            assert status == 200
            # Exact fit: loaded, drift accounting unavailable -> None.
            assert body["models"] == {"pfr@1": None}

    def test_drift_rejects_post(self, fitted, registry):
        service = TransformService(registry, drift=True)
        with ServingServer(service, n_workers=2) as server:
            status, body, _ = _call(server, "POST", "/drift", payload={})
            assert status == 405

    def test_landmark_model_reports_snapshot(self, tmp_path):
        from repro.graphs import knn_graph

        rng = np.random.default_rng(8)
        X = rng.normal(size=(150, 4))
        model = PFR(
            n_components=2, gamma=0.5, extension="nystrom", landmarks=50
        ).fit(X, knn_graph(X, n_neighbors=6))
        registry = ModelRegistry(tmp_path / "registry")
        registry.register("pfr", model)
        service = TransformService(registry, drift=True, drift_floor=0.3)
        with ServingServer(service, n_workers=2) as server:
            _call(
                server,
                "POST",
                "/transform",
                payload={"model": "pfr@latest", "rows": X[:16].tolist()},
            )
            status, body, _ = _call(server, "GET", "/drift")
            assert status == 200
            snap = body["models"]["pfr@1"]
            assert snap["count"] > 0
            assert snap["floor"] == pytest.approx(0.3)

