"""Asyncio HTTP front end for :class:`~repro.serving.TransformService`.

This is the step from "library" to "service": everything in
:mod:`repro.serving` used to be in-process, which caps a fitted PFR at one
python process per consumer. :class:`ServingServer` puts the existing
thread-safe :class:`~repro.serving.service.TransformService` behind a
stdlib-only HTTP/1.1 server so any client on the network can transform
rows, inspect the registry, and roll model versions forward or back.

Architecture
------------
One asyncio event loop owns the sockets: it accepts connections, parses
requests (keep-alive supported — the benchmark's persistent connections
depend on it) and writes responses. Request *work* — matmuls, registry
reads, promotion — runs on a pool of ``n_workers`` threads sharing one
read-only ``TransformService`` replica, so the loop never blocks on a
transform and slow requests cannot starve accepts.

Overload degrades, never balloons:

* request bodies above ``max_body_bytes`` are rejected with **413**
  before being read into memory, a request line over ``_LINE_LIMIT``
  bytes with **414** and a header line over it with **431**;
* at most ``max_queue`` requests are admitted concurrently (running +
  queued); the excess is refused immediately with **429**;
* a request that exceeds ``request_timeout`` seconds answers **503**
  (its worker thread finishes in the background — the client just stops
  waiting);
* reads run under one deadline per connection (a ``loop.call_at``
  timer, no task per request): a request whose first byte has arrived
  but which is not read in full within ``request_timeout`` seconds
  answers **408** and the connection closes, while a keep-alive
  connection idle for ``_IDLE_TIMEOUT`` seconds between requests closes
  silently;
* a client that half-closes inside the request line, the header block
  or the body gets **400** ("request truncated");
* malformed JSON, schema mismatches and wrong shapes map to **400**,
  unknown models/versions to **404**.

Hot swap: ``name`` / ``name@latest`` specs re-resolve through the
registry on *every* request, so ``POST /models/<name>/promote`` takes
effect for the next request while in-flight requests drain on the version
they already resolved — the versioned transform API guarantees each
response's ``model`` label and rows come from a single resolution, never
a torn mix.

Endpoints (all JSON unless noted)::

    POST /transform                  {"model": spec, "row": [...]} or
                                     {"model": spec, "rows": [[...], ...]}
    GET  /models                     registered models (latest each)
    GET  /models/<spec>              one record, all versions
    POST /models/<name>/promote      {"version": N} -> record
    GET  /drift                      per-model drift snapshots
    GET  /healthz                    {"status": "ok", ...}   (never queued)
    GET  /metrics                    Prometheus text format  (never queued)

A ``500`` body is ``{"error": "internal error"}``; the exception itself is
printed to stderr.

Lifecycle: construct the shared service with ``drift=True`` and
``GET /drift`` reports each warm model's windowed fidelity statistics
(see :class:`repro.lifecycle.DriftMonitor`). Refreshes run in their own
process (``python -m repro lifecycle watch``, a
:class:`repro.lifecycle.LifecycleController` over the same registry);
a version it registers + promotes takes effect on the next request
through the existing hot-swap path, no restart.

Run it from the CLI (``python -m repro serve --registry DIR``) or embed::

    from repro.serving import ModelRegistry, ServingServer, TransformService

    service = TransformService(ModelRegistry("models/"))
    with ServingServer(service, port=8321) as server:
        ...  # server.url -> "http://127.0.0.1:8321"
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import sys
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import unquote

from ..exceptions import ModelNotFoundError, ValidationError
from ..obs.export import format_prometheus
from ..obs.trace import span, trace_enabled
from .service import TransformService

__all__ = ["ServingServer"]

#: Maximum bytes in one request/header line (start_server's stream limit).
_LINE_LIMIT = 64 * 1024
_MAX_HEADERS = 100
#: Seconds a keep-alive connection may sit idle before the server closes it.
_IDLE_TIMEOUT = 300.0

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    414: "URI Too Long",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    """A request failure with a definite HTTP status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class _ReadDeadline:
    """The one read deadline of a connection.

    :meth:`arm` sets it ``seconds`` from now and :meth:`disarm` lifts it.
    One timer serves every request on the connection: it is re-created
    only when it has fired or a nearer deadline is armed, and a timer
    firing before the current deadline re-arms itself for it (a fresh
    ``call_later`` per read phase cost 10–25 µs more event-loop CPU per
    request). At expiry it sets :attr:`expired` and cancels the
    connection's task, so the pending read raises ``CancelledError``.
    """

    def __init__(self, loop, task):
        self._loop = loop
        self._task = task
        self._timer = None
        self._when = None
        self.expired = False

    def arm(self, seconds: float) -> None:
        self._when = when = self._loop.time() + seconds
        timer = self._timer
        if timer is not None:
            if timer.when() <= when:
                return
            timer.cancel()
        self._timer = self._loop.call_at(when, self._fire)

    def disarm(self) -> None:
        self._when = None

    def close(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _fire(self) -> None:
        self._timer = None
        if self._when is None:
            return
        if self._loop.time() < self._when:
            self._timer = self._loop.call_at(self._when, self._fire)
            return
        self.expired = True
        self._task.cancel()


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")


def _response(result) -> tuple:
    """``(status, content_type, payload)`` of a handler result; a dict
    is a 200 JSON body."""
    if isinstance(result, tuple):
        return result
    return 200, "application/json", _json_bytes(result)


def _record_json(record) -> dict:
    """JSON view of a :class:`~repro.serving.registry.ModelRecord`: its
    fields but the on-disk ``path``, plus its ``spec``."""
    out = {
        field.name: getattr(record, field.name)
        for field in dataclasses.fields(record)
        if field.name != "path"
    }
    out["spec"] = record.spec
    return out


def _parse_json_body(body: bytes) -> dict:
    if not body:
        raise _HttpError(400, "request body must be a JSON object")
    try:
        payload = json.loads(body)
    except (ValueError, RecursionError) as exc:
        # ValueError, not just JSONDecodeError: an integer literal past the
        # interpreter's digit limit raises a bare ValueError; nesting too
        # deep to parse raises RecursionError.
        raise _HttpError(400, f"request body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise _HttpError(400, "request body must be a JSON object")
    return payload


class ServingServer:
    """Stdlib asyncio HTTP server over one shared ``TransformService``.

    Parameters
    ----------
    service:
        The :class:`TransformService` replica every worker shares, or a
        registry/path handed to one.
    host, port:
        Bind address. ``port=0`` picks an ephemeral port (see
        :attr:`port` after :meth:`start`).
    n_workers:
        Threads executing request work off the event loop.
    max_queue:
        Bound on concurrently admitted requests (running + waiting for a
        worker). Excess requests are refused with 429 instead of queueing
        unboundedly.
    max_body_bytes:
        Request bodies above this answer 413 before the body is read.
    request_timeout:
        Seconds before an admitted request answers 503.
    """

    def __init__(
        self,
        service,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        n_workers: int = 8,
        max_queue: int = 512,
        max_body_bytes: int = 8 * 1024 * 1024,
        request_timeout: float = 30.0,
    ):
        if not isinstance(service, TransformService):
            service = TransformService(service)
        if n_workers < 1:
            raise ValidationError(f"n_workers must be >= 1; got {n_workers}")
        if max_queue < 1:
            raise ValidationError(f"max_queue must be >= 1; got {max_queue}")
        if max_body_bytes < 1:
            raise ValidationError(
                f"max_body_bytes must be >= 1; got {max_body_bytes}"
            )
        if request_timeout <= 0:
            raise ValidationError(
                f"request_timeout must be > 0; got {request_timeout}"
            )
        self.service = service
        self.host = host
        self._requested_port = int(port)
        self.n_workers = int(n_workers)
        self.max_queue = int(max_queue)
        self.max_body_bytes = int(max_body_bytes)
        self.request_timeout = float(request_timeout)
        self._pool: ThreadPoolExecutor | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._thread: threading.Thread | None = None
        self._bound_port: int | None = None
        self._inflight = 0  # touched only on the event-loop thread

    # ---------------------------------------------------------- lifecycle
    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._bound_port is None:
            return self._requested_port
        return self._bound_port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServingServer":
        """Bind the socket and serve from a background thread; returns self."""
        if self._thread is not None:
            raise ValidationError("ServingServer is already running")
        self._pool = ThreadPoolExecutor(
            max_workers=self.n_workers, thread_name_prefix="repro-http"
        )
        self._loop = asyncio.new_event_loop()
        ready = threading.Event()
        startup_error: list[BaseException] = []

        def _main() -> None:
            asyncio.set_event_loop(self._loop)
            try:
                self._loop.run_until_complete(self._open())
            except BaseException as exc:  # bind failure -> re-raised in start()
                startup_error.append(exc)
                ready.set()
                return
            ready.set()
            try:
                self._loop.run_forever()
            finally:
                self._loop.run_until_complete(self._shutdown())
                self._loop.close()

        self._thread = threading.Thread(
            target=_main, name="repro-http-loop", daemon=True
        )
        self._thread.start()
        ready.wait()
        if startup_error:
            self._thread.join()
            self._pool.shutdown(wait=False)
            self._thread = self._loop = self._pool = None
            raise startup_error[0]
        return self

    def close(self) -> None:
        """Stop accepting, tear down connections and workers. Idempotent."""
        if self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._pool.shutdown(wait=True, cancel_futures=True)
        self._thread = self._loop = self._server = self._pool = None
        self._bound_port = None

    def __enter__(self) -> "ServingServer":
        if self._thread is None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    async def _open(self) -> None:
        self._server = await asyncio.start_server(
            self._client_connected,
            self.host,
            self._requested_port,
            limit=_LINE_LIMIT,
        )
        self._bound_port = self._server.sockets[0].getsockname()[1]

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        current = asyncio.current_task()
        tasks = [t for t in asyncio.all_tasks() if t is not current]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    # --------------------------------------------------------- connection
    async def _client_connected(self, reader, writer) -> None:
        deadline = _ReadDeadline(asyncio.get_running_loop(), asyncio.current_task())
        try:
            while True:
                try:
                    request = await self._read_request(reader, deadline)
                except _HttpError as exc:
                    # Protocol-level failure: answer if the socket still
                    # works, then drop the connection (its framing is gone).
                    await self._write_response(
                        writer, exc.status, "application/json",
                        _json_bytes({"error": exc.message}), keep_alive=False,
                    )
                    return
                except ConnectionError:
                    return  # client hangup
                if request is None:
                    return  # clean EOF or idle timeout between requests
                method, path, headers, body = request
                keep_alive = (
                    headers.get("connection", "").lower() != "close"
                )
                status, content_type, payload = await self._dispatch(
                    method, path, body
                )
                await self._write_response(
                    writer, status, content_type, payload, keep_alive
                )
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            deadline.close()
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _read_request(self, reader, deadline: _ReadDeadline):
        """Read one request under the connection's deadline.

        Returns ``None`` on a clean EOF, or when the connection sat idle
        for ``_IDLE_TIMEOUT`` seconds before the request's first byte;
        raises ``_HttpError`` — **408** when a started request is not
        complete within ``request_timeout`` seconds.
        """
        deadline.arm(_IDLE_TIMEOUT)
        try:
            first = await reader.read(1)
        except asyncio.CancelledError:
            if deadline.expired:
                return None
            raise
        if not first:
            return None
        deadline.arm(self.request_timeout)
        try:
            request = await self._read_started(reader, first)
        except asyncio.CancelledError:
            if deadline.expired:
                raise _HttpError(
                    408,
                    f"request not complete within {self.request_timeout:g}s",
                ) from None
            raise
        deadline.disarm()
        return request

    async def _read_started(self, reader, first: bytes):
        """Parse the rest of a request whose first byte is ``first``."""
        try:
            request_line = first + await reader.readline()
        except ValueError:  # the stream's line limit
            raise _HttpError(
                414, f"request line longer than {_LINE_LIMIT} bytes"
            ) from None
        if not request_line.endswith(b"\n"):
            raise _HttpError(400, "request truncated inside its request line")
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _HttpError(400, "malformed HTTP request line")
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                raise _HttpError(
                    431, f"header line longer than {_LINE_LIMIT} bytes"
                ) from None
            if line in (b"\r\n", b"\n"):
                break
            if not line.endswith(b"\n"):
                raise _HttpError(
                    400, "request truncated before the end of its headers"
                )
            if len(headers) >= _MAX_HEADERS:
                raise _HttpError(431, "too many request headers")
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _HttpError(400, f"malformed header line {name.strip()!r}")
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            raise _HttpError(501, "chunked request bodies are not supported")
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpError(400, "malformed Content-Length header") from None
        if length < 0:
            raise _HttpError(400, "malformed Content-Length header")
        if length > self.max_body_bytes:
            raise _HttpError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{self.max_body_bytes}-byte limit",
            )
        try:
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError as exc:
            raise _HttpError(
                400,
                f"request body truncated after {len(exc.partial)} of "
                f"{length} bytes",
            ) from None
        return method, target, headers, body

    async def _write_response(
        self, writer, status: int, content_type: str, payload: bytes,
        keep_alive: bool,
    ) -> None:
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        with contextlib.suppress(ConnectionError):
            writer.write(head.encode("latin-1") + payload)
            await writer.drain()

    # ----------------------------------------------------------- dispatch
    async def _dispatch(self, method: str, path: str, body: bytes):
        """Route one request; returns ``(status, content_type, payload)``."""
        start = time.perf_counter()
        route = "other"
        content_type = "application/json"
        try:
            route, handler, needs_worker = self._route(method, path, body)
            if needs_worker:
                # Encoded on the worker too: formatting a batch's floats
                # on the loop would stall every other connection.
                status, content_type, payload = await self._run_on_worker(
                    route, lambda: _response(handler())
                )
            else:
                status, content_type, payload = _response(handler())
        except _HttpError as exc:
            status, payload = exc.status, _json_bytes({"error": exc.message})
        except ValidationError as exc:
            status = 404 if isinstance(exc, ModelNotFoundError) else 400
            payload = _json_bytes({"error": str(exc)})
        except Exception as exc:  # worker bug: log it, keep serving
            # The message can name paths or internals: it goes to stderr,
            # never into the response.
            status = 500
            payload = _json_bytes({"error": "internal error"})
            print(f"internal error on {method} {path}:", file=sys.stderr)
            traceback.print_exception(exc, file=sys.stderr)
        self._account(route, status, time.perf_counter() - start)
        return status, content_type, payload

    async def _run_on_worker(self, route: str, handler):
        """Admit ``handler`` onto the worker pool, bounded and timed."""
        if self._inflight >= self.max_queue:
            raise _HttpError(
                429,
                f"server overloaded: {self._inflight} requests already "
                f"admitted (max_queue={self.max_queue}); retry later",
            )
        self._inflight += 1
        try:
            call = self._traced(route, handler)
            return await asyncio.wait_for(
                asyncio.get_running_loop().run_in_executor(self._pool, call),
                self.request_timeout,
            )
        except (asyncio.TimeoutError, TimeoutError):
            raise _HttpError(
                503,
                f"request timed out after {self.request_timeout:g}s; "
                "the server is saturated — retry later",
            ) from None
        finally:
            self._inflight -= 1

    def _traced(self, route: str, handler):
        """Wrap worker execution in an ``http.request`` span when tracing."""
        if not trace_enabled():
            return handler

        def call():
            with span("http.request", route=route):
                return handler()

        return call

    def _route(self, method: str, path: str, body: bytes):
        """Resolve ``(route_label, handler, needs_worker)`` or raise 404/405."""
        path = path.split("?", 1)[0]
        if path == "/healthz":
            self._require(method, "GET", path)
            return "/healthz", self._do_health, False
        if path == "/metrics":
            self._require(method, "GET", path)
            return "/metrics", self._do_metrics, False
        if path == "/transform":
            self._require(method, "POST", path)
            return "/transform", lambda: self._do_transform(body), True
        if path == "/drift":
            # On the worker pool (unlike /metrics): drift_status takes the
            # service load lock, which a cold model load can hold for a
            # while — the event loop must never wait on it.
            self._require(method, "GET", path)
            return "/drift", self.service.drift_status, True
        if path == "/models":
            self._require(method, "GET", path)
            return "/models", self._do_models_list, True
        if path.startswith("/models/"):
            rest = unquote(path[len("/models/"):])
            segments = rest.split("/")
            if len(segments) == 1 and segments[0]:
                self._require(method, "GET", path)
                spec = segments[0]
                return "/models/{spec}", lambda: self._do_model_show(spec), True
            if len(segments) == 2 and segments[0] and segments[1] == "promote":
                self._require(method, "POST", path)
                name = segments[0]
                return (
                    "/models/{name}/promote",
                    lambda: self._do_promote(name, body),
                    True,
                )
        raise _HttpError(404, f"no route for {path!r}")

    @staticmethod
    def _require(method: str, expected: str, path: str) -> None:
        if method != expected:
            raise _HttpError(
                405, f"{path} only accepts {expected}, not {method}"
            )

    # ----------------------------------------------------------- handlers
    def _do_health(self) -> dict:
        # Deliberately lock-free and never queued: health must answer even
        # while every worker is busy and a cold model is deserializing.
        return {
            "status": "ok",
            "inflight": self._inflight,
            "workers": self.n_workers,
            "max_queue": self.max_queue,
        }

    def _do_metrics(self):
        metrics = self.service.metrics
        metrics.set_gauge("http.inflight", float(self._inflight))
        metrics.set_gauge("http.max_queue", float(self.max_queue))
        self.service.publish_cache_gauges()
        payload = format_prometheus(metrics.snapshot()).encode("utf-8")
        return 200, "text/plain; version=0.0.4; charset=utf-8", payload

    def _do_transform(self, body: bytes) -> dict:
        payload = _parse_json_body(body)
        spec = payload.get("model")
        if not isinstance(spec, str) or not spec:
            raise _HttpError(400, "'model' must be a model spec string")
        has_row = "row" in payload
        has_rows = "rows" in payload
        if has_row == has_rows:
            raise _HttpError(
                400, "provide exactly one of 'row' (single) or 'rows' (batch)"
            )
        if has_row:
            served_spec, z = self.service.transform_one_versioned(
                spec, payload["row"]
            )
            return {"model": served_spec, "row": z.tolist()}
        served_spec, Z = self.service.transform_versioned(spec, payload["rows"])
        return {"model": served_spec, "rows": Z.tolist()}

    def _do_models_list(self) -> dict:
        records = self.service.registry.list_models()
        return {"models": [_record_json(record) for record in records]}

    def _do_model_show(self, spec: str) -> dict:
        registry = self.service.registry
        name, version = registry.resolve(spec)
        record = registry.record(name, version)
        out = _record_json(record)
        out["all_versions"] = [r.version for r in registry.versions(name)]
        return out

    def _do_promote(self, name: str, body: bytes) -> dict:
        payload = _parse_json_body(body)
        version = payload.get("version")
        if not isinstance(version, int) or isinstance(version, bool):
            raise _HttpError(400, "'version' must be an integer")
        record = self.service.registry.promote(name, version)
        return _record_json(record)

    # --------------------------------------------------------- accounting
    def _account(self, route: str, status: int, seconds: float) -> None:
        metrics = self.service.metrics
        metrics.inc("http.requests", route=route, status=str(status))
        metrics.observe("http.request_seconds", seconds, route=route)
