"""The async HTTP/JSON application: routes onto one shared ``Session``.

Endpoints (all JSON; see the README's "Serving" section for curl examples):

============================  =================================================
``GET /healthz``              liveness probe
``GET /v1/figures``           every answerable figure/table
``GET /v1/figure/<id>``       one figure's rows — ``200`` warm, ``202`` cold
``POST /v1/sweep``            a ``SweepSpec`` record — ``200`` warm, ``202`` cold
``POST /v1/dse``              a ``DseSpec`` record — ``200`` warm, ``202`` cold
``GET /v1/dse/<key>``         a campaign's cached Pareto report (by spec key)
``GET /v1/jobs/<key>``        poll a background job — ``202`` running, ``200`` done
``GET /v1/cache/stats``       result-cache + runner telemetry
``POST /v1/work/*``           the fabric's claim/heartbeat/complete protocol*
``GET /v1/work/stats``        work-queue telemetry*
``GET /v1/cache/keys``        cache key inventory (replication)*
``GET /v1/cache/entry/<key>`` one raw entry, digest-verified (replication)*
============================  =================================================

The starred ``/v1/work`` and cache-replication routes
(:mod:`repro.fabric.api`) are mounted **only when the session's runner is
in remote pool mode** — run the server with ``REPRO_POOL=remote`` and
point ``python -m repro worker <url>`` processes at the same port; cold
figure/sweep jobs then execute on the workers while ``/v1/jobs`` progress
streams through from their remote completions.  A plain query server never
carries them: work uploads are pickled payloads, so the fabric surface is
strictly opt-in, and exposing it beyond loopback requires the shared
``REPRO_FABRIC_TOKEN`` secret (see :mod:`repro.fabric.api`).

Request handling never blocks the event loop on simulation: warm responses
are collated on a worker thread (``asyncio.to_thread``) and cold requests
run as background :class:`~repro.serve.executor.ServeJob` tasks.  Responses
carry a strong ``ETag`` derived from (request key, schema versions,
settings) — see :func:`repro.serve.wire.request_etag` — and
``If-None-Match`` is answered with ``304`` before any work happens.  The
``X-Repro-Jobs-Executed`` header reports how many simulation jobs a response
actually executed; a warm hit reports ``0``.

**Admission control** (see the README's "Operations & resilience"): every
non-fabric ``/v1/*`` route authenticates against the optional
``REPRO_API_KEYS`` registry (:mod:`repro.serve.auth`; ``401`` on failure,
open when unset), figure/sweep requests pass the per-key rate limit and —
when about to create a cold job — the daily cold quota
(:mod:`repro.serve.quota`; ``429`` with ``Retry-After``), and cold work
past the job-pool depth bound or during shutdown drain is shed with
``503`` + ``Retry-After``.  Warm answers and job polls are never shed.
Each request runs under the ``REPRO_REQUEST_DEADLINE`` wall budget;
``SIGTERM`` (or :meth:`BackgroundServer.close`) drains in-flight jobs for
``REPRO_DRAIN_SECONDS`` while refusing new cold work.
"""

from __future__ import annotations

import asyncio
import math
import signal
import sys
import threading

from repro import resilience
from repro.api.figures import get_figure
from repro.api.requests import FigureQuery
from repro.api.session import Session
from repro.serve.auth import ANONYMOUS, AuthError, Principal
from repro.serve.executor import (
    DONE,
    FAILED,
    SHED_RETRY_AFTER,
    Draining,
    JobManager,
    PoolSaturated,
    ServeJob,
)
from repro.serve.quota import AdmissionControl, Decision
from repro.serve.http import (
    ALLOWED_METHODS,
    MAX_BODY_BYTES,
    HttpError,
    Request,
    Response,
    body_bound_for_path,
    discard_input,
    encode_response,
    read_request,
)
from repro.serve import wire

#: Telemetry header: simulation jobs executed to produce this response.
EXECUTED_HEADER = "X-Repro-Jobs-Executed"


class ServeApp:
    """Router + connection handler over one session and its job manager."""

    def __init__(
        self, session: Session, admission: AdmissionControl | None = None
    ) -> None:
        self.session = session
        self.manager = JobManager(session)
        self.admission = (
            admission if admission is not None else AdmissionControl.from_env()
        )
        #: Wall budget per request (None: disabled).  Enforced around the
        #: whole dispatch, so a stuck warmth probe or render cannot wedge a
        #: connection forever — the client gets a 503 and may retry.
        self.request_deadline = resilience.request_deadline_seconds()
        #: Fabric routes are opt-in: only a session whose runner dispatches
        #: to the remote fabric is a coordinator surface.  A plain query
        #: server must not carry the pickle-deserializing upload routes.
        self.fabric_routes = (
            getattr(session.runner, "pool_mode", None) == "remote"
        )

    # ------------------------------------------------------------------
    # Connection plumbing
    # ------------------------------------------------------------------
    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                keep_alive = rejected = False
                try:
                    # Only a coordinator surface admits large bodies, and
                    # then only on the upload route — every other route
                    # keeps the tiny-JSON bound.
                    request = await read_request(
                        reader,
                        max_body=(
                            body_bound_for_path
                            if self.fabric_routes
                            else MAX_BODY_BYTES
                        ),
                    )
                    if request is None:
                        break
                    keep_alive = not request.wants_close()
                    response = await self._dispatch_bounded(request)
                except HttpError as error:
                    response = self._error(error.status, error.message)
                    rejected = True
                except Exception as error:  # route bug: report, keep serving
                    response = self._error(500, f"{type(error).__name__}: {error}")
                writer.write(encode_response(response, keep_alive=keep_alive))
                await writer.drain()
                if rejected:
                    await discard_input(reader)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-exchange; nothing to answer
        except asyncio.CancelledError:
            # Server shutdown cancelled this handler (typically parked on a
            # keep-alive read).  Ending normally keeps asyncio's stream
            # callback from logging the cancellation as an error; the task
            # is finished either way.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            except asyncio.CancelledError:
                # A cancelled handler stays cancelled: the await above
                # re-raises even after the body absorbed the first
                # delivery.  The transport is already closing.
                pass

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch_bounded(self, request: Request) -> Response:
        """Run :meth:`dispatch` under the per-request wall deadline."""
        if self.request_deadline is None:
            return await self.dispatch(request)
        try:
            return await asyncio.wait_for(
                self.dispatch(request), timeout=self.request_deadline
            )
        except TimeoutError:
            return self._limited(
                503,
                Decision(
                    False,
                    retry_after=SHED_RETRY_AFTER,
                    reason=(
                        f"request exceeded the {self.request_deadline:g}s "
                        "deadline"
                    ),
                ),
            )

    async def dispatch(self, request: Request) -> Response:
        if request.method not in ALLOWED_METHODS:
            return self._error(405, f"method {request.method} not allowed")
        path = request.path.rstrip("/") or "/"
        if path == "/healthz":
            # Always open and never rate-limited: liveness probes must work
            # without credentials, on a saturated or draining server too.
            return self._json(200, wire.health_record())
        # Fabric routes (work queue + cache replication) delegate to the
        # shared handler so this surface and the standalone fabric listener
        # speak one protocol — but only when this session opted into remote
        # pool mode; otherwise the paths fall through to the 404 below.
        # They are excluded from API-key auth either way: the fabric has its
        # own shared-token gate.  Imported lazily: repro.fabric imports this
        # module's siblings at load, so a top-level import would cycle.
        fabric_path = False
        if path.startswith("/v1/"):
            from repro.fabric import api as fabric_api

            fabric_path = fabric_api.is_fabric_path(path)
            if fabric_path and self.fabric_routes:
                from repro.fabric import shared_queue

                return await asyncio.to_thread(
                    fabric_api.dispatch_route,
                    path,
                    request,
                    shared_queue(),
                    self.session.cache,
                )
        principal = ANONYMOUS
        if path.startswith("/v1/") and not fabric_path:
            try:
                principal = self.admission.authenticate(request.headers)
            except AuthError as error:
                response = self._error(401, str(error))
                response.headers["WWW-Authenticate"] = "Bearer"
                return response
        if path in ("/v1/sweep", "/v1/dse") or path.startswith("/v1/figure/"):
            # The rate limit prices the expensive request class (anything
            # that may classify/render/simulate); job polls, warm DSE report
            # reads and catalog reads stay cheap and unmetered.
            decision = self.admission.admit_request(principal)
            if not decision.allowed:
                return self._limited(429, decision)
        if path == "/v1/figures":
            return self._json(200, wire.figures_record())
        if path == "/v1/cache/stats":
            report = await asyncio.to_thread(self.session.cache_stats)
            return self._json(200, wire.cache_stats_record(report))
        if path.startswith("/v1/figure/"):
            if request.method != "GET":
                return self._error(405, "figure queries are GET")
            return await self._figure(
                request, path.removeprefix("/v1/figure/"), principal
            )
        if path == "/v1/sweep":
            if request.method != "POST":
                return self._error(405, "sweeps are POST (a SweepSpec record)")
            return await self._sweep(request, principal)
        if path == "/v1/dse":
            if request.method != "POST":
                return self._error(405, "DSE campaigns are POST (a DseSpec record)")
            return await self._dse(request, principal)
        if path.startswith("/v1/dse/"):
            if request.method != "GET":
                return self._error(405, "DSE report reads are GET")
            return await self._dse_report(request, path.removeprefix("/v1/dse/"))
        if path.startswith("/v1/jobs/"):
            return self._job(path.removeprefix("/v1/jobs/"))
        return self._error(404, f"no route for {request.path}")

    # ------------------------------------------------------------------
    # Figure / sweep: warm-sync or cold-202
    # ------------------------------------------------------------------
    async def _figure(
        self, request: Request, identifier: str, principal: Principal
    ) -> Response:
        try:
            query = FigureQuery(identifier)
            get_figure(query.figure)
        except (ValueError, KeyError) as error:
            return self._error(404, str(error).strip('"'))
        return await self._answer(request, "figure", query, query.key(), principal)

    async def _sweep(self, request: Request, principal: Principal) -> Response:
        try:
            spec = wire.sweep_spec_from_payload(request.body)
        except ValueError as error:
            return self._error(400, str(error))
        return await self._answer(request, "sweep", spec, spec.key(), principal)

    async def _dse(self, request: Request, principal: Principal) -> Response:
        try:
            spec = wire.dse_spec_from_payload(request.body)
        except ValueError as error:
            return self._error(400, str(error))
        return await self._answer(request, "dse", spec, spec.key(), principal)

    async def _dse_report(self, request: Request, spec_key: str) -> Response:
        """Serve one campaign's persisted Pareto report body, warm only.

        ``<key>`` is the campaign's :meth:`DseSpec.key`.  The stored body is
        a deterministic function of (spec, settings, schema versions) — the
        same bytes ``POST /v1/dse`` and the CLI emit — so it is served with
        the same strong ETag and always reports zero executions.  A
        campaign still in flight answers with its job envelope; an unknown
        one is a 404 pointing at the POST route.
        """
        etag = wire.request_etag("dse", spec_key, self.session.settings)
        if wire.etag_matches(request.headers.get("if-none-match"), etag):
            return Response(status=304, headers={"ETag": etag})
        if self.session.cache is not None:
            from repro.dse.explore import report_key_for

            report_key = report_key_for(spec_key, self.session.settings)
            body = await asyncio.to_thread(self.session.cache.get_blob, report_key)
            if body is not None:
                return Response(
                    status=200,
                    body=body,
                    headers={"ETag": etag, EXECUTED_HEADER: "0"},
                )
        job = self.manager.get(spec_key)
        if job is not None:
            if not job.finished.is_set():
                return self._job_envelope(job, status=202)
            if job.status == DONE and job.body is not None:
                return Response(
                    status=200,
                    body=job.body,
                    headers={"ETag": etag, EXECUTED_HEADER: "0"},
                )
        return self._error(
            404,
            f"no cached DSE report for {spec_key!r}; "
            "POST /v1/dse runs the campaign",
        )

    async def _answer(
        self, request: Request, kind: str, obj, key: str, principal: Principal
    ) -> Response:
        etag = wire.request_etag(kind, key, self.session.settings)
        if wire.etag_matches(request.headers.get("if-none-match"), etag):
            return Response(status=304, headers={"ETag": etag})
        # Coalescing fast path: an identical request already in flight
        # answers with its job envelope before any warmth probing — and a
        # finished one serves its stored body outright.  Responses are
        # deterministic functions of (request, settings), so the stored
        # bytes can never go stale; this is also what spares a repeat
        # request the probe's grid compile + key hashing.
        job = self.manager.get(key)
        if job is not None:
            if not job.finished.is_set():
                return self._job_envelope(job, status=202)
            if job.status == DONE and job.body is not None:
                return Response(
                    status=200,
                    body=job.body,
                    headers={"ETag": etag, EXECUTED_HEADER: "0"},
                )
        pending, grid_total = await asyncio.to_thread(self.manager.classify, obj)
        if pending:
            # Cold path.  The quota is charged *before* coalescing (the
            # admission decision must come first) and refunded whenever no
            # new job actually resulted — joining an in-flight computation
            # or being shed costs nothing.  Warm requests below never get
            # here, so saturation and drain cannot touch cached answers.
            decision = self.admission.admit_cold(principal)
            if not decision.allowed:
                return self._limited(429, decision)
            try:
                job, created = self.manager.coalesce(key, kind, obj, grid_total)
            except (Draining, PoolSaturated) as refusal:
                self.admission.refund_cold(principal)
                return self._limited(
                    503,
                    Decision(
                        False,
                        retry_after=refusal.retry_after,
                        reason=str(refusal),
                    ),
                )
            if created:
                self.manager.start(job, etag)
            else:
                self.admission.refund_cold(principal)
            return self._job_envelope(job, status=202)
        body, executed = await asyncio.to_thread(self.manager.render, obj)
        return Response(
            status=200,
            body=body,
            headers={"ETag": etag, EXECUTED_HEADER: str(executed)},
        )

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------
    def _job(self, key: str) -> Response:
        job = self.manager.get(key)
        if job is None:
            return self._error(404, f"no such job {key!r}")
        status = job.status
        if status == DONE:
            assert job.body is not None and job.etag is not None
            return Response(
                status=200,
                body=job.body,
                headers={"ETag": job.etag, EXECUTED_HEADER: str(job.executed)},
            )
        if status == FAILED:
            snapshot = job.snapshot()
            return self._json(
                500, wire.error_record(500, snapshot.get("error", "job failed"))
            )
        return self._job_envelope(job, status=202)

    def _job_envelope(self, job: ServeJob, *, status: int) -> Response:
        record = wire.job_record(job.snapshot())
        return Response(
            status=status,
            body=wire.dump_body(record),
            headers={"Location": record["url"], "Retry-After": "1"},
        )

    # ------------------------------------------------------------------
    def _json(self, status: int, record: dict) -> Response:
        return Response(status=status, body=wire.dump_body(record))

    def _error(self, status: int, message: str) -> Response:
        return self._json(status, wire.error_record(status, message))

    def _limited(self, status: int, decision: Decision) -> Response:
        """A ``429``/``503`` refusal with precise backoff guidance.

        Every refusal carries ``Retry-After`` (integer seconds, rounded
        up so a compliant client never retries early) and, when the policy
        has a window boundary, ``X-Repro-Reset`` with the reset epoch.
        """
        reset_at = decision.reset_at or None
        record = wire.limit_record(
            status, decision.reason, decision.retry_after, reset_at
        )
        headers = {
            "Retry-After": str(max(1, math.ceil(decision.retry_after)))
        }
        if reset_at is not None:
            headers["X-Repro-Reset"] = f"{reset_at:.3f}"
        return Response(
            status=status, body=wire.dump_body(record), headers=headers
        )


# ----------------------------------------------------------------------
# Running a server
# ----------------------------------------------------------------------
async def start_server(
    app: ServeApp, host: str = "127.0.0.1", port: int = 0
) -> asyncio.base_events.Server:
    """Bind and start serving ``app``; the caller owns the returned server."""
    return await asyncio.start_server(app.handle_connection, host, port)


def run_server(
    session: Session, host: str = "127.0.0.1", port: int = 8734
) -> int:
    """Blocking entry point behind ``python -m repro serve``."""
    app = ServeApp(session)
    if app.fabric_routes:
        from repro.fabric.api import require_loopback_or_token

        try:
            require_loopback_or_token(host, surface="the serve front-end")
        except ValueError as error:
            print(f"[repro.serve] {error}", file=sys.stderr)
            return 2

    async def main(app: ServeApp) -> None:
        server = await start_server(app, host, port)
        bound = server.sockets[0].getsockname()
        keys = "open" if app.admission.registry.open else "API keys required"
        print(
            f"[repro.serve] listening on http://{bound[0]}:{bound[1]} "
            f"(cache: {session.cache.directory if session.cache else 'disabled'}; "
            f"{keys}; job pool depth {app.manager.max_depth})",
            file=sys.stderr,
            flush=True,
        )
        terminated = asyncio.Event()
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, terminated.set)
        except (NotImplementedError, RuntimeError):
            pass  # platform without signal handlers (or a nested loop)
        async with server:
            # SIGTERM starts the graceful ramp-down instead of killing the
            # process: refuse new cold work, keep answering warm requests
            # and job polls while the drain window runs, then exit.
            await terminated.wait()
            window = resilience.drain_seconds()
            print(
                f"[repro.serve] SIGTERM: draining in-flight jobs "
                f"(up to {window:g}s)",
                file=sys.stderr,
                flush=True,
            )
            app.manager.begin_drain()
            drained = await asyncio.to_thread(app.manager.drain, window)
            print(
                "[repro.serve] drain "
                + ("complete" if drained else "window expired"),
                file=sys.stderr,
                flush=True,
            )

    try:
        asyncio.run(main(app))
    except KeyboardInterrupt:
        print("[repro.serve] shutting down", file=sys.stderr)
    finally:
        app.manager.close()
    return 0


class BackgroundServer:
    """A server on its own event-loop thread (tests, benches, notebooks).

    ::

        with BackgroundServer(Session(...)) as server:
            urllib.request.urlopen(server.url + "/healthz")
    """

    def __init__(
        self, session: Session, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.app = ServeApp(session)
        self.host = host
        self.port = port
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = loop.run_until_complete(
                start_server(self.app, self.host, self.port)
            )
        except BaseException as error:
            self._startup_error = error
            self._ready.set()
            loop.close()
            return
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            server.close()
            # Cancel handler tasks *before* wait_closed(): idle keep-alive
            # connections park their handlers on a read, and on Python >=
            # 3.12.1 wait_closed() blocks until every connection is gone —
            # waiting first would deadlock on exactly the tasks this drains.
            tasks = asyncio.all_tasks(loop)
            for task in tasks:
                task.cancel()
            if tasks:
                loop.run_until_complete(
                    asyncio.gather(*tasks, return_exceptions=True)
                )
            loop.run_until_complete(server.wait_closed())
            loop.close()

    def close(self, drain: float | None = None) -> None:
        """Graceful stop: drain in-flight jobs, then tear the loop down.

        Mirrors the SIGTERM path of :func:`run_server` — new cold work is
        refused (``503``) the moment the drain begins, in-flight jobs get
        up to ``drain`` seconds (``REPRO_DRAIN_SECONDS`` by default) to
        finish, and only then is the listener stopped.  Idempotent.
        """
        window = resilience.drain_seconds() if drain is None else drain
        self.app.manager.begin_drain()
        if window > 0:
            self.app.manager.drain(window)
        if self._loop is not None and not self._loop.is_closed():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)
        self.app.manager.close()

    def __exit__(self, *exc_info) -> None:
        self.close()
