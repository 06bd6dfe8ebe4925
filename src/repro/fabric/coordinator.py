"""The coordinator: process-wide queue, executor and (optional) listener.

A process becomes a coordinator the moment a runner in ``REPRO_POOL=remote``
mode dispatches its first batch: :func:`runtime_executor` materialises the
shared :class:`Coordinator` — one :class:`~repro.fabric.queue.WorkQueue`
plus its :class:`~repro.fabric.executor.RemoteExecutor` — and, unless the
environment says otherwise, starts the standalone HTTP listener so workers
can reach the queue.  The serving front-end (``python -m repro serve``)
suppresses the extra listener and mounts the same routes on its own port
instead; either way there is exactly one queue per process, so every
surface hands out the same work.

Environment knobs:

* ``REPRO_FABRIC_LISTEN=0`` — never auto-start the standalone listener
  (the serve front-end sets this; tests driving in-process workers too).
* ``REPRO_FABRIC_HOST`` / ``REPRO_FABRIC_PORT`` — bind address of the
  standalone listener (default ``127.0.0.1:8735``; port ``0`` picks free).
"""

from __future__ import annotations

import asyncio
import sys
import threading

from repro import knobs
from repro.fabric.executor import RemoteExecutor
from repro.fabric.queue import WorkQueue
from repro.runtime.cache import ResultCache
from repro.serve.http import (
    HttpError,
    body_bound_for_path,
    discard_input,
    encode_response,
    read_request,
)

DEFAULT_FABRIC_PORT = 8735


def _env_cache() -> ResultCache | None:
    """The coordinator-process cache the listener's ``/v1/cache`` routes
    serve (mirrors the runner's own env-default cache selection)."""
    if not knobs.get("REPRO_CACHE"):
        return None
    return ResultCache()


class Coordinator:
    """Owns one work queue, its executor face, and at most one listener."""

    def __init__(
        self,
        queue: WorkQueue | None = None,
        cache: ResultCache | None = None,
    ) -> None:
        self.queue = queue if queue is not None else WorkQueue()
        self.executor = RemoteExecutor(self.queue)
        self.cache = cache if cache is not None else _env_cache()
        self._listener: _FabricListener | None = None  # guarded-by: _lock
        self._lock = threading.Lock()

    @property
    def url(self) -> str | None:
        """The standalone listener's URL, if one is running."""
        # Lock-free read: a listener is installed at most once and never
        # replaced, so the worst case is reporting None during startup.
        listener = self._listener  # repro: allow[lock-discipline]
        return listener.url if listener is not None else None

    def ensure_listener(
        self, host: str | None = None, port: int | None = None
    ) -> str:
        """Start (or return) the standalone work listener; returns its URL.

        Refuses (``ValueError``) to bind a non-loopback address unless
        ``REPRO_FABRIC_TOKEN`` is set — the work routes deserialize pickled
        uploads, so an open listener would be remote code execution.
        """
        from repro.fabric.api import require_loopback_or_token

        bind_host = host or knobs.get("REPRO_FABRIC_HOST")
        require_loopback_or_token(bind_host, surface="the fabric listener")
        with self._lock:
            if self._listener is None:
                listener = _FabricListener(
                    self,
                    host=bind_host,
                    port=(
                        port
                        if port is not None
                        else knobs.get("REPRO_FABRIC_PORT")
                    ),
                )
                listener.start()
                self._listener = listener
                print(
                    f"[repro.fabric] coordinator listening on {listener.url} "
                    f"(workers: python -m repro worker {listener.url})",
                    file=sys.stderr,
                    flush=True,
                )
            return self._listener.url

    def close(self) -> None:
        """Stop the listener (the queue itself has nothing to tear down)."""
        with self._lock:
            listener, self._listener = self._listener, None
        if listener is not None:
            listener.stop()


class _FabricListener:
    """A minimal asyncio HTTP server on its own thread, serving only the
    fabric routes.  Deliberately smaller than the serve front-end: no ETags,
    no background jobs — just the work-queue and cache-replication protocol
    over the same request/response plumbing."""

    def __init__(self, coordinator: Coordinator, host: str, port: int) -> None:
        self.coordinator = coordinator
        self.host = host
        self.port = port
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name="repro-fabric", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Late imports: api pulls in serve.wire, which the fabric package
        # must not import at module load (serve.app imports repro.fabric).
        from repro.fabric import api
        from repro.serve.http import Response
        from repro.serve.wire import dump_body, error_record, health_record

        try:
            while True:
                keep_alive = rejected = False
                try:
                    # Per-route bound: only /v1/work/complete admits large
                    # uploads; the other fabric routes parse tiny records.
                    request = await read_request(
                        reader, max_body=body_bound_for_path
                    )
                    if request is None:
                        break
                    keep_alive = not request.wants_close()
                    path = request.path.rstrip("/") or "/"
                    if path == "/healthz":
                        response = Response(
                            status=200, body=dump_body(health_record())
                        )
                    elif api.is_fabric_path(path):
                        response = await asyncio.to_thread(
                            api.dispatch_route,
                            path,
                            request,
                            self.coordinator.queue,
                            self.coordinator.cache,
                        )
                    else:
                        response = Response(
                            status=404,
                            body=dump_body(
                                error_record(404, f"no route for {request.path}")
                            ),
                        )
                except HttpError as error:
                    response = Response(
                        status=error.status,
                        body=dump_body(error_record(error.status, error.message)),
                    )
                    rejected = True
                writer.write(encode_response(response, keep_alive=keep_alive))
                await writer.drain()
                if rejected:
                    await discard_input(reader)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = loop.run_until_complete(
                asyncio.start_server(self._handle, self.host, self.port)
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
            # Cancel parked keep-alive handlers before wait_closed() — the
            # same shutdown ordering BackgroundServer needs (wait_closed()
            # blocks on open connections from Python 3.12.1 on).
            tasks = asyncio.all_tasks(loop)
            for task in tasks:
                task.cancel()
            if tasks:
                loop.run_until_complete(
                    asyncio.gather(*tasks, return_exceptions=True)
                )
            loop.run_until_complete(server.wait_closed())
            loop.close()

    def stop(self) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)


# ----------------------------------------------------------------------
# The process-wide coordinator singleton
# ----------------------------------------------------------------------
_shared: Coordinator | None = None
_shared_lock = threading.Lock()


def shared_coordinator() -> Coordinator:
    """The process-wide coordinator, created on first use."""
    global _shared
    with _shared_lock:
        if _shared is None:
            _shared = Coordinator()
        return _shared


def set_shared_coordinator(coordinator: Coordinator) -> None:
    """Install a pre-configured coordinator (tests and benches use this to
    pin lease lengths or a specific listener port)."""
    global _shared
    with _shared_lock:
        previous, _shared = _shared, coordinator
    if previous is not None and previous is not coordinator:
        previous.close()


def shared_queue() -> WorkQueue:
    """The shared coordinator's queue (never starts a listener)."""
    return shared_coordinator().queue


def reset_shared_fabric() -> None:
    """Stop and forget the shared coordinator (tests use this between
    scenarios; outstanding futures of the dropped queue never resolve)."""
    global _shared
    with _shared_lock:
        previous, _shared = _shared, None
    if previous is not None:
        previous.close()


def runtime_executor() -> RemoteExecutor:
    """What ``acquire_executor("remote", ...)`` hands the batch runner.

    Auto-starts the standalone listener unless ``REPRO_FABRIC_LISTEN=0``
    (the serve front-end and the in-process test harness both set it — they
    already expose the queue another way, or do not need HTTP at all).
    """
    coordinator = shared_coordinator()
    if knobs.get("REPRO_FABRIC_LISTEN"):
        coordinator.ensure_listener()
    return coordinator.executor
