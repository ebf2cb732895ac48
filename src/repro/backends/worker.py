"""The worker side of the distributed backend.

:func:`run_worker` (CLI: ``repro worker --connect HOST:PORT``) connects
to a coordinator, pulls jobs, runs each through the exact same
:func:`~repro.sweep.engine.run_job` path every other backend uses, and
pushes length-prefixed JSON outcomes back.  While a job runs, a side
thread heartbeats the coordinator at a third of the lease term so slow
jobs are not mistaken for dead workers; heartbeats are fire-and-forget,
so the reply stream stays a clean request/response sequence for the
main thread.

Fault injection for the test wall: setting the environment variable
``REPRO_WORKER_CRASH_AFTER_PULL`` makes the worker die abruptly
(``os._exit``) right after accepting a job grant — the deterministic
stand-in for ``kill -9`` mid-run.
"""

from __future__ import annotations

import os
import socket
import sys
import threading
import time
from typing import Callable, Optional

from repro.errors import BackendError, ReproError
from repro.backends.protocol import (
    PROTOCOL_VERSION,
    parse_endpoint,
    recv_message,
    send_message,
)
from repro.obs.spans import SpanRecorder
from repro.sweep.spec import Job

#: Fault-injection hook (tests/CI only): crash hard after the next grant.
CRASH_ENV_VAR = "REPRO_WORKER_CRASH_AFTER_PULL"

LogFn = Callable[[str], None]


class CoordinatorUnreachable(BackendError):
    """No coordinator answered within the connect-retry window.

    Distinct from other backend faults so ``--serve`` can treat "the
    fleet has drained and nothing new appeared" as a clean exit while
    still surfacing real failures (handshake refusal, protocol
    violations) loudly.
    """


def _log_to_stderr(line: str) -> None:
    sys.stderr.write(line + "\n")
    sys.stderr.flush()


def _connect_with_retry(host: str, port: int, timeout_s: float) -> socket.socket:
    """Dial the coordinator, retrying until ``timeout_s`` elapses.

    Workers may legitimately start before the coordinator binds (CI
    launches them in the background first), so refusals are retried.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            return socket.create_connection((host, port), timeout=10.0)
        except OSError as exc:
            if time.monotonic() >= deadline:
                raise CoordinatorUnreachable(
                    f"cannot reach coordinator at {host}:{port} "
                    f"after {timeout_s:.0f}s: {exc}"
                ) from None
            time.sleep(0.1)


def _heartbeat_loop(
    sock: socket.socket,
    send_lock: threading.Lock,
    job_id: str,
    interval_s: float,
    stop: threading.Event,
    sent: list,
) -> None:
    # ``sent`` is a one-cell counter the main thread reads after join()
    # — it rides the outcome message as worker telemetry.
    while not stop.wait(interval_s):
        try:
            send_message(sock, {"type": "heartbeat", "job_id": job_id}, send_lock)
            sent[0] += 1
        except OSError:
            return  # connection gone; the main thread will notice


def run_worker(
    connect: str,
    max_jobs: Optional[int] = None,
    connect_timeout_s: float = 30.0,
    serve: bool = False,
    log: Optional[LogFn] = _log_to_stderr,
) -> int:
    """Serve one coordinator session; returns the number of jobs run.

    Parameters
    ----------
    connect:
        Coordinator ``HOST:PORT``.
    max_jobs:
        Stop after this many completed jobs (``None``: until shutdown).
    connect_timeout_s:
        How long to keep retrying the initial (and, with ``serve``,
        each subsequent) connection.
    serve:
        After a session ends, reconnect and serve the next sweep —
        lets one pool of workers drain the several sweeps
        an experiment or study session issues — until no coordinator
        appears within ``connect_timeout_s``.
    """
    total = 0
    while True:
        remaining = None if max_jobs is None else max_jobs - total
        try:
            total += _serve_session(connect, remaining, connect_timeout_s, log)
        except CoordinatorUnreachable:
            if serve:
                return total  # no coordinator reappeared: done serving
            raise
        if not serve or (max_jobs is not None and total >= max_jobs):
            return total
        time.sleep(0.2)  # let the finished coordinator unbind before redialing


def _serve_session(
    connect: str,
    max_jobs: Optional[int],
    connect_timeout_s: float,
    log: Optional[LogFn],
) -> int:
    host, port = parse_endpoint(connect)
    sock = _connect_with_retry(host, port, connect_timeout_s)
    send_lock = threading.Lock()
    completed = 0
    worker_name = f"{socket.gethostname()}:{os.getpid()}"
    # Per-job wall spans (pull-wait, execute, ship) ride each outcome
    # message as the optional ``spans`` key — protocol-compatible the
    # way ``telemetry`` is, and disabled by REPRO_OBS_SPANS=off on the
    # worker side (the message then simply omits the key, which is also
    # what a pre-spans peer looks like to the coordinator).
    span_track = f"worker:{worker_name}"

    def say(line: str) -> None:
        if log is not None:
            log(line)

    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # Replies always follow requests promptly; block without the
        # connect-phase timeout so a long "wait" poll cycle never trips.
        sock.settimeout(None)
        send_message(sock, {
            "type": "hello",
            "worker": worker_name,
            "protocol": PROTOCOL_VERSION,
        }, send_lock)
        welcome = recv_message(sock)
        if welcome is None or welcome.get("type") != "welcome":
            raise BackendError(
                f"coordinator at {host}:{port} rejected the handshake: "
                f"{(welcome or {}).get('error', 'connection closed')}"
            )
        lease_s = float(welcome.get("lease_s", 15.0))
        say(f"worker: connected to {host}:{port} (lease {lease_s:g}s)")

        pull_start: Optional[float] = None
        while max_jobs is None or completed < max_jobs:
            try:
                if pull_start is None:
                    pull_start = time.perf_counter()
                send_message(sock, {"type": "pull"}, send_lock)
                reply = recv_message(sock)
            except (OSError, BackendError):
                # The coordinator tears connections down when the sweep
                # completes (or it died); either way this session is over
                # — the coordinator's lease bookkeeping, not the worker,
                # decides the fate of any in-flight job.
                say("worker: coordinator connection closed")
                break
            if reply is None or reply.get("type") == "shutdown":
                break
            if reply.get("type") == "wait":
                time.sleep(float(reply.get("poll_s", 0.2)))
                continue
            if reply.get("type") != "job":
                raise BackendError(f"unexpected coordinator reply: {reply!r}")
            job = Job.from_dict(reply["job"])
            job_spans = SpanRecorder()
            job_spans.add_wall(
                "pull", span_track,
                pull_start, time.perf_counter() - pull_start,
                {"job": job.job_id},
            )
            pull_start = None
            if os.environ.get(CRASH_ENV_VAR):
                os._exit(17)  # fault injection: die holding the lease

            # The lease term is per-grant (the coordinator adapts it to
            # observed job length); heartbeat at a third of *this*
            # grant's term so a shrunken lease is still kept alive.
            grant_lease_s = float(reply.get("lease_s", lease_s))
            heartbeat_s = max(grant_lease_s / 3.0, 0.2)
            stop = threading.Event()
            beats = [0]
            heartbeat = threading.Thread(
                target=_heartbeat_loop,
                args=(sock, send_lock, job.job_id, heartbeat_s, stop, beats),
                daemon=True, name="repro-worker-heartbeat",
            )
            heartbeat.start()
            try:
                from repro.sweep.engine import run_job

                with job_spans.wall_span(
                    "execute", span_track, {"job": job.job_id}
                ):
                    outcome = run_job(job)
            except ReproError as exc:
                stop.set()
                heartbeat.join()
                say(f"worker: job {job.label or job.job_id} raised: {exc}")
                try:
                    send_message(sock, {
                        "type": "error", "job_id": job.job_id, "message": str(exc),
                    }, send_lock)
                    recv_message(sock)  # ok
                except (OSError, BackendError):
                    say("worker: coordinator connection closed")
                    break
                continue
            stop.set()
            heartbeat.join()
            try:
                # ``telemetry`` carries per-job deltas the coordinator
                # sums into fleet totals; the key is optional within
                # protocol v1, so older coordinators simply ignore it.
                # ``spans`` likewise.  The ship span times outcome
                # serialization — the send that carries it cannot ride
                # the message it would be timing.
                ship_start = time.perf_counter()
                payload = outcome.to_dict()
                job_spans.add_wall(
                    "ship", span_track,
                    ship_start, time.perf_counter() - ship_start,
                    {"job": job.job_id},
                )
                message = {
                    "type": "outcome",
                    "job_id": outcome.job_id,
                    "outcome": payload,
                    "telemetry": {
                        "jobs_run": 1,
                        "heartbeats_sent": beats[0],
                    },
                }
                if len(job_spans):
                    message["spans"] = job_spans.records()
                send_message(sock, message, send_lock)
                recv_message(sock)  # ok
            except (OSError, BackendError):
                # Delivery unconfirmed: the coordinator (if alive) will
                # requeue the lease; a completed duplicate is dropped
                # on its side, so breaking here never double-counts.
                say("worker: coordinator connection closed")
                break
            completed += 1
            say(f"worker: finished {job.label or job.job_id} "
                f"({completed} this session)")
    finally:
        try:
            sock.close()
        except OSError:
            pass
    say(f"worker: session over after {completed} job(s)")
    return completed
