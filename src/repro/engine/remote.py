"""Multi-host shard dispatch: TCP coordinator + remote worker runtime.

This module fans the resilient single-host engine of
:mod:`repro.engine.queue` out to many hosts.  A sweep started with
``repro run/sweep ... --serve HOST:PORT`` opens a listening socket next
to its local worker pool; any machine that can reach it runs
``repro worker --connect HOST:PORT --workers N`` to advertise ``N``
local simulation processes and pull cost-balanced shards from the very
same :func:`~repro.engine.queue.plan_shards` plan the in-process
dispatcher uses.  Results flow back as
:class:`~repro.sim.results.SimulationResult` dicts and are committed
through the coordinator's fingerprint-keyed store, so ``--resume`` and
warm-cache semantics are unchanged across hosts and the merged output is
bit-identical to a serial run.

Wire protocol
-------------
Length-prefixed JSON over TCP, stdlib ``socket``/``selectors`` only:
every frame is a 4-byte big-endian payload length followed by a UTF-8
JSON object with a ``type`` field.  Oversized frames are rejected on
both ends (:data:`MAX_FRAME_BYTES`), and a connection that closes
mid-frame surfaces as a :class:`FrameError`, never a hang.

============  =========== ==========================================
direction     type        payload
============  =========== ==========================================
worker → coo  hello       version, capacity, host, pid
coo → worker  welcome     version, job_timeout
coo → worker  reject      reason (version mismatch, bad capacity)
coo → worker  shard       shard, slots, jobs (JSON job specs)
worker → coo  started     shard, slot
worker → coo  done        shard, slot, result, elapsed_s
worker → coo  error       shard, slot, reason, elapsed_s
worker → coo  shard_done  shard
worker → coo  heartbeat   --
coo → worker  shutdown    --
============  =========== ==========================================

The link carries JSON only.  A job travels as its config dict, its
workload with every benchmark's parameters, its window, seed and key
(:func:`encode_job`); the worker rebuilds it and refuses it if the key
differs.  A result travels as ``SimulationResult.to_dict()``, the
``results.jsonl`` schema.  Neither end decodes anything but JSON, so a
worker cannot make the coordinator execute code.  The link is not
authenticated, though: anyone who can reach a ``--serve`` port can join
as a worker and return a wrong result, and a worker runs whatever jobs
its coordinator sends.  The coordinator accepts ``started``, ``done``
and ``error`` only for a slot it assigned to that worker; any other
slot disconnects the worker as a protocol error.

Failure semantics mirror the local dispatcher: a worker that drops its
connection or misses heartbeats is reaped, its finished slots are kept,
its in-flight job re-enters the bounded-retry path, and the rest of its
shards are re-queued to any surviving worker (local or remote).  The
run completes with a degradation warning instead of crashing.  On the
worker's side the simulation processes are the same
:class:`~repro.engine.queue.WorkerPool` the coordinator runs locally.
"""

from __future__ import annotations

import json
import math
import os
import select
import socket
import struct
from dataclasses import replace
from multiprocessing.connection import wait as connection_wait
from time import monotonic
from typing import Optional

from repro.config.serialize import from_plain, to_plain
from repro.config.system import SystemConfig
from repro.engine.jobs import SimulationJob
from repro.engine.queue import (
    MSG_DONE,
    MSG_ERROR,
    MSG_LOST,
    MSG_SHARD_DONE,
    MSG_STARTED,
    PoolEvent,
    Shard,
    ShardProgress,
    WorkerPool,
)
from repro.obs.log import get_logger
from repro.workloads.benchmark_suite import Benchmark
from repro.workloads.mixes import Workload

log = get_logger(__name__)

#: Bump on any incompatible wire change; workers with a different
#: version are refused at the handshake.
PROTOCOL_VERSION = 2

#: Hard ceiling on one frame's payload, enforced by sender and receiver.
#: Generous for shards of job specs and result dicts; small enough
#: that a corrupt length header cannot balloon into an OOM.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: How often an idle worker pings the coordinator.
HEARTBEAT_S = 2.0

#: Silence longer than this marks a remote worker dead and reassigns
#: its shards.  A SIGKILL is usually seen much sooner as a socket EOF;
#: the timeout catches partitioned networks and frozen hosts.
HEARTBEAT_TIMEOUT_S = 15.0

#: Selector tick for both event loops, matching the local dispatcher.
_TICK_S = 0.05

_HEADER = struct.Struct(">I")


class FrameError(RuntimeError):
    """A frame violated the protocol (truncated, oversized, not JSON)."""


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def encode_frame(message: dict) -> bytes:
    """Serialize one message to its on-wire form (header + JSON)."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _HEADER.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental decoder for the non-blocking receive paths.

    Feed it raw ``recv`` chunks; it returns every complete message and
    buffers the rest, raising :class:`FrameError` on oversized or
    malformed frames.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[dict]:
        self._buffer.extend(data)
        messages = []
        while len(self._buffer) >= _HEADER.size:
            (length,) = _HEADER.unpack_from(self._buffer, 0)
            if length > self.max_frame_bytes:
                raise FrameError(
                    f"frame payload of {length} bytes exceeds the "
                    f"{self.max_frame_bytes}-byte limit"
                )
            if len(self._buffer) < _HEADER.size + length:
                break
            payload = bytes(self._buffer[_HEADER.size : _HEADER.size + length])
            del self._buffer[: _HEADER.size + length]
            try:
                message = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as error:
                raise FrameError(f"frame payload is not valid JSON: {error}")
            if not isinstance(message, dict):
                raise FrameError("frame payload must be a JSON object")
            messages.append(message)
        return messages

    def pending_bytes(self) -> int:
        return len(self._buffer)


def send_frame(sock: socket.socket, message: dict, timeout_s: float = 30.0) -> int:
    """Send one frame, tolerating a non-blocking socket; returns bytes sent."""
    data = encode_frame(message)
    total = len(data)
    deadline = monotonic() + timeout_s
    view = memoryview(data)
    while view:
        try:
            sent = sock.send(view)
        except (BlockingIOError, InterruptedError):
            if monotonic() > deadline:
                raise FrameError(f"send stalled for {timeout_s:.0f}s")
            select.select([], [sock], [], _TICK_S)
            continue
        if sent == 0:
            raise FrameError("connection closed mid-send")
        view = view[sent:]
    return total


def recv_frame(sock: socket.socket) -> dict:
    """Blocking receive of exactly one frame (tests, simple clients)."""

    def recv_exact(count: int) -> bytes:
        chunks = bytearray()
        while len(chunks) < count:
            chunk = sock.recv(count - len(chunks))
            if not chunk:
                raise FrameError(
                    f"truncated frame: connection closed after "
                    f"{len(chunks)} of {count} bytes"
                )
            chunks.extend(chunk)
        return bytes(chunks)

    decoder = FrameDecoder()
    header = recv_exact(_HEADER.size)
    decoder.feed(header)  # refuses an oversized length before the payload
    (length,) = _HEADER.unpack(header)
    return decoder.feed(recv_exact(length))[0]


def parse_hostport(text: str) -> tuple[str, int]:
    """Parse ``HOST:PORT`` (port 0 binds an ephemeral port when serving)."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"port must be an integer, got {port_text!r}")
    if not 0 <= port <= 65535:
        raise ValueError(f"port must be in [0, 65535], got {port}")
    return host, port


# ---------------------------------------------------------------------------
# Payload encoding
# ---------------------------------------------------------------------------


def encode_job(job: SimulationJob) -> dict:
    """JSON form of one job.

    The workload carries every benchmark's full parameters rather than
    suite names, so custom benchmarks travel too; ``key`` lets the worker
    check the job it rebuilds against the coordinator's identity.
    """
    return {
        "config": job.config.to_dict(),
        "workload": to_plain(job.workload),
        "cycles": job.cycles,
        "warmup": job.warmup,
        "seed": job.seed,
        "key": job.key(),
    }


def decode_job(payload: dict) -> SimulationJob:
    """Rebuild a job from :func:`encode_job` output.

    Raises ``ValueError`` if the rebuilt job's key differs from the one
    sent, so a job is never simulated (and cached) under another's key.
    """
    workload = dict(payload["workload"])
    workload["benchmarks"] = tuple(
        from_plain(Benchmark, benchmark) for benchmark in workload["benchmarks"]
    )
    job = SimulationJob(
        config=SystemConfig.from_dict(payload["config"]),
        workload=from_plain(Workload, workload),
        cycles=payload["cycles"],
        warmup=payload["warmup"],
        seed=payload["seed"],
    )
    if job.key() != payload["key"]:
        raise ValueError(
            f"rebuilt job key {job.key()} differs from the key sent, "
            f"{payload['key']!r}"
        )
    return job


def encode_result(result) -> dict:
    """JSON envelope for one :class:`~repro.sim.results.SimulationResult`.

    The result travels as its ``to_dict()`` form (the same schema as
    ``results.jsonl``), so remote completions are bit-identical to local
    ones.
    """
    return {"kind": "simulation", "data": result.to_dict()}


def decode_result(payload: dict):
    """Rebuild a result from :func:`encode_result` output; an envelope of
    any other ``kind`` is refused."""
    if payload.get("kind") != "simulation":
        raise ValueError(f"unsupported result kind {payload.get('kind')!r}")
    from repro.sim.results import SimulationResult  # lazy: import cycle

    return SimulationResult.from_dict(payload["data"])


def _configure(sock: socket.socket) -> None:
    sock.setblocking(False)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass  # not a TCP socket (tests use socketpairs)


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------


class RemoteWorkerHandle:
    """Coordinator-side state for one connected worker."""

    def __init__(self, remote_id: int, sock: socket.socket, address) -> None:
        self.remote_id = remote_id
        self.sock = sock
        self.address = address
        self.decoder = FrameDecoder()
        self.capacity = 0
        self.registered = False
        self.alive = True
        self.last_seen = monotonic()
        self.label = f"{address[0]}:{address[1]}" if address else "?"
        self.shards: dict[int, ShardProgress] = {}

    def idle_capacity(self) -> int:
        return self.capacity - len(self.shards)


class RemoteCoordinator:
    """Accepts workers and streams shards to them; driven by ``poll()``.

    The coordinator owns no event loop of its own: the shard dispatcher
    calls :meth:`poll` every tick, right next to its local-pipe
    handling, so remote completions interleave with local ones and land
    in the same ``on_result``/store path.  ``stats`` is the executor's
    :class:`~repro.engine.executor.ExecutorStats`; the coordinator
    increments ``remote_workers``, ``bytes_sent``, ``bytes_received``,
    ``reassignments`` and ``worker_failures``.
    """

    def __init__(
        self,
        stats,
        host: str = "127.0.0.1",
        port: int = 0,
        job_timeout: Optional[float] = None,
        heartbeat_timeout_s: float = HEARTBEAT_TIMEOUT_S,
    ) -> None:
        self.stats = stats
        self.job_timeout = job_timeout
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self._workers: dict[int, RemoteWorkerHandle] = {}
        #: ``lost`` events for dead workers' shards, reported by poll().
        self._lost: list[PoolEvent] = []
        self._next_id = 0
        self.ever_registered = 0
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(64)
        listener.setblocking(False)
        self._listener: Optional[socket.socket] = listener
        self.host, self.port = listener.getsockname()[:2]
        log.info("coordinator listening on %s:%d", self.host, self.port)

    # -- introspection -----------------------------------------------------
    def live_workers(self) -> list[RemoteWorkerHandle]:
        return [
            worker
            for _, worker in sorted(self._workers.items())
            if worker.alive and worker.registered
        ]

    def live_count(self) -> int:
        return len(self.live_workers())

    def total_capacity(self) -> int:
        return sum(worker.capacity for worker in self.live_workers())

    def wait_channels(self) -> list:
        """Waitable objects (listener + live links) for the dispatcher.

        The shard dispatcher multiplexes these into its tick wait so a
        remote completion wakes it immediately instead of costing up to a
        full tick of latency per message.
        """
        channels: list = []
        if self._listener is not None:
            channels.append(self._listener)
        channels.extend(
            worker.sock for worker in self._workers.values() if worker.alive
        )
        return channels

    # -- event pump --------------------------------------------------------
    def poll(self) -> list[PoolEvent]:
        """Pump the sockets once; returns the dispatcher's ``done`` and
        ``error`` events, then a ``lost`` event for each shard of a worker
        that died since the last call (its in-flight slot to retry, its
        unstarted slots to re-queue).
        """
        events: list[PoolEvent] = []
        self._accept_new()
        for worker in list(self._workers.values()):
            if worker.alive:
                self._read(worker, events)
        now = monotonic()
        for worker in list(self._workers.values()):
            if worker.alive and now - worker.last_seen > self.heartbeat_timeout_s:
                self._disconnect(
                    worker,
                    f"missed heartbeats for {self.heartbeat_timeout_s:.0f}s",
                )
        events += self._lost
        self._lost = []
        return events

    # -- dispatch ----------------------------------------------------------
    def next_idle_worker(self) -> Optional[RemoteWorkerHandle]:
        """The live worker with the most spare capacity, if any."""
        best = None
        for worker in self.live_workers():
            spare = worker.idle_capacity()
            if spare > 0 and (best is None or spare > best.idle_capacity()):
                best = worker
        return best

    def dispatch(self, worker: RemoteWorkerHandle, shard: Shard) -> bool:
        """Stream one shard to a worker; False if the send failed (the
        worker is reaped and the caller keeps the shard).
        """
        message = {
            "type": "shard",
            "shard": shard.shard_id,
            "slots": list(shard.slots),
            "jobs": [encode_job(job) for job in shard.jobs],
        }
        try:
            self.stats.bytes_sent += send_frame(worker.sock, message)
        except (OSError, FrameError) as error:
            self._disconnect(worker, f"send failed: {error}")
            return False
        worker.shards[shard.shard_id] = ShardProgress(shard)
        log.debug(
            "dispatched shard %d (%d jobs) to remote worker %s",
            shard.shard_id,
            len(shard),
            worker.label,
        )
        return True

    def wait_for_workers(self, count: int, timeout_s: float) -> bool:
        """Block until ``count`` workers finished the handshake."""
        deadline = monotonic() + timeout_s
        while self.live_count() < count:
            if monotonic() > deadline:
                return False
            self.poll()
            connection_wait(self.wait_channels(), timeout=_TICK_S)
        return True

    def close(self, send_shutdown: bool = True) -> None:
        for worker in list(self._workers.values()):
            if worker.alive and send_shutdown:
                try:
                    send_frame(worker.sock, {"type": "shutdown"}, timeout_s=2.0)
                except (OSError, FrameError):
                    pass
            try:
                worker.sock.close()
            except OSError:
                pass
        self._workers.clear()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None

    # -- internals ---------------------------------------------------------
    def _accept_new(self) -> None:
        if self._listener is None:
            return
        while True:
            try:
                sock, address = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            _configure(sock)
            handle = RemoteWorkerHandle(self._next_id, sock, address)
            self._next_id += 1
            self._workers[handle.remote_id] = handle
            log.info("connection from %s awaiting handshake", handle.label)

    def _read(self, worker: RemoteWorkerHandle, events: list) -> None:
        while worker.alive:
            try:
                data = worker.sock.recv(65536)
            except (BlockingIOError, InterruptedError):
                return
            except OSError as error:
                self._disconnect(worker, f"connection error: {error}")
                return
            if not data:
                self._disconnect(worker, "connection closed")
                return
            self.stats.bytes_received += len(data)
            worker.last_seen = monotonic()
            try:
                messages = worker.decoder.feed(data)
            except FrameError as error:
                self._disconnect(worker, f"protocol error: {error}")
                return
            for message in messages:
                if not worker.alive:
                    return
                self._handle(worker, message, events)

    def _handle(self, worker: RemoteWorkerHandle, message: dict, events: list) -> None:
        kind = message.get("type")
        if not worker.registered:
            if kind != "hello":
                self._reject(worker, f"expected hello, got {kind!r}")
            elif message.get("version") != PROTOCOL_VERSION:
                self._reject(
                    worker,
                    f"protocol version mismatch: coordinator speaks "
                    f"v{PROTOCOL_VERSION}, worker sent "
                    f"{message.get('version')!r}",
                )
            elif not _is_int(message.get("capacity")) or message["capacity"] < 1:
                self._reject(
                    worker, f"capacity must be a positive int, got "
                    f"{message.get('capacity')!r}"
                )
            else:
                worker.capacity = message["capacity"]
                worker.label = (
                    f"{message.get('host', worker.label)}"
                    f"#{message.get('pid', '?')}"
                )
                worker.registered = True
                self.ever_registered += 1
                self.stats.remote_workers += 1
                try:
                    self.stats.bytes_sent += send_frame(
                        worker.sock,
                        {
                            "type": "welcome",
                            "version": PROTOCOL_VERSION,
                            "job_timeout": self.job_timeout,
                        },
                    )
                except (OSError, FrameError) as error:
                    self._disconnect(worker, f"welcome failed: {error}")
                    return
                log.info(
                    "remote worker %s joined with capacity %d",
                    worker.label,
                    worker.capacity,
                )
            return
        if kind == "heartbeat":
            return
        if kind not in ("started", "done", "error", "shard_done"):
            log.warning("ignoring unknown frame %r from %s", kind, worker.label)
            return
        shard_id, slot = message.get("shard"), message.get("slot")
        state = worker.shards.get(shard_id) if _is_int(shard_id) else None
        if kind == "shard_done":
            if state is None or state.finished != set(state.shard.slots):
                self._disconnect(
                    worker, f"protocol error: shard_done for shard {shard_id!r}"
                )
            else:
                del worker.shards[shard_id]
            return
        if (
            state is None
            or not _is_int(slot)
            or slot not in state.shard.slots
            or slot in state.finished
        ):
            self._disconnect(
                worker,
                f"protocol error: {kind} for slot {slot!r} of shard "
                f"{shard_id!r}, which is not assigned to this worker",
            )
            return
        elapsed_s = message.get("elapsed_s", 0.0)
        if not _is_finite(elapsed_s):
            self._disconnect(worker, f"protocol error: elapsed_s {elapsed_s!r}")
            return
        if kind == "started":
            state.start(slot)
            return
        state.finish(slot)
        if kind == "error":
            reason = str(message.get("reason", "remote error"))
        else:
            try:
                result = decode_result(message["result"])
            except Exception as error:  # noqa: BLE001 - surfaces as retry
                reason = f"undecodable result: {error}"
            else:
                events.append(PoolEvent(MSG_DONE, state.shard, slot, result, elapsed_s))
                return
        events.append(PoolEvent(MSG_ERROR, state.shard, slot, reason=reason))

    def _reject(self, worker: RemoteWorkerHandle, reason: str) -> None:
        log.warning("refusing worker %s: %s", worker.label, reason)
        try:
            send_frame(worker.sock, {"type": "reject", "reason": reason}, timeout_s=2.0)
        except (OSError, FrameError):
            pass
        self._disconnect(worker, reason, count_failure=False)

    def _disconnect(
        self, worker: RemoteWorkerHandle, reason: str, count_failure: bool = True
    ) -> None:
        if not worker.alive:
            return
        worker.alive = False
        try:
            worker.sock.close()
        except OSError:
            pass
        self._workers.pop(worker.remote_id, None)
        if not worker.registered:
            return
        if count_failure:
            self.stats.worker_failures += 1
            log.warning("remote worker %s lost: %s", worker.label, reason)
        for state in worker.shards.values():
            self.stats.reassignments += 1
            self._lost.append(
                state.lost(f"loss of remote worker {worker.label}: {reason}")
            )
        worker.shards.clear()


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


# ---------------------------------------------------------------------------
# Worker runtime
# ---------------------------------------------------------------------------


class _WorkerRuntime:
    """Bridge behind :func:`run_worker`: socket frames to a local pool.

    Shards from the coordinator queue in a backlog that idle
    :class:`~repro.engine.queue.WorkerPool` processes drain, and pool
    events go back as frames.  The processes live across shards and
    batches.  A process that dies or times out reports its in-flight job
    as an ``error`` frame (entering the coordinator's bounded-retry
    path), and the unstarted remainder of its shard re-runs here under
    the *same* shard id, so the coordinator's bookkeeping holds.
    """

    def __init__(self, sock, workers, heartbeat_s, job_timeout, stderr):
        self.sock = sock
        self.workers = workers
        self.heartbeat_s = heartbeat_s
        self.stderr = stderr
        self.decoder = FrameDecoder()
        self.pool = WorkerPool(job_timeout=job_timeout, inherited_fds=[sock.fileno()])
        self._backlog: list[Shard] = []
        self._last_heartbeat = monotonic()
        self.jobs_done = 0
        self.shards_done = 0

    def _say(self, text: str) -> None:
        print(text, file=self.stderr)

    def _send(self, message: dict) -> None:
        send_frame(self.sock, message)

    def _send_error(self, shard_id, slot, reason: str, elapsed_s: float) -> None:
        self._send(
            {
                "type": "error",
                "shard": shard_id,
                "slot": slot,
                "reason": reason,
                "elapsed_s": elapsed_s,
            }
        )

    def _finish(self, shard_id) -> None:
        self.shards_done += 1
        self._send({"type": "shard_done", "shard": shard_id})

    def _take_shard(self, message: dict) -> None:
        """Queue a shard; a job that fails to rebuild is refused at once."""
        shard_id = message["shard"]
        slots, jobs = [], []
        for slot, payload in zip(message["slots"], message["jobs"]):
            try:
                jobs.append(decode_job(payload))
            except Exception as error:  # noqa: BLE001 - reported to the coordinator
                self._send_error(shard_id, slot, f"refused job: {error}", 0.0)
            else:
                slots.append(slot)
        if not slots:
            self._finish(shard_id)
            return
        shard = Shard(
            shard_id=shard_id,
            jobs=tuple(jobs),
            slots=tuple(slots),
            cost=0.0,
            preferred_worker=0,
        )
        self._backlog.append(shard)

    def _forward(self, event: PoolEvent) -> None:
        shard = event.shard
        shard_id = None if shard is None else shard.shard_id
        if event.kind == MSG_STARTED:
            self._send({"type": "started", "shard": shard_id, "slot": event.slot})
        elif event.kind == MSG_DONE:
            self.jobs_done += 1
            self._send(
                {
                    "type": "done",
                    "shard": shard_id,
                    "slot": event.slot,
                    "result": encode_result(event.result),
                    "elapsed_s": event.elapsed_s,
                }
            )
        elif event.kind == MSG_ERROR:
            self._send_error(shard_id, event.slot, event.reason, event.elapsed_s)
        elif event.kind == MSG_SHARD_DONE:
            self._finish(shard_id)
        elif event.kind == MSG_LOST:
            self.pool.spawn()
            self._say(f"repro worker: simulation process {event.reason}; respawned")
            if event.slot is not None:
                reason = f"simulation process {event.reason} on remote worker"
                self._send_error(shard_id, event.slot, reason, event.elapsed_s)
            if event.remaining:
                jobs = tuple(
                    job
                    for slot, job in zip(shard.slots, shard.jobs)
                    if slot in event.remaining
                )
                remainder = replace(shard, jobs=jobs, slots=event.remaining)
                self._backlog.insert(0, remainder)
            elif shard is not None:
                self._finish(shard_id)

    def _handle_frame(self, message: dict) -> bool:
        """React to one coordinator frame; False means shut down."""
        kind = message.get("type")
        if kind == "shard":
            self._take_shard(message)
            return True
        if kind == "shutdown":
            self._say("repro worker: coordinator asked for shutdown")
            return False
        log.warning("ignoring unknown frame %r from coordinator", kind)
        return True

    def serve(self) -> int:
        for _ in range(self.workers):
            self.pool.spawn()
        try:
            while True:
                watch = [self.sock, *self.pool.wait_channels()]
                if self.sock in connection_wait(watch, timeout=_TICK_S):
                    try:
                        data = self.sock.recv(65536)
                    except (BlockingIOError, InterruptedError):
                        data = None
                    except OSError:
                        self._say("repro worker: connection lost")
                        return 0
                    if data is not None:
                        if not data:
                            self._say("repro worker: coordinator closed the link")
                            return 0
                        for message in self.decoder.feed(data):
                            if not self._handle_frame(message):
                                return 0
                for event in self.pool.poll():
                    self._forward(event)
                for worker in self.pool.idle_workers():
                    if not self._backlog:
                        break
                    self.pool.assign(worker, self._backlog.pop(0))
                now = monotonic()
                if now - self._last_heartbeat >= self.heartbeat_s:
                    self._last_heartbeat = now
                    self._send({"type": "heartbeat"})
        except (OSError, FrameError) as error:
            self._say(f"repro worker: connection lost ({error})")
            return 0
        finally:
            self.pool.shutdown()
            self._say(
                f"repro worker: executed {self.jobs_done} job(s) over "
                f"{self.shards_done} shard(s)"
            )


def run_worker(
    host: str,
    port: int,
    workers: int = 1,
    heartbeat_s: float = HEARTBEAT_S,
    connect_timeout_s: float = 30.0,
    stderr=None,
) -> int:
    """Connect to a coordinator and execute shards until it shuts down.

    Retries the TCP connect for ``connect_timeout_s`` so workers may be
    launched before (or while) the coordinator binds its port.  Returns
    0 on a clean shutdown or lost coordinator, 2 when the handshake is
    refused or never answered.
    """
    import sys

    if stderr is None:
        stderr = sys.stderr
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    deadline = monotonic() + connect_timeout_s
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=5.0)
            break
        except OSError as error:
            if monotonic() > deadline:
                print(
                    f"repro worker: cannot reach {host}:{port} after "
                    f"{connect_timeout_s:.0f}s ({error})",
                    file=stderr,
                )
                return 2
            select.select([], [], [], 0.5)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass
    sock.settimeout(30.0)
    try:
        send_frame(
            sock,
            {
                "type": "hello",
                "version": PROTOCOL_VERSION,
                "capacity": workers,
                "host": socket.gethostname(),
                "pid": os.getpid(),
            },
        )
        reply = recv_frame(sock)
    except (OSError, FrameError) as error:
        print(f"repro worker: handshake failed ({error})", file=stderr)
        sock.close()
        return 2
    if reply.get("type") != "welcome":
        print(
            f"repro worker: refused by {host}:{port} — "
            f"{reply.get('reason', reply)}",
            file=stderr,
        )
        sock.close()
        return 2
    job_timeout = reply.get("job_timeout")
    _configure(sock)
    print(
        f"repro worker: serving {workers} process(es) to {host}:{port} "
        f"(protocol v{reply.get('version')})",
        file=stderr,
    )
    runtime = _WorkerRuntime(sock, workers, heartbeat_s, job_timeout, stderr)
    try:
        return runtime.serve()
    finally:
        try:
            sock.close()
        except OSError:
            pass
