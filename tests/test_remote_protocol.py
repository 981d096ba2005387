"""Wire-protocol tests for the multi-host shard dispatch layer.

Covers the framing codec (partial feeds, oversized rejection, truncated
connections), ``HOST:PORT`` parsing, the JSON job/result envelopes, the
coordinator's handshake discipline — version mismatches and malformed
hellos must be refused with a ``reject`` frame, never accepted or hung —
and its slot check: a worker reporting on a slot it was never assigned
is disconnected, and its result never reaches the dispatcher.
"""

import base64
import json
import pickle
import select
import socket
import threading
from time import monotonic

import pytest

from repro.engine.executor import ExecutorStats
from repro.engine.jobs import SimulationJob, execute_job
from repro.engine.queue import MSG_LOST, Shard, ShardDispatcher
from repro.engine.remote import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameError,
    RemoteCoordinator,
    decode_job,
    decode_result,
    encode_frame,
    encode_job,
    encode_result,
    parse_hostport,
    recv_frame,
    send_frame,
)
from repro.workloads.benchmark_suite import Benchmark, get_benchmark
from repro.workloads.mixes import make_workload

from tests.conftest import quick_run, small_system, small_workload

MB = 1024 * 1024


class TestFraming:
    def test_encode_decode_round_trip(self):
        message = {"type": "hello", "capacity": 3, "nested": {"a": [1, 2]}}
        assert FrameDecoder().feed(encode_frame(message)) == [message]

    def test_byte_at_a_time_feed(self):
        message = {"type": "heartbeat"}
        decoder = FrameDecoder()
        wire = encode_frame(message)
        for byte in wire[:-1]:
            assert decoder.feed(bytes([byte])) == []
        assert decoder.feed(wire[-1:]) == [message]
        assert decoder.pending_bytes() == 0

    def test_multiple_frames_in_one_chunk(self):
        frames = [{"type": "started", "slot": n} for n in range(5)]
        wire = b"".join(encode_frame(f) for f in frames)
        assert FrameDecoder().feed(wire) == frames

    def test_partial_second_frame_is_buffered(self):
        first, second = {"type": "a"}, {"type": "b"}
        wire = encode_frame(first) + encode_frame(second)
        decoder = FrameDecoder()
        assert decoder.feed(wire[:-3]) == [first]
        assert decoder.pending_bytes() > 0
        assert decoder.feed(wire[-3:]) == [second]

    def test_oversized_frame_rejected_by_decoder(self):
        decoder = FrameDecoder(max_frame_bytes=16)
        with pytest.raises(FrameError, match="exceeds"):
            decoder.feed(encode_frame({"type": "x" * 64}))

    def test_oversized_header_rejected_before_payload_arrives(self):
        # A corrupt length header must be refused from the header alone,
        # not after buffering (up to) 4 GiB.
        import struct

        decoder = FrameDecoder()
        with pytest.raises(FrameError, match="exceeds"):
            decoder.feed(struct.pack(">I", MAX_FRAME_BYTES + 1))

    def test_non_json_payload_rejected(self):
        import struct

        payload = b"\xff\xfenot json"
        with pytest.raises(FrameError, match="not valid JSON"):
            FrameDecoder().feed(struct.pack(">I", len(payload)) + payload)

    def test_non_object_payload_rejected(self):
        import struct

        payload = b"[1, 2, 3]"
        with pytest.raises(FrameError, match="JSON object"):
            FrameDecoder().feed(struct.pack(">I", len(payload)) + payload)


class TestSocketFraming:
    def test_send_recv_round_trip(self):
        left, right = socket.socketpair()
        try:
            message = {"type": "done", "slot": 7, "elapsed_s": 0.25}
            sent = send_frame(left, message)
            assert sent == len(encode_frame(message))
            assert recv_frame(right) == message
        finally:
            left.close()
            right.close()

    def test_truncated_frame_raises_not_hangs(self):
        left, right = socket.socketpair()
        try:
            wire = encode_frame({"type": "shard", "jobs": ["x" * 256]})
            left.sendall(wire[: len(wire) // 2])
            left.close()
            with pytest.raises(FrameError, match="truncated"):
                recv_frame(right)
        finally:
            right.close()


class TestParseHostport:
    def test_host_and_port(self):
        assert parse_hostport("10.0.0.5:4242") == ("10.0.0.5", 4242)

    def test_ephemeral_port_zero_allowed(self):
        assert parse_hostport("127.0.0.1:0") == ("127.0.0.1", 0)

    @pytest.mark.parametrize(
        "text", ["localhost", ":9000", "host:", "host:banana", "host:70000"]
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            parse_hostport(text)


def over_the_wire(payload):
    """What the far end of a link decodes: the payload through JSON."""
    return json.loads(json.dumps(payload))


def small_job(mechanism="darp", workload=None, seed=3) -> SimulationJob:
    return SimulationJob(
        config=small_system(mechanism),
        workload=workload or small_workload(),
        cycles=900,
        warmup=100,
        seed=seed,
    )


#: Set when the booby-trapped envelope below is ever unpickled.
_UNPICKLED = []


class _Trap:
    def __reduce__(self):
        return (_UNPICKLED.append, ("unpickled",))


class TestPayloadEnvelopes:
    def test_job_round_trip(self):
        job = small_job()
        clone = decode_job(over_the_wire(encode_job(job)))
        assert clone == job
        assert clone.key() == job.key()

    def test_custom_benchmark_job_round_trips(self):
        # A benchmark outside the suite travels with all of its fields,
        # not as a name the worker would have to look up.
        kv_store = Benchmark(
            name="kv_store_like",
            pattern="mixed",
            footprint_bytes=192 * MB,
            memory_fraction=0.03,
            write_fraction=0.40,
            intensive=True,
            dependent_fraction=0.6,
        )
        workload = make_workload([kv_store, get_benchmark("stream_copy")])
        job = small_job("dsarp", workload=workload)
        clone = decode_job(over_the_wire(encode_job(job)))
        assert clone == job
        assert clone.workload.benchmarks[0] == kv_store
        assert clone.key() == job.key()

    def test_job_whose_rebuilt_key_differs_is_refused(self):
        payload = over_the_wire(encode_job(small_job()))
        payload["seed"] += 1  # the key still names the original job
        with pytest.raises(ValueError, match="key"):
            decode_job(payload)

    def test_job_whose_benchmark_parameters_changed_is_refused(self):
        payload = over_the_wire(encode_job(small_job()))
        # Same benchmark name, twice the footprint: another simulation.
        payload["workload"]["benchmarks"][0]["footprint_bytes"] *= 2
        with pytest.raises(ValueError, match="key"):
            decode_job(payload)

    @pytest.mark.parametrize(
        ("field", "value"),
        [("warmup", -5), ("cycles", 100.5), ("seed", True)],
    )
    def test_malformed_window_on_the_wire_is_refused(self, field, value):
        payload = over_the_wire(encode_job(small_job()))
        payload[field] = value
        with pytest.raises(ValueError, match=field):
            decode_job(payload)

    def test_simulation_result_travels_as_canonical_dict(self):
        result = quick_run("refab", cycles=1200, warmup=200)
        envelope = encode_result(result)
        assert envelope["kind"] == "simulation"
        assert decode_result(over_the_wire(envelope)) == result

    def test_pickle_result_envelope_is_refused_not_unpickled(self):
        envelope = {
            "kind": "pickle",
            "data": base64.b64encode(pickle.dumps(_Trap())).decode("ascii"),
        }
        with pytest.raises(ValueError, match="unsupported result kind"):
            decode_result(envelope)
        assert _UNPICKLED == []


def _await_reply(coordinator, client, timeout_s=10.0):
    """Pump the coordinator until it answers on ``client``."""
    deadline = monotonic() + timeout_s
    while monotonic() < deadline:
        coordinator.poll()
        readable, _, _ = select.select([client], [], [], 0.05)
        if readable:
            client.setblocking(True)
            return recv_frame(client)
    raise AssertionError("coordinator never replied")


@pytest.fixture
def coordinator():
    stats = ExecutorStats()
    coordinator = RemoteCoordinator(stats)
    yield coordinator
    coordinator.close()


def _connect(coordinator) -> socket.socket:
    return socket.create_connection(
        (coordinator.host, coordinator.port), timeout=10
    )


class TestHandshake:
    def test_matching_version_is_welcomed(self, coordinator):
        client = _connect(coordinator)
        try:
            send_frame(
                client,
                {
                    "type": "hello",
                    "version": PROTOCOL_VERSION,
                    "capacity": 2,
                    "host": "testhost",
                    "pid": 1234,
                },
            )
            reply = _await_reply(coordinator, client)
            assert reply["type"] == "welcome"
            assert reply["version"] == PROTOCOL_VERSION
            assert coordinator.live_count() == 1
            assert coordinator.total_capacity() == 2
            assert coordinator.stats.remote_workers == 1
        finally:
            client.close()

    def test_version_mismatch_is_refused(self, coordinator):
        client = _connect(coordinator)
        try:
            send_frame(
                client,
                {"type": "hello", "version": PROTOCOL_VERSION + 1, "capacity": 1},
            )
            reply = _await_reply(coordinator, client)
            assert reply["type"] == "reject"
            assert "version mismatch" in reply["reason"]
            assert coordinator.live_count() == 0
            # A refused handshake is not a worker failure: nothing was
            # ever dispatched to it.
            assert coordinator.stats.worker_failures == 0
        finally:
            client.close()

    def test_bad_capacity_is_refused(self, coordinator):
        client = _connect(coordinator)
        try:
            send_frame(
                client,
                {"type": "hello", "version": PROTOCOL_VERSION, "capacity": 0},
            )
            reply = _await_reply(coordinator, client)
            assert reply["type"] == "reject"
            assert "capacity" in reply["reason"]
            assert coordinator.live_count() == 0
        finally:
            client.close()

    def test_first_frame_must_be_hello(self, coordinator):
        client = _connect(coordinator)
        try:
            send_frame(client, {"type": "heartbeat"})
            reply = _await_reply(coordinator, client)
            assert reply["type"] == "reject"
            assert "hello" in reply["reason"]
        finally:
            client.close()


def _join(coordinator) -> socket.socket:
    """Connect a hand-driven worker and complete its handshake."""
    client = _connect(coordinator)
    send_frame(
        client,
        {"type": "hello", "version": PROTOCOL_VERSION, "capacity": 1},
    )
    assert _await_reply(coordinator, client)["type"] == "welcome"
    return client


def _pump_until_closed(coordinator, client, timeout_s=10.0) -> list:
    """Pump the coordinator until it drops ``client``; returns its events."""
    events = []
    deadline = monotonic() + timeout_s
    while monotonic() < deadline:
        events += coordinator.poll()
        readable, _, _ = select.select([client], [], [], 0.05)
        if readable and not client.recv(65536):
            return events + coordinator.poll()
    raise AssertionError("coordinator never disconnected the worker")


class TestSlotCheck:
    """A worker may only report on slots of shards assigned to it."""

    @pytest.mark.parametrize(
        "kind, slot",
        [
            ("done", None),
            ("done", -1),
            ("done", 5),
            ("done", True),  # a JSON boolean is not slot 1
            ("error", -1),
            ("error", 5),
            ("started", 5),
        ],
    )
    def test_unassigned_slot_disconnects_the_worker(self, coordinator, kind, slot):
        client = _join(coordinator)
        try:
            worker = coordinator.live_workers()[0]
            shard = Shard(
                shard_id=0,
                jobs=(small_job(),),
                slots=(1,),
                cost=1.0,
                preferred_worker=0,
            )
            assert coordinator.dispatch(worker, shard)
            client.setblocking(True)
            assert recv_frame(client)["type"] == "shard"
            frame = {"type": kind, "shard": 0, "elapsed_s": 0.1}
            if slot is not None:
                frame["slot"] = slot
            if kind == "done":
                frame["result"] = encode_result(quick_run(cycles=600, warmup=100))
            send_frame(client, frame)
            events = _pump_until_closed(coordinator, client)
        finally:
            client.close()
        assert [event.kind for event in events] == [MSG_LOST]
        assert events[0].remaining == (1,)
        assert coordinator.live_count() == 0
        assert coordinator.stats.worker_failures == 1
        assert coordinator.stats.reassignments == 1

    def test_frame_for_a_shard_never_assigned_disconnects(self, coordinator):
        client = _join(coordinator)
        try:
            send_frame(client, {"type": "started", "shard": 7, "slot": 0})
            events = _pump_until_closed(coordinator, client)
        finally:
            client.close()
        assert events == []
        assert coordinator.live_count() == 0
        assert coordinator.stats.worker_failures == 1

    def test_foreign_result_never_reaches_on_result(self, coordinator):
        # A rogue worker answers its shard with a "done" for slot -1,
        # which would index the last job of the batch.  The coordinator
        # must drop the worker instead, and the batch must still finish
        # with every job's own result (on a local fallback worker).
        jobs = [small_job(seed=seed) for seed in (0, 1)]
        forged = encode_result(quick_run(cycles=600, warmup=100))
        client = _join(coordinator)
        client.setblocking(True)

        def rogue():
            try:
                shard = recv_frame(client)
                send_frame(
                    client,
                    {
                        "type": "done",
                        "shard": shard["shard"],
                        "slot": -1,
                        "result": forged,
                        "elapsed_s": 0.1,
                    },
                )
                while client.recv(65536):
                    pass
            except OSError:
                pass

        thread = threading.Thread(target=rogue)
        thread.start()
        delivered = []
        dispatcher = ShardDispatcher(
            workers=0,
            stats=coordinator.stats,
            on_result=lambda slot, result, *_: delivered.append((slot, result)),
            remote=coordinator,
        )
        try:
            results = dispatcher.run(jobs)
        finally:
            client.close()
            thread.join(timeout=10)
        assert results == [execute_job(job) for job in jobs]
        assert sorted(slot for slot, _ in delivered) == [0, 1]
        assert all(result == results[slot] for slot, result in delivered)
        assert coordinator.stats.worker_failures == 1
