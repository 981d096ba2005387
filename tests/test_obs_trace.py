"""Command-stream tracer: ring buffer, sinks, and non-perturbation.

The contracts pinned here are the tentpole's load-bearing guarantees:

* the JSONL and binary sinks decode to identical ``(header, records)``
  streams, so consumers never care which format produced a file;
* the ring buffer keeps the newest records and counts what it dropped;
* enabling the tracer never changes simulation results; and
* a complete trace's totals agree exactly with the run's aggregate
  statistics (the ``repro trace`` crosscheck).
"""

from __future__ import annotations

import pytest

from repro.config.obs_config import ObsConfig
from repro.engine.jobs import SimulationJob
from repro.obs.record import ALL_OPS, COMMAND_OPS, DECISION_OPS, TraceRecord
from repro.obs.summarize import summarize_path, summarize_trace
from repro.obs.trace import TRACE_SUFFIXES, CommandTracer, read_trace, write_trace
from repro.sim.simulator import Simulator

from tests.conftest import small_system, small_workload

CYCLES = 2000
WARMUP = 400


def sample_records() -> list[TraceRecord]:
    """One record per op, with the corner values each op actually uses."""
    records = []
    for index, op in enumerate(COMMAND_OPS):
        records.append(
            TraceRecord(
                cycle=10 * index,
                op=op,
                channel=index % 2,
                rank=index % 2,
                bank=index if op != "REFAB" else -1,
                row=100 + index if op == "ACT" else -1,
                done=10 * index + 5,
            )
        )
    for index, op in enumerate(DECISION_OPS):
        records.append(
            TraceRecord(
                cycle=-1 if op == "SARP_CONFLICT" else 50 * index,
                op=op,
                channel=0,
                rank=1,
                bank=index,
                row=-1,
                done=3 if op == "SARP_CONFLICT" else 0,
            )
        )
    return records


@pytest.fixture(scope="module")
def traced_run():
    """One small DARP run with tracing and epochs on, plus its twin off."""
    base = small_system("darp")
    workload = small_workload()
    traced = Simulator(
        base.with_obs(trace=True, epoch_interval=300), workload
    )
    traced_result = traced.run(CYCLES, warmup=WARMUP)
    plain_result = Simulator(base, workload).run(CYCLES, warmup=WARMUP)
    return traced, traced_result, plain_result


class TestRingBuffer:
    def test_drops_oldest_and_counts(self):
        tracer = CommandTracer(capacity=4)
        for cycle in range(10):
            tracer.decision("DARP_POSTPONE", cycle, 0, 0)
        assert len(tracer.records) == 4
        assert tracer.total == 10
        assert tracer.dropped == 6
        assert [r.cycle for r in tracer.records] == [6, 7, 8, 9]

    def test_reset_clears_everything(self):
        tracer = CommandTracer(capacity=4)
        tracer.decision("DARP_FORCED", 1, 0, 0)
        tracer.reset()
        assert len(tracer.records) == 0
        assert tracer.total == 0
        assert tracer.dropped == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            CommandTracer(capacity=0)


class TestSinks:
    def test_jsonl_binary_round_trip_identical(self, tmp_path):
        header = {"schema": "repro.obs.trace", "dropped": 0, "cycles": 123}
        records = sample_records()
        jsonl = write_trace(tmp_path / "t.jsonl", header, records, fmt="jsonl")
        binary = write_trace(tmp_path / "t.bin", header, records, fmt="binary")
        jsonl_header, jsonl_records = read_trace(jsonl)
        binary_header, binary_records = read_trace(binary)
        assert jsonl_header == header
        assert binary_header == header
        assert jsonl_records == records
        assert binary_records == records

    def test_binary_is_smaller(self, tmp_path):
        header = {"dropped": 0}
        records = sample_records() * 50
        jsonl = write_trace(tmp_path / "t.jsonl", header, records, fmt="jsonl")
        binary = write_trace(tmp_path / "t.bin", header, records, fmt="binary")
        assert binary.stat().st_size < jsonl.stat().st_size / 2

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_trace(tmp_path / "t.x", {}, [], fmt="csv")

    def test_every_trace_format_has_a_suffix(self, tmp_path):
        assert set(TRACE_SUFFIXES) == set(ObsConfig.TRACE_FORMATS)
        for fmt, suffix in TRACE_SUFFIXES.items():
            path = write_trace(tmp_path / f"t.{suffix}", {}, sample_records(), fmt=fmt)
            assert read_trace(path)[1] == sample_records()

    def test_unknown_format_error_names_every_format(self, tmp_path):
        with pytest.raises(ValueError) as error:
            write_trace(tmp_path / "t.x", {}, [], fmt="csv")
        assert all(fmt in str(error.value) for fmt in ObsConfig.TRACE_FORMATS)

    def test_record_dict_round_trip(self):
        for record in sample_records():
            assert TraceRecord.from_dict(record.as_dict()) == record

    def test_every_op_is_encodable(self):
        # The binary sink indexes into ALL_OPS; a decision op missing from
        # the table would only fail at write time deep inside a run.
        assert set(COMMAND_OPS) | set(DECISION_OPS) == set(ALL_OPS)


class TestNonPerturbation:
    def test_tracing_does_not_change_results(self, traced_run):
        _, traced_result, plain_result = traced_run
        assert traced_result.to_dict() == plain_result.to_dict()

    def test_trace_covers_measured_window_only(self, traced_run):
        simulator, _, _ = traced_run
        tracer = simulator.memory.tracer
        assert tracer is not None
        assert all(
            record.cycle >= WARMUP
            for record in tracer.records
            if record.cycle >= 0
        )


class TestCrosscheck:
    @pytest.fixture(scope="class", params=["jsonl", "binary"])
    def summary(self, request, tmp_path_factory):
        tmp = tmp_path_factory.mktemp(f"trace-{request.param}")
        config = small_system("darp").with_obs(
            trace=True,
            trace_dir=str(tmp),
            trace_format=request.param,
            epoch_interval=300,
        )
        job = SimulationJob(
            config=config,
            workload=small_workload(),
            cycles=CYCLES,
            warmup=WARMUP,
            seed=0,
        )
        result = job.run()
        (path,) = tmp.iterdir()
        return summarize_path(path), result

    def test_complete_trace_totals_match_run_aggregates(self, summary):
        trace_summary, _ = summary
        check = trace_summary["crosscheck"]
        assert check["strict"], "trace unexpectedly dropped records"
        assert check["checked"] >= 10
        assert check["agrees"], check["checks"]

    def test_overlap_windows_are_bounded_by_refresh_count(self, summary):
        trace_summary, result = summary
        overlap = trace_summary["refresh_overlap"]
        refreshes = (
            result.device_stats["all_bank_refreshes"]
            + result.device_stats["per_bank_refreshes"]
        )
        assert overlap["refreshes"] == refreshes
        assert 0 <= overlap["refreshes_with_overlap"] <= overlap["refreshes"]
        assert len(overlap["windows"]) == overlap["refreshes"]

    def test_row_hit_runs_count_activations(self, summary):
        trace_summary, result = summary
        assert (
            trace_summary["row_hit_runs"]["count"]
            == result.device_stats["activates"]
        )

    def test_incomplete_trace_is_not_held_to_agreement(self):
        header = {
            "mechanism": "darp",
            "dropped": 7,
            "device_stats": {"activates": 999},
        }
        summary = summarize_trace(header, sample_records())
        check = summary["crosscheck"]
        assert not check["strict"]
        assert check["agrees"]  # partial traces cannot match by design
