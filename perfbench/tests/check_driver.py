"""Tests for the benchmark driver.

Kept out of the repository's tier-1 collection (the file name does not
match ``test_*.py``); run them explicitly from the repository root::

    python3 -m pytest perfbench/tests/check_driver.py -q
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import cells  # noqa: E402
import reports  # noqa: E402
import run  # noqa: E402
import repro.sim.simulator as simulator_module  # noqa: E402
from repro.sim.simulator import Simulator  # noqa: E402
from repro.workloads.benchmark_suite import Benchmark  # noqa: E402
from spans import Patcher, SpanTracer  # noqa: E402


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_excludes_children_on_a_toy_call_tree():
    clock = FakeClock()
    tracer = SpanTracer(clock=clock)

    def leaf():
        clock.advance(1.0)

    def middle():
        clock.advance(2.0)
        traced_leaf()
        traced_leaf()
        clock.advance(0.5)

    def root():
        clock.advance(3.0)
        traced_middle()
        traced_leaf()

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    tracer.wrap("root", root)()

    assert tracer.calls == {"root": 1, "middle": 1, "leaf": 3}
    assert tracer.self_s["leaf"] == pytest.approx(3.0)
    assert tracer.self_s["middle"] == pytest.approx(2.5)
    assert tracer.self_s["root"] == pytest.approx(3.0)
    assert tracer.total_s["root"] == pytest.approx(8.5)
    # Self times partition the root's wall time exactly.
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.total_s["root"])
    assert tracer.depth() == 0


def test_span_closes_when_the_wrapped_call_raises():
    clock = FakeClock()
    tracer = SpanTracer(clock=clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.calls["boom"] == 1
    assert tracer.self_s["boom"] == pytest.approx(1.0)
    assert tracer.depth() == 0


def test_patcher_restores_instance_module_and_class_attributes():
    class Thing:
        def work(self):
            return 42

    thing = Thing()
    warmup = vars(Simulator)["_functional_warmup"]
    memory_system = simulator_module.MemorySystem
    trace = vars(Benchmark)["trace"]
    tracer = SpanTracer()
    with Patcher(tracer) as patch:
        patch.method(thing, "work", "thing.work")
        patch.method(thing, "work", "thing.work")  # second wrap is a no-op
        patch.attribute(Simulator, "_functional_warmup", "warmup")
        patch.attribute(simulator_module, "MemorySystem", "memory")
        patch.replace(Benchmark, "trace", lambda self, seed=0: iter(()))
        assert thing.work() == 42
        assert vars(Simulator)["_functional_warmup"] is not warmup
    assert tracer.calls["thing.work"] == 1
    assert "work" not in vars(thing)
    assert vars(Simulator)["_functional_warmup"] is warmup
    assert simulator_module.MemorySystem is memory_system
    assert vars(Benchmark)["trace"] is trace


def test_tampered_cell_result_is_rejected():
    round_ = cells.Round(digests={"refab": "a" * 64, "dsarp": "b" * 64})
    pinned = dict(round_.digests)
    assert cells.check([round_], pinned) == (2, 0)
    tampered = dataclasses.replace(round_, digests=dict(pinned, dsarp="c" * 64))
    assert cells.check([round_, tampered], pinned) == (4, 1)


def test_cell_metrics_take_each_cells_fastest_round():
    rounds = [
        cells.Round(
            setup_s_by_cell={"refab": setup, "dsarp": 1.0},
            run_s_by_cell={"refab": 1.0, "dsarp": run},
            digests={"refab": "", "dsarp": ""},
        )
        for setup, run in ((0.5, 2.0), (0.7, 9.0), (9.0, 3.0))
    ]
    metrics = cells.end_to_end(rounds)
    # Fastest cells: refab 0.5 + 1.0 s, dsarp 1.0 + 2.0 s.
    assert metrics["setup_s"] == pytest.approx(1.5)
    assert metrics["wall_s"] == pytest.approx(4.5)
    assert metrics["jobs_per_s"] == pytest.approx(2 / 4.5)
    assert metrics["sim_cycles_per_s"] == pytest.approx(
        2 * (cells.CYCLES + cells.WARMUP) / 3.0
    )


def test_tampered_result_changes_its_digest():
    inputs = cells.cell_inputs("intensive8", 0)[:1]
    mechanism, config, workload, sim_seed = inputs[0]
    result = Simulator(config, workload, seed=sim_seed).run(300, warmup=50)
    digest = cells.result_digest(result)
    result.controller_stats["served_reads"] += 1
    assert cells.result_digest(result) != digest


def _report_pass(**changes) -> reports.Pass:
    files = {"table2.json": "1" * 64, "table2.svg": "2" * 64}
    run = reports.Pass(
        setups_s=[0.01, 0.02],
        cold_s=1.0,
        warm_s=0.1,
        wall_s=1.2,
        summary={"simulated": 40, "retries": 0, "worker_failures": 0, "reassignments": 0},
        warm_simulated=0,
        job_s={f"job{n}": 0.025 for n in range(40)},
        golden_ok=True,
        cold_files=dict(files),
        warm_files=dict(files),
    )
    return dataclasses.replace(run, **changes), files


def test_report_gates():
    run, pinned = _report_pass()
    assert reports.check(run, pinned) == (40, 0)
    tampered, _ = _report_pass(cold_files={"table2.json": "f" * 64})
    assert reports.check(tampered, pinned) == (40, 40)
    drifted, _ = _report_pass(golden_ok=False)
    assert reports.check(drifted, pinned) == (40, 40)
    resimulated, _ = _report_pass(warm_simulated=1)
    assert reports.check(resimulated, pinned) == (40, 40)
    untimed, _ = _report_pass(job_s={"job0": 1.0})
    assert reports.check(untimed, pinned) == (40, 40)
    retried, _ = _report_pass(
        summary={"simulated": 40, "retries": 2, "worker_failures": 1, "reassignments": 0}
    )
    assert reports.check(retried, pinned) == (40, 3)


def test_report_metrics_assemble_the_fastest_pieces_of_the_passes():
    passes = [
        _report_pass(cold_s=cold, wall_s=cold + rest, setups_s=setups, job_s=jobs)[0]
        for cold, rest, setups, jobs in (
            (2.0, 1.0, [0.5, 0.7], {"a": 0.5, "b": 1.0}),
            (4.0, 0.5, [0.6, 0.9], {"a": 3.0, "b": 0.75}),
        )
    ]
    metrics = reports.end_to_end(passes)
    # Jobs a 0.5 + b 0.75 s, remainder 0.25 s (pass 2: 4.0 - 3.75).
    assert metrics["jobs_per_s"] == pytest.approx(40 / 1.5)
    assert metrics["sim_cycles_per_s"] == pytest.approx(
        40 * (reports.GOLDEN_CYCLES + reports.GOLDEN_WARMUP) / 1.5
    )
    assert metrics["wall_s"] == pytest.approx(2.0)
    assert metrics["setup_s"] == pytest.approx(0.5)


def test_repeat_runs_twice_then_only_what_fits(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(run, "perf_counter", clock)

    def unit(seconds):
        clock.advance(seconds)
        return seconds

    assert run.repeat(lambda: unit(7.0), 10.0) == [7.0, 7.0]
    costs = iter([3.0, 2.0, 4.0, 2.0, 2.0])
    assert run.repeat(lambda: unit(next(costs)), 10.0) == [3.0, 2.0, 4.0]


def test_traced_and_untraced_digests_are_equal(monkeypatch):
    monkeypatch.setattr(cells, "CYCLES", 400)
    monkeypatch.setattr(cells, "WARMUP", 100)
    inputs = cells.cell_inputs("intensive8", 1)
    plain = cells.run_round(inputs)
    tracer = SpanTracer()
    traced, hit_ratio = cells.traced_round(inputs, tracer)
    assert traced.digests == plain.digests
    assert 0.0 <= hit_ratio <= 1.0
    metrics = cells.per_layer(plain, traced, tracer, hit_ratio)
    assert metrics["cpu.tick.calls"] > 0
    assert metrics["dram.issue.calls"] > 0
    assert metrics["core.post_demand.calls"] > 0
    # Wrappers are gone and the self times cover each traced run.
    assert vars(Benchmark)["trace"].__name__ == "trace"
    assert abs(metrics["sim.unattributed_s"]) < 1e-6 * max(1, cells.CYCLES)
