"""End-to-end tests of sweep execution, analysis, artifacts and the CLI."""

import io
import json

import pytest

from repro.engine.store import JsonlStore
from repro.sim.runner import ExperimentRunner
from repro.sweep import (
    Axis,
    SweepCell,
    SweepResult,
    SweepSpec,
    WorkloadSpec,
    best_per_workload,
    load_run_dir,
    pareto_frontier,
    run_sweep,
    sensitivity,
    summarize,
    write_run_dir,
)

CYCLES, WARMUP = 1200, 200


def tiny_spec() -> SweepSpec:
    return SweepSpec(
        name="tiny",
        description="two-axis smoke sweep",
        axes=(Axis("tfaw", (10, 20)), Axis("subarrays_per_bank", (4, 8))),
        mechanisms=("refpb", "sarppb"),
        baseline="refpb",
        base={"density_gb": 32},
        workloads=WorkloadSpec(kind="intensive", count=1, num_cores=4),
    )


@pytest.fixture(scope="module")
def tiny_result() -> SweepResult:
    runner = ExperimentRunner(cycles=CYCLES, warmup=WARMUP)
    return run_sweep(tiny_spec(), runner=runner)


class TestRunSweep:
    def test_cell_grid_shape(self, tiny_result):
        # 4 points x 1 workload x 2 mechanisms.
        assert len(tiny_result.cells) == 8
        assert len(tiny_result.points) == 4
        assert tiny_result.workload_names() == ["mix100_00"]
        mechanisms = {cell.mechanism for cell in tiny_result.cells}
        assert mechanisms == {"refpb", "sarppb"}

    def test_cells_carry_positive_metrics(self, tiny_result):
        for cell in tiny_result.cells:
            assert cell.weighted_speedup > 0
            assert cell.energy_per_access_nj > 0

    def test_warm_store_resweep_is_free(self, tmp_path):
        store_path = tmp_path / "cache.jsonl"
        cold_runner = ExperimentRunner(
            cycles=CYCLES, warmup=WARMUP, store=JsonlStore(store_path)
        )
        cold = run_sweep(tiny_spec(), runner=cold_runner)
        assert cold_runner.summary()["simulated"] > 0

        # Fresh runner and store object; only the file is shared.
        warm_runner = ExperimentRunner(
            cycles=CYCLES, warmup=WARMUP, store=JsonlStore(store_path)
        )
        warm = run_sweep(tiny_spec(), runner=warm_runner)
        assert warm_runner.summary()["simulated"] == 0
        assert [cell.to_dict() for cell in warm.cells] == [
            cell.to_dict() for cell in cold.cells
        ]


    def test_non_positive_density_axis_is_refused(self):
        spec = SweepSpec(
            name="bad_density",
            axes=(Axis("density_gb", (-8, 0)),),
            mechanisms=("refab",),
            baseline="refab",
            workloads=WorkloadSpec(kind="intensive", count=1, num_cores=2),
        )
        runner = ExperimentRunner(cycles=CYCLES, warmup=WARMUP)
        with pytest.raises(ValueError, match="density_gb"):
            run_sweep(spec, runner=runner)
        assert runner.summary()["simulated"] == 0


class TestArtifacts:
    def test_run_dir_round_trip(self, tiny_result, tmp_path):
        out = write_run_dir(tmp_path / "run", tiny_result)
        assert (out / "spec.json").exists()
        assert (out / "results.jsonl").exists()
        assert (out / "summary.md").exists()
        loaded = load_run_dir(out)
        assert loaded.spec == tiny_result.spec
        assert [c.to_dict() for c in loaded.cells] == [
            c.to_dict() for c in tiny_result.cells
        ]

    def test_results_jsonl_lines_are_self_contained(self, tiny_result, tmp_path):
        out = write_run_dir(tmp_path / "run", tiny_result)
        lines = (out / "results.jsonl").read_text().splitlines()
        assert len(lines) == len(tiny_result.cells)
        record = json.loads(lines[0])
        assert {"point", "workload", "mechanism", "weighted_speedup"} <= set(record)

    def test_summary_mentions_pareto_and_sensitivity(self, tiny_result):
        text = summarize(tiny_result)
        assert "Pareto frontier" in text
        assert "Sensitivity to tfaw" in text
        assert "Sensitivity to subarrays_per_bank" in text
        assert "Best configuration per workload" in text


def synthetic_result() -> SweepResult:
    """A hand-built 2-point x 2-mechanism grid with known orderings."""
    spec = SweepSpec(
        name="synthetic",
        axes=(Axis("tfaw", (10, 20)),),
        mechanisms=("refpb", "sarppb"),
        baseline="refpb",
    )

    def cell(tfaw, mechanism, ws, energy):
        return SweepCell(
            point={"tfaw": tfaw},
            workload="wl",
            category=100,
            mechanism=mechanism,
            weighted_speedup=ws,
            harmonic_speedup=ws,
            maximum_slowdown=1.0,
            energy_per_access_nj=energy,
        )

    cells = [
        cell(10, "refpb", 1.0, 50.0),
        cell(10, "sarppb", 1.2, 40.0),  # dominates everything
        cell(20, "refpb", 0.9, 55.0),
        cell(20, "sarppb", 1.1, 45.0),
    ]
    return SweepResult(spec=spec, points=[{"tfaw": 10}, {"tfaw": 20}], cells=cells)


class TestAnalysis:
    def test_pareto_frontier_flags_non_dominated(self):
        frontier = pareto_frontier(synthetic_result())
        flagged = [
            (entry.point["tfaw"], entry.mechanism)
            for entry in frontier
            if entry.on_frontier
        ]
        assert flagged == [(10, "sarppb")]
        # Frontier entries sort first, by descending weighted speedup.
        assert frontier[0].on_frontier
        assert [e.weighted_speedup for e in frontier] == sorted(
            (e.weighted_speedup for e in frontier), reverse=True
        )

    def test_sensitivity_computes_gains_vs_baseline(self):
        tables = sensitivity(synthetic_result())
        gains = tables["tfaw"]
        assert gains[10]["sarppb"] == pytest.approx(20.0)
        assert gains[20]["sarppb"] == pytest.approx(100.0 * (1.1 / 0.9 - 1.0))
        assert "refpb" not in gains[10]  # the baseline is not its own gain

    def test_best_per_workload_picks_max_ws(self):
        best = best_per_workload(synthetic_result())
        assert best["wl"].point == {"tfaw": 10}
        assert best["wl"].mechanism == "sarppb"
        assert best["wl"].weighted_speedup == pytest.approx(1.2)

    def test_best_per_workload_separates_workload_axes(self):
        # A num_cores axis rebuilds the workload under the same name, and
        # WS scales with core count — same-named cells from different core
        # counts must rank separately, not collapse to "most cores wins".
        spec = SweepSpec(
            name="cores",
            axes=(Axis("num_cores", (2, 8)),),
            mechanisms=("refab", "dsarp"),
            baseline="refab",
        )
        cells = [
            SweepCell(
                point={"num_cores": cores},
                workload="mix100_00",
                category=100,
                mechanism="dsarp",
                weighted_speedup=float(cores),
                harmonic_speedup=1.0,
                maximum_slowdown=1.0,
                energy_per_access_nj=30.0,
            )
            for cores in (2, 8)
        ]
        best = best_per_workload(
            SweepResult(spec=spec, points=[{"num_cores": 2}, {"num_cores": 8}], cells=cells)
        )
        assert set(best) == {"mix100_00 (num_cores=2)", "mix100_00 (num_cores=8)"}
        assert best["mix100_00 (num_cores=2)"].weighted_speedup == pytest.approx(2.0)


class TestSweepCli:
    def run_cli(self, argv):
        from repro.cli import main

        stdout, stderr = io.StringIO(), io.StringIO()
        code = main(argv, stdout=stdout, stderr=stderr)
        return code, stdout.getvalue(), stderr.getvalue()

    def test_sweep_from_spec_file(self, tmp_path):
        spec_path = tiny_spec().save(tmp_path / "spec.json")
        out_dir = tmp_path / "artifact"
        store = tmp_path / "cache.jsonl"
        argv = [
            "sweep",
            str(spec_path),
            "--out",
            str(out_dir),
            "--store",
            str(store),
            "--cycles",
            str(CYCLES),
            "--warmup",
            str(WARMUP),
        ]
        code, out, err = self.run_cli(argv)
        assert code == 0, err
        assert "Pareto frontier" in out
        assert (out_dir / "summary.md").exists()
        assert "— 0 simulated" not in err

        # Second invocation against the same store: zero new simulations,
        # identical summary.
        code, second_out, second_err = self.run_cli(argv)
        assert code == 0
        assert "— 0 simulated" in second_err
        assert second_out == out

    def test_sweep_builtin_dry_run(self):
        code, out, err = self.run_cli(
            ["sweep", "table5_subarray_sensitivity", "--dry-run"]
        )
        assert code == 0
        assert "subarrays_per_bank" in err

    def test_sweep_unknown_spec_fails_cleanly(self):
        code, out, err = self.run_cli(["sweep", "no_such_spec.json"])
        assert code == 2
        assert "neither a spec file nor a built-in sweep" in err

    def test_sweep_accepts_a_run_directory(self, tmp_path):
        # Run directories advertise themselves as re-runnable: pointing
        # the CLI at one must pick up its spec.json.
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        tiny_spec().save(run_dir / "spec.json")
        code, _, err = self.run_cli(["sweep", str(run_dir), "--dry-run"])
        assert code == 0, err
        assert "tiny" in err

    def test_sweep_rejects_directory_without_spec(self, tmp_path):
        code, _, err = self.run_cli(["sweep", str(tmp_path), "--dry-run"])
        assert code == 2
        assert "without a spec.json" in err

    def test_list_includes_builtin_sweeps_and_docstring_summaries(self):
        code, out, _ = self.run_cli(["list"])
        assert code == 0
        assert "table5_subarray_sensitivity" in out
        # Descriptions come from the experiment functions' docstrings.
        assert "Table 5: % WS improvement of SARPpb over REFpb" in out
