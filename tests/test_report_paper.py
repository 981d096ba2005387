"""Paper artifact generator: determinism, warm-store reuse, crosscheck.

The expensive property is pinned end to end at the golden identity:
generating the Table 2 artifact twice from the same result store must be
byte-identical with **zero** simulations on the warm pass, and a
tampered store must trip the golden crosscheck (exit 1) instead of
silently publishing wrong numbers.  One module-scoped cold CLI run pays
the simulation cost once; every test reuses its store.
"""

from __future__ import annotations

import io
import json
import pathlib

import pytest

from repro.cli import main
from repro.report.paper import (
    GOLDEN_SCALE,
    ReportError,
    generate_paper_report,
)
from repro.sim.registry import EXPERIMENTS
from repro.sim.runner import ExperimentRunner

GOLDEN_ARGS = [
    "--cycles",
    "1200",
    "--warmup",
    "200",
    "--workloads-per-category",
    "1",
    "--sensitivity-workloads",
    "1",
    "--densities",
    "8,32",
]


def invoke(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    code = main(argv, stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


@pytest.fixture(scope="module")
def cold_run(tmp_path_factory):
    """One cold ``report paper`` run for table2 at the golden identity."""
    tmp = tmp_path_factory.mktemp("report-paper")
    store = tmp / "store.jsonl"
    out = tmp / "cold"
    code, stdout, stderr = invoke(
        ["report", "paper", "--store", str(store), "--out", str(out),
         "--artifacts", "table2"] + GOLDEN_ARGS
    )
    assert code == 0, stderr
    return tmp, store, out, stdout


class TestArtifactFiles:
    def test_all_four_formats_written(self, cold_run):
        _, _, out, _ = cold_run
        for suffix in (".json", ".md", ".tex", ".svg"):
            path = out / f"table2{suffix}"
            assert path.exists() and path.stat().st_size > 0
        assert (out / "index.md").exists()

    def test_crosscheck_ok_against_committed_goldens(self, cold_run):
        _, _, _, stdout = cold_run
        assert "crosscheck table2_summary: ok" in stdout

    def test_markdown_contains_pipe_table_and_svg_link(self, cold_run):
        _, _, out, _ = cold_run
        text = (out / "table2.md").read_text()
        assert "| Density | Mechanism |" in text
        assert "![table2](table2.svg)" in text

    def test_latex_block_is_a_tabular(self, cold_run):
        _, _, out, _ = cold_run
        text = (out / "table2.tex").read_text()
        assert text.startswith("% Table 2")
        assert "\\begin{tabular}" in text and "\\end{tabular}" in text

    def test_json_payload_matches_committed_golden(self, cold_run):
        _, _, out, _ = cold_run
        golden = json.loads(
            (pathlib.Path(__file__).parent / "golden" / "table2_summary.json")
            .read_text()
        )
        assert json.loads((out / "table2.json").read_text()) == golden


class TestWarmStoreDeterminism:
    def test_warm_rerun_simulates_nothing_and_is_byte_identical(self, cold_run):
        tmp, store, cold_out, _ = cold_run
        warm_out = tmp / "warm"
        code, _, stderr = invoke(
            ["report", "paper", "--store", str(store), "--out", str(warm_out),
             "--artifacts", "table2"] + GOLDEN_ARGS
        )
        assert code == 0, stderr
        assert "0 simulated" in stderr
        for suffix in (".json", ".md", ".tex", ".svg"):
            assert (warm_out / f"table2{suffix}").read_bytes() == (
                cold_out / f"table2{suffix}"
            ).read_bytes()


class TestGoldenCrosscheck:
    def test_tampered_store_fails_the_crosscheck(self, cold_run, tmp_path):
        tmp, store, _, _ = cold_run
        tampered = tmp_path / "tampered.jsonl"
        lines = []
        for index, line in enumerate(store.read_text().splitlines()):
            record = json.loads(line)
            # Skew one in three results: a uniform skew would cancel in
            # the normalized weighted-speedup ratios.
            if index % 3 == 0:
                for core in record["result"].get("cores", []):
                    core["ipc"] *= 1.5
            lines.append(json.dumps(record))
        tampered.write_text("\n".join(lines) + "\n")
        code, stdout, stderr = invoke(
            ["report", "paper", "--store", str(tampered),
             "--out", str(tmp_path / "out"), "--artifacts", "table2"]
            + GOLDEN_ARGS
        )
        assert code == 1
        assert "crosscheck table2_summary: mismatch" in stdout
        assert "do not publish" in stderr

    def test_non_golden_scale_is_skipped_not_failed(self, tmp_path):
        runner = ExperimentRunner(cycles=600, warmup=100)
        report = generate_paper_report(
            tmp_path / "out",
            runner=runner,
            scale=GOLDEN_SCALE,
            names=["figure5"],
        )
        assert report.ok
        # figure5 carries no golden fixture; no checks apply at all.
        assert report.crosschecks == []

    def test_no_crosscheck_flag_skips_comparison(self, cold_run, tmp_path):
        _, store, _, _ = cold_run
        code, stdout, _ = invoke(
            ["report", "paper", "--store", str(store),
             "--out", str(tmp_path / "out"), "--artifacts", "table2",
             "--no-crosscheck"] + GOLDEN_ARGS
        )
        assert code == 0
        assert "crosscheck table2_summary" not in stdout


class TestRegistry:
    def test_every_paper_artifact_is_registered(self):
        expected = {"table2", "table3", "table4", "table5", "table6"} | {
            f"figure{n}" for n in (5, 6, 7, 12, 13, 14, 15, 16)
        }
        charted = {name for name, record in EXPERIMENTS.items() if record.chart}
        assert charted == expected

    def test_unknown_artifact_name_is_rejected(self, tmp_path):
        with pytest.raises(ReportError, match="unknown artifact"):
            generate_paper_report(tmp_path, names=["table99"])

    def test_unknown_artifact_name_is_a_cli_error(self, tmp_path):
        code, _, stderr = invoke(
            ["report", "paper", "--out", str(tmp_path), "--artifacts", "nope"]
        )
        assert code == 2
        assert "unknown artifact" in stderr
