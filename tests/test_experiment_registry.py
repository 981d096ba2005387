"""One experiment registry behind every surface: CLI, paper report, bench."""

import io
import re

import pytest

from repro.bench import get_spec
from repro.cli import main
from repro.report.paper import ReportError, generate_paper_report
from repro.sim.registry import EXPERIMENTS


def run_cli(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    code = main(argv, stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


class TestOneRegistry:
    def test_list_and_run_choices_are_the_registry(self, capsys):
        code, out, _ = run_cli(["list"])
        assert code == 0
        for name, experiment in EXPERIMENTS.items():
            line = rf"^  {name} +{re.escape(experiment.description)}$"
            assert re.search(line, out, re.M), name
        for command in ("run", "profile"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            # The positional's help entry lists its choices.
            usage = capsys.readouterr().out
            choices = re.search(r"^  \{([\w,]+)\}", usage, re.M).group(1).split(",")
            assert choices == sorted(EXPERIMENTS)

    def test_paper_report_covers_the_charted_records(self, tmp_path):
        with pytest.raises(ReportError) as excinfo:
            generate_paper_report(tmp_path, names=["nope"])
        known = str(excinfo.value).split("known: ")[1].split(", ")
        charted = sorted(name for name, e in EXPERIMENTS.items() if e.chart)
        assert known == charted
        # Only the two Section 6.1.2 ablations stay out of the report.
        uncharted = set(EXPERIMENTS) - set(charted)
        assert uncharted == {"darp_components", "dsarp_additivity"}

    def test_bench_list_describes_each_record_by_its_docstring(self):
        code, out, _ = run_cli(["bench", "list"])
        assert code == 0
        for experiment in EXPERIMENTS.values():
            assert get_spec(experiment.bench).description == experiment.description
            description = re.escape(experiment.description)
            line = rf"^  {experiment.bench} +\[quick\]  {description}$"
            assert re.search(line, out, re.M), experiment.bench
