"""The package runs on the bare Python standard library.

``pyproject.toml`` declares no runtime dependency, so a fresh interpreter
with no site-packages at all (``python -S``) must be able to drive the
CLI, load the remote-dispatch layer and simulate.  A stray third-party
import anywhere on those paths fails here rather than on a clean install.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import io
import sys

sys.path.insert(0, {src!r})

from repro.cli import main

out = io.StringIO()
assert main(["list"], stdout=out, stderr=io.StringIO()) == 0, out.getvalue()
assert "table2" in out.getvalue()

import repro.engine.remote  # noqa: F401
from repro.config.presets import paper_system
from repro.sim.simulator import Simulator
from repro.workloads.benchmark_suite import get_benchmark
from repro.workloads.mixes import make_workload

config = paper_system(mechanism="dsarp", num_cores=1)
workload = make_workload([get_benchmark("gcc_like")], seed=0)
result = Simulator(config, workload).run(50, warmup=0)
assert result.cycles == 50, result.cycles

assert "numpy" not in sys.modules
print("ok")
"""


def test_cli_remote_and_simulator_need_only_the_standard_library():
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    process = subprocess.run(
        [sys.executable, "-S", "-c", SCRIPT.format(src=str(SRC))],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert process.returncode == 0, process.stderr
    assert process.stdout.strip() == "ok"
