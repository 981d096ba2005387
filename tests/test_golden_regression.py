"""Golden regression fixtures pinning headline paper numbers.

The Table 2 summary (max / gmean weighted-speedup improvements of DARP,
SARPpb and DSARP over the REFpb and REFab baselines, per density) and one
Figure 13 row (the 32 Gb average improvement of every mechanism over
REFab) are pinned to checked-in JSON under ``tests/golden/``.  Any kernel
or model change that shifts these numbers — however slightly — fails here,
so the paper's reproduced results cannot drift silently.

The fixtures are computed at a reduced, deterministic scale (short windows,
one workload per intensity category) so the suite stays fast; they are
regenerated intentionally with::

    pytest tests/test_golden_regression.py --update-golden
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.config.obs_config import ObsConfig
from repro.sim.experiments import ExperimentScale
from repro.sim.registry import EXPERIMENTS
from repro.sim.runner import ExperimentRunner

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

#: Reduced but fixed scale: everything here is part of the fixture identity
#: — changing any of it requires regenerating the goldens.  The density set
#: pins the smallest and largest Table 2 rows (the 16 Gb row interpolates
#: between them and would double the fixture cost for little extra signal).
CYCLES = 1200
WARMUP = 200
SCALE = ExperimentScale(
    workloads_per_category=1, sensitivity_workloads=1, densities=(8, 32)
)


@pytest.fixture(scope="module")
def runner() -> ExperimentRunner:
    """One memoizing runner for the module: REFab/alone runs are shared."""
    return ExperimentRunner(cycles=CYCLES, warmup=WARMUP)


def canonical(payload: object) -> object:
    """JSON round trip: int keys become strings, tuples become lists."""
    return json.loads(json.dumps(payload, sort_keys=True))


def check_golden(name: str, payload: object, update: bool) -> None:
    path = GOLDEN_DIR / f"{name}.json"
    data = canonical(payload)
    if update:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden fixture {path.name} regenerated")
    assert path.exists(), (
        f"missing golden fixture {path}; generate it with "
        f"`pytest {__file__} --update-golden`"
    )
    golden = json.loads(path.read_text())
    assert data == golden, (
        f"{name} drifted from the pinned golden values; if the change is "
        f"intentional, regenerate with `pytest {pathlib.Path(__file__).name} "
        f"--update-golden` and commit the diff"
    )


def test_table2_summary_pinned(runner, update_golden):
    """Table 2: DARP/SARPpb/DSARP improvements over REFpb and REFab."""
    result = EXPERIMENTS["table2"].run(runner, SCALE)
    check_golden("table2_summary", result, update_golden)


def test_figure13_32gb_row_pinned(runner, update_golden):
    """Figure 13, 32 Gb row: average % WS improvement over REFab."""
    result = EXPERIMENTS["figure13"].run(runner, SCALE)
    check_golden("figure13_32gb_row", result[32], update_golden)


def test_table2_summary_with_observability_identical(update_golden):
    """Tracing and epoch sampling must not move a single pinned number.

    Reruns the Table 2 pipeline with the command tracer armed (in-memory
    only) and an awkward epoch interval that never divides the window,
    then compares against the same checked-in fixture the plain runner is
    held to — the strongest statement that observability is pure.
    """
    if update_golden:
        pytest.skip("golden regeneration uses the plain runner")
    golden_path = GOLDEN_DIR / "table2_summary.json"
    assert golden_path.exists(), "generate the plain fixture first"
    obs = ObsConfig(trace=True, epoch_interval=293)
    runner = ExperimentRunner(cycles=CYCLES, warmup=WARMUP, obs=obs)
    result = EXPERIMENTS["table2"].run(runner, SCALE)
    assert canonical(result) == json.loads(golden_path.read_text())
