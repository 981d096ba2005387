"""Regenerate ``digests.json``, the benchmark's pinned expected outputs.

Run from the repository root (takes several minutes)::

    python3 perfbench/pin.py

Cell digests come from the ``cycle`` reference kernel, so the ``event``
kernel the benchmark times is checked against an independent oracle.
The report digests come from a serial, store-less run, so the remote
engine is checked against the plain in-process path.  The
pins fix the code to itself: they detect drift, not modelling error.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cells  # noqa: E402
import reports  # noqa: E402
from repro.report.paper import (  # noqa: E402
    GOLDEN_CYCLES,
    GOLDEN_WARMUP,
    generate_paper_report,
)
from repro.sim.runner import ExperimentRunner  # noqa: E402


def main() -> None:
    pinned = {"cells": {}, "report": {}}
    for name in cells.WORKLOADS:
        pinned["cells"][name] = {}
        for variant in range(cells.VARIANTS):
            inputs = cells.cell_inputs(name, variant, kernel="cycle")
            digests = cells.run_round(inputs).digests
            pinned["cells"][name][str(variant)] = digests
            print(name, variant, digests, flush=True)
    runner = ExperimentRunner(cycles=GOLDEN_CYCLES, warmup=GOLDEN_WARMUP, seed=0)
    with tempfile.TemporaryDirectory(dir=HERE.parent) as out:
        generate_paper_report(
            out, runner=runner, scale=reports.SCALE, names=[reports.ARTIFACT]
        )
        pinned["report"] = reports.file_digests(Path(out))
    (HERE / "digests.json").write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
