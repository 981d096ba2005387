"""Observability configuration (:class:`ObsConfig`).

Lives in the config package (not :mod:`repro.obs`) so that
:class:`~repro.config.system.SystemConfig` can embed it without importing
the observability machinery — config stays a leaf package.

Like the ``kernel`` field, observability settings are excluded from the
job key (:meth:`repro.engine.jobs.SimulationJob.key`): tracing, epoch
sampling and profiling never change simulated behaviour, so a traced and
an untraced run of the same system share cached results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional, get_args

from repro.config.serialize import check_fields

TraceFormat = Literal["jsonl", "binary"]


@dataclass(frozen=True)
class ObsConfig:
    """Tracing and epoch-sampling knobs for one simulation.

    ``trace`` arms the command-stream tracer; records accumulate in a ring
    buffer of ``trace_buffer`` entries (oldest dropped first, with a drop
    counter).  ``trace_dir``/``trace_format`` tell the engine job runner
    where and how to persist the buffer after a run.  ``epoch_interval``
    (cycles) enables the epoch sampler; 0 disables it.
    """

    trace: bool = False
    trace_buffer: int = 1 << 20
    trace_dir: Optional[str] = None
    trace_format: TraceFormat = "jsonl"
    epoch_interval: int = 0

    #: Supported on-disk trace formats.
    TRACE_FORMATS = get_args(TraceFormat)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.trace_buffer < 1:
            raise ValueError(f"trace_buffer must be >= 1, got {self.trace_buffer}")
        if self.epoch_interval < 0:
            raise ValueError(
                f"epoch_interval must be >= 0, got {self.epoch_interval}"
            )
