"""Memory-controller configuration (Table 1 of the paper)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, get_args

from repro.config.serialize import check_fields

#: Page-management policies every scheduler honours.  Single source of
#: truth for names: the scheduler layer imports the constants for its
#: column-command construction and the CLI renders the descriptions.  A
#: new policy added here must also be given behaviour in
#: ``SchedulerPolicy._column_command`` (repro.controller.policies.base).
PagePolicy = Literal["closed", "open"]
PAGE_POLICIES: tuple[str, ...] = get_args(PagePolicy)
PAGE_POLICY_CLOSED, PAGE_POLICY_OPEN = PAGE_POLICIES
PAGE_POLICY_DESCRIPTIONS: dict[str, str] = {
    PAGE_POLICY_CLOSED: (
        "precharge as soon as no queued request hits the open row"
    ),
    PAGE_POLICY_OPEN: (
        "keep rows open until a conflict (or row-hit cap) closes them"
    ),
}


@dataclass(frozen=True)
class ControllerConfig:
    """Per-channel memory controller parameters.

    The paper's controller uses 64-entry read and write request queues, an
    FR-FCFS scheduling policy, a closed-row page policy, and batches writes:
    the channel enters writeback mode when the write queue fills beyond a
    high watermark and drains until it falls to the low watermark (32).

    Both the demand-scheduling policy and the page-management policy are
    pluggable: ``scheduler`` names a registered
    :class:`~repro.controller.policies.SchedulerPolicy` (``frfcfs`` —
    the paper's baseline — plus ``fcfs`` and ``frfcfs-cap``), and
    ``page_policy`` selects closed- or open-row management shared by every
    scheduler.  The defaults reproduce the paper's system bit-identically.
    """

    read_queue_entries: int = 64
    write_queue_entries: int = 64
    #: Write-queue occupancy that triggers writeback (drain) mode.
    write_high_watermark: int = 48
    #: Write-queue occupancy at which writeback mode ends (Table 1: 32).
    write_low_watermark: int = 32
    #: Registered demand-scheduling policy (see ``repro.controller.policies``).
    scheduler: str = "frfcfs"
    #: Page-management policy: ``closed`` or ``open`` (see ``PAGE_POLICIES``).
    page_policy: PagePolicy = "closed"
    #: ``frfcfs-cap`` only: consecutive row hits a bank may serve before the
    #: scheduler forces the row closed.
    row_hit_cap: int = 4
    #: Maximum candidate commands examined by the scheduler per cycle.
    scheduling_window: int = 16

    def __post_init__(self) -> None:
        check_fields(self)
        if self.write_low_watermark >= self.write_high_watermark:
            raise ValueError(
                "write_low_watermark must be below write_high_watermark "
                f"(got {self.write_low_watermark} >= {self.write_high_watermark})"
            )
        if self.write_high_watermark > self.write_queue_entries:
            raise ValueError("write_high_watermark exceeds write queue size")
        if self.row_hit_cap < 1:
            raise ValueError(f"row_hit_cap must be positive, got {self.row_hit_cap}")
        # Imported lazily: the registry lives in the controller layer, which
        # sits above the configuration layer (mirrors the refresh-policy
        # factory import in MemorySystem).
        from repro.controller.policies import scheduler_class

        scheduler_class(self.scheduler)
