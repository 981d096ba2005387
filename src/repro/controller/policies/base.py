"""Base class and registry for demand-scheduling policies.

A scheduler policy is bound to one
:class:`~repro.controller.memory_controller.ChannelController` and decides,
each DRAM cycle, which demand command (if any) the channel issues.  The
interface deliberately mirrors :class:`repro.core.base.RefreshPolicy` — the
refresh layer has been pluggable since the factory in
:mod:`repro.core.factory`; this module gives the demand-scheduling layer
the same shape so schedulers, page policies and refresh mechanisms can be
swept independently.

Every policy must satisfy the event-kernel contract:

* :meth:`SchedulerPolicy.select` proposes at most one command per cycle and
  leaves :attr:`SchedulerPolicy.last_conflicts` holding exactly the SARP
  subarray conflicts that cycle recorded (the event kernel replays them for
  every skipped cycle);
* :meth:`SchedulerPolicy.next_event_cycle` reports the earliest cycle after
  ``now`` at which the policy's scheduling outcome can change without a
  queue mutation — the demand horizon that licenses the controller to
  sleep.  Waking early is safe; waking late breaks bit-identity with the
  reference cycle kernel (enforced by ``tests/test_kernel_equivalence.py``).

The *page-management* policy is orthogonal to scheduling and shared by all
schedulers through :meth:`SchedulerPolicy._column_command`: under the
closed-row policy a column command auto-precharges unless another queued
request targets the same row; under the open-row policy rows are kept open
until a conflict (or a scheduler-specific cap) forces a close.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, ClassVar, Optional

from repro.config.controller_config import PAGE_POLICY_OPEN
from repro.dram.commands import Command, CommandType

if TYPE_CHECKING:
    from repro.controller.request import MemRequest


class SchedulerPolicy(abc.ABC):
    """Interface every demand-scheduling policy implements."""

    #: Registry name; implementations set this and decorate themselves with
    #: :func:`register_scheduler`.
    name: ClassVar[str] = ""

    #: Whether this policy reads ``ControllerConfig.row_hit_cap``.  The
    #: job key omits the knob for policies that ignore it, so
    #: sweeping a ``row_hit_cap`` axis under e.g. plain FR-FCFS does not
    #: re-simulate (and separately cache) bit-identical configurations.
    uses_row_hit_cap: ClassVar[bool] = False

    def __init__(self, controller):
        self.controller = controller
        #: SARP subarray conflicts recorded during the most recent
        #: :meth:`select` call.  When a cycle turns out to be a system-wide
        #: no-op, the event kernel replays exactly these conflicts for every
        #: skipped cycle (the candidate set and refresh state are frozen, so
        #: each skipped cycle would have recorded the identical conflicts).
        self.last_conflicts: list[Command] = []
        #: Frozen-window analysis stashed by ``demand_window`` (schedulers
        #: that implement it): the candidate schedule in exact probe order
        #: as ``(ready, kind, request)`` tuples, the conflicts with their
        #: probe position and expiry, the queue map in force, and the raw
        #: ready/expiry minima.  The controller's fast-issue path replays
        #: ``select``'s outcome from these without re-probing the device.
        self.window_schedule: list = []
        self.window_ready: list = []
        self.window_conflicts: list = []
        self.window_writes: bool = False
        self.window_demand_ready: Optional[int] = None
        self.window_conflict_expiry: Optional[int] = None
        #: Per-bank memo of the frozen-window classification, keyed by
        #: bank key; each slot holds ``(queue_version, bank_stamp, writes,
        #: value)`` so only banks touched since the previous window are
        #: re-analyzed.
        self._window_memo: dict = {}
        #: Persistent frozen candidate set in exact probe order (the hit
        #: and row segments, each sorted by age), the per-bank index into
        #: it, the queue map it was built from, and whether it is exact
        #: (untruncated — splicing requires it).  Maintained by
        #: ``_rebuild_entries`` / ``_splice_entry`` on schedulers that
        #: implement ``demand_window``.
        self._win_hits: list = []
        self._win_rows: list = []
        self._win_by_bank: dict = {}
        self._win_writes_key: Optional[bool] = None
        self._win_exact: bool = False

    def note_issue(self, command: Command) -> None:
        """Bookkeeping hook for every demand command this scheduler issues.

        Called by :meth:`select` (via its implementations) and by the
        controller's fast-issue path, so scheduler-internal per-issue state
        (e.g. the capped variant's row-hit streaks) stays identical no
        matter which path issued the command.  The base policy keeps no
        such state.
        """

    # -- per-cycle scheduling -------------------------------------------------
    @abc.abstractmethod
    def select(self, cycle: int) -> Optional[tuple[Command, Optional["MemRequest"]]]:
        """Choose the demand command to issue this cycle, if any.

        Returns ``(command, request)`` where ``request`` is the request a
        column command retires (``None`` for row commands), or ``None``
        when no demand command can issue.
        """

    # -- event horizon (cycle-skipping kernel) --------------------------------
    @abc.abstractmethod
    def next_event_cycle(self, now: int) -> Optional[int]:
        """Earliest cycle after ``now`` at which demand scheduling can change
        without a queue mutation (``None``: never)."""

    # -- shared command construction ------------------------------------------
    def _probe_column_command(self, request: "MemRequest") -> Command:
        """A keep-open column command used only for the legality check.

        ``can_issue`` treats RD/RDA (and WR/WRA) identically — the
        autoprecharge flag changes the command's *effects*, not its
        legality — so the probe avoids :meth:`_another_hit_pending`'s
        queue scan for candidates that cannot issue anyway.  The kind is
        keyed off the request itself: hit candidates always come from the
        queue map matching the serve-writes mode.
        """
        # A location's fields are the command's channel..column, in order.
        kind = CommandType.WR if request.is_write else CommandType.RD
        return Command(kind, *request.location, request)

    def _column_command(self, request: "MemRequest", writes: bool) -> Command:
        """Build the column command serving ``request``.

        Under the closed-row page policy the command auto-precharges unless
        another queued request targets the same row, in which case the row
        is kept open so the follow-up request gets a row hit.  Under the
        open-row policy rows are always kept open.
        """
        ctl = self.controller
        keep_open = (
            ctl.config.controller.page_policy == PAGE_POLICY_OPEN
            or self._another_hit_pending(request)
        )
        if request.is_write:
            kind = CommandType.WR if keep_open else CommandType.WRA
        else:
            kind = CommandType.RD if keep_open else CommandType.RDA
        return Command(kind, *request.location, request)

    def _another_hit_pending(self, request: "MemRequest") -> bool:
        """True if a different queued request targets the same bank and row."""
        queues = self.controller.queues
        key = request.bank_key
        for queue in (queues.reads[key], queues.writes[key]):
            for other in queue:
                if other is not request and other.row == request.row:
                    return True
        return False


#: Registered scheduler policies, keyed by :attr:`SchedulerPolicy.name`.
_SCHEDULERS: dict[str, type[SchedulerPolicy]] = {}


def register_scheduler(cls: type[SchedulerPolicy]) -> type[SchedulerPolicy]:
    """Class decorator adding a policy to the registry."""
    if not cls.name:
        raise ValueError(f"scheduler policy {cls.__name__} declares no name")
    if cls.name in _SCHEDULERS:
        raise ValueError(f"a scheduler policy named {cls.name!r} is already registered")
    _SCHEDULERS[cls.name] = cls
    return cls


def scheduler_names() -> tuple[str, ...]:
    """Names of every registered scheduler policy, sorted."""
    return tuple(sorted(_SCHEDULERS))


def scheduler_class(name: str) -> type[SchedulerPolicy]:
    """Look up a policy class; unknown names list the alternatives."""
    try:
        return _SCHEDULERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler policy {name!r}; registered: "
            f"{', '.join(sorted(_SCHEDULERS))}"
        ) from None


def create_scheduler(name: str, controller) -> SchedulerPolicy:
    """Instantiate the named policy bound to ``controller``."""
    return scheduler_class(name)(controller)


def scheduler_descriptions() -> dict[str, str]:
    """One-line description per registered policy (docstring first line)."""
    return {
        name: next(iter((cls.__doc__ or "").strip().splitlines()), "").rstrip(".")
        for name, cls in sorted(_SCHEDULERS.items())
    }
