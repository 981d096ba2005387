"""Top-level system configuration combining all subsystem configurations."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Literal, get_args

from repro.config.controller_config import ControllerConfig
from repro.config.cpu_config import CacheConfig, CPUConfig
from repro.config.dram_config import DRAMConfig
from repro.config.obs_config import ObsConfig
from repro.config.refresh_config import RefreshConfig, RefreshMechanism
from repro.config.serialize import check_fields

Kernel = Literal["event", "cycle"]


@dataclass(frozen=True)
class SystemConfig:
    """Complete configuration of the simulated system.

    A :class:`SystemConfig` fully determines a simulation apart from the
    workload: DRAM density and timings, memory controller parameters, core
    and cache parameters, and the refresh mechanism under evaluation.
    Every field is part of a simulation's identity, the job key
    (:meth:`repro.engine.jobs.SimulationJob.key`), apart from ``kernel``,
    ``obs`` and an unread ``row_hit_cap``; so a new field needs no
    identity code, and a field nothing reads must not be kept.
    """

    dram: DRAMConfig = field(default_factory=DRAMConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    cpu: CPUConfig = field(default_factory=CPUConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    refresh: RefreshConfig = field(default_factory=RefreshConfig)
    #: Execution kernel: ``"event"`` advances time in one jump across
    #: provably idle spans (identical results, much faster), ``"cycle"``
    #: is the legacy tick-every-cycle loop kept as the differential
    #: reference.  Excluded from the job key on purpose — the two
    #: kernels are bit-identical, so cached results are shared.
    kernel: Kernel = "event"
    #: Observability settings (command tracing, epoch sampling).  Like
    #: ``kernel``, excluded from the job key: observation never
    #: changes simulated results, so traced and untraced runs of the same
    #: system share cached results.
    obs: ObsConfig = field(default_factory=ObsConfig)

    KERNELS = get_args(Kernel)

    def __post_init__(self) -> None:
        check_fields(self)

    def with_kernel(self, kernel: str) -> "SystemConfig":
        """Return a copy running on a different execution kernel."""
        return replace(self, kernel=kernel)

    def with_obs(self, **changes) -> "SystemConfig":
        """Return a copy with observability settings changed."""
        return replace(self, obs=replace(self.obs, **changes))

    def with_scheduler(self, scheduler: str) -> "SystemConfig":
        """Return a copy using a different demand-scheduling policy."""
        return replace(self, controller=replace(self.controller, scheduler=scheduler))

    def with_page_policy(self, page_policy: str) -> "SystemConfig":
        """Return a copy using a different page-management policy."""
        return replace(
            self, controller=replace(self.controller, page_policy=page_policy)
        )

    def with_mechanism(
        self,
        mechanism: RefreshMechanism | str,
        **kwargs,
    ) -> "SystemConfig":
        """Return a copy configured for a different refresh mechanism.

        FGR mechanisms also change the DRAM refresh timings (tREFI / tRFC),
        so the DRAM configuration is rebuilt accordingly.
        """
        refresh = RefreshConfig.for_mechanism(mechanism, **kwargs)
        dram = self.dram
        if refresh.mechanism.fgr_mode != self.dram.fgr_mode:
            dram = DRAMConfig.for_density(
                self.dram.density_gb,
                retention_ms=self.dram.retention_ms,
                organization=self.dram.organization,
                fgr_mode=refresh.mechanism.fgr_mode,
            )
        return replace(self, refresh=refresh, dram=dram)

    def with_cores(self, num_cores: int) -> "SystemConfig":
        """Return a copy with a different core count (Table 3 sweep)."""
        return replace(self, cpu=replace(self.cpu, num_cores=num_cores))

    def with_density(self, density_gb: int) -> "SystemConfig":
        """Return a copy for a different DRAM density, keeping other knobs."""
        dram = DRAMConfig.for_density(
            density_gb,
            retention_ms=self.dram.retention_ms,
            organization=self.dram.organization,
            fgr_mode=self.dram.fgr_mode,
        )
        return replace(self, dram=dram)

    def to_dict(self) -> dict:
        """JSON-compatible representation of the full configuration tree.

        Round-trips through :meth:`from_dict`: nested sub-configs become
        nested dicts and the refresh mechanism serializes as its name, so
        configurations can live in version-controlled JSON files alongside
        sweep specs.
        """
        from repro.config.serialize import to_plain

        return to_plain(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SystemConfig":
        """Inverse of :meth:`to_dict`; unknown keys are an error and every
        sub-config's validation re-runs during reconstruction."""
        from repro.config.serialize import from_plain

        return from_plain(cls, data)
