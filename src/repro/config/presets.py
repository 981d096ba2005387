"""Named configuration presets that mirror the paper's evaluated systems."""

from __future__ import annotations

from repro.config.controller_config import ControllerConfig
from repro.config.cpu_config import CacheConfig, CPUConfig
from repro.config.dram_config import DRAMConfig, DRAMOrganization
from repro.config.refresh_config import RefreshConfig, RefreshMechanism
from repro.config.system import SystemConfig

#: DRAM densities evaluated in the paper's main results (Gb).
def baseline_densities() -> tuple[int, ...]:
    """The three DRAM chip densities evaluated throughout Section 6."""
    return (8, 16, 32)


def mechanism_names() -> tuple[str, ...]:
    """All refresh mechanisms evaluated in Figure 13, in presentation order."""
    return (
        RefreshMechanism.REFAB.value,
        RefreshMechanism.REFPB.value,
        RefreshMechanism.ELASTIC.value,
        RefreshMechanism.DARP.value,
        RefreshMechanism.SARPAB.value,
        RefreshMechanism.SARPPB.value,
        RefreshMechanism.DSARP.value,
        RefreshMechanism.NONE.value,
    )


def paper_system(
    density_gb: int = 8,
    mechanism: RefreshMechanism | str = RefreshMechanism.REFAB,
    num_cores: int = 8,
    retention_ms: float = 32.0,
    subarrays_per_bank: int = 8,
    rows_per_bank: int = 65536,
    **refresh_kwargs,
) -> SystemConfig:
    """Build the paper's evaluated system (Table 1) with the given knobs.

    Parameters
    ----------
    density_gb:
        DRAM chip density; determines tRFCab / tRFCpb (Section 3.1).
    mechanism:
        Refresh mechanism to evaluate (see :class:`RefreshMechanism`).
    num_cores:
        Number of processor cores (Table 3 varies 2 / 4 / 8).
    retention_ms:
        DRAM retention time; the paper uses 32 ms by default and 64 ms in
        Table 6.
    subarrays_per_bank:
        Subarray groups per bank (Table 5 varies 1 through 64).
    rows_per_bank:
        Rows per bank (64 K in Table 1).
    refresh_kwargs:
        Extra options forwarded to :class:`RefreshConfig` (for ablations).
    """
    refresh = RefreshConfig.for_mechanism(mechanism, **refresh_kwargs)
    organization = DRAMOrganization(
        subarrays_per_bank=subarrays_per_bank,
        rows_per_bank=rows_per_bank,
    )
    dram = DRAMConfig.for_density(
        density_gb,
        retention_ms=retention_ms,
        organization=organization,
        fgr_mode=refresh.mechanism.fgr_mode,
    )
    return SystemConfig(
        dram=dram,
        controller=ControllerConfig(),
        cpu=CPUConfig(num_cores=num_cores),
        cache=CacheConfig(),
        refresh=refresh,
    )
