"""The paper's contribution: refresh scheduling and parallelization policies.

This package contains every refresh mechanism evaluated in Section 6 of
Chang et al. (HPCA 2014):

* :class:`~repro.core.no_refresh.NoRefreshPolicy` — the ideal "No REF" baseline,
* :class:`~repro.core.all_bank.AllBankRefreshPolicy` — DDR3 all-bank refresh
  (REFab); also used by SARPab and the DDR4 fine-granularity-refresh modes,
* :class:`~repro.core.per_bank.PerBankRefreshPolicy` — LPDDR per-bank refresh
  (REFpb) with the standard strict round-robin order; also used by SARPpb,
* :class:`~repro.core.elastic.ElasticRefreshPolicy` — elastic refresh
  (Stuecheli et al.),
* :class:`~repro.core.darp.DARPPolicy` — Dynamic Access Refresh
  Parallelization (out-of-order per-bank refresh plus write-refresh
  parallelization); also used by DSARP,
* :class:`~repro.core.adaptive.AdaptiveRefreshPolicy` — adaptive refresh
  (Mukundan et al.).

Every mechanism shares one refresh schedule, kept by
:class:`~repro.core.base.RefreshPolicy`: the ranks' due cycles, one signed
owed-refresh table and its accessor ``refresh_debt(rank, bank=None)``.  A
new mechanism declares its ``schedule`` and implements only its issue
decisions (see :mod:`repro.core.base` for the hooks).

SARP itself (Subarray Access Refresh Parallelization) is not a scheduling
policy: it is a DRAM modification implemented in :mod:`repro.dram` and
enabled through ``RefreshMechanism.uses_sarp``; the factory pairs it with
the appropriate scheduling policy.
"""

from repro.core.adaptive import AdaptiveRefreshPolicy
from repro.core.all_bank import AllBankRefreshPolicy
from repro.core.base import RefreshPolicy, RefreshStats
from repro.core.darp import DARPPolicy
from repro.core.elastic import ElasticRefreshPolicy
from repro.core.factory import create_refresh_policy
from repro.core.no_refresh import NoRefreshPolicy
from repro.core.per_bank import PerBankRefreshPolicy

__all__ = [
    "RefreshPolicy",
    "RefreshStats",
    "NoRefreshPolicy",
    "AllBankRefreshPolicy",
    "PerBankRefreshPolicy",
    "ElasticRefreshPolicy",
    "DARPPolicy",
    "AdaptiveRefreshPolicy",
    "create_refresh_policy",
]
