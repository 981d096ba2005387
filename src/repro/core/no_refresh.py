"""The ideal baseline: refresh eliminated entirely ("No REF" in Figure 13).

This policy never issues a refresh command.  It is physically unrealizable
(cells would lose their charge) but bounds the performance any refresh
mechanism can achieve; the paper reports DSARP comes within 0.9 % / 1.2 % /
3.7 % of it for 8 / 16 / 32 Gb chips.
"""

from __future__ import annotations

from repro.core.base import RefreshPolicy


class NoRefreshPolicy(RefreshPolicy):
    """Never refreshes (it declares no schedule); the upper bound on performance."""

    supports_post_issue_freeze = True

    def refresh_candidate_banks(self, rank: int) -> tuple[int, ...]:
        return ()
