"""Blame attribution (Sections 4.4.1 and 4.4.4).

Given the per-hour episode flags for clients and servers, each TCP
connection-level transaction failure between client C and server S in hour
H is classified:

* **server-side** -- H is a failure episode for S only;
* **client-side** -- H is a failure episode for C only;
* **both**        -- H is a failure episode for both;
* **other**       -- neither (intermittent / pair-specific trouble).

Permanent pairs are excluded first (Section 4.4.2).  Episodes are
identified on *overall* transaction failure rates (Figure 4's CDFs), while
the classified failures are the TCP ones -- this asymmetry is what surfaces
the paper's headline finding: client connectivity problems mostly appear as
DNS failures, so TCP failures skew server-side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from repro import obs

from repro.core.dataset import MeasurementDataset
from repro.core.episodes import (
    RateMatrix,
    entity_hour_sums,
    episode_matrix,
    rate_matrices,
)


@dataclass(frozen=True)
class BlameBreakdown:
    """One row of Table 5."""

    threshold: float
    server_side: int
    client_side: int
    both: int
    other: int

    @property
    def total(self) -> int:
        """All classified TCP failures."""
        return self.server_side + self.client_side + self.both + self.other

    def fractions(self) -> Tuple[float, float, float, float]:
        """(server, client, both, other) fractions."""
        total = max(1, self.total)
        return (
            self.server_side / total,
            self.client_side / total,
            self.both / total,
            self.other / total,
        )

    @property
    def classified_fraction(self) -> float:
        """Fraction of failures attributable to some episode."""
        total = max(1, self.total)
        return (self.server_side + self.client_side + self.both) / total


@dataclass
class BlameAnalysis:
    """Everything downstream sections need: flags, rates, and breakdowns."""

    threshold: float
    #: Per-entity-hour failure rates the episodes were flagged on, with
    #: the excluded pairs left out: (C, H) and (S, H).
    client_rates: RateMatrix
    server_rates: RateMatrix
    client_episodes: np.ndarray  # (C, H) bool
    server_episodes: np.ndarray  # (S, H) bool
    breakdown: BlameBreakdown
    #: (C, S) int64: each pair's TCP failures in its server's episode
    #: hours, excluded pairs zero -- the spread analysis's input.
    server_attributed: np.ndarray
    #: The (C, S) permanent-pair exclusion mask used (None if no exclusion).
    excluded_pairs: Optional[np.ndarray] = None

    def same_exclusion(self, excluded_pairs: Optional[np.ndarray]) -> bool:
        """Whether this analysis excluded exactly ``excluded_pairs``."""
        if excluded_pairs is None or self.excluded_pairs is None:
            return excluded_pairs is None and self.excluded_pairs is None
        return np.array_equal(excluded_pairs, self.excluded_pairs)


@obs.timed("blame.run")
def run_blame_analysis(
    dataset: MeasurementDataset,
    threshold: float = 0.05,
    excluded_pairs: Optional[np.ndarray] = None,
    rates: Optional[Tuple[RateMatrix, RateMatrix]] = None,
) -> BlameAnalysis:
    """The full Section 4.4 pipeline for one threshold setting.

    ``excluded_pairs`` is the (C, S) permanent-pair mask; when None, no
    exclusion is applied.  ``rates``: the (client, server) rate matrices
    for that exclusion, when at hand.  Works on (entity, hour) sums; no
    (C, S, H) array beyond the TCP failure plane is built.
    """
    c, s, _ = dataset.shape
    keep = np.ones((c, s), bool) if excluded_pairs is None else ~excluded_pairs
    client_rates, server_rates = (
        rate_matrices(dataset, excluded_pairs) if rates is None else rates
    )
    client_flags = episode_matrix(client_rates, threshold)
    server_flags = episode_matrix(server_rates, threshold)

    # Per server-hour: all kept TCP failures (T) and those in a client
    # episode hour (A).  Table 5's buckets split T by the server's flag.
    tcp = dataset.tcp_failures
    _, total = entity_hour_sums(tcp, keep)
    in_client = np.einsum("csh,cs,ch->sh", tcp, keep, client_flags, dtype=np.int64)
    not_client = total - in_client
    both = int(in_client[server_flags].sum())
    server_only = int(not_client[server_flags].sum())
    client_only = int(in_client[~server_flags].sum())
    other = int(not_client[~server_flags].sum())

    server_attributed = np.einsum("csh,sh->cs", tcp, server_flags, dtype=np.int64)
    server_attributed *= keep

    breakdown = BlameBreakdown(
        threshold=threshold,
        server_side=server_only,
        client_side=client_only,
        both=both,
        other=other,
    )
    registry = obs.registry()
    threshold_label = f"{threshold:g}"
    for side, count in (
        ("server", server_only), ("client", client_only),
        ("both", both), ("other", other),
    ):
        registry.gauge(
            "blame_attributed_failures", side=side, threshold=threshold_label
        ).set(count)
    obs.current_span().set(
        threshold=threshold, server_side=server_only, client_side=client_only,
        both=both, other=other,
    )
    # Evidence trail: the verdict counts plus which entities were in an
    # episode at all (the facts `repro runs diff` explains churn with).
    obs.current_span().event(
        "blame.verdicts",
        threshold=threshold,
        server_side=server_only, client_side=client_only,
        both=both, other=other,
        clients_flagged=int(client_flags.any(axis=1).sum()),
        servers_flagged=int(server_flags.any(axis=1).sum()),
    )
    return BlameAnalysis(
        threshold=threshold,
        client_rates=client_rates,
        server_rates=server_rates,
        client_episodes=client_flags,
        server_episodes=server_flags,
        breakdown=breakdown,
        server_attributed=server_attributed,
        excluded_pairs=excluded_pairs,
    )


@obs.timed("blame.table")
def blame_table(
    dataset: MeasurementDataset,
    thresholds: Tuple[float, ...] = (0.05, 0.10),
    excluded_pairs: Optional[np.ndarray] = None,
    analysis: Optional[BlameAnalysis] = None,
) -> Tuple[BlameBreakdown, ...]:
    """Table 5: the breakdown at each threshold setting (an ``analysis``
    over the same exclusion supplies the rates and its own row)."""
    shared = analysis is not None and analysis.same_exclusion(excluded_pairs)
    rates = (
        (analysis.client_rates, analysis.server_rates) if shared
        else rate_matrices(dataset, excluded_pairs)
    )
    return tuple(
        analysis.breakdown if shared and f == analysis.threshold
        else run_blame_analysis(dataset, f, excluded_pairs, rates).breakdown
        for f in thresholds
    )
