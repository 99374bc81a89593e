"""Structure-level ratings, size classes, and ranking compilation."""

from __future__ import annotations

import enum
import statistics
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import Sequence

from .indicators import group_stats
from .model import Dataset, PipelineError
from .numerics import average_ranks

__all__ = [
    "SizeClass",
    "size_class",
    "StructureRating",
    "structure_ratings",
    "RankEntry",
    "Ranking",
    "RANKING_METRICS",
    "compile_ranking",
    "RankComparison",
    "rank_comparison",
]


class SizeClass(enum.Enum):
    MEGA = "mega"
    LARGE = "large"
    MEDIUM = "medium"
    SMALL = "small"


def size_class(n_products: int) -> SizeClass:
    """Classify a structure by submitted product count: mega > 74, large 25-74,
    medium 10-24, small < 10."""
    if n_products < 0:
        raise ValueError("n_products must be >= 0")
    if n_products > 74:
        return SizeClass.MEGA
    if n_products >= 25:
        return SizeClass.LARGE
    if n_products >= 10:
        return SizeClass.MEDIUM
    return SizeClass.SMALL


@dataclass(frozen=True)
class StructureRating:
    """Per-structure averages within one discipline."""

    structure_id: str
    discipline: str
    n_products: int
    n_tr: int
    peer_all: float
    peer_tr: float | None
    cites: float | None
    impact: float | None
    size_class: SizeClass


RANKING_METRICS = ("peer_all", "peer_tr", "cites", "impact")


def structure_ratings(dataset: Dataset, discipline: str) -> list[StructureRating]:
    """Compute peer and bibliometric ratings for every structure with at least
    one product in the discipline.

    Structures without TR articles get no citation/impact rating (absence of
    evidence rather than a zero score).
    """
    ratings = []
    # key order keeps each structure's products in one run, structures sorted
    for structure_id, run in groupby(dataset.products_in(discipline), attrgetter("structure_id")):
        stats = group_stats(tuple(run))
        ratings.append(
            StructureRating(
                structure_id=structure_id,
                discipline=discipline,
                n_products=stats.n,
                n_tr=stats.n_tr,
                peer_all=stats.peer_all,
                peer_tr=stats.peer_tr,
                cites=stats.mean_citations,
                impact=stats.mean_if,
                size_class=size_class(stats.n),
            )
        )
    return ratings


@dataclass(frozen=True)
class RankEntry:
    structure_id: str
    score: float
    display_rank: int
    average_rank: float
    n_products: int
    size_class: SizeClass


@dataclass(frozen=True)
class Ranking:
    discipline: str
    metric: str
    min_products: int
    entries: tuple[RankEntry, ...]
    excluded: tuple[str, ...]  # structures lacking the metric (no TR articles)

    def rank_of(self) -> dict[str, float]:
        return {e.structure_id: e.average_rank for e in self.entries}


def compile_ranking(
    ratings: Sequence[StructureRating],
    metric: str,
    min_products: int = 10,
) -> Ranking:
    """Order structures by a rating, best first.

    Structures below the product threshold are dropped; structures lacking
    the metric are listed in ``excluded``.  Ties share the smallest rank in
    ``display_rank`` (competition style) and the mean rank in
    ``average_rank`` (the form consumed by rank statistics).
    """
    if metric not in RANKING_METRICS:
        raise PipelineError("unknown_metric", f"metric must be one of {RANKING_METRICS}")
    disciplines = {r.discipline for r in ratings}
    if len(disciplines) > 1:
        raise PipelineError("mixed_disciplines", "ratings must come from a single discipline")

    eligible = [(getattr(r, metric), r) for r in ratings if r.n_products >= min_products]
    excluded = tuple(sorted(r.structure_id for score, r in eligible if score is None))
    scored = [(score, r) for score, r in eligible if score is not None]
    if not scored:
        raise PipelineError("empty_ranking", f"no structure qualifies for metric {metric!r}")
    scored.sort(key=lambda sr: (-sr[0], sr[1].structure_id))

    scores = [s for s, _ in scored]
    avg = average_ranks([-s for s in scores])  # descending ranks, ties averaged
    entries = []
    for i, (score, rating) in enumerate(scored):
        display = i + 1 if i == 0 or scores[i] != scores[i - 1] else entries[-1].display_rank
        entries.append(
            RankEntry(
                structure_id=rating.structure_id,
                score=score,
                display_rank=display,
                average_rank=avg[i],
                n_products=rating.n_products,
                size_class=rating.size_class,
            )
        )
    return Ranking(
        discipline=disciplines.pop(),
        metric=metric,
        min_products=min_products,
        entries=tuple(entries),
        excluded=excluded,
    )


@dataclass(frozen=True)
class ComparisonEntry:
    structure_id: str
    rank_a: float
    rank_b: float
    delta: float  # rank_a - rank_b


@dataclass(frozen=True)
class RankComparison:
    metric_a: str
    metric_b: str
    entries: tuple[ComparisonEntry, ...]
    median_abs_delta: float
    median_fraction: float  # median |delta| over the compared compilation length
    favored_by_a: tuple[str, ...]  # best placed in a relative to b, largest gain first
    favored_by_b: tuple[str, ...]
    unchanged: tuple[str, ...]
    dropped: tuple[str, ...]  # structures present in only one ranking

    def plot_pairs(self) -> list[tuple[float, float]]:
        """(rank in a, rank in b) pairs for an external rank plot."""
        return [(e.rank_a, e.rank_b) for e in self.entries]


def rank_comparison(a: Ranking, b: Ranking) -> RankComparison:
    """Compare two rankings structure by structure.

    delta = rank_in_a - rank_in_b, so a negative delta means the structure is
    placed better (smaller rank) by ranking ``a``.  Structures present in
    only one ranking are reported in ``dropped``.
    """
    ranks_a = a.rank_of()
    ranks_b = b.rank_of()
    common = sorted(set(ranks_a) & set(ranks_b))
    if not common:
        raise PipelineError("disjoint_rankings", "the two rankings share no structure")
    dropped = tuple(sorted(set(ranks_a) ^ set(ranks_b)))

    entries = tuple(
        ComparisonEntry(structure_id=s, rank_a=ranks_a[s], rank_b=ranks_b[s], delta=ranks_a[s] - ranks_b[s])
        for s in common
    )
    median_abs = statistics.median(abs(e.delta) for e in entries)
    gains_a = sorted((e for e in entries if e.delta < 0), key=lambda e: (e.delta, e.structure_id))
    gains_b = sorted((e for e in entries if e.delta > 0), key=lambda e: (-e.delta, e.structure_id))
    return RankComparison(
        metric_a=a.metric,
        metric_b=b.metric,
        entries=entries,
        median_abs_delta=median_abs,
        median_fraction=median_abs / len(entries),
        favored_by_a=tuple(e.structure_id for e in gains_a),
        favored_by_b=tuple(e.structure_id for e in gains_b),
        unchanged=tuple(e.structure_id for e in entries if e.delta == 0),
        dropped=dropped,
    )
