"""Product-set bibliometric indicators and discipline-level aggregates."""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from .model import Area, Dataset, PeerRating, Product, RatingGroup

__all__ = [
    "h_index",
    "ownership_degree",
    "GroupStats",
    "group_stats",
    "DisciplineProfile",
    "discipline_profile",
    "RatingBreakdown",
    "rating_breakdown",
]


def h_index(citations: Iterable[int]) -> int:
    """Largest n such that n values in the multiset are each >= n.

    Empty input gives 0.
    """
    ranked = sorted(citations, reverse=True)
    h = 0
    for i, c in enumerate(ranked, start=1):
        if c >= i:
            h = i
        else:
            break
    return h


def ownership_degree(product: Product) -> float:
    """Share of the product's authors affiliated with the submitting structure."""
    return product.n_internal_authors / product.n_authors


class GroupStats(NamedTuple):
    """The aggregates every per-area table reports for one product group.

    Peer means use the committee weights (``PeerRating.weight``).  Citation
    and impact means are over TR products carrying the value, and the h index
    over TR citation counts; a mean is None when no product enters it.
    """

    n: int
    n_tr: int
    peer_all: float | None
    peer_tr: float | None
    mean_citations: float | None
    mean_if: float | None
    h: int


def _mean(values: list[float]) -> float | None:
    """``statistics.fmean`` of a list, or None when it is empty."""
    return math.fsum(values) / len(values) if values else None


def group_stats(products: Sequence[Product]) -> GroupStats:
    """Size, TR count, peer means, TR citation and IF means, and h of a group."""
    tr = [p for p in products if p.tr_indexed]
    cites = [p.citations for p in tr if p.citations is not None]
    impact = [p.journal_if for p in tr if p.journal_if is not None]
    return GroupStats(
        n=len(products),
        n_tr=len(tr),
        peer_all=_mean([p.peer_rating.weight for p in products]),
        peer_tr=_mean([p.peer_rating.weight for p in tr]),
        mean_citations=_mean(cites),
        mean_if=_mean(impact),
        h=h_index(cites),
    )


def _pooled_stats(area: Area, *groups: RatingGroup) -> GroupStats:
    """``group_stats`` of the products in ``groups``, by default all the
    area's, from their counts and values.  ``math.fsum`` is correctly
    rounded, so pooled values give the means a list per product gives, in
    any order, and a weight repeated ``n`` times sums as ``n`` products' weights."""
    weights, tr_weights, cites, impact = [], [], [], []
    for group in groups or area.by_rating:
        weights += [group.rating.weight] * group.n
        tr_weights += [group.rating.weight] * group.n_tr
        cites += group.citations
        impact += group.journal_if
    return GroupStats(
        n=len(weights),
        n_tr=len(tr_weights),
        peer_all=_mean(weights),
        peer_tr=_mean(tr_weights),
        mean_citations=_mean(cites),
        mean_if=_mean(impact),
        h=h_index(cites),
    )


class DisciplineProfile(NamedTuple):
    """Discipline-wide aggregate row.

    ``mean_citations``, ``mean_if`` and ``cites_over_if`` are computed over
    TR-indexed products carrying the respective value and are None when no
    such product exists (``cites_over_if`` also when ``mean_if`` is zero).
    """

    discipline: str
    size: int
    coverage: float
    mean_authors: float
    mean_ownership: float
    peer_all: float
    peer_tr: float | None
    mean_citations: float | None
    cites_over_if: float | None
    mean_if: float | None
    h: int


def discipline_profile(dataset: Dataset, discipline: str) -> DisciplineProfile:
    """Aggregate one discipline: size, coverage, authorship, ownership, peer
    means (all products and TR subset), citation/impact means, and h index.

    Products are counted once per (structure, discipline) affiliation.
    """
    area = dataset.area(discipline)
    products = area.products
    stats = area.part(_pooled_stats)
    cites_over_if = None
    if stats.mean_citations is not None and stats.mean_if:
        cites_over_if = stats.mean_citations / stats.mean_if
    return DisciplineProfile(
        discipline=discipline,
        size=stats.n,
        coverage=stats.n_tr / stats.n,
        mean_authors=_mean([p.n_authors for p in products]),
        mean_ownership=_mean([p.n_internal_authors / p.n_authors for p in products]),  # ownership_degree, inline
        peer_all=stats.peer_all,
        peer_tr=stats.peer_tr,
        mean_citations=stats.mean_citations,
        cites_over_if=cites_over_if,
        mean_if=stats.mean_if,
        h=stats.h,
    )


class RatingBreakdown(NamedTuple):
    """Aggregates for the subset of a discipline's products with one rating.

    Ratio fields divide the per-rating statistic by the discipline-wide
    statistic over TR articles; they are None whenever either side is
    unavailable.
    """

    rating: PeerRating
    count: int
    share: float
    mean_citations: float | None
    citations_ratio: float | None
    mean_if: float | None
    if_ratio: float | None
    h: int | None
    h_ratio: float | None


def rating_breakdown(dataset: Dataset, discipline: str) -> list[RatingBreakdown]:
    """One row per peer rating in E, G, A, L order."""
    area = dataset.area(discipline)
    total = area.part(_pooled_stats)

    def ratio(value: float | None, base: float | None) -> float | None:
        if value is None or not base:
            return None
        return value / base

    rows = []
    for group in area.by_rating:
        stats = _pooled_stats(area, group)
        rows.append(
            RatingBreakdown(
                rating=group.rating,
                count=stats.n,
                share=stats.n / total.n,
                mean_citations=stats.mean_citations,
                citations_ratio=ratio(stats.mean_citations, total.mean_citations),
                mean_if=stats.mean_if,
                if_ratio=ratio(stats.mean_if, total.mean_if),
                h=stats.h if stats.n_tr else None,
                h_ratio=stats.h / total.h if stats.n_tr and total.h else None,
            )
        )
    return rows
