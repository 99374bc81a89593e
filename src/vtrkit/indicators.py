"""Product-set bibliometric indicators and discipline-level aggregates."""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Iterable

from .model import Area, Dataset, RatingGroup


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


class GroupStats(namedtuple("GroupStats", "n n_tr peer_all peer_tr mean_citations mean_if h")):
    """The aggregates every per-area table reports for one product group: an
    area, one of its rating classes, or one of its structures.

    Peer means use the committee weights (``PeerRating.weight``).  Citation
    and impact means are over TR products carrying the value, and the h index
    over TR citation counts; a mean is None when no product enters it.
    """

    __slots__ = ()


def _mean(values: list[float]) -> float | None:
    """``statistics.fmean`` of a list, or None when it is empty."""
    return math.fsum(values) / len(values) if values else None


def pooled_stats(groups: Iterable[RatingGroup]) -> GroupStats:
    """The ``GroupStats`` of the products in ``groups`` (``rating_groups``),
    from their counts and values.  ``math.fsum`` is correctly rounded, so
    pooled values give the means a list per product gives, in any order, and a
    weight repeated ``n`` times sums as ``n`` products' weights."""
    weights, tr_weights, cites, impact = [], [], [], []
    for group in groups:
        weight = group.rating.weight
        weights += [weight] * group.n
        tr_weights += [weight] * group.n_tr
        cites += group.citations
        impact += group.journal_if
    # positional: a record built by keyword costs twice as much, once per structure
    return GroupStats(
        len(weights), len(tr_weights), _mean(weights), _mean(tr_weights), _mean(cites), _mean(impact), h_index(cites)
    )


def _area_stats(area: Area) -> GroupStats:
    """The stats of all the area's products, which the profile and the
    breakdown share through ``Area.part``."""
    return pooled_stats(area.by_rating)


class DisciplineProfile(
    namedtuple(
        "DisciplineProfile",
        "discipline size coverage mean_authors mean_ownership peer_all peer_tr mean_citations cites_over_if mean_if h",
    )
):
    """Discipline-wide aggregate row.

    ``mean_citations``, ``mean_if`` and ``cites_over_if`` are computed over
    TR-indexed products carrying the respective value and are None when no
    such product exists (``cites_over_if`` also when ``mean_if`` is zero).
    """

    __slots__ = ()


def discipline_profile(dataset: Dataset, discipline: str) -> DisciplineProfile:
    """Aggregate one discipline: size, coverage, authorship, ownership, peer
    means (all products and TR subset), citation/impact means, and h index.

    Products are counted once per (structure, discipline) affiliation.
    """
    area = dataset.area(discipline)
    products = area.products
    stats = area.part(_area_stats)
    cites_over_if = None
    if stats.mean_citations is not None and stats.mean_if:
        cites_over_if = stats.mean_citations / stats.mean_if
    return DisciplineProfile(
        discipline=discipline,
        size=stats.n,
        coverage=stats.n_tr / stats.n,
        mean_authors=_mean([p.n_authors for p in products]),
        mean_ownership=_mean([p.n_internal_authors / p.n_authors for p in products]),
        peer_all=stats.peer_all,
        peer_tr=stats.peer_tr,
        mean_citations=stats.mean_citations,
        cites_over_if=cites_over_if,
        mean_if=stats.mean_if,
        h=stats.h,
    )


class RatingBreakdown(
    namedtuple("RatingBreakdown", "rating count share mean_citations citations_ratio mean_if if_ratio h h_ratio")
):
    """Aggregates for the subset of a discipline's products with one rating.

    Ratio fields divide the per-rating statistic by the discipline-wide
    statistic over TR articles; they are None whenever either side is
    unavailable.
    """

    __slots__ = ()


def rating_breakdown(dataset: Dataset, discipline: str) -> list[RatingBreakdown]:
    """One row per peer rating in E, G, A, L order."""
    area = dataset.area(discipline)
    total = area.part(_area_stats)

    def ratio(value: float | None, base: float | None) -> float | None:
        if value is None or not base:
            return None
        return value / base

    rows = []
    for group in area.by_rating:
        stats = pooled_stats((group,))
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
