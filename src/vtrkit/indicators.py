"""Product-set bibliometric indicators and discipline-level aggregates."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

from .model import Dataset, PeerRating, PipelineError, Product, RATING_ORDER
from .scoring import DEFAULT_WEIGHTS, RatingWeights

__all__ = [
    "h_index",
    "ownership_degree",
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


@dataclass(frozen=True)
class DisciplineProfile:
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


def _tr_stats(products: Sequence[Product]) -> tuple[float | None, float | None, int]:
    """(mean citations, mean impact factor, h) over the TR subset of products.

    TR products missing a value are excluded from the respective mean; the h
    index uses the citation multiset of products with a recorded count.
    """
    tr = [p for p in products if p.tr_indexed]
    cites = [p.citations for p in tr if p.citations is not None]
    impact = [p.journal_if for p in tr if p.journal_if is not None]
    return (
        statistics.fmean(cites) if cites else None,
        statistics.fmean(impact) if impact else None,
        h_index(cites),
    )


def discipline_profile(
    dataset: Dataset,
    discipline: str,
    weights: RatingWeights = DEFAULT_WEIGHTS,
) -> DisciplineProfile:
    """Aggregate one discipline: size, coverage, authorship, ownership, peer
    means (all products and TR subset), citation/impact means, and h index.

    Products are counted once per (structure, discipline) affiliation.
    """
    products = dataset.products_in(discipline)
    if not products:
        raise PipelineError("empty_discipline", f"no products for discipline {discipline!r}")
    tr = [p for p in products if p.tr_indexed]
    mean_citations, mean_if, h = _tr_stats(products)
    cites_over_if = None
    if mean_citations is not None and mean_if:
        cites_over_if = mean_citations / mean_if
    return DisciplineProfile(
        discipline=discipline,
        size=len(products),
        coverage=len(tr) / len(products),
        mean_authors=statistics.fmean(p.n_authors for p in products),
        mean_ownership=statistics.fmean(ownership_degree(p) for p in products),
        peer_all=statistics.fmean(weights.of(p.peer_rating) for p in products),
        peer_tr=statistics.fmean(weights.of(p.peer_rating) for p in tr) if tr else None,
        mean_citations=mean_citations,
        cites_over_if=cites_over_if,
        mean_if=mean_if,
        h=h,
    )


@dataclass(frozen=True)
class RatingBreakdown:
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
    products = dataset.products_in(discipline)
    if not products:
        raise PipelineError("empty_discipline", f"no products for discipline {discipline!r}")
    disc_cites, disc_if, disc_h = _tr_stats(products)

    def ratio(value: float | None, base: float | None) -> float | None:
        if value is None or not base:
            return None
        return value / base

    rows = []
    for rating in RATING_ORDER:
        group = [p for p in products if p.peer_rating == rating]
        tr_group = [p for p in group if p.tr_indexed]
        mean_citations, mean_if, h = _tr_stats(group)
        rows.append(
            RatingBreakdown(
                rating=rating,
                count=len(group),
                share=len(group) / len(products),
                mean_citations=mean_citations,
                citations_ratio=ratio(mean_citations, disc_cites),
                mean_if=mean_if,
                if_ratio=ratio(mean_if, disc_if),
                h=h if tr_group else None,
                h_ratio=h / disc_h if tr_group and disc_h else None,
            )
        )
    return rows
