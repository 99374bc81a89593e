"""h index, ownership, discipline profiles, and rating breakdowns."""

from __future__ import annotations

import math
import random

import pytest

from vtrkit.indicators import (
    discipline_profile,
    h_index,
    rating_breakdown,
)
from vtrkit.ingest import parse_products
from vtrkit.model import Dataset, PeerRating, PipelineError, Product, ProductType, Provenance


def h_index_brute_force(citations) -> int:
    """Try every candidate n from 0 to the set size."""
    values = list(citations)
    best = 0
    for n in range(len(values) + 1):
        if sum(1 for c in values if c >= n) >= n:
            best = n
    return best


class TestHIndex:
    def test_empty(self):
        assert h_index([]) == 0

    def test_worked_example(self):
        assert h_index([6, 5, 3, 1, 0]) == h_index_brute_force([6, 5, 3, 1, 0]) == 3

    def test_bounded_by_set_size(self):
        assert h_index([10, 10, 10]) == h_index_brute_force([10, 10, 10]) == 3

    def test_matches_brute_force(self):
        rng = random.Random(13)
        for _ in range(300):
            n = rng.randint(0, 40)
            multiset = [rng.randint(0, 50) for _ in range(n)]
            assert h_index(multiset) == h_index_brute_force(multiset)

    def test_bounds_and_monotonicity(self):
        rng = random.Random(14)
        for _ in range(200):
            multiset = [rng.randint(0, 30) for _ in range(rng.randint(0, 25))]
            h = h_index(multiset)
            assert h <= len(multiset)
            assert h <= max(multiset, default=0)
            assert h_index(multiset + [rng.randint(0, 30)]) >= h


class TestOwnershipDegree:
    @pytest.mark.parametrize(
        "n_authors,n_internal,expected",
        [(4, 3, 0.75), (1, 1, 1.0), (1412, 0, 0.0)],
    )
    def test_values(self, n_authors, n_internal, expected):
        """A product's ownership degree is the mean ownership of an area of that product alone."""
        product = Product(
            "P", "S", "BIO", 2002, ProductType.JOURNAL_ARTICLE, PeerRating.GOOD,
            False, None, None, n_authors, n_internal,
        )
        dataset = Dataset((product,), Provenance("hand", "", ""))
        assert discipline_profile(dataset, "BIO").mean_ownership == expected


class TestDisciplineProfile:
    def test_four_product_fixture(self, four_product_dataset):
        p = discipline_profile(four_product_dataset, "BIO")
        assert p.size == 4
        assert p.coverage == 1.0
        assert p.peer_all == pytest.approx(0.65)
        assert p.peer_tr == pytest.approx(0.65)
        assert p.mean_citations == pytest.approx(2.5)
        assert p.mean_if == pytest.approx(1.5)
        assert p.cites_over_if == pytest.approx(2.5 / 1.5)
        assert p.h == 2 == h_index_brute_force([4, 3, 2, 1])
        assert p.mean_authors == pytest.approx(2.0)
        assert p.mean_ownership == pytest.approx(0.5)

    def test_empty_discipline_error(self, four_product_dataset):
        with pytest.raises(PipelineError) as err:
            discipline_profile(four_product_dataset, "PHY")
        assert err.value.code == "empty_discipline"

    def test_mean_ownership_consistency(self, four_product_dataset):
        p = discipline_profile(four_product_dataset, "BIO")
        products = four_product_dataset.products_in("BIO")
        expected = sum(x.n_internal_authors / x.n_authors for x in products) / len(products)
        assert p.mean_ownership == pytest.approx(expected)

    def test_permutation_invariance(self):
        rows = [
            f"P{i},S{1 + i % 3},BIO,2002,journal_article,{'EGAL'[i % 4]},true,{i},{0.5 * i},3,2"
            for i in range(20)
        ]
        header = "product_id,structure_id,discipline,year,product_type,peer_rating,tr_indexed,citations,journal_if,n_authors,n_internal_authors"
        forward, _ = parse_products(header + "\n" + "\n".join(rows) + "\n")
        rng = random.Random(3)
        rng.shuffle(rows)
        shuffled, _ = parse_products(header + "\n" + "\n".join(rows) + "\n")
        assert discipline_profile(forward, "BIO") == discipline_profile(shuffled, "BIO")

    def test_no_tr_products(self):
        header = "product_id,structure_id,discipline,year,product_type,peer_rating,tr_indexed,citations,journal_if,n_authors,n_internal_authors"
        dataset, _ = parse_products(header + "\nP1,S1,CEA,2002,book,G,false,,,2,1\n")
        p = discipline_profile(dataset, "CEA")
        assert p.coverage == 0.0
        assert p.peer_tr is None
        assert p.mean_citations is None and p.mean_if is None and p.cites_over_if is None
        assert p.h == 0

    def test_missing_citations_excluded_from_means(self):
        header = "product_id,structure_id,discipline,year,product_type,peer_rating,tr_indexed,citations,journal_if,n_authors,n_internal_authors"
        dataset, report = parse_products(
            header
            + "\nP1,S1,BIO,2002,journal_article,E,true,10,2.0,2,1"
            + "\nP2,S1,BIO,2002,journal_article,G,true,,4.0,2,1\n"
        )
        assert [w.rule for w in report.warnings] == ["tr_missing_citations"]
        p = discipline_profile(dataset, "BIO")
        assert p.mean_citations == pytest.approx(10.0)  # P2 has no count
        assert p.mean_if == pytest.approx(3.0)  # both IF values present
        assert p.h == 1


class TestRatingBreakdown:
    def test_rows_in_rating_order(self, four_product_dataset):
        rows = rating_breakdown(four_product_dataset, "BIO")
        assert [r.rating for r in rows] == [
            PeerRating.EXCELLENT,
            PeerRating.GOOD,
            PeerRating.ACCEPTABLE,
            PeerRating.LIMITED,
        ]

    def test_counts_and_shares(self, four_product_dataset):
        rows = rating_breakdown(four_product_dataset, "BIO")
        assert sum(r.count for r in rows) == 4
        assert math.fsum(r.share for r in rows) == pytest.approx(1.0, abs=1e-9)

    def test_ratios_consistent_with_profile(self, four_product_dataset):
        profile = discipline_profile(four_product_dataset, "BIO")
        for row in rating_breakdown(four_product_dataset, "BIO"):
            if row.mean_citations is not None:
                assert row.citations_ratio == pytest.approx(row.mean_citations / profile.mean_citations)
            if row.mean_if is not None:
                assert row.if_ratio == pytest.approx(row.mean_if / profile.mean_if)
            if row.h is not None:
                assert row.h_ratio == pytest.approx(row.h / profile.h)

    def test_degenerate_single_rating(self):
        header = "product_id,structure_id,discipline,year,product_type,peer_rating,tr_indexed,citations,journal_if,n_authors,n_internal_authors"
        rows = [f"P{i},S1,BIO,2002,journal_article,G,true,{i},1.0,2,1" for i in range(5)]
        dataset, _ = parse_products(header + "\n" + "\n".join(rows) + "\n")
        breakdown = rating_breakdown(dataset, "BIO")
        by_rating = {r.rating: r for r in breakdown}
        assert by_rating[PeerRating.GOOD].share == 1.0
        for rating in (PeerRating.EXCELLENT, PeerRating.ACCEPTABLE, PeerRating.LIMITED):
            row = by_rating[rating]
            assert row.count == 0 and row.share == 0.0
            assert row.mean_citations is None and row.h is None

    def test_per_rating_h_uses_subset_only(self, eight_product_dataset):
        rows = rating_breakdown(eight_product_dataset, "BIO")
        by_rating = {r.rating: r for r in rows}
        # E holds citations {8, 7} -> h = 2; L holds {2, 1} -> h = 1
        assert by_rating[PeerRating.EXCELLENT].h == h_index_brute_force([8, 7]) == 2
        assert by_rating[PeerRating.LIMITED].h == h_index_brute_force([2, 1]) == 1
