"""Weights, size classes, structure ratings, rankings, and rank comparison."""

from __future__ import annotations

import pickle
import random
import statistics

import pytest

from vtrkit.ingest import parse_products
from vtrkit.model import RATING_ORDER, TOKEN_RATINGS, PeerRating, PipelineError
from vtrkit.scoring import (
    RankEntry,
    Ranking,
    SizeClass,
    StructureRating,
    compile_ranking,
    rank_comparison,
    size_class,
    structure_ratings,
)

HEADER = "product_id,structure_id,discipline,year,product_type,peer_rating,tr_indexed,citations,journal_if,n_authors,n_internal_authors"


def make_rating(structure_id: str, cites: float | None, n_products: int = 12) -> StructureRating:
    return StructureRating(
        structure_id=structure_id,
        discipline="BIO",
        n_products=n_products,
        n_tr=n_products,
        peer_all=0.8,
        peer_tr=0.8,
        cites=cites,
        impact=1.0,
        size_class=size_class(n_products),
    )


class TestWeights:
    def test_committee_defaults(self):
        assert PeerRating.EXCELLENT.weight == 1.0
        assert PeerRating.GOOD.weight == 0.8
        assert PeerRating.ACCEPTABLE.weight == 0.6
        assert PeerRating.LIMITED.weight == 0.2

    def test_mean_of_excellent_and_good(self):
        mean = statistics.fmean([PeerRating.EXCELLENT.weight, PeerRating.GOOD.weight])
        assert mean == pytest.approx(0.9)

    def test_scale_tokens_and_order(self):
        assert [(r.token, int(r)) for r in RATING_ORDER] == [("E", 4), ("G", 3), ("A", 2), ("L", 1)]
        for rating in PeerRating:
            assert TOKEN_RATINGS[rating.token] is rating
            assert PeerRating(int(rating)) is rating
            assert pickle.loads(pickle.dumps(rating)) is rating
        assert repr(PeerRating.GOOD) == "<PeerRating.GOOD: 3>"

    def test_strictly_order_preserving(self):
        ratings = sorted(PeerRating, reverse=True)
        for a, b in zip(ratings, ratings[1:]):
            assert a > b
            assert a.weight > b.weight


class TestSizeClass:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (75, SizeClass.MEGA),
            (74, SizeClass.LARGE),
            (25, SizeClass.LARGE),
            (24, SizeClass.MEDIUM),
            (10, SizeClass.MEDIUM),
            (9, SizeClass.SMALL),
            (0, SizeClass.SMALL),
        ],
    )
    def test_boundaries(self, n, expected):
        assert size_class(n) is expected

    def test_total_partition(self):
        """Every count lands in exactly one class and the class boundaries
        tile the non-negative integers."""
        for n in range(0, 201):
            c = size_class(n)
            assert c is (
                SizeClass.MEGA if n > 74
                else SizeClass.LARGE if 25 <= n <= 74
                else SizeClass.MEDIUM if 10 <= n <= 24
                else SizeClass.SMALL
            )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            size_class(-1)


class TestStructureRatings:
    def build(self, rows):
        dataset, report = parse_products(HEADER + "\n" + "\n".join(rows) + "\n")
        assert report.ok
        return dataset

    def test_peer_average(self):
        rows = [
            "P1,S1,BIO,2002,journal_article,E,false,,,2,1",
            "P2,S1,BIO,2002,journal_article,E,false,,,2,1",
            "P3,S1,BIO,2002,journal_article,G,false,,,2,1",
        ]
        (rating,) = structure_ratings(self.build(rows), "BIO")
        assert rating.peer_all == pytest.approx((1.0 + 1.0 + 0.8) / 3)
        assert rating.peer_tr is None
        assert rating.cites is None and rating.impact is None

    def test_citation_average(self):
        rows = [
            "P1,S1,BIO,2002,journal_article,G,true,10,,2,1",
            "P2,S1,BIO,2002,journal_article,G,true,0,,2,1",
        ]
        (rating,) = structure_ratings(self.build(rows), "BIO")
        assert rating.cites == pytest.approx(5.0)

    def test_size_class_and_tr_count(self):
        rows = [
            f"P{i},S1,BIO,2002,journal_article,G,{'true' if i < 6 else 'false'},"
            f"{i if i < 6 else ''},,2,1"
            for i in range(12)
        ]
        (rating,) = structure_ratings(self.build(rows), "BIO")
        assert rating.n_products == 12
        assert rating.n_tr == 6
        assert rating.size_class is SizeClass.MEDIUM

    def test_one_entry_per_structure(self):
        rows = [
            "P1,S2,BIO,2002,journal_article,G,false,,,2,1",
            "P2,S1,BIO,2002,journal_article,G,false,,,2,1",
        ]
        ratings = structure_ratings(self.build(rows), "BIO")
        assert [r.structure_id for r in ratings] == ["S1", "S2"]

    def test_empty_discipline(self, four_product_dataset):
        with pytest.raises(PipelineError) as err:
            structure_ratings(four_product_dataset, "PHY")
        assert err.value.code == "empty_discipline"


class TestCompileRanking:
    def test_tie_ranks(self):
        ratings = [
            make_rating("S1", 0.9),
            make_rating("S2", 0.8),
            make_rating("S3", 0.8),
            make_rating("S4", 0.7),
        ]
        ranking = compile_ranking(ratings, "cites", min_products=10)
        assert [e.display_rank for e in ranking.entries] == [1, 2, 2, 4]
        assert [e.average_rank for e in ranking.entries] == [1.0, 2.5, 2.5, 4.0]
        assert [e.score for e in ranking.entries] == [0.9, 0.8, 0.8, 0.7]

    def test_min_products_filter(self):
        ratings = [make_rating("S1", 0.9, n_products=9), make_rating("S2", 0.8, n_products=10)]
        ranking = compile_ranking(ratings, "cites", min_products=10)
        assert [e.structure_id for e in ranking.entries] == ["S2"]
        assert ranking.entries[0].display_rank == 1

    def test_missing_metric_excluded_with_note(self):
        ratings = [make_rating("S1", 0.9), make_rating("S2", None)]
        ranking = compile_ranking(ratings, "cites")
        assert [e.structure_id for e in ranking.entries] == ["S1"]
        assert ranking.excluded == ("S2",)

    def test_empty_ranking_error(self):
        with pytest.raises(PipelineError) as err:
            compile_ranking([make_rating("S1", 0.9, n_products=3)], "cites", min_products=10)
        assert err.value.code == "empty_ranking"

    def test_affine_invariance(self):
        """Positive affine transformation of the scores changes nothing but
        the score column."""
        rng = random.Random(5)
        scores = [round(rng.uniform(0, 30), 3) for _ in range(40)]
        base = compile_ranking(
            [make_rating(f"S{i:02d}", s) for i, s in enumerate(scores)], "cites"
        )
        scaled = compile_ranking(
            [make_rating(f"S{i:02d}", 3.0 * s + 0.1) for i, s in enumerate(scores)], "cites"
        )
        assert [e.structure_id for e in base.entries] == [e.structure_id for e in scaled.entries]
        assert [e.display_rank for e in base.entries] == [e.display_rank for e in scaled.entries]
        assert [e.average_rank for e in base.entries] == [e.average_rank for e in scaled.entries]

    def test_mixed_disciplines_rejected(self):
        other = StructureRating("S9", "MED", 12, 12, 0.8, 0.8, 1.0, 1.0, SizeClass.MEDIUM)
        with pytest.raises(PipelineError) as err:
            compile_ranking([make_rating("S1", 1.0), other], "cites")
        assert err.value.code == "mixed_disciplines"

    def test_unknown_metric_rejected(self):
        with pytest.raises(PipelineError) as err:
            compile_ranking([make_rating("S1", 0.9)], "bogus")
        assert err.value.code == "unknown_metric"


class TestRankComparison:
    def ranking_from_scores(self, scores: dict[str, float], metric="cites"):
        ratings = [make_rating(s, v) for s, v in scores.items()]
        return compile_ranking(ratings, metric)

    def test_reversal(self):
        a = self.ranking_from_scores({"S1": 3.0, "S2": 2.0, "S3": 1.0})
        b = self.ranking_from_scores({"S1": 1.0, "S2": 2.0, "S3": 3.0})
        comparison = rank_comparison(a, b)
        assert sorted(abs(e.delta) for e in comparison.entries) == [0.0, 2.0, 2.0]
        assert comparison.median_abs_delta == 2.0

    def test_identical_rankings(self):
        a = self.ranking_from_scores({"S1": 3.0, "S2": 2.0, "S3": 1.0})
        comparison = rank_comparison(a, a)
        assert all(e.delta == 0 for e in comparison.entries)
        assert comparison.median_abs_delta == 0.0
        assert comparison.unchanged == ("S1", "S2", "S3")

    def test_antisymmetric_on_swap(self):
        rng = random.Random(6)
        scores_a = {f"S{i:02d}": rng.random() for i in range(20)}
        scores_b = {f"S{i:02d}": rng.random() for i in range(20)}
        ab = rank_comparison(self.ranking_from_scores(scores_a), self.ranking_from_scores(scores_b))
        ba = rank_comparison(self.ranking_from_scores(scores_b), self.ranking_from_scores(scores_a))
        deltas_ab = {e.structure_id: e.delta for e in ab.entries}
        deltas_ba = {e.structure_id: e.delta for e in ba.entries}
        assert all(deltas_ab[s] == -deltas_ba[s] for s in deltas_ab)
        assert ab.favored_by_a == ba.favored_by_b

    def test_synthetic_permutation_median(self):
        """35 structures with a known permutation between the two metrics;
        the summary median must match direct enumeration."""
        rng = random.Random(35)
        names = [f"S{i:02d}" for i in range(35)]
        scores_a = {s: float(35 - i) for i, s in enumerate(names)}  # identity ranking
        permuted = names[:]
        rng.shuffle(permuted)
        scores_b = {s: float(35 - permuted.index(s)) for s in names}
        comparison = rank_comparison(
            self.ranking_from_scores(scores_a), self.ranking_from_scores(scores_b)
        )
        expected = statistics.median(
            abs((names.index(s) + 1) - (permuted.index(s) + 1)) for s in names
        )
        assert comparison.median_abs_delta == expected
        assert comparison.median_fraction == pytest.approx(expected / 35)

    @pytest.mark.parametrize(
        "ranks_b",
        [
            pytest.param((3, 1, 2, 5, 4), id="odd"),
            pytest.param((2, 1, 3, 4, 7, 8, 5, 6), id="even"),
            pytest.param((1, 2, 3, 4), id="all_zero"),
        ],
    )
    @pytest.mark.parametrize("number", [int, float])
    def test_median_is_statistics_median(self, ranks_b, number):
        """The median |delta| is ``statistics.median``'s, to its type: it goes
        into the JSON report, where 1 and 1.0 print apart."""

        def ranking(ranks):
            entries = tuple(RankEntry(f"S{i}", 0.0, r, number(r), 12, size_class(12)) for i, r in enumerate(ranks))
            return Ranking("BIO", "cites", 1, entries, ())

        comparison = rank_comparison(ranking(range(1, len(ranks_b) + 1)), ranking(ranks_b))
        expected = statistics.median(abs(e.delta) for e in comparison.entries)
        assert (type(comparison.median_abs_delta), comparison.median_abs_delta) == (type(expected), expected)

    def test_intersection_and_dropped(self):
        a = self.ranking_from_scores({"S1": 3.0, "S2": 2.0, "S3": 1.0})
        b = self.ranking_from_scores({"S2": 2.0, "S3": 3.0, "S4": 1.0})
        comparison = rank_comparison(a, b)
        assert {e.structure_id for e in comparison.entries} == {"S2", "S3"}
        assert comparison.dropped == ("S1", "S4")

    def test_disjoint_error(self):
        a = self.ranking_from_scores({"S1": 3.0, "S2": 1.0})
        b = self.ranking_from_scores({"S8": 3.0, "S9": 1.0})
        with pytest.raises(PipelineError) as err:
            rank_comparison(a, b)
        assert err.value.code == "disjoint_rankings"

    def test_plot_pairs(self):
        a = self.ranking_from_scores({"S1": 3.0, "S2": 2.0, "S3": 1.0})
        b = self.ranking_from_scores({"S1": 1.0, "S2": 2.0, "S3": 3.0})
        comparison = rank_comparison(a, b)
        assert comparison.plot_pairs() == [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]
