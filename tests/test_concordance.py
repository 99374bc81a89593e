"""Quartile binning, contingency tables, chi-square, Spearman, and exact
pairwise probabilities."""

from __future__ import annotations

import math
import random

import pytest
import scipy.stats

from conftest import flag_probability_rows

from vtrkit import concordance
from vtrkit.concordance import (
    VARIABLES,
    ProbabilityTriple,
    QuartileBins,
    RatingSample,
    adjacent_rating_probabilities,
    assign_quartile,
    chi_square_independence,
    contingency_table,
    pairwise_probabilities,
    peer_bibliometric_spearman,
    spearman,
)
from vtrkit.ingest import parse_products
from vtrkit.model import Area, PeerRating, PipelineError, Product, ProductType, RATING_ORDER
from vtrkit.synth import DisciplineSpec, SynthConfig, generate_exercise

HEADER = "product_id,structure_id,discipline,year,product_type,peer_rating,tr_indexed,citations,journal_if,n_authors,n_internal_authors"


def brute_force_triple(xs, ys) -> ProbabilityTriple:
    """Quadratic enumeration of all ordered pairs."""
    greater = sum(1 for x in xs for y in ys if x > y)
    less = sum(1 for x in xs for y in ys if x < y)
    equal = sum(1 for x in xs for y in ys if x == y)
    total = len(xs) * len(ys)
    return ProbabilityTriple(greater=greater, less=less, equal=equal, pair_count=total)


def quartile_bins(values, variable="citations") -> QuartileBins:
    """The cutpoints the battery bins an area by, when its TR products carry
    ``values`` of ``variable``, the ratings taken in turn."""
    products = tuple(
        Product(f"P{i}", "S1", "BIO", 2002, ProductType.JOURNAL_ARTICLE, RATING_ORDER[i % 4], True, None, None, 2, 1)
        ._replace(**{variable: v})
        for i, v in enumerate(values)
    )
    return contingency_table(products, variable).bins


class TestQuartileBins:
    def test_eight_point_sample(self):
        bins = quartile_bins([1, 2, 3, 4, 5, 6, 7, 8])
        assert bins.cutpoints == (2.75, 4.5, 6.25)
        assert not bins.degenerate

    def test_constant_sample_degenerate(self):
        bins = quartile_bins([5, 5, 5, 5])
        assert bins.cutpoints == (5, 5, 5)
        assert bins.degenerate

    def test_two_point_interpolation(self):
        assert quartile_bins([0, 10]).cutpoints == (2.5, 5.0, 7.5)

    def test_order_invariance(self):
        assert quartile_bins([8, 1, 5, 3, 7, 2, 6, 4]) == quartile_bins(list(range(1, 9)))


class TestAssignQuartile:
    def test_boundary_goes_to_lower_bin(self):
        bins = quartile_bins([1, 2, 3, 4, 5, 6, 7, 8])
        assert assign_quartile(2.75, bins) == 1
        assert assign_quartile(7, bins) == 4

    def test_degenerate_first_match(self):
        bins = quartile_bins([5, 5, 5, 5])
        assert assign_quartile(5, bins) == 1
        assert assign_quartile(6, bins) == 4
        assert assign_quartile(4.9, bins) == 1

    @pytest.mark.parametrize(
        "values, cutpoints, bins_at_cuts, bins_above_cuts",
        [
            ([1, 2, 3, 4, 5, 6, 7, 8], (2.75, 4.5, 6.25), (1, 2, 3), (2, 3, 4)),
            ([1, 1, 1, 1, 1, 5, 6, 7], (1.0, 1.0, 5.25), (1, 1, 3), (3, 3, 4)),
            ([1, 2, 2, 2, 2, 2, 2, 9], (2.0, 2.0, 2.0), (1, 1, 1), (4, 4, 4)),
            ([5, 5, 5, 5], (5, 5, 5), (1, 1, 1), (4, 4, 4)),
        ],
        ids=["distinct", "degenerate_lower", "degenerate_all", "constant"],
    )
    def test_each_cutpoint_goes_to_lower_bin(self, values, cutpoints, bins_at_cuts, bins_above_cuts):
        """A value equal to a cutpoint lands in the lowest bin that cutpoint
        closes; the next float above it lands past every equal cutpoint."""
        bins = quartile_bins(values)
        assert bins.cutpoints == cutpoints
        assert tuple(assign_quartile(cut, bins) for cut in cutpoints) == bins_at_cuts
        assert tuple(assign_quartile(math.nextafter(cut, math.inf), bins) for cut in cutpoints) == bins_above_cuts

    def test_exact_quarter_split_without_ties(self):
        """Tie-free sample with n divisible by 4 splits exactly."""
        values = [float(v) for v in range(1, 41)]
        bins = quartile_bins(values, "journal_if")
        counts = [0, 0, 0, 0]
        for v in values:
            counts[assign_quartile(v, bins) - 1] += 1
        assert counts == [10, 10, 10, 10]


class TestContingencyTable:
    def test_hand_cross_tabulation(self, eight_product_dataset):
        """Ratings E,E,G,G,A,A,L,L against citations 8..1: with cutpoints
        (2.75, 4.5, 6.25) each rating owns exactly one quartile."""
        table = contingency_table(eight_product_dataset.products_in("BIO"), "citations")
        assert table.bins.cutpoints == (2.75, 4.5, 6.25)
        assert table.counts == (
            (0, 0, 0, 2),  # E: citations 8, 7
            (0, 0, 2, 0),  # G: citations 6, 5
            (0, 2, 0, 0),  # A: citations 4, 3
            (2, 0, 0, 0),  # L: citations 2, 1
        )
        assert table.row_percentages[0] == (0.0, 0.0, 0.0, 100.0)
        assert table.column_totals == (2, 2, 2, 2)

    def test_single_rating_row(self):
        rows = [f"P{i},S1,BIO,2002,journal_article,G,true,{i},,2,1" for i in range(8)]
        dataset, _ = parse_products(HEADER + "\n" + "\n".join(rows) + "\n")
        table = contingency_table(dataset.products_in("BIO"), "citations")
        g_row = table.row_percentages[RATING_ORDER.index(PeerRating.GOOD)]
        assert math.fsum(g_row) == pytest.approx(100.0, abs=1e-9)
        for rating in (PeerRating.EXCELLENT, PeerRating.ACCEPTABLE, PeerRating.LIMITED):
            assert table.row_totals[RATING_ORDER.index(rating)] == 0

    def test_published_row_sum(self, citation_quartile_rows):
        bio_e = next(r for r in citation_quartile_rows if r["area"] == "BIO" and r["rating"] == "E")
        total = sum(float(bio_e[q]) for q in ("q1", "q2", "q3", "q4"))
        assert total == pytest.approx(100.0, abs=1e-9)

    def test_row_percentages_sum_to_100(self):
        rng = random.Random(17)
        rows = [
            f"P{i},S1,BIO,2002,journal_article,{rng.choice('EGAL')},true,{rng.randint(0, 12)},,2,1"
            for i in range(200)
        ]
        dataset, _ = parse_products(HEADER + "\n" + "\n".join(rows) + "\n")
        table = contingency_table(dataset.products_in("BIO"), "citations")
        for row, total in zip(table.row_percentages, table.row_totals):
            if total:
                assert math.fsum(row) == pytest.approx(100.0, abs=1e-9)

    def test_if_variable(self, four_product_dataset):
        # IF values 2,2,1,1 -> interpolated cutpoints (1.0, 1.5, 2.0)
        table = contingency_table(four_product_dataset.products_in("BIO"), "journal_if")
        assert table.grand_total == 4
        assert table.bins.cutpoints == (1.0, 1.5, 2.0)
        assert table.counts == ((0, 0, 1, 0), (0, 0, 1, 0), (1, 0, 0, 0), (1, 0, 0, 0))

    def test_no_bibliometric_data(self):
        dataset, _ = parse_products(HEADER + "\nP1,S1,CEA,2002,book,G,false,,,2,1\n")
        with pytest.raises(PipelineError) as err:
            contingency_table(dataset.products_in("CEA"), "citations")
        assert err.value.code == "no_bibliometric_data"


class TestChiSquareIndependence:
    def test_exact_independence(self):
        result = chi_square_independence([[10, 10], [10, 10]])
        assert result.statistic == 0.0
        assert result.df == 1
        assert result.p_value == 1.0

    def test_perfect_association(self):
        result = chi_square_independence([[20, 0], [0, 20]])
        assert result.statistic == pytest.approx(40.0)
        assert result.df == 1
        assert result.p_value < 0.001

    def test_uniform_four_by_four(self):
        result = chi_square_independence([[5] * 4 for _ in range(4)])
        assert result.statistic == 0.0
        assert result.df == 9
        assert result.p_value == 1.0

    def test_against_scipy(self):
        rng = random.Random(23)
        for _ in range(100):
            table = [[rng.randint(1, 30) for _ in range(4)] for _ in range(4)]
            ours = chi_square_independence(table)
            expected = scipy.stats.chi2_contingency(table, correction=False)
            assert ours.statistic == pytest.approx(expected.statistic, rel=1e-12)
            assert ours.df == expected.dof
            assert ours.p_value == pytest.approx(expected.pvalue, abs=1e-10)

    def test_permutation_invariance(self):
        table = [[3, 9, 2, 7], [5, 1, 8, 2], [4, 4, 4, 4], [9, 0, 3, 1]]
        base = chi_square_independence(table)
        shuffled_rows = chi_square_independence(table[::-1])
        transposed = chi_square_independence([list(col) for col in zip(*table)])
        assert shuffled_rows.statistic == pytest.approx(base.statistic)
        assert transposed.statistic == pytest.approx(base.statistic)
        assert shuffled_rows.df == transposed.df == base.df

    def test_outer_product_gives_zero(self):
        rows = [2, 5, 3]
        cols = [4, 1, 5, 10]
        table = [[r * c for c in cols] for r in rows]
        assert chi_square_independence(table).statistic == pytest.approx(0.0, abs=1e-9)

    def test_zero_margins_dropped(self):
        padded = [[10, 0, 10], [0, 0, 0], [10, 0, 10]]
        result = chi_square_independence(padded)
        assert result.df == 1
        assert result.statistic == pytest.approx(0.0)

    def test_low_expected_flag(self):
        assert chi_square_independence([[1, 2], [2, 1]]).low_expected
        assert not chi_square_independence([[10, 10], [10, 10]]).low_expected

    def test_degenerate_table(self):
        with pytest.raises(PipelineError) as err:
            chi_square_independence([[5, 5]])
        assert err.value.code == "degenerate_table"
        with pytest.raises(PipelineError):
            chi_square_independence([[5, 0], [5, 0]])
        with pytest.raises(PipelineError) as err:
            chi_square_independence([[5, -1], [5, 6]])
        assert (err.value.code, str(err.value)) == ("degenerate_table", "counts must be non-negative")


class TestSpearman:
    def test_perfect_monotone(self):
        result = spearman([1, 2, 3, 4], [10, 20, 30, 40])
        assert result.coefficient == 1.0
        assert result.p_value == 0.0

    def test_perfect_reversal(self):
        result = spearman([1, 2, 3, 4], [4, 3, 2, 1])
        assert result.coefficient == -1.0
        assert result.p_value == 0.0

    def test_against_scipy_with_ties(self):
        rng = random.Random(29)
        for _ in range(150):
            n = rng.randint(4, 60)
            x = [rng.randint(0, 9) for _ in range(n)]
            y = [rng.randint(0, 9) for _ in range(n)]
            if min(x) == max(x) or min(y) == max(y):
                continue
            ours = spearman(x, y)
            expected = scipy.stats.spearmanr(x, y)
            assert ours.coefficient == pytest.approx(expected.statistic, abs=1e-12)
            if abs(ours.coefficient) < 1.0:
                assert ours.p_value == pytest.approx(expected.pvalue, abs=1e-9)

    def test_invariant_under_monotone_transform(self):
        rng = random.Random(31)
        x = [rng.uniform(-5, 5) for _ in range(40)]
        y = [rng.uniform(-5, 5) for _ in range(40)]
        base = spearman(x, y)
        warped = spearman(x, [v**3 + 7 for v in y])
        assert warped.coefficient == pytest.approx(base.coefficient, abs=1e-12)
        assert warped.p_value == pytest.approx(base.p_value, abs=1e-12)

    def test_errors(self):
        with pytest.raises(PipelineError) as err:
            spearman([1, 2], [1, 2, 3])
        assert err.value.code == "length_mismatch"
        with pytest.raises(PipelineError) as err:
            spearman([1, 2], [1, 2])
        assert err.value.code == "too_few_points"
        with pytest.raises(PipelineError) as err:
            spearman([1, 1, 1], [1, 2, 3])
        assert err.value.code == "constant_variable"

    def test_product_level_codings_agree_on_direction(self, eight_product_dataset):
        products = eight_product_dataset.products_in("BIO")
        quartile = peer_bibliometric_spearman(products, "citations", "quartile")
        raw = peer_bibliometric_spearman(products, "citations", "raw")
        assert quartile.coefficient > 0.9
        assert raw.coefficient > 0.9

    def test_product_level_raw_coding_against_scipy(self, eight_product_dataset):
        products = eight_product_dataset.products_in("BIO")
        raw = peer_bibliometric_spearman(products, "citations", "raw")
        expected = scipy.stats.spearmanr(
            [p.peer_rating.value for p in products], [p.citations for p in products]
        )
        assert raw.coefficient == pytest.approx(expected.statistic, abs=1e-12)


class TestPairwiseProbabilities:
    def test_two_pair_enumeration(self):
        triple = pairwise_probabilities([3, 1], [2])
        assert triple.as_floats() == (0.5, 0.5, 0.0)
        assert triple.pair_count == 2

    def test_identical_singletons(self):
        triple = pairwise_probabilities([5], [5])
        assert triple.as_floats() == (0.0, 0.0, 1.0)

    def test_four_pair_enumeration(self):
        triple = pairwise_probabilities([2, 2], [1, 3])
        assert triple.as_floats() == (0.5, 0.5, 0.0)

    def test_sum_identity_exact(self):
        rng = random.Random(37)
        for _ in range(1000):
            xs = [rng.randint(0, 6) for _ in range(rng.randint(1, 30))]
            ys = [rng.randint(0, 6) for _ in range(rng.randint(1, 30))]
            triple = pairwise_probabilities(xs, ys)
            assert triple.greater + triple.less + triple.equal == triple.pair_count == len(xs) * len(ys)

    def test_swap_symmetry(self):
        rng = random.Random(41)
        for _ in range(200):
            xs = [rng.randint(0, 9) for _ in range(rng.randint(1, 25))]
            ys = [rng.randint(0, 9) for _ in range(rng.randint(1, 25))]
            forward = pairwise_probabilities(xs, ys)
            backward = pairwise_probabilities(ys, xs)
            assert forward.greater == backward.less
            assert forward.less == backward.greater
            assert forward.equal == backward.equal

    def test_matches_brute_force(self):
        rng = random.Random(43)
        for _ in range(200):
            xs = [rng.randint(0, 8) for _ in range(rng.randint(1, 200))]
            ys = [rng.randint(0, 8) for _ in range(rng.randint(1, 200))]
            assert pairwise_probabilities(xs, ys) == brute_force_triple(xs, ys)

    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng, n: [rng.choice((0.5, 1.25, 2.0, 3.75, 1e-3)) for _ in range(n)],
            lambda rng, n: [rng.choice((0.0, -0.0, 0.0, 1.5, -2.5)) for _ in range(n)],
            lambda rng, n: [rng.choice((2, 2.0, 1, 1.0, 3, 0.5)) for _ in range(n)],
            lambda rng, n: [rng.random() for _ in range(n)],
            lambda rng, n: [rng.choice((0.25, -0.0, 7.0, 7))],
        ],
        ids=["float_ties", "signed_zeros", "int_equals_float", "distinct_floats", "one_element"],
    )
    def test_matches_brute_force_beyond_small_integers(self, draw):
        """Counting runs over the distinct values of one side, weighted by
        their multiplicity: equal values of either type or sign count as one
        value, and each side may be a single value."""
        rng = random.Random(47)
        for _ in range(100):
            xs, ys = draw(rng, rng.randint(1, 60)), draw(rng, rng.randint(1, 60))
            assert pairwise_probabilities(xs, ys) == brute_force_triple(xs, ys)
            assert pairwise_probabilities(xs, [ys[0]]) == brute_force_triple(xs, [ys[0]])
            assert pairwise_probabilities([xs[0]], ys) == brute_force_triple([xs[0]], ys)

    def test_empty_group(self):
        with pytest.raises(PipelineError) as err:
            pairwise_probabilities([], [1])
        assert err.value.code == "empty_group"


class TestAdjacentRatingProbabilities:
    def build(self, groups: dict[str, list[int]]):
        rows = []
        i = 0
        for rating, values in groups.items():
            for v in values:
                rows.append(f"P{i},S1,BIO,2002,journal_article,{rating},true,{v},,2,1")
                i += 1
        dataset, report = parse_products(HEADER + "\n" + "\n".join(rows) + "\n")
        assert report.ok
        return dataset.products_in("BIO")

    def test_identical_single_values(self):
        products = self.build({"E": [3], "G": [3], "A": [3], "L": [3]})
        results = adjacent_rating_probabilities(products, "citations")
        assert [r.label for r in results] == ["E~G", "G~A", "A~L"]
        for r in results:
            assert r.triple.as_floats() == (0.0, 0.0, 1.0)

    def test_exhaustive_enumeration(self):
        products = self.build({"E": [10, 9], "G": [1, 2], "A": [1], "L": [0]})
        results = {r.label: r.triple for r in adjacent_rating_probabilities(products, "citations")}
        assert results["E~G"].as_floats() == (1.0, 0.0, 0.0)
        # G = [1, 2] vs A = [1]: pairs (1,1) tie and (2,1) greater
        assert results["G~A"] == brute_force_triple([1, 2], [1])
        assert results["G~A"].as_floats() == (0.5, 0.0, 0.5)
        assert results["A~L"].as_floats() == (1.0, 0.0, 0.0)

    def test_empty_side_skipped_with_note(self):
        products = self.build({"E": [5, 6], "G": [1]})
        results = adjacent_rating_probabilities(products, "citations")
        assert results[0].triple is not None
        # A and L groups are empty: both pairs touching them are skipped
        assert results[1].triple is None and "rating A" in results[1].note
        assert results[2].triple is None and results[2].note.startswith("skipped")


class TestWrapperArea:
    """The wrappers share one ``Area`` between calls on the very same tuple,
    and only on it."""

    @staticmethod
    def battery(products) -> str:
        return repr(
            [
                (
                    contingency_table(products, v),
                    peer_bibliometric_spearman(products, v),
                    peer_bibliometric_spearman(products, v, "raw"),
                    adjacent_rating_probabilities(products, v),
                )
                for v in VARIABLES
            ]
        )

    @staticmethod
    def fresh_battery(products) -> str:
        def sample(v):
            return RatingSample(Area(tuple(products)), v)

        return repr(
            [
                (sample(v).contingency(), sample(v).spearman(), sample(v).spearman("raw"), sample(v).probabilities())
                for v in VARIABLES
            ]
        )

    def test_only_the_same_tuple_shares_an_area(self):
        products = generate_exercise(SynthConfig(seed=5, disciplines=(DisciplineSpec("BIO", 3, 20, 40, 0.8),))).products
        expected = self.fresh_battery(products)
        assert self.battery(products) == expected
        area = concordance._area_of(products)
        assert self.battery(products) == expected  # a second pass over the shared, already sorted lists
        assert concordance._area_of(products) is area
        equal_tuple, as_list = tuple(list(products)), list(products)
        assert equal_tuple == products and equal_tuple is not products
        for other in (equal_tuple, as_list):
            assert concordance._area_of(other) is not area
            assert self.battery(other) == expected
        assert concordance._area_of(as_list) is not concordance._area_of(as_list)
        assert concordance._area_of(products) is not area  # the equal tuple took the slot


class TestBatteryErrorCodes:
    @pytest.mark.parametrize(
        "entry_point",
        [contingency_table, peer_bibliometric_spearman, adjacent_rating_probabilities],
        ids=["contingency", "spearman", "probabilities"],
    )
    def test_unknown_variable(self, four_product_dataset, entry_point):
        with pytest.raises(PipelineError) as err:
            entry_point(four_product_dataset.products_in("BIO"), "h_index")
        assert err.value.code == "unknown_variable"
        assert str(err.value) == "variable must be one of ('citations', 'journal_if')"

    def test_unknown_coding(self, four_product_dataset):
        with pytest.raises(PipelineError) as err:
            peer_bibliometric_spearman(four_product_dataset.products_in("BIO"), "citations", "decile")
        assert err.value.code == "unknown_coding"
        assert str(err.value) == "coding must be 'quartile' or 'raw'"


class TestProbabilityRowFlagging:
    def test_flags_only_inconsistent_published_row(self, pairwise_probability_rows):
        triples = [
            (float(r["p_greater"]), float(r["p_less"]), float(r["p_equal"]))
            for r in pairwise_probability_rows
        ]
        flagged = flag_probability_rows(triples, tolerance=0.02)
        labels = [
            (
                pairwise_probability_rows[i]["area"],
                pairwise_probability_rows[i]["variable"],
                pairwise_probability_rows[i]["pair"],
            )
            for i in flagged
        ]
        assert labels == [("IIE", "if", "GA")]

    def test_tolerance_is_inclusive(self):
        assert flag_probability_rows([(0.50, 0.48, 0.00)], tolerance=0.02) == []
        assert flag_probability_rows([(0.50, 0.47, 0.00)], tolerance=0.02) == [0]
