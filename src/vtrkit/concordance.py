"""Peer-vs-bibliometrics concordance battery.

Quartile binning of a bibliometric variable, contingency tables of peer
rating against quartile, Pearson chi-square independence testing, Spearman
rank correlation with tie correction, and exact pairwise citation
probabilities for adjacent rating groups.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from typing import Sequence

from .model import PeerRating, PipelineError, Product, RATING_ORDER
from .numerics import average_ranks, chi_square_upper_tail, student_t_two_sided

__all__ = [
    "VARIABLES",
    "QuartileBins",
    "quartile_bins",
    "assign_quartile",
    "ContingencyTable",
    "contingency_table",
    "ChiSquareResult",
    "chi_square_independence",
    "CorrelationResult",
    "spearman",
    "peer_bibliometric_spearman",
    "ProbabilityTriple",
    "pairwise_probabilities",
    "AdjacentPairResult",
    "adjacent_rating_probabilities",
    "VariableSample",
    "probability_sum_deviation",
    "flag_probability_rows",
]

#: Bibliometric variables the battery runs on.
VARIABLES = ("citations", "journal_if")


@dataclass(frozen=True)
class QuartileBins:
    """Quartile cutpoints of a sample; degenerate when cutpoints coincide
    (heavy ties)."""

    q25: float
    q50: float
    q75: float

    @property
    def degenerate(self) -> bool:
        return self.q25 == self.q50 or self.q50 == self.q75

    @property
    def cutpoints(self) -> tuple[float, float, float]:
        return (self.q25, self.q50, self.q75)


def _interpolated_quantile(ordered: Sequence[float], p: float) -> float:
    """Linear interpolation at position h = (n-1)p of the sorted sample."""
    h = (len(ordered) - 1) * p
    lo = math.floor(h)
    frac = h - lo
    if frac == 0.0:
        return ordered[lo]
    return ordered[lo] + frac * (ordered[lo + 1] - ordered[lo])


def quartile_bins(values: Sequence[float]) -> QuartileBins:
    if not values:
        raise PipelineError("empty_sample", "cannot compute quartiles of an empty sample")
    ordered = sorted(values)
    return QuartileBins(
        q25=_interpolated_quantile(ordered, 0.25),
        q50=_interpolated_quantile(ordered, 0.50),
        q75=_interpolated_quantile(ordered, 0.75),
    )


def assign_quartile(value: float, bins: QuartileBins) -> int:
    """Quartile 1-4 of a value; boundary values go to the lower bin."""
    return bisect_left(bins.cutpoints, value) + 1


@dataclass(frozen=True)
class ContingencyTable:
    """Cross-tabulation of peer rating (rows E, G, A, L) against bibliometric
    quartile (columns 1-4)."""

    variable: str
    bins: QuartileBins
    counts: tuple[tuple[int, int, int, int], ...]

    @property
    def row_totals(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.counts)

    @property
    def column_totals(self) -> tuple[int, ...]:
        return tuple(sum(col) for col in zip(*self.counts))

    @property
    def grand_total(self) -> int:
        return sum(self.row_totals)

    @property
    def row_percentages(self) -> tuple[tuple[float, float, float, float], ...]:
        return tuple(
            tuple(100.0 * c / total if total else 0.0 for c in row)
            for row, total in zip(self.counts, self.row_totals)
        )

    def json_shape(self) -> dict:
        """JSON form: counts and row percentages with the bins they use."""
        return {
            "variable": self.variable,
            "cutpoints": list(self.bins.cutpoints),
            "degenerate_bins": self.bins.degenerate,
            "ratings": [r.token for r in RATING_ORDER],
            "counts": [list(row) for row in self.counts],
            "row_percentages": [list(row) for row in self.row_percentages],
        }


def contingency_table(products: Sequence[Product], variable: str) -> ContingencyTable:
    """Bin the discipline's TR values of ``variable`` into quartiles and
    cross-tabulate against peer rating."""
    return VariableSample(products, variable).contingency()


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    df: int
    p_value: float
    low_expected: bool  # some expected count < 5: the asymptotic p is shaky


def chi_square_independence(counts: Sequence[Sequence[int]]) -> ChiSquareResult:
    """Pearson chi-square test of independence on an R x C count table.

    Rows and columns with a zero marginal are dropped before computing the
    degrees of freedom.
    """
    table = [list(row) for row in counts]
    if any(c < 0 for row in table for c in row):
        raise PipelineError("degenerate_table", "counts must be non-negative")
    rows = [row for row in table if sum(row) > 0]
    if rows:
        keep = [j for j in range(len(rows[0])) if sum(row[j] for row in rows) > 0]
        rows = [[row[j] for j in keep] for row in rows]
    if len(rows) < 2 or len(rows[0]) < 2:
        raise PipelineError("degenerate_table", "need at least 2 nonempty rows and columns")

    grand = sum(sum(row) for row in rows)
    row_totals = [sum(row) for row in rows]
    col_totals = [sum(row[j] for row in rows) for j in range(len(rows[0]))]
    statistic = 0.0
    low_expected = False
    for i, row in enumerate(rows):
        for j, observed in enumerate(row):
            expected = row_totals[i] * col_totals[j] / grand
            if expected < 5:
                low_expected = True
            statistic += (observed - expected) ** 2 / expected
    df = (len(rows) - 1) * (len(rows[0]) - 1)
    return ChiSquareResult(
        statistic=statistic,
        df=df,
        p_value=chi_square_upper_tail(statistic, df),
        low_expected=low_expected,
    )


@dataclass(frozen=True)
class CorrelationResult:
    coefficient: float
    p_value: float
    n: int
    method: str = "tie_corrected_spearman"


def spearman(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Spearman rank correlation with averaged ranks for ties.

    The coefficient is the product-moment correlation of the tie-averaged
    ranks (which reduces to 1 - 6*sum(d^2)/(n(n^2-1)) without ties); the
    two-sided p-value comes from the t approximation with n-2 degrees of
    freedom.
    """
    if len(x) != len(y):
        raise PipelineError("length_mismatch", f"|x| = {len(x)} but |y| = {len(y)}")
    n = len(x)
    if n < 3:
        raise PipelineError("too_few_points", "need at least 3 observations")
    if min(x) == max(x) or min(y) == max(y):
        raise PipelineError("constant_variable", "correlation of a constant variable is undefined")

    rx = average_ranks(x)
    ry = average_ranks(y)
    mean_rank = (n + 1) / 2
    dx = [r - mean_rank for r in rx]
    dy = [r - mean_rank for r in ry]
    num = math.fsum(a * b for a, b in zip(dx, dy))
    den = math.sqrt(math.fsum(a * a for a in dx) * math.fsum(b * b for b in dy))
    rho = max(-1.0, min(1.0, num / den))
    if abs(rho) == 1.0:
        p_value = 0.0
    else:
        t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        p_value = student_t_two_sided(t, n - 2)
    return CorrelationResult(coefficient=rho, p_value=p_value, n=n)


def peer_bibliometric_spearman(
    products: Sequence[Product],
    variable: str,
    coding: str = "quartile",
) -> CorrelationResult:
    """Product-level Spearman between the four-point peer scale and a
    bibliometric variable.

    ``coding`` selects how the bibliometric side enters: its discipline
    quartile index ("quartile") or the raw value ("raw").  The peer side uses
    the rating's scale position; any strictly increasing recoding (such as
    the committee weights) yields the same coefficient.
    """
    return VariableSample(products, variable).spearman(coding)


@dataclass(frozen=True)
class ProbabilityTriple:
    """P(x > y), P(x < y), P(x = y) over all ordered pairs of two value
    multisets, kept as exact rationals so the three parts always sum to 1."""

    p_greater: Fraction
    p_less: Fraction
    p_equal: Fraction
    pair_count: int

    def as_floats(self) -> tuple[float, float, float]:
        return (float(self.p_greater), float(self.p_less), float(self.p_equal))


def pairwise_probabilities(
    x_values: Sequence[float], y_values: Sequence[float]
) -> ProbabilityTriple:
    """Exact pair-counting probabilities that a random draw from ``x_values``
    exceeds / trails / ties a random draw from ``y_values``.

    Counting is done by sorting one side and locating each value of the other
    (O(n log n)); the result equals the full quadratic enumeration exactly.
    """
    if not x_values or not y_values:
        raise PipelineError("empty_group", "both value groups must be nonempty")
    ys = sorted(y_values)
    greater = sum(bisect_left(ys, x) for x in x_values)
    equal = sum(bisect_right(ys, x) for x in x_values) - greater
    total = len(x_values) * len(ys)
    return ProbabilityTriple(
        p_greater=Fraction(greater, total),
        p_less=Fraction(total - greater - equal, total),
        p_equal=Fraction(equal, total),
        pair_count=total,
    )


@dataclass(frozen=True)
class AdjacentPairResult:
    higher: PeerRating
    lower: PeerRating
    triple: ProbabilityTriple | None
    note: str | None = None

    @property
    def label(self) -> str:
        return f"{self.higher.token}~{self.lower.token}"

    def json_shape(self) -> dict:
        """JSON form: the pair label, its note and the triple as floats."""
        payload: dict = {"pair": self.label, "note": self.note}
        if self.triple is not None:
            pg, pl, pe = self.triple.as_floats()
            payload.update({"p_greater": pg, "p_less": pl, "p_equal": pe, "pair_count": self.triple.pair_count})
        return payload


def adjacent_rating_probabilities(
    products: Sequence[Product], variable: str
) -> list[AdjacentPairResult]:
    """Pairwise probabilities for the adjacent rating pairs (E,G), (G,A),
    (A,L); pairs with an empty side are skipped with a note."""
    return VariableSample(products, variable).probabilities()


class VariableSample:
    """The peer ratings and float values of an area's TR products that carry
    ``variable``, in product order: the one sample of the battery.  Its
    quartile bins and codes (1-4) are computed once, on first use."""

    def __init__(self, products: Sequence[Product], variable: str):
        if variable not in VARIABLES:
            raise PipelineError("unknown_variable", f"variable must be one of {VARIABLES}")
        self.variable = variable
        self.ratings: list[PeerRating] = []
        self.values: list[float] = []
        value_of = attrgetter(variable)
        for p in products:
            # Product's bibliometrics_on_uncovered rule: a present value is on a TR product
            if (value := value_of(p)) is not None:
                self.ratings.append(p.peer_rating)
                self.values.append(float(value))

    def _nonempty_values(self) -> list[float]:
        if not self.values:
            raise PipelineError("no_bibliometric_data", f"no TR product carries {self.variable!r}")
        return self.values

    @cached_property
    def bins(self) -> QuartileBins:
        return quartile_bins(self._nonempty_values())

    @cached_property
    def codes(self) -> list[int]:
        return [assign_quartile(value, self.bins) for value in self.values]

    def contingency(self) -> ContingencyTable:
        tally = Counter(zip(self.ratings, self.codes))
        counts = tuple(tuple(tally[rating, code] for code in (1, 2, 3, 4)) for rating in RATING_ORDER)
        return ContingencyTable(variable=self.variable, bins=self.bins, counts=counts)

    def spearman(self, coding: str = "quartile") -> CorrelationResult:
        if coding not in ("quartile", "raw"):
            raise PipelineError("unknown_coding", "coding must be 'quartile' or 'raw'")
        return spearman(self.ratings, self.codes if coding == "quartile" else self._nonempty_values())

    def probabilities(self) -> list[AdjacentPairResult]:
        groups: dict[PeerRating, list[float]] = {rating: [] for rating in RATING_ORDER}
        for rating, value in zip(self.ratings, self.values):
            groups[rating].append(value)
        results = []
        for higher, lower in zip(RATING_ORDER, RATING_ORDER[1:]):
            if groups[higher] and groups[lower]:
                triple = pairwise_probabilities(groups[higher], groups[lower])
                results.append(AdjacentPairResult(higher, lower, triple))
            else:
                empty = higher if not groups[higher] else lower
                note = f"skipped: no {self.variable} values for rating {empty.token}"
                results.append(AdjacentPairResult(higher, lower, None, note))
        return results


def probability_sum_deviation(p_greater: float, p_less: float, p_equal: float) -> float:
    """How far a reported probability triple strays from the sum identity."""
    return abs(p_greater + p_less + p_equal - 1.0)


def flag_probability_rows(
    rows: Sequence[tuple[float, float, float]], tolerance: float = 0.02
) -> list[int]:
    """Indices of reported triples violating the sum identity beyond
    ``tolerance`` (inclusive, guarded against float fuzz).

    Published tables carry rounded values, so a small tolerance is expected;
    anything beyond it indicates an inconsistent row.
    """
    return [
        i
        for i, (pg, pl, pe) in enumerate(rows)
        if probability_sum_deviation(pg, pl, pe) > tolerance + 1e-12
    ]
