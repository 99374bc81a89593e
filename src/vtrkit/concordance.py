"""Peer-vs-bibliometrics concordance battery.

Quartile binning of a bibliometric variable, contingency tables of peer
rating against quartile, Pearson chi-square independence testing, Spearman
rank correlation with tie correction, and exact pairwise citation
probabilities for adjacent rating groups.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, pairwise, repeat
from operator import attrgetter
from typing import Sequence

from .model import Area, PeerRating, PipelineError, Product, RATING_ORDER
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
    "RatingSample",
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
        return float(ordered[lo])
    return ordered[lo] + frac * (ordered[lo + 1] - ordered[lo])


def quartile_bins(values: Sequence[float]) -> QuartileBins:
    if not values:
        raise PipelineError("empty_sample", "cannot compute quartiles of an empty sample")
    ordered = sorted(values)
    return QuartileBins(*(_interpolated_quantile(ordered, p) for p in (0.25, 0.50, 0.75)))


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
    return rating_sample(products, variable).contingency()


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
    return _rank_correlation(num, math.fsum(a * a for a in dx), math.fsum(b * b for b in dy), n)


def _rank_correlation(num: float, sxx: float, syy: float, n: int) -> CorrelationResult:
    """The correlation of n rank pairs from the sums of their centred
    products and squares, with its t-approximation p-value."""
    rho = max(-1.0, min(1.0, num / math.sqrt(sxx * syy)))
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
    return rating_sample(products, variable).spearman(coding)


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
    return rating_sample(products, variable).probabilities()


def rating_sample(products: Sequence[Product] | Area, variable: str) -> RatingSample:
    """The battery's sample of an ``Area``, from the rating groups it reads
    once for all its builders, or of a sequence of products."""
    return RatingSample(products if isinstance(products, Area) else Area(tuple(products)), variable)


class RatingSample:
    """The values of ``variable`` on an area's TR products, one sorted list
    per peer rating in ``RATING_ORDER``: the area's rating group lists,
    sorted in place.  Every statistic of the battery depends only on the
    multiset of (rating, value) pairs, so these lists give what a pass over
    the products in their order gives."""

    def __init__(self, area: Area, variable: str):
        if variable not in VARIABLES:
            raise PipelineError("unknown_variable", f"variable must be one of {VARIABLES}")
        self.products = area.products
        self.variable = variable
        self.groups = [getattr(group, variable) for group in area.by_rating]
        for values in self.groups:
            values.sort()

    def _values(self) -> list[float]:
        if not any(self.groups):
            raise PipelineError("no_bibliometric_data", f"no TR product carries {self.variable!r}")
        return list(chain(*self.groups))

    @cached_property
    def bins(self) -> QuartileBins:
        ordered = self._values()
        ordered.sort()  # merges the sorted groups
        # values are >= 0, so zeros lead.  0.0 and -0.0 are equal but print
        # apart: mixed, they take the products' order, as one sort would leave them
        zeros = bisect_right(ordered, 0)
        if abs(sum(map(math.copysign, repeat(1.0, zeros), ordered))) != zeros:
            value_of = attrgetter(self.variable)
            ordered[:zeros] = [v for p in self.products if (v := value_of(p)) is not None and v == 0]
        return QuartileBins(*(_interpolated_quantile(ordered, p) for p in (0.25, 0.50, 0.75)))

    def contingency(self) -> ContingencyTable:
        """Counts per rating and bin; a value equal to a cutpoint is in the lower bin."""
        counts = []
        for group in self.groups:
            b1, b2, b3 = (bisect_right(group, cut) for cut in self.bins.cutpoints)
            counts.append((b1, b2 - b1, b3 - b2, len(group) - b3))
        return ContingencyTable(variable=self.variable, bins=self.bins, counts=tuple(counts))

    def spearman(self, coding: str = "quartile") -> CorrelationResult:
        if coding not in ("quartile", "raw"):
            raise PipelineError("unknown_coding", "coding must be 'quartile' or 'raw'")
        if coding == "quartile":
            return _table_spearman(self.contingency())
        values = self._values()  # rank statistics do not depend on the order of the pairs
        return spearman([r for r, group in zip(RATING_ORDER, self.groups) for _ in group], values)

    def probabilities(self) -> list[AdjacentPairResult]:
        results = []
        for (higher, xs), (lower, ys) in pairwise(zip(RATING_ORDER, self.groups)):
            if xs and ys:
                results.append(AdjacentPairResult(higher, lower, pairwise_probabilities(xs, ys)))
            else:
                note = f"skipped: no {self.variable} values for rating {(lower if xs else higher).token}"
                results.append(AdjacentPairResult(higher, lower, None, note))
        return results


def _table_spearman(table: ContingencyTable) -> CorrelationResult:
    """``spearman`` of the (rating, quartile) pairs a contingency table counts.
    A level's average rank and the mean rank are half-integers, so twice their
    difference is an integer: the sums are exact integers, divided by 4 once,
    which gives the correctly rounded floats ``math.fsum`` gives over the pairs."""
    rows, columns, n = table.row_totals[::-1], table.column_totals, table.grand_total  # rows ascending
    if n < 3:
        raise PipelineError("too_few_points", "need at least 3 observations")
    if max(rows) == n or max(columns) == n:
        raise PipelineError("constant_variable", "correlation of a constant variable is undefined")
    dx, dy = ([2 * start + c - n for start, c in zip(accumulate(m, initial=0), m)] for m in (rows, columns))
    sxy = sum(c * a * b for row, a in zip(table.counts, dx[::-1]) for c, b in zip(row, dy))
    sxx, syy = (sum(c * d * d for c, d in zip(m, ds)) for m, ds in ((rows, dx), (columns, dy)))
    return _rank_correlation(sxy / 4, sxx / 4, syy / 4, n)


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
