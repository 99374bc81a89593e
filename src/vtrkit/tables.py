"""Markdown and CSV rendering of the result records.

Each table is declared once, as a ``Table`` of ``Column``s: a header and a
cell function per column, with a separate CSV column list only where the flat
CSV layout differs from the markdown one (bracketed ratios, percentages).
``render`` turns a table and its items into markdown or CSV; the layouts
that join several tables (a ranking with its exclusions, a rank comparison,
a concordance battery) are functions beside them.  JSON needs no table, so
it lives apart, in ``jsonout``: JSON output does not import this module.

Markdown and CSV cells use fixed precision: two decimals for table values,
three for p-values, with p below 0.001 shown as "<0.001"; ``md_cell`` escapes
a markdown cell.  All rendering is deterministic for a given dataset and flags.

This module imports only ``model``, whose ``csv_field`` quotes every CSV cell:
a command that renders a table loads neither ``csv`` nor a statistic it does not run.
"""

from __future__ import annotations

import re
from collections import namedtuple
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .model import RATING_ORDER, csv_field

if TYPE_CHECKING:
    from .concordance import AdjacentPairResult, ContingencyTable, VariableBattery
    from .scoring import RankComparison, Ranking


def _places(x: float, digits: int) -> str:
    """``x`` to ``digits`` places, half up on its repr.  ``format`` alone
    rounds the exact binary value, which lands on the same side unless the
    repr is a tie at ``digits`` places: exactly one more fractional digit, a
    5 (such as 2.675, just below 2.675 in binary, or 5e-05)."""
    text = repr(x)
    mantissa, _, exponent = text.partition("e")
    whole, _, fraction = mantissa.partition(".")
    if mantissa[-1] == "5" and len(fraction) - int(exponent or 0) == digits + 1:
        # the repr's digits as an integer, rounded half away from zero; int
        # true division gives the correctly rounded float of the result
        n = int(whole + fraction)
        q = (abs(n) + 5) // 10
        x = (q if n > 0 else -q) / 10**digits
    return f"{x:.{digits}f}"


def fmt(x: float | int | None, digits: int = 2) -> str:
    """Fixed-precision cell; absent values render as a dash."""
    if x is None:
        return "-"
    if isinstance(x, int):
        return str(x)
    return _places(x, digits)


def fmt_pct(x: float | None) -> str:
    """A fraction as a fixed two-decimal percentage."""
    if x is None:
        return "-"
    return _places(100.0 * x, 2) + "%"


def fmt_p(p: float | None) -> str:
    if p is None:
        return "-"
    if p < 0.001:
        return "<0.001"
    return _places(p, 3)


#: the characters a markdown cell writes after a backslash, and what it writes for each
_MD_ESCAPES = str.maketrans({"\\": "\\\\", "|": "\\|", "\r": "\\r", "\n": "\\n"})
_MD_SPECIAL = re.compile(r"[\\|\r\n]")


def md_cell(text: str) -> str:
    r"""``text`` as a markdown table cell or list item, each ``\``, ``|``, CR and LF
    after a backslash (``\n`` for LF), so a row keeps its cells and its line."""
    return text.translate(_MD_ESCAPES) if _MD_SPECIAL.search(text) else text


def md_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    lines = (headers, ["---"] * len(headers), *rows)
    return "".join("| " + " | ".join(map(md_cell, map(str, row))) + " |\n" for row in lines)


def csv_text(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    return "".join(",".join(csv_field(str(cell)) for cell in row) + "\n" for row in (headers, *rows))


# --- table specs ---

class Column(namedtuple("Column", "header cell")):
    """One column: its header and the function that gives an item's cell."""

    __slots__ = ()


class Table(namedtuple("Table", "columns csv", defaults=(None,))):
    """Column spec of one table: ``columns`` for markdown, and for CSV too
    unless ``csv`` gives a flat layout of its own."""

    __slots__ = ()


def render(table: Table, items: Iterable, fmt: str, **names: str) -> str:
    """Render items as a markdown or CSV table; ``names`` fill header
    templates such as ``{metric_a} rank``."""
    columns = (table.csv or table.columns) if fmt == "csv" else table.columns
    headers = [c.header.format(**names) for c in columns]
    rows = [[c.cell(item) for c in columns] for item in items]
    return csv_text(headers, rows) if fmt == "csv" else md_table(headers, rows)


def csv_section(name: str, table: Table, keys: Sequence[str], rows: Iterable[tuple]) -> str:
    """A '# <name>' section of a CSV report: key columns, then the table's CSV
    columns; rows are (key values, item) pairs."""
    columns = table.csv or table.columns
    body = [[*key_values, *(c.cell(item) for c in columns)] for key_values, item in rows]
    return f"# {name}\n" + csv_text([*keys, *(c.header for c in columns)], body)


def _attr(name: str, header: str | None = None) -> Column:
    return Column(header or name, attrgetter(name))


def _fixed(name: str, digits: int = 2, header: str | None = None) -> Column:
    return Column(header or name, lambda x: fmt(getattr(x, name), digits))


def _bracketed(header: str, value: str, ratio: str) -> Column:
    """A value with its ratio in brackets, the paper's table style."""
    return Column(header, lambda x: f"{fmt(getattr(x, value))} ({fmt(getattr(x, ratio))})")


def _renamed(columns: tuple[Column, ...], headers: Sequence[str]) -> tuple[Column, ...]:
    return tuple(Column(h, c.cell) for h, c in zip(headers, columns, strict=True))


_RATING = Column("rating", lambda x: x.rating.token)

#: One row per area.
PROFILE = Table(
    columns=(
        _attr("discipline", "area"),
        _attr("size"),
        Column("cov", lambda p: fmt_pct(p.coverage)),
        _fixed("mean_authors", header="auth"),
        Column("own", lambda p: fmt_pct(p.mean_ownership)),
        _bracketed("peer (TR)", "peer_all", "peer_tr"),
        _bracketed("cites (/IF)", "mean_citations", "cites_over_if"),
        _fixed("mean_if", header="IF"),
        _attr("h"),
    ),
    csv=(
        _attr("discipline"),
        _attr("size"),
        _fixed("coverage", 4),
        _fixed("mean_authors"),
        _fixed("mean_ownership", 4),
        _fixed("peer_all", 3),
        _fixed("peer_tr", 3),
        _fixed("mean_citations"),
        _fixed("cites_over_if"),
        _fixed("mean_if"),
        _attr("h"),
    ),
)

#: Four rows per area, one per rating.
BREAKDOWN = Table(
    columns=(
        _RATING,
        Column("size", lambda b: f"{b.count} ({fmt_pct(b.share)})"),
        _bracketed("cites", "mean_citations", "citations_ratio"),
        _bracketed("IF", "mean_if", "if_ratio"),
        _bracketed("h", "h", "h_ratio"),
    ),
    csv=(
        _RATING,
        _attr("count"),
        _fixed("share", 4),
        _fixed("mean_citations"),
        _fixed("citations_ratio"),
        _fixed("mean_if"),
        _fixed("if_ratio"),
        _fixed("h"),
        _fixed("h_ratio"),
    ),
)

_CONTINGENCY_COLUMNS = (Column("rating", lambda row: row[0].token),) + tuple(
    Column(f"Q{q}", lambda row, i=q - 1: fmt(row[1][i])) for q in range(1, 5)
)

#: Row percentages of a contingency table; items are (rating, percentages).
CONTINGENCY = Table(
    _CONTINGENCY_COLUMNS,
    csv=_renamed(_CONTINGENCY_COLUMNS, ("rating", "q1", "q2", "q3", "q4")),
)


def contingency_rows(table: ContingencyTable) -> list:
    """A contingency table as ``CONTINGENCY`` items."""
    return list(zip(RATING_ORDER, table.row_percentages))


CHI_SQUARE = Table(
    (_fixed("statistic"), _attr("df"), Column("p_value", lambda c: fmt_p(c.p_value)), _attr("low_expected"))
)

PRODUCT_SPEARMAN = Table(
    (_fixed("coefficient"), Column("p_value", lambda s: fmt_p(s.p_value)), _attr("n"))
)


def _probability(i: int) -> Callable[[AdjacentPairResult], str]:
    return lambda pair: "-" if pair.triple is None else fmt(pair.triple.as_floats()[i])


_PROBABILITY_COLUMNS = (
    _attr("label", "ratings"),
    Column("P(>)", _probability(0)),
    Column("P(<)", _probability(1)),
    Column("P(=)", _probability(2)),
    Column("pairs", lambda pair: (pair.note or "-") if pair.triple is None else pair.triple.pair_count),
)

#: Adjacent-rating pairwise probabilities; skipped pairs show their note.
PROBABILITIES = Table(
    _PROBABILITY_COLUMNS,
    csv=_renamed(_PROBABILITY_COLUMNS, ("pair", "p_greater", "p_less", "p_equal", "pairs")),
)

#: Ranking entries.
RANKING = Table(
    (
        _attr("display_rank", "rank"),
        _attr("structure_id", "structure"),
        _fixed("score"),
        _attr("n_products"),
        Column("size_class", lambda e: e.size_class.value),
    )
)

#: Rank comparison entries; markdown headers name the two metrics.
COMPARISON = Table(
    columns=(
        _attr("structure_id", "structure"),
        _fixed("rank_a", 1, "{metric_a} rank"),
        _fixed("rank_b", 1, "{metric_b} rank"),
        _fixed("delta", 1),
    ),
    csv=(_attr("structure_id"), _attr("rank_a"), _attr("rank_b"), _attr("delta")),
)

#: Validation issues; items are (kind, Issue).
ISSUES = Table(
    (
        Column("kind", lambda ki: ki[0]),
        Column("row", lambda ki: ki[1].row),
        Column("rule", lambda ki: ki[1].rule),
        Column("message", lambda ki: ki[1].message),
    )
)


#: Structure-level rank correlations (markdown only).
STRUCTURE_CORRELATIONS = Table(
    (
        _attr("pair"),
        Column("sigma", lambda s: "-" if s.result is None else fmt(s.result.coefficient)),
        Column("p", lambda s: "-" if s.result is None else fmt_p(s.result.p_value)),
        Column("n", lambda s: (s.note or "-") if s.result is None else s.result.n),
    )
)


def ranking_md(r: Ranking) -> str:
    """Ranking table with the structures it had to exclude."""
    text = render(RANKING, r.entries, "md")
    if r.excluded:
        text += f"- excluded (no TR articles): {', '.join(map(md_cell, r.excluded))}\n"
    return text


def comparison_md(c: RankComparison) -> str:
    """Rank comparison table with its median displacement."""
    return render(COMPARISON, c.entries, "md", metric_a=c.metric_a, metric_b=c.metric_b) + (
        f"- median |delta| = {fmt(c.median_abs_delta, 1)} "
        f"({fmt_pct(c.median_fraction)} of the compilation length)\n"
    )


VARIABLE_LABELS = {"citations": "article citations", "journal_if": "journal impact factor"}


def battery_md(battery: VariableBattery) -> str:
    """One variable's battery: its notes, tables and test lines."""
    label = VARIABLE_LABELS[battery.variable]
    parts = [f"### Concordance: {label}\n"]
    for note in battery.notes:
        parts.append(f"- note: {note}\n")
    if battery.contingency is not None:
        parts.append("Conditional distribution of the quartile-coded variable given peer rating (row %):\n")
        parts.append(render(CONTINGENCY, contingency_rows(battery.contingency), "md"))
        if battery.contingency.bins.degenerate:
            parts.append("- note: quartile cutpoints coincide (heavy ties)\n")
    if battery.chi_square is not None:
        c = battery.chi_square
        flag = " (low expected counts)" if c.low_expected else ""
        parts.append(
            f"Pearson chi-square independence: statistic = {fmt(c.statistic)}, "
            f"df = {c.df}, p = {fmt_p(c.p_value)}{flag}\n"
        )
    if battery.product_spearman is not None:
        s = battery.product_spearman
        parts.append(
            f"Product-level Spearman (peer vs {label}): "
            f"sigma = {fmt(s.coefficient)}, p = {fmt_p(s.p_value)}, n = {s.n}\n"
        )
    if battery.probabilities:
        parts.append("Adjacent-rating pairwise probabilities:\n")
        parts.append(render(PROBABILITIES, battery.probabilities, "md"))
    return "".join(parts)


def battery_csv(battery: VariableBattery) -> str:
    """CSV rendering: one '# <name>' section per result the battery holds."""
    sections = []
    if battery.contingency is not None:
        sections.append(("contingency_row_percentages", CONTINGENCY, contingency_rows(battery.contingency)))
    if battery.chi_square is not None:
        sections.append(("chi_square", CHI_SQUARE, [battery.chi_square]))
    if battery.product_spearman is not None:
        sections.append(("product_spearman", PRODUCT_SPEARMAN, [battery.product_spearman]))
    sections.append(("probabilities", PROBABILITIES, battery.probabilities))
    return "".join(csv_section(name, table, (), [((), item) for item in items]) for name, table, items in sections)


def plot_data_text(c: RankComparison) -> str:
    """Rank pairs as a small CSV for external plotting."""
    return csv_text([f"{c.metric_a}_rank", f"{c.metric_b}_rank"], c.plot_pairs())
