"""Report assembly and rendering (markdown, CSV, JSON).

Each table is declared once, as a ``Table`` of ``Column``s: a header and a
cell function per column, with a separate CSV column list only where the flat
CSV layout differs from the markdown one (bracketed ratios, percentages).
``render`` turns a table and its items into markdown or CSV.  JSON needs no
table: ``as_json`` converts the result dataclasses field by field, with a
custom shape only for contingency tables and probability pairs.

Markdown and CSV cells use fixed precision: two decimals for table values,
three for p-values, with p below 0.001 shown as "<0.001".  JSON output always
carries full-precision numbers with separate fields for bracketed ratios.
All rendering is deterministic for a given dataset and flags.
"""

from __future__ import annotations

import csv
import enum
import io
import json
from dataclasses import dataclass, field, is_dataclass
from decimal import Decimal, ROUND_HALF_UP
from operator import attrgetter
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from .concordance import (
    AdjacentPairResult,
    ChiSquareResult,
    ContingencyTable,
    CorrelationResult,
    VARIABLES,
    VariableSample,
    chi_square_independence,
    spearman,
)
from .indicators import DisciplineProfile, RatingBreakdown, discipline_profile, rating_breakdown
from .model import Dataset, PeerRating, PipelineError, RATING_ORDER, validate_dataset
from .scoring import RankComparison, Ranking, compile_ranking, rank_comparison, structure_ratings

__all__ = [
    "render",
    "PROFILE",
    "BREAKDOWN",
    "PROBABILITIES",
    "RANKING",
    "COMPARISON",
    "ISSUES",
    "ranking_md",
    "comparison_md",
    "plot_data_text",
    "build_battery",
    "render_battery",
    "build_report",
    "render_report_md",
    "render_report_json",
    "render_report_csv",
]

VARIABLE_LABELS = {"citations": "article citations", "journal_if": "journal impact factor"}


def round_half_up(x: float, digits: int) -> float:
    quantum = Decimal(1).scaleb(-digits)
    return float(Decimal(repr(x)).quantize(quantum, rounding=ROUND_HALF_UP))


def fmt(x: float | int | None, digits: int = 2) -> str:
    """Fixed-precision cell; absent values render as a dash."""
    if x is None:
        return "-"
    if isinstance(x, int):
        return str(x)
    return f"{round_half_up(x, digits):.{digits}f}"


def fmt_pct(x: float | None) -> str:
    """A fraction as a fixed two-decimal percentage."""
    if x is None:
        return "-"
    return f"{round_half_up(100.0 * x, 2):.2f}%"


def fmt_p(p: float | None) -> str:
    if p is None:
        return "-"
    if p < 0.001:
        return "<0.001"
    return f"{round_half_up(p, 3):.3f}"


def md_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines) + "\n"


def csv_text(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return out.getvalue()


def json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# --- table specs ---

class Column(NamedTuple):
    header: str
    cell: Callable[[Any], object]


class Table(NamedTuple):
    """Column spec of one table: ``columns`` for markdown, and for CSV too
    unless ``csv`` gives a flat layout of its own."""

    columns: tuple[Column, ...]
    csv: tuple[Column, ...] | None = None


def render(table: Table, items: Iterable, fmt: str, payload=None, **names: str) -> str:
    """Render items as a markdown or CSV table; ``names`` fill header
    templates such as ``{metric_a} rank``.  For ``fmt == "json"`` the
    payload (default: the items) goes through ``as_json`` instead."""
    if fmt == "json":
        return json_text(as_json(list(items) if payload is None else payload))
    columns = (table.csv or table.columns) if fmt == "csv" else table.columns
    headers = [c.header.format(**names) for c in columns]
    rows = [[c.cell(item) for c in columns] for item in items]
    return csv_text(headers, rows) if fmt == "csv" else md_table(headers, rows)


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


def _contingency_json(table: ContingencyTable) -> dict:
    return {
        "variable": table.variable,
        "cutpoints": list(table.bins.cutpoints),
        "degenerate_bins": table.bins.degenerate,
        "ratings": [r.token for r in RATING_ORDER],
        "counts": [list(row) for row in table.counts],
        "row_percentages": [list(row) for row in table.row_percentages],
    }


def _probability_json(pair: AdjacentPairResult) -> dict:
    payload: dict = {"pair": pair.label, "note": pair.note}
    if pair.triple is not None:
        pg, pl, pe = pair.triple.as_floats()
        payload.update(
            {"p_greater": pg, "p_less": pl, "p_equal": pe, "pair_count": pair.triple.pair_count}
        )
    return payload


_JSON_SHAPES = {ContingencyTable: _contingency_json, AdjacentPairResult: _probability_json}
_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})


def as_json(value):
    """JSON-ready form of a result: dataclasses become dicts of their fields,
    peer ratings their tokens, other enums their values, tuples lists."""
    if type(value) in _JSON_SCALARS:
        return value
    shape = _JSON_SHAPES.get(type(value))
    if shape is not None:
        return shape(value)
    if is_dataclass(value):
        return {k: as_json(v) for k, v in vars(value).items()}
    if isinstance(value, (list, tuple)):
        return [as_json(v) for v in value]
    if isinstance(value, dict):
        return {k: as_json(v) for k, v in value.items()}
    if isinstance(value, PeerRating):
        return value.token
    if isinstance(value, enum.Enum):
        return value.value
    return value


def _rating_rows(table: ContingencyTable) -> list:
    return list(zip(RATING_ORDER, table.row_percentages))


def ranking_md(r: Ranking) -> str:
    """Ranking table with the structures it had to exclude."""
    text = render(RANKING, r.entries, "md")
    if r.excluded:
        text += f"- excluded (no TR articles): {', '.join(r.excluded)}\n"
    return text


def comparison_md(c: RankComparison) -> str:
    """Rank comparison table with its median displacement."""
    return render(COMPARISON, c.entries, "md", metric_a=c.metric_a, metric_b=c.metric_b) + (
        f"- median |delta| = {fmt(c.median_abs_delta, 1)} "
        f"({fmt_pct(c.median_fraction)} of the compilation length)\n"
    )


def plot_data_text(c: RankComparison) -> str:
    """Rank pairs as a small CSV for external plotting."""
    return csv_text([f"{c.metric_a}_rank", f"{c.metric_b}_rank"], c.plot_pairs())


# --- full report bundle ---

@dataclass
class VariableBattery:
    variable: str
    contingency: ContingencyTable | None = None
    chi_square: ChiSquareResult | None = None
    product_spearman: CorrelationResult | None = None
    probabilities: list[AdjacentPairResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class StructureCorrelation:
    """Structure-level Spearman for one pair of ratings, or why it is absent."""

    pair: str
    result: CorrelationResult | None
    note: str | None


@dataclass
class DisciplineSection:
    profile: DisciplineProfile
    breakdown: list[RatingBreakdown]
    batteries: list[VariableBattery]
    ranking: Ranking | None
    ranking_note: str | None
    structure_correlations: list[StructureCorrelation]
    comparison: RankComparison | None
    comparison_note: str | None


@dataclass
class ReportBundle:
    source_name: str
    source_digest: str
    validation_notes: list[str]
    disciplines: dict[str, DisciplineSection]


def _noted(call, *args):
    """``(call(*args), None)``, or ``(None, "code: message")`` when the call
    raises a PipelineError: the note each failed statistic leaves in a report."""
    try:
        return call(*args), None
    except PipelineError as exc:
        return None, f"{exc.code}: {exc}"


def build_battery(products, variable: str, coding: str = "quartile") -> VariableBattery:
    battery = VariableBattery(variable=variable)
    sample, note = _noted(VariableSample, products, variable)
    if sample is not None:
        battery.contingency, note = _noted(sample.contingency)
    if battery.contingency is None:
        battery.notes.append(note)
        return battery
    battery.chi_square, chi_note = _noted(chi_square_independence, battery.contingency.counts)
    battery.product_spearman, spearman_note = _noted(sample.spearman, coding)
    battery.notes = [n for n in (chi_note, spearman_note) if n is not None]
    battery.probabilities = sample.probabilities()
    return battery


def _structure_correlations(ratings, min_products: int) -> list[StructureCorrelation]:
    """Structure-level Spearman of peer rating (TR articles) against the two
    bibliometric ratings, over structures clearing the product threshold."""
    eligible = [r for r in ratings if r.n_products >= min_products]
    out = []
    for label, attr in (("peer_tr~cites", "cites"), ("peer_tr~impact", "impact")):
        pairs = [
            (r.peer_tr, getattr(r, attr))
            for r in eligible
            if r.peer_tr is not None and getattr(r, attr) is not None
        ]
        result, note = _noted(spearman, [p for p, _ in pairs], [q for _, q in pairs])
        out.append(StructureCorrelation(label, result, note))
    return out


def build_section(
    dataset: Dataset,
    discipline: str,
    min_products: int = 10,
    coding: str = "quartile",
) -> DisciplineSection:
    products = dataset.products_in(discipline)
    ratings = structure_ratings(dataset, discipline)
    ranking, ranking_note = _noted(compile_ranking, ratings, "peer_tr", min_products)
    comparison = comparison_note = None
    if ranking is not None:
        comparison, comparison_note = _noted(
            lambda: rank_comparison(ranking, compile_ranking(ratings, "cites", min_products))
        )
    return DisciplineSection(
        profile=discipline_profile(dataset, discipline),
        breakdown=rating_breakdown(dataset, discipline),
        batteries=[build_battery(products, variable, coding) for variable in VARIABLES],
        ranking=ranking,
        ranking_note=ranking_note,
        structure_correlations=_structure_correlations(ratings, min_products),
        comparison=comparison,
        comparison_note=comparison_note,
    )


def build_report(
    dataset: Dataset,
    disciplines: Sequence[str] | None = None,
    min_products: int = 10,
    coding: str = "quartile",
) -> ReportBundle:
    chosen = list(disciplines) if disciplines else list(dataset.disciplines)
    validation = validate_dataset(dataset)
    notes = [f"{i.rule}: {i.message}" for i in validation.errors + validation.warnings]
    sections = {
        d: build_section(dataset, d, min_products, coding) for d in sorted(chosen)
    }
    return ReportBundle(
        source_name=dataset.provenance.source_name,
        source_digest=dataset.provenance.source_digest,
        validation_notes=notes,
        disciplines=sections,
    )


def battery_md(battery: VariableBattery) -> str:
    label = VARIABLE_LABELS[battery.variable]
    parts = [f"### Concordance: {label}\n"]
    for note in battery.notes:
        parts.append(f"- note: {note}\n")
    if battery.contingency is not None:
        parts.append("Conditional distribution of the quartile-coded variable given peer rating (row %):\n")
        parts.append(render(CONTINGENCY, _rating_rows(battery.contingency), "md"))
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
    parts = []
    if battery.contingency is not None:
        parts.append("# contingency_row_percentages\n")
        parts.append(render(CONTINGENCY, _rating_rows(battery.contingency), "csv"))
    if battery.chi_square is not None:
        parts.append("# chi_square\n" + render(CHI_SQUARE, [battery.chi_square], "csv"))
    if battery.product_spearman is not None:
        parts.append("# product_spearman\n" + render(PRODUCT_SPEARMAN, [battery.product_spearman], "csv"))
    parts.append("# probabilities\n" + render(PROBABILITIES, battery.probabilities, "csv"))
    return "".join(parts)


def render_battery(battery: VariableBattery, fmt: str, discipline: str) -> str:
    """One discipline's battery for one variable, in the given format."""
    if fmt == "json":
        return json_text({"discipline": discipline, **as_json(battery)})
    return battery_md(battery) if fmt == "md" else battery_csv(battery)


def render_report_md(bundle: ReportBundle) -> str:
    parts = ["# Assessment analysis report\n"]
    parts.append(f"- source: {bundle.source_name}\n- digest: {bundle.source_digest}\n")
    parts.append("\n## Validation\n")
    if bundle.validation_notes:
        parts.extend(f"- {note}\n" for note in bundle.validation_notes)
    else:
        parts.append("- no issues\n")
    for discipline, section in bundle.disciplines.items():
        parts.append(f"\n## Discipline {discipline}\n")
        parts.append("### Profile\n")
        parts.append(render(PROFILE, [section.profile], "md"))
        parts.append("### Peer rating breakdown\n")
        parts.append(render(BREAKDOWN, section.breakdown, "md"))
        parts.extend(battery_md(battery) for battery in section.batteries)
        parts.append("### Structure ranking (peer rating over TR articles)\n")
        if section.ranking is not None:
            parts.append(ranking_md(section.ranking))
        elif section.ranking_note:
            parts.append(f"- note: {section.ranking_note}\n")
        parts.append("### Structure-level rank correlations\n")
        parts.append(render(STRUCTURE_CORRELATIONS, section.structure_correlations, "md"))
        if section.comparison is not None:
            c = section.comparison
            parts.append("### Rank comparison (peer vs citation compilation)\n")
            parts.append(comparison_md(c))
            if c.favored_by_a:
                parts.append(f"- most favored by {c.metric_a}: {', '.join(c.favored_by_a[:4])}\n")
            if c.favored_by_b:
                parts.append(f"- most favored by {c.metric_b}: {', '.join(c.favored_by_b[:4])}\n")
            if c.unchanged:
                parts.append(f"- unchanged positions: {', '.join(c.unchanged)}\n")
        elif section.comparison_note:
            parts.append(f"- note: {section.comparison_note}\n")
    return "".join(parts)


def render_report_json(bundle: ReportBundle) -> str:
    return json_text(as_json(bundle))


def _csv_section(name: str, table: Table, keys: Sequence[str], rows: Iterable[tuple]) -> str:
    """A '# <name>' section: key columns, then the table's CSV columns; rows
    are (key values, item) pairs."""
    columns = table.csv or table.columns
    body = [[*key_values, *(c.cell(item) for c in columns)] for key_values, item in rows]
    return f"# {name}\n" + csv_text([*keys, *(c.header for c in columns)], body)


def render_report_csv(bundle: ReportBundle) -> str:
    """CSV rendering: flat sections separated by '# <name>' marker lines."""
    sections = bundle.disciplines.items()
    batteries = [((d, b.variable), b) for d, s in sections for b in s.batteries]
    by_variable = ("discipline", "variable")
    breakdowns = [((d,), b) for d, s in sections for b in s.breakdown]
    contingency = [
        (keys, row) for keys, b in batteries if b.contingency is not None for row in _rating_rows(b.contingency)
    ]
    chi_square = [(keys, b.chi_square) for keys, b in batteries if b.chi_square is not None]
    probabilities = [(keys, pair) for keys, b in batteries for pair in b.probabilities]
    rankings = [
        ((d, s.ranking.metric), entry) for d, s in sections if s.ranking is not None for entry in s.ranking.entries
    ]
    return "".join(
        [
            _csv_section("profiles", PROFILE, (), [((), s.profile) for _, s in sections]),
            _csv_section("breakdowns", BREAKDOWN, ("discipline",), breakdowns),
            _csv_section("contingency_row_percentages", CONTINGENCY, by_variable, contingency),
            _csv_section("chi_square", CHI_SQUARE, by_variable, chi_square),
            _csv_section("probabilities", PROBABILITIES, by_variable, probabilities),
            _csv_section("rankings", RANKING, ("discipline", "metric"), rankings),
        ]
    )
