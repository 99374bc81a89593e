"""Report assembly: the full per-area analysis bundle and its markdown, CSV
and JSON rendering.

``build_report`` runs every builder on every chosen area: the profile and
rating breakdown (``indicators``), the battery per variable (``battery``),
the ranking and rank comparison (``scoring``).  The table specs, formatters
and ``as_json`` live in ``tables``, which this module re-exports together with
the battery entry points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .battery import VariableBattery, battery_md, build_battery, noted, render_battery
from .concordance import VARIABLES, CorrelationResult, spearman
from .indicators import DisciplineProfile, RatingBreakdown, discipline_profile, rating_breakdown
from .model import Dataset, validate_dataset
from .scoring import RankComparison, Ranking, compile_ranking, rank_comparison, structure_ratings
from .tables import BREAKDOWN, CHI_SQUARE, CONTINGENCY, PROBABILITIES, PROFILE, RANKING, STRUCTURE_CORRELATIONS, Table
from .tables import as_json, comparison_md, contingency_rows, csv_text, json_text, ranking_md, render
# the rest of the table layer, re-exported for callers that take it from here
from .tables import COMPARISON, ISSUES, fmt, fmt_p, fmt_pct, md_table, plot_data_text, round_half_up  # noqa: F401

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


def _structure_correlations(ratings, min_products: int) -> list[StructureCorrelation]:
    """Structure-level Spearman of peer rating (TR articles) against the two
    bibliometric ratings, over structures clearing the product threshold."""
    eligible = [r for r in ratings if r.n_products >= min_products]
    out = []
    for label, attr in (("peer_tr~cites", "cites"), ("peer_tr~impact", "impact")):
        # Product's bibliometrics_on_uncovered rule: a citation or IF mean means
        # the structure has TR products, so its peer_tr is set
        pairs = [(r.peer_tr, getattr(r, attr)) for r in eligible if getattr(r, attr) is not None]
        result, note = noted(spearman, [p for p, _ in pairs], [q for _, q in pairs])
        out.append(StructureCorrelation(label, result, note))
    return out


def build_section(
    dataset: Dataset,
    discipline: str,
    min_products: int = 10,
    coding: str = "quartile",
) -> DisciplineSection:
    area = dataset.area(discipline)
    ratings = structure_ratings(dataset, discipline)
    ranking, ranking_note = noted(compile_ranking, ratings, "peer_tr", min_products)
    comparison = comparison_note = None
    if ranking is not None:
        comparison, comparison_note = noted(
            lambda: rank_comparison(ranking, compile_ranking(ratings, "cites", min_products))
        )
    return DisciplineSection(
        profile=discipline_profile(dataset, discipline),
        breakdown=rating_breakdown(dataset, discipline),
        batteries=[build_battery(area, variable, coding) for variable in VARIABLES],
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
        (keys, row) for keys, b in batteries if b.contingency is not None for row in contingency_rows(b.contingency)
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
