"""Report assembly: the full per-area analysis bundle and its markdown, CSV
and JSON rendering.

``build_report`` runs every builder on every chosen area: the profile and
rating breakdown (``indicators``), the battery per variable
(``concordance``), the ranking and rank comparison (``scoring``).  The table
specs and layouts, the battery's among them, live in ``tables``, ``as_json``
in ``jsonout``.  The markdown writes the source name and each area code
through ``tables.md_cell``, as its tables write an identifier.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Sequence

from .audit import validate_dataset
from .concordance import VARIABLES, build_battery, noted, spearman
from .indicators import discipline_profile, rating_breakdown
from .jsonout import as_json, json_text
from .model import Dataset
from .scoring import compile_ranking, rank_comparison, structure_ratings
from .tables import BREAKDOWN, CHI_SQUARE, CONTINGENCY, PROBABILITIES, PROFILE, RANKING, STRUCTURE_CORRELATIONS
from .tables import battery_md, comparison_md, contingency_rows, csv_section, md_cell, ranking_md, render


class StructureCorrelation(namedtuple("StructureCorrelation", "pair result note")):
    """Structure-level Spearman for one pair of ratings, or why it is absent."""

    __slots__ = ()


class DisciplineSection(
    namedtuple(
        "DisciplineSection",
        "profile breakdown batteries ranking ranking_note structure_correlations comparison comparison_note",
    )
):
    """One area's profile, breakdown, batteries and structure correlations; its ranking and comparison, or a note."""

    __slots__ = ()


class ReportBundle(namedtuple("ReportBundle", "source_name source_digest validation_notes disciplines")):
    """The dataset's source, its validation notes and a ``DisciplineSection`` per chosen area."""

    __slots__ = ()


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
    """The sections of ``disciplines`` (default: every area) and the validation notes
    of their products, one area at a time: each area is read once, notes first."""
    notes, sections = [], {}
    for d in sorted(set(disciplines)) if disciplines else dataset.disciplines:
        notes += (f"{i.rule}: {i.message}" for i in validate_dataset(dataset, disciplines=[d]).warnings)
        sections[d] = build_section(dataset, d, min_products, coding)
    return ReportBundle(
        source_name=dataset.provenance.source_name,
        source_digest=dataset.provenance.source_digest,
        validation_notes=notes,
        disciplines=sections,
    )


def render_report_md(bundle: ReportBundle) -> str:
    parts = ["# Assessment analysis report\n"]
    parts.append(f"- source: {md_cell(bundle.source_name)}\n- digest: {bundle.source_digest}\n")
    parts.append("\n## Validation\n")
    if bundle.validation_notes:
        parts.extend(f"- {note}\n" for note in bundle.validation_notes)
    else:
        parts.append("- no issues\n")
    for discipline, section in bundle.disciplines.items():
        parts.append(f"\n## Discipline {md_cell(discipline)}\n")
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
                parts.append(f"- most favored by {c.metric_a}: {', '.join(map(md_cell, c.favored_by_a[:4]))}\n")
            if c.favored_by_b:
                parts.append(f"- most favored by {c.metric_b}: {', '.join(map(md_cell, c.favored_by_b[:4]))}\n")
            if c.unchanged:
                parts.append(f"- unchanged positions: {', '.join(map(md_cell, c.unchanged))}\n")
        elif section.comparison_note:
            parts.append(f"- note: {section.comparison_note}\n")
    return "".join(parts)


def render_report_json(bundle: ReportBundle) -> str:
    return json_text(as_json(bundle))


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
            csv_section("profiles", PROFILE, (), [((), s.profile) for _, s in sections]),
            csv_section("breakdowns", BREAKDOWN, ("discipline",), breakdowns),
            csv_section("contingency_row_percentages", CONTINGENCY, by_variable, contingency),
            csv_section("chi_square", CHI_SQUARE, by_variable, chi_square),
            csv_section("probabilities", PROBABILITIES, by_variable, probabilities),
            csv_section("rankings", RANKING, ("discipline", "metric"), rankings),
        ]
    )
