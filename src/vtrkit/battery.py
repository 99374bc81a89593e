"""The concordance battery of one area and variable, and its rendering.

``build_battery`` runs the contingency table, the chi-square test, the
product-level Spearman and the adjacent-rating probabilities on one
``RatingSample``; a statistic that cannot be computed leaves a note.  It
needs no indicator or ranking code, so the ``concordance`` command loads
neither.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .concordance import (
    AdjacentPairResult,
    ChiSquareResult,
    ContingencyTable,
    CorrelationResult,
    chi_square_independence,
    rating_sample,
)
from .model import PipelineError
from .tables import CHI_SQUARE, CONTINGENCY, PROBABILITIES, PRODUCT_SPEARMAN, as_json, contingency_rows, json_text
from .tables import fmt, fmt_p, render

VARIABLE_LABELS = {"citations": "article citations", "journal_if": "journal impact factor"}


@dataclass
class VariableBattery:
    variable: str
    contingency: ContingencyTable | None = None
    chi_square: ChiSquareResult | None = None
    product_spearman: CorrelationResult | None = None
    probabilities: list[AdjacentPairResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def noted(call, *args):
    """``(call(*args), None)``, or ``(None, "code: message")`` when the call
    raises a PipelineError: the note each failed statistic leaves in a report."""
    try:
        return call(*args), None
    except PipelineError as exc:
        return None, f"{exc.code}: {exc}"


def build_battery(products, variable: str, coding: str = "quartile") -> VariableBattery:
    """The battery of an area's products, or of its ``Area``, whose cache
    keeps the sorted sample."""
    battery = VariableBattery(variable=variable)
    sample, note = noted(rating_sample, products, variable)
    if sample is not None:
        battery.contingency, note = noted(sample.contingency)
    if battery.contingency is None:
        battery.notes.append(note)
        return battery
    battery.chi_square, chi_note = noted(chi_square_independence, battery.contingency.counts)
    battery.product_spearman, spearman_note = noted(sample.spearman, coding)
    battery.notes = [n for n in (chi_note, spearman_note) if n is not None]
    battery.probabilities = sample.probabilities()
    return battery


def battery_md(battery: VariableBattery) -> str:
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
    parts = []
    if battery.contingency is not None:
        parts.append("# contingency_row_percentages\n")
        parts.append(render(CONTINGENCY, contingency_rows(battery.contingency), "csv"))
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
