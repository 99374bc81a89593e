"""The concordance battery of one area and variable, and its rendering.

``build_battery`` runs the contingency table, the chi-square test, the
product-level Spearman and the adjacent-rating probabilities on one
``RatingSample``; a statistic that cannot be computed leaves a note.  It
needs no indicator or ranking code, so the ``concordance`` command loads
neither.  Only ``battery_md`` and ``battery_csv`` import ``tables``: a battery
built, or rendered as JSON, loads no table code.
"""

from __future__ import annotations

from .concordance import (
    AdjacentPairResult,
    ChiSquareResult,
    ContingencyTable,
    CorrelationResult,
    RatingSample,
    chi_square_independence,
)
from .jsonout import Assembly, as_json, json_text
from .model import Area, PipelineError

VARIABLE_LABELS = {"citations": "article citations", "journal_if": "journal impact factor"}


class VariableBattery(Assembly):
    """One area's battery on one variable: each statistic, or None and a note."""

    def __init__(self, variable: str):
        self.variable = variable
        self.contingency: ContingencyTable | None = None
        self.chi_square: ChiSquareResult | None = None
        self.product_spearman: CorrelationResult | None = None
        self.probabilities: list[AdjacentPairResult] = []
        self.notes: list[str] = []


def noted(call, *args):
    """``(call(*args), None)``, or ``(None, "code: message")`` when the call
    raises a PipelineError: the note each failed statistic leaves in a report."""
    try:
        return call(*args), None
    except PipelineError as exc:
        return None, f"{exc.code}: {exc}"


def build_battery(area: Area, variable: str, coding: str = "quartile") -> VariableBattery:
    """The battery of ``area``, whose cached rating groups hold the sorted
    sample."""
    battery = VariableBattery(variable=variable)
    sample, note = noted(RatingSample, area, variable)
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
    from .tables import CONTINGENCY, PROBABILITIES, contingency_rows, fmt, fmt_p, render
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
    from .tables import CHI_SQUARE, CONTINGENCY, PROBABILITIES, PRODUCT_SPEARMAN, contingency_rows, csv_section
    sections = []
    if battery.contingency is not None:
        sections.append(("contingency_row_percentages", CONTINGENCY, contingency_rows(battery.contingency)))
    if battery.chi_square is not None:
        sections.append(("chi_square", CHI_SQUARE, [battery.chi_square]))
    if battery.product_spearman is not None:
        sections.append(("product_spearman", PRODUCT_SPEARMAN, [battery.product_spearman]))
    sections.append(("probabilities", PROBABILITIES, battery.probabilities))
    return "".join(csv_section(name, table, (), [((), item) for item in items]) for name, table, items in sections)


def render_battery(battery: VariableBattery, fmt: str, discipline: str) -> str:
    """One discipline's battery for one variable, in the given format."""
    if fmt == "json":
        return json_text({"discipline": discipline, **as_json(battery)})
    return battery_md(battery) if fmt == "md" else battery_csv(battery)
