"""The concordance battery of one area and variable, and its rendering.

``build_battery`` runs the contingency table, the chi-square test, the
product-level Spearman and the adjacent-rating probabilities on one
``RatingSample``; a statistic that cannot be computed leaves a note.  It
needs no indicator or ranking code, so the ``concordance`` command loads
neither.  Only ``battery_md`` and ``battery_csv`` import ``tables``: a battery
built, or rendered as JSON, loads no table code.
"""

from __future__ import annotations

from collections import namedtuple

from .concordance import RatingSample, chi_square_independence
from .jsonout import as_json, json_text
from .model import Area, PipelineError

VARIABLE_LABELS = {"citations": "article citations", "journal_if": "journal impact factor"}


class VariableBattery(
    namedtuple("VariableBattery", "variable contingency chi_square product_spearman probabilities notes")
):
    """One area's battery on one variable: its ``ContingencyTable``,
    ``ChiSquareResult`` and product-level ``CorrelationResult``, each or None,
    its ``AdjacentPairResult``s, and a note per statistic that failed."""

    __slots__ = ()


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
    sample, note = noted(RatingSample, area, variable)
    contingency = None
    if sample is not None:
        contingency, note = noted(sample.contingency)
    if contingency is None:
        return VariableBattery(variable, None, None, None, [], [note])
    chi_square, chi_note = noted(chi_square_independence, contingency.counts)
    product_spearman, spearman_note = noted(sample.spearman, coding)
    notes = [n for n in (chi_note, spearman_note) if n is not None]
    return VariableBattery(variable, contingency, chi_square, product_spearman, sample.probabilities(), notes)


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
