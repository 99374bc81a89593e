"""Rendering layer: fixed precision, half-up rounding, table assembly."""

from __future__ import annotations

import csv
import io
import json

import pytest

from vtrkit.concordance import VARIABLES
from vtrkit.indicators import discipline_profile, rating_breakdown
from vtrkit.model import parse_products
from vtrkit.report import (
    BREAKDOWN,
    PROFILE,
    as_json,
    build_battery,
    build_report,
    build_section,
    csv_text,
    fmt,
    fmt_p,
    fmt_pct,
    json_text,
    md_table,
    plot_data_text,
    render,
    render_report_json,
    render_report_md,
    round_half_up,
)
from vtrkit.scoring import compile_ranking, rank_comparison, structure_ratings
from vtrkit.synth import DisciplineSpec, SynthConfig, generate_exercise


class TestNumberFormatting:
    def test_round_half_up_at_the_boundary(self):
        # decimal semantics, not binary-float banker's rounding
        assert round_half_up(2.675, 2) == 2.68
        assert round_half_up(0.125, 2) == 0.13
        assert round_half_up(-2.675, 2) == -2.68
        assert round_half_up(1.0049999, 2) == 1.0

    def test_fmt_fixed_two_decimals(self):
        assert fmt(3.5446) == "3.54"
        assert fmt(4.259) == "4.26"
        assert fmt(2.0) == "2.00"

    def test_fmt_absent_and_integers(self):
        assert fmt(None) == "-"
        assert fmt(18) == "18"

    def test_fmt_pct(self):
        assert fmt_pct(0.9545) == "95.45%"
        assert fmt_pct(1.0) == "100.00%"
        assert fmt_pct(None) == "-"

    def test_p_value_formatting(self):
        assert fmt_p(0.0009) == "<0.001"
        assert fmt_p(0.001) == "0.001"
        assert fmt_p(0.0014) == "0.001"
        assert fmt_p(0.05) == "0.050"
        assert fmt_p(1.0) == "1.000"
        assert fmt_p(None) == "-"


class TestTableHelpers:
    def test_md_table_shape(self):
        text = md_table(["a", "b"], [["1", "2"], ["3", "4"]])
        lines = text.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "| --- | --- |"
        assert lines[2] == "| 1 | 2 |"
        assert text.endswith("\n")

    def test_csv_text_deterministic_newlines(self):
        text = csv_text(["a", "b"], [[1, 2]])
        assert text == "a,b\n1,2\n"

    def test_json_text_sorts_keys(self):
        assert json_text({"b": 1, "a": 2}).index('"a"') < json_text({"b": 1, "a": 2}).index('"b"')


def md_cells(table, item) -> list:
    return [column.cell(item) for column in table.columns]


class TestRowBuilders:
    def test_profile_row_brackets(self, four_product_dataset):
        profile = discipline_profile(four_product_dataset, "BIO")
        row = md_cells(PROFILE, profile)
        assert row[0] == "BIO"
        assert row[5] == "0.65 (0.65)"  # peer_all (peer_tr)
        assert row[6] == "2.50 (1.67)"  # cites (cites/IF)

    def test_breakdown_row_brackets(self, four_product_dataset):
        rows = rating_breakdown(four_product_dataset, "BIO")
        rendered = md_cells(BREAKDOWN, rows[0])
        assert rendered[0] == "E"
        assert rendered[1] == "1 (25.00%)"
        assert rendered[2] == "4.00 (1.60)"  # 4 citations vs discipline mean 2.5

    def test_flat_rows_match_headers(self, four_product_dataset):
        profile = discipline_profile(four_product_dataset, "BIO")
        for table, items in ((PROFILE, [profile]), (BREAKDOWN, rating_breakdown(four_product_dataset, "BIO"))):
            header, *rows = csv.reader(io.StringIO(render(table, items, "csv")))
            assert rows and all(len(row) == len(header) for row in rows)


class TestBatteryAndBundle:
    def test_battery_without_data_collects_note(self):
        header = (
            "product_id,structure_id,discipline,year,product_type,peer_rating,tr_indexed,"
            "citations,journal_if,n_authors,n_internal_authors"
        )
        dataset, _ = parse_products(header + "\nP1,S1,CEA,2002,book,G,false,,,2,1\n")
        battery = build_battery(dataset.products_in("CEA"), "citations")
        assert battery.contingency is None
        assert battery.notes and battery.notes[0].startswith("no_bibliometric_data")

    def test_battery_of_unknown_variable_collects_note(self, four_product_dataset):
        battery = build_battery(four_product_dataset.products_in("BIO"), "h_index")
        assert (battery.contingency, battery.probabilities) == (None, [])
        assert battery.notes == ["unknown_variable: variable must be one of ('citations', 'journal_if')"]

    def test_battery_of_unknown_coding_collects_note(self, four_product_dataset):
        battery = build_battery(four_product_dataset.products_in("BIO"), "citations", "decile")
        assert battery.contingency is not None and battery.product_spearman is None
        assert battery.notes[-1] == "unknown_coding: coding must be 'quartile' or 'raw'"
        assert len(battery.probabilities) == 3

    def test_plot_data_header_names_metrics(self, four_product_dataset):
        ratings = structure_ratings(four_product_dataset, "BIO")
        ranking = compile_ranking(ratings, "peer_tr", min_products=1)
        comparison = rank_comparison(ranking, compile_ranking(ratings, "cites", min_products=1))
        assert plot_data_text(comparison).splitlines()[0] == "peer_tr_rank,cites_rank"

    def test_report_json_parses_and_carries_full_precision(self, four_product_dataset):
        bundle = build_report(four_product_dataset, min_products=1)
        payload = json.loads(render_report_json(bundle))
        profile = payload["disciplines"]["BIO"]["profile"]
        assert profile["cites_over_if"] == pytest.approx(2.5 / 1.5, abs=1e-15)

    def test_report_md_numbers_fixed_precision(self, four_product_dataset):
        import re

        md = render_report_md(build_report(four_product_dataset, min_products=1))
        for line in md.splitlines():
            if line.startswith("- digest:"):
                continue
            for token in re.findall(r"\d+\.\d+", line):
                assert len(token.split(".")[1]) <= 3, f"overlong decimal {token!r} in {line!r}"


def _exercise():
    return generate_exercise(SynthConfig(seed=5, disciplines=(DisciplineSpec("BIO", 12, 4, 40),)))


#: builders that fill parts of an area's cache, each run before build_section
CACHE_FILLERS = {
    "nothing": [],
    "battery": [lambda ds: build_battery(ds.area("BIO"), v, "raw") for v in reversed(VARIABLES)],
    "tables": [
        lambda ds: rating_breakdown(ds, "BIO"),
        lambda ds: structure_ratings(ds, "BIO"),
        lambda ds: discipline_profile(ds, "BIO"),
    ],
    "section": [lambda ds: build_section(ds, "BIO", min_products=3, coding="raw")],
}


@pytest.mark.parametrize("filler", sorted(CACHE_FILLERS))
def test_section_does_not_depend_on_what_filled_the_area_cache(filler):
    """An area's cached parts are the same whichever builder built them first."""
    expected = as_json(build_section(_exercise(), "BIO"))
    dataset = _exercise()
    for fill in CACHE_FILLERS[filler]:
        fill(dataset)
    assert as_json(build_section(dataset, "BIO")) == expected
