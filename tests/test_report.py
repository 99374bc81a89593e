"""Rendering layer: fixed precision, half-up rounding, table assembly."""

from __future__ import annotations

import csv
import io
import json

import pytest

from vtrkit.concordance import VARIABLES, AdjacentPairResult, ChiSquareResult, CorrelationResult
from vtrkit.indicators import discipline_profile, rating_breakdown
from vtrkit.battery import build_battery
from vtrkit.ingest import parse_products
from vtrkit.jsonout import as_json, json_text
from vtrkit.model import PeerRating, Product, ProductType
from vtrkit.report import build_report, build_section, render_report_json, render_report_md
from vtrkit.scoring import RankEntry, Ranking, SizeClass, compile_ranking, rank_comparison, structure_ratings
from vtrkit.synth import DisciplineSpec, SynthConfig, generate_exercise
from vtrkit.tables import (
    BREAKDOWN,
    PROFILE,
    csv_text,
    fmt,
    fmt_p,
    fmt_pct,
    md_table,
    plot_data_text,
    render,
)


class TestNumberFormatting:
    def test_round_half_up_at_the_boundary(self):
        # decimal semantics on the repr, not the binary value's half-even rounding
        assert fmt(2.675) == "2.68"
        assert fmt(0.125) == "0.13"
        assert fmt(-2.675) == "-2.68"
        assert fmt(1.0049999) == "1.00"
        assert fmt(5e-05, 4) == "0.0001"

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


class TestRecordsAsJson:
    """Result records are NamedTuples: ``as_json`` must take them as records,
    not as the tuples they also are."""

    def test_a_record_with_json_shape_converts_through_it(self):
        pair = AdjacentPairResult(PeerRating.EXCELLENT, PeerRating.GOOD, None, "skipped")
        assert isinstance(pair, tuple)
        assert as_json(pair) == pair.json_shape() == {"pair": "E~G", "note": "skipped"}

    def test_any_other_record_is_an_object_keyed_by_its_fields(self):
        result = CorrelationResult(coefficient=0.5, p_value=0.25, n=10)
        assert as_json(result) == {
            "coefficient": 0.5, "p_value": 0.25, "n": 10, "method": "tie_corrected_spearman"
        }
        assert list(as_json(result)) == list(CorrelationResult._fields)
        # nested records and enums convert too
        entry = RankEntry("S1", 0.9, 1, 1.0, 12, SizeClass.LARGE)
        ranking = Ranking("BIO", "peer_tr", 10, (entry,), ("S2",))
        assert as_json(ranking)["entries"] == [
            {"structure_id": "S1", "score": 0.9, "display_rank": 1, "average_rank": 1.0,
             "n_products": 12, "size_class": "large"}
        ]
        assert as_json(ranking)["excluded"] == ["S2"]

    def test_a_plain_tuple_and_a_product_stay_lists(self):
        product = Product("P1", "S1", "BIO", 2002, ProductType.BOOK, PeerRating.GOOD, True, 3, 1.5, 2, 1)
        assert as_json((1, "a", PeerRating.LIMITED)) == [1, "a", "L"]
        assert as_json(product) == ["P1", "S1", "BIO", 2002, "book", "G", True, 3, 1.5, 2, 1]
        assert as_json([product]) == [as_json(product)]

    def test_a_record_equals_the_plain_tuple_of_its_values(self):
        result = ChiSquareResult(1.5, 3, 0.5, False)
        assert result == (1.5, 3, 0.5, False)
        assert result._replace(df=4)._asdict() == {"statistic": 1.5, "df": 4, "p_value": 0.5, "low_expected": False}


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
        battery = build_battery(dataset.area("CEA"), "citations")
        assert battery.contingency is None
        assert battery.notes and battery.notes[0].startswith("no_bibliometric_data")

    def test_battery_of_unknown_variable_collects_note(self, four_product_dataset):
        battery = build_battery(four_product_dataset.area("BIO"), "h_index")
        assert (battery.contingency, battery.probabilities) == (None, [])
        assert battery.notes == ["unknown_variable: variable must be one of ('citations', 'journal_if')"]

    def test_battery_of_unknown_coding_collects_note(self, four_product_dataset):
        battery = build_battery(four_product_dataset.area("BIO"), "citations", "decile")
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
