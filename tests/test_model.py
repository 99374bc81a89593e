"""Ingestion, dataset invariants, validation, and archive round-trips."""

from __future__ import annotations

import copy
import gc
import hashlib
import json
import pickle
import random
import re
import tracemalloc

import pytest

from vtrkit.audit import SelectionPolicy, validate_dataset
from vtrkit.ingest import StaffRecord, parse_products, parse_products_file, parse_staff, serialize_products
from vtrkit.model import (
    AUTHORS_MAX,
    CITATIONS_MAX,
    JOURNAL_IF_MAX,
    JOURNAL_IF_MIN,
    PRODUCTS_HEADER,
    Dataset,
    InvalidProduct,
    PeerRating,
    PipelineError,
    Product,
    ProductType,
    Provenance,
    _product_row,
    archive_lines,
    load_archive,
    write_archive,
)
from vtrkit.synth import DisciplineSpec, SynthConfig, generate_exercise

from conftest import archive_rows, legacy_golden_text, reseal, rewritten

HEADER = "product_id,structure_id,discipline,year,product_type,peer_rating,tr_indexed,citations,journal_if,n_authors,n_internal_authors"


#: Product sets whose statistics overflowed before the value bounds, as
#: (citations, journal_if, n_authors) per product: an int citation count or
#: author count beyond float range, an IF sum beyond float range, and a
#: citations-over-IF ratio beyond float range.
OUT_OF_RANGE = {
    "huge_citations": [(10**400, 2.0, 2)],
    "huge_n_authors": [(1, 2.0, 10**400)],
    "if_sum_overflow": [(1, 1.7e308, 2), (1, 1.7e308, 2)],
    "cites_over_tiny_if": [(10**9, 1e-300, 2)],
}


def out_of_range_rows(values) -> list[str]:
    return [f"P{i},S1,BIO,2002,journal_article,E,true,{c},{f!r},{n},1" for i, (c, f, n) in enumerate(values, 1)]


def make_csv(*rows: str) -> str:
    return HEADER + "\n" + "\n".join(rows) + "\n"


#: the error of an archive that does not open with the current format's head
#: line, filled with the format it opens with, if any
LEGACY_ERROR = (
    "expected a 'vtrkit-dataset/3' archive in its writer's layout, got {}: "
    "ingest the products CSV again to write a current archive"
)


def _set(at: int, value):
    """A damage that sets field ``at`` of the first row to ``value``."""
    return lambda doc: doc["products"][0].__setitem__(at, value)


#: ways to damage one value of an archive of rows, each breaking a rule of
#: the product rows or of the provenance
MALFORMED = {
    "null_row": lambda doc: doc["products"].__setitem__(0, None),
    "nested_row": lambda doc: doc["products"].__setitem__(0, [doc["products"][0]]),
    "integer_product_id": _set(0, 5),
    "row_as_product_id": lambda doc: doc["products"][0].__setitem__(0, doc["products"][1]),
    "list_discipline": _set(2, ["BIO"]),
    "float_year": _set(3, 2001.7),
    "object_product_type": _set(4, {}),
    "unknown_rating_token": _set(5, "Q"),
    "string_boolean": _set(6, "false"),
    "string_citations": _set(7, "4"),
    "boolean_citations": _set(7, True),
    "negative_citations": _set(7, -5),
    "row_as_citations": lambda doc: doc["products"][0].__setitem__(7, doc["products"][1]),
    "nan_journal_if": _set(8, float("nan")),
    "negative_journal_if": _set(8, -1.5),
    "boolean_n_authors": _set(9, True),
    "null_provenance": lambda doc: doc.__setitem__("provenance", None),
    "row_as_provenance": lambda doc: doc.__setitem__("provenance", doc["products"][0]),
    "integer_source_name": lambda doc: doc["provenance"].__setitem__("source_name", 5),
    "product_id_in_provenance": lambda doc: doc["provenance"].__setitem__("product_id", "P1"),
    "row_in_provenance": lambda doc: doc["provenance"].update(zip(PRODUCTS_HEADER, doc["products"][0])),
    "unknown_provenance_key": lambda doc: doc["provenance"].__setitem__("extra", ""),
    "missing_provenance_key": lambda doc: doc["provenance"].pop("ingested_at"),
}


class TestParseProducts:
    def test_direct_field_mapping(self):
        dataset, report = parse_products(make_csv("P1,U_MI,BIO,2002,journal_article,E,true,12,4.5,3,2"))
        assert report.ok and report.accepted_count == 1
        (p,) = dataset.products
        assert p.product_id == "P1"
        assert p.structure_id == "U_MI"
        assert p.discipline == "BIO"
        assert p.year == 2002
        assert p.product_type is ProductType.JOURNAL_ARTICLE
        assert p.peer_rating is PeerRating.EXCELLENT
        assert p.tr_indexed is True
        assert p.citations == 12
        assert p.journal_if == 4.5
        assert p.n_authors == 3
        assert p.n_internal_authors == 2

    def test_absent_optionals(self):
        dataset, report = parse_products(make_csv("P1,S1,BIO,2002,book,G,false,,,2,1"))
        assert report.ok
        (p,) = dataset.products
        assert p.citations is None and p.journal_if is None

    def test_unknown_rating_token(self):
        dataset, report = parse_products(make_csv("P1,S1,BIO,2002,journal_article,X,true,1,,2,1"))
        assert dataset is None
        assert [(i.row, i.rule) for i in report.errors] == [(2, "unknown_rating")]

    def test_bibliometrics_on_uncovered(self):
        dataset, report = parse_products(make_csv("P1,S1,BIO,2002,journal_article,E,false,5,,2,1"))
        assert dataset is None
        assert [(i.row, i.rule) for i in report.errors] == [(2, "bibliometrics_on_uncovered")]

    def test_author_bounds(self):
        dataset, report = parse_products(make_csv("P1,S1,BIO,2002,journal_article,E,true,1,,2,3"))
        assert dataset is None
        assert report.errors[0].rule == "author_bounds"

    def test_duplicate_triple(self):
        dataset, report = parse_products(
            make_csv(
                "P1,S1,BIO,2002,journal_article,E,true,1,,2,1",
                "P1,S1,BIO,2003,journal_article,G,true,2,,2,1",
            )
        )
        assert dataset is None
        assert [(i.row, i.rule) for i in report.errors] == [(3, "duplicate_product")]
        # the fields are named in the order the key prints them
        assert report.errors[0].message == "duplicate (discipline, structure_id, product_id) triple ('BIO', 'S1', 'P1')"

    def test_duplicates_among_other_issues_keep_their_lines_and_order(self):
        """A repeated key is found by the key-order check; the errors and warnings are
        still those of a scan in file order: each repeat on its own line,
        among the other errors, and without the warnings of an accepted row."""
        dataset, report = parse_products(
            make_csv(
                "P1,S1,NANO,2002,journal_article,E,false,,,2,1",
                "P2,S1,BIO,2002,journal_article,Z,false,,,2,1",
                "P1,S1,NANO,2003,book,G,false,,,2,1",
                "P3,S1,BIO,2002,journal_article,E,true,,1.5,2,1",
                "P1,S1,NANO,2004,journal_article,E,true,,,2,1",
                "P0,S1,BIO,2002,journal_article,E,false,,,2,1",
            )
        )
        assert dataset is None and report.accepted_count == 3
        assert [(i.row, i.rule) for i in report.errors] == [
            (3, "unknown_rating"),
            (4, "duplicate_product"),
            (6, "duplicate_product"),
        ]
        assert [(i.row, i.rule) for i in report.warnings] == [(2, "unknown_discipline"), (5, "tr_missing_citations")]

    def test_multi_affiliation_allowed(self):
        dataset, report = parse_products(
            make_csv(
                "P1,S1,BIO,2002,journal_article,E,true,1,,2,1",
                "P1,S2,BIO,2002,journal_article,E,true,1,,2,1",
                "P1,S1,MED,2002,journal_article,E,true,1,,2,1",
            )
        )
        assert report.ok
        assert len(dataset) == 3
        assert len({p.product_id for p in dataset.products}) == 1

    def test_malformed_number(self):
        dataset, report = parse_products(make_csv("P1,S1,BIO,02x,journal_article,E,true,1,,2,1"))
        assert dataset is None
        assert report.errors[0].rule == "malformed_number"

    def test_malformed_boolean(self):
        dataset, report = parse_products(make_csv("P1,S1,BIO,2002,journal_article,E,TRUE,,,2,1"))
        assert dataset is None
        assert report.errors[0].rule == "malformed_boolean"

    def test_bad_header(self):
        dataset, report = parse_products("id,structure\nP1,S1\n")
        assert dataset is None
        assert report.errors[0].rule == "bad_header"

    def test_field_count(self):
        dataset, report = parse_products(HEADER + "\nP1,S1,BIO\n")
        assert dataset is None
        assert report.errors[0].rule == "field_count"

    def test_year_window(self):
        dataset, report = parse_products(make_csv("P1,S1,BIO,2101,journal_article,E,true,,,2,1"))
        assert dataset is None
        assert report.errors[0].rule == "year_out_of_range"

    @pytest.mark.parametrize("token", ["nan", "inf", "1e400"])
    def test_non_finite_journal_if(self, token):
        dataset, report = parse_products(make_csv(f"P1,S1,BIO,2002,journal_article,E,true,1,{token},2,1"))
        assert dataset is None
        assert [(i.row, i.rule) for i in report.errors] == [(2, "non_finite_number")]

    @pytest.mark.parametrize("values", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
    def test_value_out_of_range(self, values):
        dataset, report = parse_products(make_csv(*out_of_range_rows(values)))
        assert dataset is None
        assert report.errors and {i.rule for i in report.errors} == {"value_out_of_range"}

    def test_range_bounds_are_inclusive(self):
        dataset, report = parse_products(
            make_csv(
                f"P1,S1,BIO,2002,journal_article,E,true,{CITATIONS_MAX},{JOURNAL_IF_MIN!r},{AUTHORS_MAX},1",
                f"P2,S1,BIO,2002,journal_article,E,true,0,{JOURNAL_IF_MAX!r},1,1",
                "P3,S1,BIO,2002,journal_article,E,true,0,0.0,1,1",
            )
        )
        assert report.ok, report.errors

    def test_unknown_discipline_warns_but_accepts(self):
        dataset, report = parse_products(make_csv("P1,S1,NANO,2002,journal_article,E,true,,,2,1"))
        assert report.ok
        assert [i.rule for i in report.warnings] == ["unknown_discipline", "tr_missing_citations", "tr_missing_if"]
        assert dataset.disciplines == ("NANO",)

    def test_tr_missing_citations_warning(self):
        dataset, report = parse_products(make_csv("P1,S1,BIO,2002,journal_article,E,true,,1.5,2,1"))
        assert report.ok
        assert [i.rule for i in report.warnings] == ["tr_missing_citations"]

    def test_crlf_line_endings(self):
        text = HEADER + "\r\nP1,S1,BIO,2002,journal_article,E,true,12,4.5,3,2\r\n"
        dataset, report = parse_products(text)
        assert report.ok and len(dataset) == 1

    def test_missing_trailing_newline(self):
        dataset, report = parse_products(HEADER + "\nP1,S1,BIO,2002,journal_article,E,true,12,4.5,3,2")
        assert report.ok and len(dataset) == 1

    def test_blank_interior_lines_skipped(self):
        text = make_csv(
            "P1,S1,BIO,2002,journal_article,E,true,12,4.5,3,2",
            "",
            "P2,S1,BIO,2002,book,G,false,,,2,1",
        )
        dataset, report = parse_products(text)
        assert report.ok and len(dataset) == 2

    def test_tokens_are_strict(self):
        # no silent whitespace stripping, no float citation counts
        dataset, report = parse_products(make_csv("P1,S1,BIO,2002,journal_article, E,true,12,4.5,3,2"))
        assert dataset is None and report.errors[0].rule == "unknown_rating"
        dataset, report = parse_products(make_csv("P1,S1,BIO,2002,journal_article,E,true,12.5,4.5,3,2"))
        assert dataset is None and report.errors[0].rule == "malformed_number"
        # int() and float() would strip whitespace and drop digit separators
        for row in (
            "P1,S1,BIO, 2002 ,journal_article,E,true,12,4.5,3,2",
            "P1,S1,BIO,2002,journal_article,E,true, 12 ,4.5,3,2",
            "P1,S1,BIO,2002,journal_article,E,true,12,\t4.5 ,3,2",
            "P1,S1,BIO,2002,journal_article,E,true,1_000,4.5,3,2",
            "P1,S1,BIO,2002,journal_article,E,true,12,4.5,3 ,2",
            # or take non-ASCII digits and a leading '+', which the canonical file would rewrite
            "P1,S1,BIO,\u0662\u0660\u0660\u0662,journal_article,E,true,12,4.5,3,2",
            "P1,S1,BIO,2002,journal_article,E,true,+12,4.5,3,2",
            "P1,S1,BIO,2002,journal_article,E,true,12,\uff14.5,3,2",
            "P1,S1,BIO,+2002,journal_article,E,true,12,4.5,3,2",
            "P1,S1,BIO,2002,journal_article,E,true,12,4.5,3,+2",
            # or an integer with leading zeros or a minus zero, which it would write as 2002, 0 and 3
            "P1,S1,BIO,02002,journal_article,E,true,12,4.5,3,2",
            "P1,S1,BIO,2002,journal_article,E,true,-0,4.5,3,0",
            "P1,S1,BIO,2002,journal_article,E,true,12,4.5,003,2",
            "P1,S1,BIO,2002,journal_article,E,true,12,4.5,3,00",
            "P1,S1,BIO,2002,journal_article,E,true,012,,3,2",
            "P1,S1,BIO,02002,journal_article,E,true,-0,2.5,003,1",
        ):
            dataset, report = parse_products(make_csv(row))
            assert dataset is None and [i.rule for i in report.errors] == ["malformed_number"], row
        # a token int() rejects keeps int()'s message
        dataset, report = parse_products(make_csv("P1,S1,BIO,20 02,journal_article,E,true,12,4.5,3,2"))
        assert [i.message for i in report.errors] == ["invalid literal for int() with base 10: '20 02'"]
        # an exponent sign is part of a plain number (repr writes 1e+16)
        dataset, report = parse_products(make_csv("P1,S1,BIO,2002,journal_article,E,true,12,1e+2,3,2"))
        assert report.ok and dataset.products[0].journal_if == 100.0
        # journal_if is a float: its leading and trailing zeros are part of a plain number
        for token, value in (("02.50", 2.5), ("4.50", 4.5), ("0", 0.0)):
            dataset, report = parse_products(make_csv(f"P1,S1,BIO,2002,journal_article,E,true,0,{token},3,2"))
            assert report.ok and dataset.products[0].journal_if == value, token
        dataset, report = parse_products(make_csv("P1,S1,BIO,2002,journal_article,E,true,12,1e+16,3,2"))
        assert [i.rule for i in report.errors] == ["value_out_of_range"]

    @pytest.mark.parametrize(
        "row, message",
        [
            ("P1,S1,BIO,2002,journal_article,E,true,-5,4.5,3,2", "citations must be >= 0, got -5"),
            ("P1,S1,BIO,2002,journal_article,E,true,5,-1.5,3,2", "journal_if must be >= 0, got -1.5"),
        ],
    )
    def test_negative_bibliometrics_are_malformed_number(self, row, message):
        dataset, report = parse_products(make_csv(row))
        assert dataset is None
        assert [(i.rule, i.message) for i in report.errors] == [("malformed_number", message)]

    @pytest.mark.parametrize(
        "row, rules",
        [("\ud800", ["field_count"]), ("P\ud800,S1,BIO,2002,journal_article,E,true,1,,2,1", [])],
        ids=["row", "product_id"],
    )
    def test_lone_surrogate_gives_a_report(self, row, rules):
        """No UTF-8 file holds a lone surrogate, but a str may: the source
        digest encodes it as its code point, so the text still gives a report,
        and a dataset that holds one round-trips through the archive."""
        dataset, report = parse_products(make_csv(row))
        assert [i.rule for i in report.errors] == rules
        if dataset is not None:
            assert load_archive(write_archive(dataset)) == dataset
            assert load_archive(write_archive(dataset), "BIO") == dataset

    def test_lone_carriage_return_is_malformed_csv(self):
        """csv cannot split a line with a lone CR in an unquoted field; that
        row is rejected and the rows after it keep their numbers."""
        dataset, report = parse_products(
            make_csv(
                "P1\rx,S1,BIO,2002,journal_article,E,true,1,,2,1",
                "P2,S1,BIO,2002,journal_article,E,true,1,,2,1",
                "P3,S1,BIO,2002,journal_article,Q,true,1,,2,1",
            )
        )
        assert dataset is None
        assert [(i.row, i.rule) for i in report.errors] == [(2, "malformed_csv"), (4, "unknown_rating")]
        assert report.accepted_count == 1

    def test_malformed_csv_header_is_bad_header(self):
        dataset, report = parse_products("\rx" + make_csv("P1,S1,BIO,2002,journal_article,E,true,1,,2,1"))
        assert dataset is None
        assert [(i.row, i.rule) for i in report.errors] == [(1, "bad_header")]

    def test_row_number_is_the_line_a_record_starts_on(self):
        """A quoted field that spans lines does not shift the rows after it."""
        dataset, report = parse_products(
            make_csv(
                '"P\n1",S1,BIO,2002,journal_article,E,true,1,,2,1',
                "P2,S1,BIO,2002,journal_article,Q,true,1,,2,1",
                "",
                '"P\n3",S1,BIO,2002,journal_article,L,false,1,,2,1',
                "P4,S1,BIO,2002,journal_article,E,true,1,,0,1",
            )
        )
        assert dataset is None
        assert [(i.row, i.rule) for i in report.errors] == [
            (4, "unknown_rating"),
            (6, "bibliometrics_on_uncovered"),
            (8, "nonpositive_authors"),
        ]

    def test_file_not_utf8_is_bad_encoding(self, tmp_path):
        path = tmp_path / "products.csv"
        path.write_bytes(b"\xff" + make_csv("P1,S1,BIO,2002,journal_article,E,true,1,,2,1").encode("utf-8"))
        with pytest.raises(PipelineError) as err:
            parse_products_file(str(path))
        assert err.value.code == "bad_encoding"
        assert str(err.value).startswith("input is not UTF-8 text: 'utf-8' codec can't decode byte 0xff")

    def test_errors_reported_per_row(self):
        dataset, report = parse_products(
            make_csv(
                "P1,S1,BIO,2002,journal_article,E,true,1,,2,1",
                "P2,S1,BIO,2002,journal_article,Q,true,1,,2,1",
                "P3,S1,BIO,2002,journal_article,E,false,3,,2,1",
            )
        )
        assert dataset is None
        assert [(i.row, i.rule) for i in report.errors] == [
            (3, "unknown_rating"),
            (4, "bibliometrics_on_uncovered"),
        ]
        assert report.accepted_count == 1


class TestDatasetSemantics:
    def test_row_order_independence(self):
        rows = [
            "P1,S1,BIO,2002,journal_article,E,true,5,2.0,3,1",
            "P2,S2,BIO,2002,book,G,false,,,2,2",
            "P3,S1,MED,2003,journal_article,A,true,1,0.5,4,2",
        ]
        forward, _ = parse_products(make_csv(*rows))
        backward, _ = parse_products(make_csv(*reversed(rows)))
        assert forward.products == backward.products
        assert forward.disciplines == backward.disciplines == ("BIO", "MED")
        assert sorted({p.structure_id for p in forward.products}) == ["S1", "S2"]

    def test_rows_are_sorted_only_out_of_key_order(self, monkeypatch):
        import vtrkit.model as model

        calls = []
        key_sorted = model.key_sorted
        monkeypatch.setattr(model, "key_sorted", lambda products: calls.append(1) or key_sorted(products))
        rows = [
            "P1,S1,BIO,2002,journal_article,E,true,5,2.0,3,1",
            "P2,S1,BIO,2002,book,G,false,,,2,2",
            "P1,S2,BIO,2002,book,G,false,,,2,2",
            "P3,S1,MED,2003,journal_article,A,true,1,0.5,4,2",
        ]
        forward, _ = parse_products(make_csv(*rows))
        assert calls == []
        backward, _ = parse_products(make_csv(*reversed(rows)))
        assert calls == [1] and forward.products == backward.products

    def test_products_in_is_the_discipline_run(self):
        dataset, _ = parse_products(
            make_csv(
                "P2,S2,BIO,2002,book,G,false,,,2,2",
                "P3,S1,MED,2003,journal_article,A,true,1,0.5,4,2",
                "P1,S1,BIO,2002,journal_article,E,true,5,2.0,3,1",
            )
        )
        for discipline in dataset.disciplines:
            assert dataset.products_in(discipline) == tuple(p for p in dataset.products if p.discipline == discipline)
        with pytest.raises(PipelineError) as err:
            dataset.products_in("PHY")
        assert (err.value.code, str(err.value)) == ("empty_discipline", "no products for discipline 'PHY'")

    def test_round_trip_identity(self):
        rows = [
            "P1,S1,BIO,2002,journal_article,E,true,5,2.25,3,1",
            "P2,S2,BIO,2002,book,G,false,,,2,2",
            "P3,S1,MED,2003,journal_article,A,true,0,0.5,4,2",
        ]
        first, report = parse_products(make_csv(*rows))
        assert report.ok
        text = serialize_products(first)
        second, report2 = parse_products(text)
        assert report2.ok
        assert second.products == first.products
        assert serialize_products(second) == text

    def test_shuffled_large_round_trip(self):
        rng = random.Random(11)
        rows = []
        for i in range(200):
            tr = rng.random() < 0.8
            cites = rng.randint(0, 40) if tr else None
            jif = round(rng.uniform(0.1, 9.0), 3) if tr else None
            n_auth = rng.randint(1, 9)
            rows.append(
                f"P{i},S{rng.randint(1, 9)},BIO,2002,journal_article,"
                f"{rng.choice('EGAL')},{'true' if tr else 'false'},"
                f"{'' if cites is None else cites},{'' if jif is None else jif},"
                f"{n_auth},{rng.randint(1, n_auth)}"
            )
        base, _ = parse_products(make_csv(*rows))
        rng.shuffle(rows)
        shuffled, _ = parse_products(make_csv(*rows))
        assert base.products == shuffled.products

    def test_every_product_satisfies_invariants(self):
        rows = [
            "P1,S1,BIO,2002,journal_article,E,true,5,2.0,3,1",
            "P2,S2,BIO,2002,book,G,false,,,2,2",
        ]
        dataset, _ = parse_products(make_csv(*rows))
        for p in dataset.products:
            assert p.n_authors >= 1
            assert 0 <= p.n_internal_authors <= p.n_authors
            if p.citations is not None or p.journal_if is not None:
                assert p.tr_indexed

    def test_dataset_is_immutable(self, four_product_dataset):
        with pytest.raises(AttributeError):
            four_product_dataset.products = ()

    def test_product_constructor_enforces_invariants(self):
        with pytest.raises(ValueError):
            Product("P", "S", "BIO", 2002, ProductType.BOOK, PeerRating.GOOD, False, 3, None, 2, 1)
        with pytest.raises(ValueError):
            Product("P", "S", "BIO", 2002, ProductType.BOOK, PeerRating.GOOD, True, 3, None, 2, 3)

    def test_product_is_a_tuple_of_the_products_header(self):
        assert Product._fields == PRODUCTS_HEADER
        p = Product("P", "S", "BIO", 2002, ProductType.BOOK, PeerRating.GOOD, False, None, None, 2, 1)
        assert tuple(p) == ("P", "S", "BIO", 2002, ProductType.BOOK, PeerRating.GOOD, False, None, None, 2, 1)
        assert p == Product(
            product_id="P",
            structure_id="S",
            discipline="BIO",
            year=2002,
            product_type=ProductType.BOOK,
            peer_rating=PeerRating.GOOD,
            tr_indexed=False,
            citations=None,
            journal_if=None,
            n_authors=2,
            n_internal_authors=1,
        )
        with pytest.raises(AttributeError):
            p.year = 1

    def test_every_product_constructor_runs_the_rules(self):
        p = Product("P", "S", "BIO", 2002, ProductType.BOOK, PeerRating.GOOD, False, None, None, 2, 1)
        bad = (*p[:3], 1800, *p[4:])
        assert p._make(tuple(p)) == p and p._replace(year=2003).year == 2003
        with pytest.raises(InvalidProduct) as err:
            Product._make(bad)
        assert err.value.rule == "year_out_of_range"
        with pytest.raises(InvalidProduct) as err:
            p._replace(year=1800)
        assert err.value.rule == "year_out_of_range"
        # a tuple that skipped the constructor is checked again when copied or unpickled
        unchecked = tuple.__new__(Product, bad)
        for rebuild in (copy.copy, copy.deepcopy, lambda q: pickle.loads(pickle.dumps(q))):
            assert rebuild(p) == p and type(rebuild(p)) is Product
            with pytest.raises(InvalidProduct):
                rebuild(unchecked)

    def test_golden_product_repr(self):
        from conftest import FIXTURES

        dataset = load_archive((FIXTURES / "golden_dataset.json").read_text(encoding="utf-8"))
        assert repr(dataset.products[0]) == (
            "Product(product_id='P01', structure_id='S1', discipline='BIO', year=2001, "
            "product_type=<ProductType.JOURNAL_ARTICLE: 'journal_article'>, peer_rating=<PeerRating.EXCELLENT: 4>, "
            "tr_indexed=True, citations=9, journal_if=3.1, n_authors=3, n_internal_authors=2)"
        )

    def test_from_products_rejects_duplicates(self):
        p = Product("P", "S", "BIO", 2002, ProductType.BOOK, PeerRating.GOOD, False, None, None, 2, 1)
        with pytest.raises(PipelineError) as err:
            Dataset.from_products([p, p], Provenance("x", "y", "z"))
        assert err.value.code == "duplicate_product"

    def test_dataset_rejects_unsorted_products(self):
        p1 = Product("P1", "S", "BIO", 2002, ProductType.BOOK, PeerRating.GOOD, False, None, None, 2, 1)
        p2 = Product("P2", "S", "BIO", 2002, ProductType.BOOK, PeerRating.GOOD, False, None, None, 2, 1)
        with pytest.raises(ValueError):
            Dataset(products=(p2, p1), provenance=Provenance("x", "y", "z"))

    def test_validate_catches_duplicates_in_raw_dataset(self):
        # a dataset assembled without from_products is checked by Dataset itself
        p = Product("P", "S", "BIO", 2002, ProductType.BOOK, PeerRating.GOOD, False, None, None, 2, 1)
        with pytest.raises(PipelineError) as err:
            Dataset(products=(p, p), provenance=Provenance("x", "y", "z"))
        assert err.value.code == "duplicate_product"


class TestDatasetRecord:
    """``Dataset`` is a plain immutable class: value equality and hashing as
    a frozen record, no attribute assignment, and a key-order check that
    compares neighbours field by field."""

    @staticmethod
    def product(pid: str, sid: str = "S", area: str = "BIO") -> Product:
        return Product(pid, sid, area, 2002, ProductType.BOOK, PeerRating.GOOD, False, None, None, 2, 1)

    def test_equality_and_hash_follow_the_values(self):
        products = (self.product("P1"), self.product("P2"))
        a = Dataset(products, Provenance("x", "y", "z"))
        b = Dataset(tuple(products), Provenance("x", "y", "z"))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != Dataset(products, Provenance("x", "y", "other"))
        assert a != (products, Provenance("x", "y", "z"))

    def test_attributes_are_read_only(self):
        dataset = Dataset((self.product("P1"),), Provenance("x", "y", "z"))
        for name in ("products", "provenance", "extra"):
            with pytest.raises(AttributeError):
                setattr(dataset, name, ())
        with pytest.raises(AttributeError):
            del dataset.products
        assert dataset.products_in("BIO") == (self.product("P1"),)  # the area cache still fills

    @pytest.mark.parametrize(
        "first, second",
        [
            (("P1", "S", "MED"), ("P1", "S", "BIO")),  # discipline descends
            (("P1", "S2", "BIO"), ("P1", "S1", "BIO")),  # structure descends
            (("P2", "S", "BIO"), ("P1", "S", "BIO")),  # product descends
            (("P1", "S1", "MED"), ("P2", "S2", "BIO")),  # a later field ascending does not help
        ],
    )
    def test_each_key_field_is_checked_in_order(self, first, second):
        with pytest.raises(ValueError, match="products must be in key order"):
            Dataset((self.product(*first), self.product(*second)), Provenance("x", "y", "z"))

    def test_the_first_bad_pair_decides(self):
        p1, p2 = self.product("P1"), self.product("P2")
        with pytest.raises(PipelineError) as err:
            Dataset((p1, p1, p2, p1), Provenance("x", "y", "z"))
        assert str(err.value) == "duplicate (discipline, structure_id, product_id) triple ('BIO', 'S', 'P1')"
        with pytest.raises(ValueError):
            Dataset((p2, p1, p1), Provenance("x", "y", "z"))

    @pytest.mark.parametrize("cap", [-1, float("nan")])
    def test_selection_policy_checks_its_cap(self, cap):
        with pytest.raises(PipelineError) as err:
            SelectionPolicy(cap_fraction=cap)
        assert err.value.code == "bad_cap"

    def test_selection_policy_replace_checks_its_cap(self):
        with pytest.raises(PipelineError) as err:
            SelectionPolicy(cap_fraction=0.5)._replace(cap_fraction=-1.0)
        assert err.value.code == "bad_cap"


class TestValidateDataset:
    def test_cap_exceeded_university(self):
        # 40 university staff -> 20 FTE -> cap 10 products; 12 submitted
        rows = [f"P{i},S1,BIO,2002,journal_article,G,false,,,2,1" for i in range(12)]
        dataset, _ = parse_products(make_csv(*rows))
        policy = SelectionPolicy(staff={"S1": StaffRecord("S1", "university", 40)})
        report = validate_dataset(dataset, policy)
        assert [i.rule for i in report.warnings] == ["cap_exceeded"]
        assert report.ok  # warnings only

    def test_cap_respected(self):
        rows = [f"P{i},S1,BIO,2002,journal_article,G,false,,,2,1" for i in range(10)]
        dataset, _ = parse_products(make_csv(*rows))
        policy = SelectionPolicy(staff={"S1": StaffRecord("S1", "university", 40)})
        assert validate_dataset(dataset, policy).warnings == []

    def test_agency_cap_is_half_staff(self):
        rows = [f"P{i},S1,BIO,2002,journal_article,G,false,,,2,1" for i in range(11)]
        dataset, _ = parse_products(make_csv(*rows))
        agency = SelectionPolicy(staff={"S1": StaffRecord("S1", "agency", 20)})
        assert [i.rule for i in validate_dataset(dataset, agency).warnings] == ["cap_exceeded"]
        university = SelectionPolicy(staff={"S1": StaffRecord("S1", "university", 20)})
        # university: 20 staff -> cap 5 -> also exceeded
        assert [i.rule for i in validate_dataset(dataset, university).warnings] == ["cap_exceeded"]

    def test_clean_dataset_empty_report(self, four_product_dataset):
        report = validate_dataset(four_product_dataset, SelectionPolicy(staff={}))
        assert report.ok and report.warnings == []

    def test_staff_table_optional(self, four_product_dataset):
        assert validate_dataset(four_product_dataset).ok

    @pytest.mark.parametrize("cap", [float("nan"), float("inf"), -0.5])
    def test_non_finite_or_negative_cap_rejected(self, cap):
        with pytest.raises(PipelineError) as err:
            SelectionPolicy(staff={"S1": StaffRecord("S1", "agency", 1)}, cap_fraction=cap)
        assert err.value.code == "bad_cap"


class TestStaffFile:
    def test_parse_staff(self):
        records = parse_staff("structure_id,kind,avg_staff\nS1,university,40\nS2,agency,12.5\n")
        assert records["S1"] == StaffRecord("S1", "university", 40.0)
        assert records["S2"].avg_staff == 12.5

    def test_blank_lines_skipped(self):
        records = parse_staff("structure_id,kind,avg_staff\n\nS1,university,40\n\n")
        assert records == {"S1": StaffRecord("S1", "university", 40.0)}

    def test_non_numeric_staff_rejected(self):
        with pytest.raises(PipelineError) as err:
            parse_staff("structure_id,kind,avg_staff\nS1,agency,abc\n")
        assert err.value.code == "bad_staff_number"
        assert str(err.value) == "row 2: avg_staff must be numeric"

    def test_structure_listed_twice_is_bad_staff_row(self):
        """The second row used to replace the first, so the cap audit read it alone."""
        with pytest.raises(PipelineError) as err:
            parse_staff("structure_id,kind,avg_staff\nS1,university,40\nS2,agency,3\nS1,agency,1\n")
        assert err.value.code == "bad_staff_row"
        assert str(err.value) == "row 4: structure 'S1' is listed twice"

    def test_bad_kind(self):
        with pytest.raises(PipelineError) as err:
            parse_staff("structure_id,kind,avg_staff\nS1,museum,40\n")
        assert err.value.code == "bad_staff_kind"

    def test_bad_header(self):
        with pytest.raises(PipelineError):
            parse_staff("a,b,c\n")

    def test_lone_carriage_return_is_bad_staff_row(self):
        with pytest.raises(PipelineError) as err:
            parse_staff("structure_id,kind,avg_staff\nS1,agency,1\rx\n")
        assert err.value.code == "bad_staff_row"
        assert str(err.value).startswith("row 2: malformed CSV:")

    def test_row_number_is_the_line_a_record_starts_on(self):
        with pytest.raises(PipelineError) as err:
            parse_staff('structure_id,kind,avg_staff\n"S\n1",agency,1\nS2,museum,1\n')
        assert err.value.code == "bad_staff_kind"
        assert str(err.value).startswith("row 4:")
        with pytest.raises(PipelineError) as err:
            parse_staff('structure_id,kind,avg_staff\nS1,agency,1\n"S\n2",museum,1\n')
        assert str(err.value).startswith("row 3:")

    @pytest.mark.parametrize("token", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_staff_rejected(self, token):
        """A NaN or infinite cap used to make validate_dataset skip cap_exceeded."""
        with pytest.raises(PipelineError) as err:
            parse_staff(f"structure_id,kind,avg_staff\nS1,agency,{token}\n")
        assert err.value.code == "bad_staff_number"


class TestArchive:
    def test_archive_round_trip(self, four_product_dataset):
        text = write_archive(four_product_dataset)
        loaded = load_archive(text)
        assert loaded.products == four_product_dataset.products
        assert loaded.provenance == four_product_dataset.provenance

    def test_archive_byte_stable_reemission(self, four_product_dataset):
        text = write_archive(four_product_dataset)
        assert write_archive(load_archive(text)) == text

    def test_archive_fixed_decimal_formatting(self, four_product_dataset):
        text = write_archive(four_product_dataset)
        assert '"E", true, 4, 2.0, 2, 1]' in text  # journal_if 2.0, between citations and the author counts
        assert "2.000000" not in text

    def test_archive_keeps_full_float_precision(self):
        dataset, _ = parse_products(make_csv("P1,S1,BIO,2002,journal_article,E,true,1,1.23456789,2,1"))
        (p,) = load_archive(write_archive(dataset)).products
        assert p.journal_if == 1.23456789

    def test_empty_dataset_archive(self):
        dataset, report = parse_products(make_csv())
        assert report.ok and len(dataset) == 0
        text = write_archive(dataset)
        head, block_and_seal = text.split('\n"products": [\n')
        assert head.startswith('{"format": "vtrkit-dataset/3",\n')
        assert re.fullmatch(r'\],\n"seal": \{"areas": \[\], "sha256": "[0-9a-f]{64}"\}\}\n', block_and_seal)
        assert json.loads(text)["products"] == []
        assert write_archive(load_archive(text)) == text

    def test_load_releases_decoded_records(self):
        """load_archive drops each decoded record once its Product is built, so
        its peak stays well below the decoded document plus the products."""
        text = write_archive(generate_exercise(SynthConfig(seed=42)))
        tracemalloc.start()
        try:
            dataset = load_archive(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # ~380 bytes per product here; ~720 when the whole document was
        # decoded before any product was built
        assert peak < 500 * len(dataset)

    @pytest.mark.parametrize("area", [None, "BIO"])
    def test_pretty_and_compact_legacy_archives_are_bad_archive(self, area):
        """The golden input in the retired vtrkit-dataset/1 format, pretty-printed
        as it was committed or compact, no longer loads, whole or for an area:
        the error says to ingest the products CSV again."""
        pretty = legacy_golden_text()
        compact = json.dumps(json.loads(pretty))
        assert "\n" in pretty and "\n" not in compact
        for text in (pretty, compact):
            with pytest.raises(PipelineError) as err:
                load_archive(text, area)
            assert (err.value.code, str(err.value)) == ("bad_archive", LEGACY_ERROR.format("format 'vtrkit-dataset/1'"))

    @pytest.mark.parametrize(
        ("text", "found"),
        [
            ("{not json", "no format"),
            ("", "no format"),
            ('{"format": "something-else"}', "format 'something-else'"),
            ('{"format": "vtrkit-dataset/1"}', "format 'vtrkit-dataset/1'"),
        ],
    )
    def test_bad_archive(self, text, found):
        with pytest.raises(PipelineError) as err:
            load_archive(text)
        assert (err.value.code, str(err.value)) == ("bad_archive", LEGACY_ERROR.format(found))

    @pytest.mark.parametrize("values", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
    def test_out_of_range_archive_is_bad_archive(self, values):
        in_range = [(1, 2.0, 2)] * len(values)

        def damage(doc):
            for row, (citations, journal_if, n_authors) in zip(doc["products"], values):
                row[7:10] = citations, journal_if, n_authors

        text = rewritten(write_archive(parse_products(make_csv(*out_of_range_rows(in_range)))[0]), damage)
        with pytest.raises(PipelineError) as err:
            load_archive(text)
        assert err.value.code == "bad_archive"
        assert str(err.value).startswith("invalid product row: ")

    @pytest.mark.parametrize("damage", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_archive_is_bad_archive(self, four_product_dataset, damage):
        with pytest.raises(PipelineError) as err:
            load_archive(rewritten(write_archive(four_product_dataset), damage))
        assert err.value.code == "bad_archive"

    def test_too_deeply_nested_archive_is_bad_archive(self, four_product_dataset):
        """A row that nests past the decoder's recursion limit, in an archive
        that keeps its layout and seal, is bad_archive, not a crash."""
        sealed = write_archive(four_product_dataset)
        rows = archive_rows(sealed)
        rows[-1] = _DEEP
        with pytest.raises(PipelineError) as err:
            load_archive(reseal(sealed, rows))
        assert err.value.code == "bad_archive"
        assert str(err.value).startswith(_TOO_DEEP)


THREE_AREA_CSV = make_csv(
    "P1,S1,BIO,2001,journal_article,E,true,4,2.5,2,1",
    "P2,S2,BIO,2002,book,G,false,,,3,3",
    "P3,S1,CHE,2003,journal_article,A,true,1,0.5,1,1",
    "P4,S1,MED,2003,journal_article,L,true,,1.25,4,2",
    "P5,S2,MED,2004,chapter,G,false,,,1,1",
)


def _seal_moved_first(text: str) -> str:
    head, rest = text.split("\n", 1)
    body, seal = rest.rsplit('],\n"seal": ', 1)
    return f'{head}\n"seal": {seal[:-2]},\n{body}]}}\n'


#: ways to re-lay-out a sealed archive that keep its JSON value, or drop the seal
RELAYOUTS = {
    "reindented": lambda text: json.dumps(json.loads(text), indent=1),
    "compact": lambda text: json.dumps(json.loads(text)),
    "crlf_line_ends": lambda text: text.replace("\n", "\r\n"),
    "seal_moved_first": _seal_moved_first,
    "seal_dropped": lambda text: text[: text.rindex('],\n"seal": ')] + "]}\n",
}


#: ways to damage one product row, each leaving it valid JSON
ROW_DAMAGE = {
    "short_row": lambda row: row[:-1],
    "long_row": lambda row: [*row, 1],
    "dict_row": lambda row: dict(zip(PRODUCTS_HEADER, row)),
    "string_row": lambda row: row[0],
    "unknown_rating_token": lambda row: [*row[:5], "Q", *row[6:]],
    "unknown_type_token": lambda row: [*row[:4], "thesis", *row[5:]],
    "null_required_field": lambda row: [*row[:3], None, *row[4:]],
}

_NOT_TILED = "the area index does not tile the products block"

#: JSON that nests past the decoder's recursion limit, and the error it gives
_DEEP = "[" * 50_000 + "]" * 50_000
_TOO_DEEP = "archive is not valid JSON: maximum recursion depth exceeded"


def _resealed_rows(order: list[int], areas: list[str]):
    """The archive with its rows in ``order``, each under the area at the same position of ``areas``."""
    return lambda text: reseal(text, [archive_rows(text)[i] for i in order], areas)


def _shifted_second_start(by: int):
    """The archive with its second area's start moved by ``by`` characters."""
    return lambda text: reseal(text, tamper=lambda ix: [ix[0], [ix[1][0], ix[1][1] + by, ix[1][2]], *ix[2:]])


def _separator_off_the_row_ends(text: str) -> str:
    """The archive with a blank after BIO's last row and the index cut one
    character early, so BIO ends at the blank and CHE starts at a line end:
    each area's rows still decode, but the two characters between them are
    " ,", not ",\\n"."""
    rows = archive_rows(text)
    rows[1] += " "
    return reseal(text, rows, tamper=lambda ix: [[*ix[0][:2], ix[0][2] - 1], [ix[1][0], ix[1][1] - 1, ix[1][2]], ix[2]])


#: ways to damage the area index of a sealed archive of THREE_AREA_CSV, re-sealed,
#: and the message each gives
INDEX_TAMPERS = {
    "gap": (_shifted_second_start(1), _NOT_TILED),
    "overlap": (_shifted_second_start(-2), _NOT_TILED),
    "dropped_area": (lambda text: reseal(text, tamper=lambda ix: [ix[0], ix[2]]), _NOT_TILED),
    "separator_off_the_row_ends": (_separator_off_the_row_ends, _NOT_TILED),
    "dropped_last_area": (
        lambda text: reseal(text, tamper=lambda ix: ix[:2]),
        "the area index does not cover the whole products block",
    ),
    "areas_out_of_order": (_resealed_rows([3, 4, 2, 0, 1], ["MED", "MED", "CHE", "BIO", "BIO"]), _NOT_TILED),
    "row_under_wrong_area": (
        _resealed_rows([0, 1, 2, 3, 4], ["BIO", "BIO", "MED", "MED", "MED"]),
        "invalid product row: ",
    ),
    "rows_out_of_key_order": (
        _resealed_rows([0, 1, 2, 4, 3], ["BIO", "BIO", "CHE", "MED", "MED"]),
        "archive rows must be in strictly increasing key order",
    ),
}


def _with_provenance(provenance: str):
    """The archive with ``provenance`` as the JSON text of its provenance, sealed again."""

    def damage(text: str) -> str:
        start = text.index('"provenance": ') + len('"provenance": ')
        return reseal(text[:start] + provenance + text[text.index(',\n"products": [', start) :])

    return damage


def _with_index(index: str):
    """The archive with ``index`` as the JSON text of its area index, sealed again."""

    def damage(text: str) -> str:
        head = text[: text.rindex('"areas": ') + len('"areas": ')] + index + ', "sha256": "'
        return head + hashlib.sha256(head.encode("utf-8")).hexdigest() + '"}}\n'

    return damage


def _with_p4_row(edit):
    """The archive with ``edit`` applied to the line of P4's row, MED's first, sealed again."""

    def damage(text: str) -> str:
        rows = archive_rows(text)
        rows[3] = edit(rows[3])
        return reseal(text, rows)

    return damage


#: ways to make a sealed archive of THREE_AREA_CSV fail to decode, re-sealed,
#: and the message each gives; a JSON syntax error has a test of its own
UNDECODABLE = {
    "provenance_nested_too_deep": (_with_provenance('{"source_name": ' + _DEEP + "}"), _TOO_DEEP),
    "index_entry_of_two": (_with_index('[["BIO", 0]]'), "invalid area index: not enough values to unpack"),
    "index_entry_not_a_list": (_with_index("[7]"), "invalid area index: cannot unpack non-iterable int object"),
    "index_nested_too_deep": (_with_index(_DEEP), "invalid area index: maximum recursion depth exceeded"),
}


class TestSealedArchive:
    @pytest.fixture()
    def sealed(self) -> str:
        return write_archive(parse_products(THREE_AREA_CSV)[0])

    def test_writer_seals_and_indexes_each_area(self, sealed):
        doc = json.loads(sealed)
        assert doc["format"] == "vtrkit-dataset/3" and list(doc)[-1] == "seal"
        assert [area for area, _, _ in doc["seal"]["areas"]] == ["BIO", "CHE", "MED"]
        block = sealed[sealed.index('"products": [\n') + len('"products": [\n') :]
        for area, start, end in doc["seal"]["areas"]:
            rows = json.loads("[" + block[start:end] + "]")
            assert {row[PRODUCTS_HEADER.index("discipline")] for row in rows} == {area}
        assert sum(len(json.loads("[" + block[s:e] + "]")) for _, s, e in doc["seal"]["areas"]) == 5

    def test_write_load_write_gives_same_bytes(self, sealed):
        assert write_archive(load_archive(sealed)) == sealed

    @pytest.mark.parametrize("area", ["BIO", "CHE", "MED"])
    def test_area_load_decodes_only_its_records(self, sealed, area, monkeypatch):
        import vtrkit.model as model

        expected = load_archive(sealed).products_in(area)
        decoded = []
        decode = model._area_products
        monkeypatch.setattr(model, "_area_products", lambda *args: decoded.append(args[-1]) or decode(*args))
        dataset = load_archive(sealed, area)
        assert decoded == [area]
        assert dataset.products == expected

    @pytest.mark.parametrize("fmt", ["vtrkit-dataset/1", "vtrkit-dataset/3"])
    def test_area_load_of_each_format(self, sealed, fmt):
        """Given an area, a current archive loads that area alone, and an
        absent area is empty_discipline; an archive of the retired
        vtrkit-dataset/1 format is bad_archive, for a present area or an
        absent one."""
        text = {"vtrkit-dataset/1": legacy_golden_text(), "vtrkit-dataset/3": sealed}[fmt]
        assert json.loads(text)["format"] == fmt
        if fmt == "vtrkit-dataset/1":
            for area in ("BIO", "PHY"):
                with pytest.raises(PipelineError) as err:
                    load_archive(text, area)
                assert err.value.code == "bad_archive"
            return
        dataset = load_archive(text)
        scoped = load_archive(text, "CHE")
        assert scoped.products == dataset.products_in("CHE") and scoped.provenance == dataset.provenance
        with pytest.raises(PipelineError) as err:
            load_archive(text, "PHY").products_in("PHY")
        assert err.value.code == "empty_discipline"

    @pytest.mark.parametrize("relayout", RELAYOUTS.values(), ids=RELAYOUTS.keys())
    @pytest.mark.parametrize("load", [load_archive, lambda text: load_archive(text, "CHE")], ids=["full", "area"])
    def test_relaid_out_sealed_archive_is_bad_archive(self, sealed, relayout, load):
        text = relayout(sealed)
        assert text != sealed
        with pytest.raises(PipelineError) as err:
            load(text)
        assert err.value.code == "bad_archive"

    @pytest.mark.parametrize("load", [load_archive, lambda text: load_archive(text, "CHE")], ids=["full", "area"])
    def test_changed_record_byte_in_another_area_is_bad_archive(self, sealed, load):
        damaged = sealed.replace('"P5"', '"P6"')
        assert damaged != sealed
        with pytest.raises(PipelineError) as err:
            load(damaged)
        assert (err.value.code, str(err.value)) == ("bad_archive", "the archive's bytes do not match its seal")

    def test_area_larger_than_a_decode_chunk_loads_whole(self):
        import vtrkit.model as model

        dataset = generate_exercise(SynthConfig(seed=42, disciplines=(DisciplineSpec("BIO", 60, 30, 40),)))
        text = write_archive(dataset)
        areas = json.loads(text)["seal"]["areas"]
        assert max(end - start for _, start, end in areas) > 2 * model.CHUNK
        assert load_archive(text) == dataset
        for area in dataset.disciplines:
            assert load_archive(text, area).products == dataset.products_in(area)

    def test_resealing_an_undamaged_archive_gives_its_bytes(self, sealed):
        assert reseal(sealed) == sealed

    @pytest.mark.parametrize("damage", ROW_DAMAGE.values(), ids=ROW_DAMAGE.keys())
    @pytest.mark.parametrize("load", [load_archive, lambda text: load_archive(text, "MED")], ids=["full", "area"])
    def test_damaged_row_is_bad_archive(self, sealed, damage, load):
        rows = archive_rows(sealed)
        rows[3] = json.dumps(damage(json.loads(rows[3])))  # P4, a MED row
        with pytest.raises(PipelineError) as err:
            load(reseal(sealed, rows))
        assert err.value.code == "bad_archive"
        assert str(err.value).startswith("invalid product row: ")

    @pytest.mark.parametrize(("tamper", "message"), INDEX_TAMPERS.values(), ids=INDEX_TAMPERS.keys())
    @pytest.mark.parametrize("load", [load_archive, lambda text: load_archive(text, "MED")], ids=["full", "area"])
    def test_tampered_area_index_is_bad_archive(self, sealed, tamper, message, load):
        with pytest.raises(PipelineError) as err:
            load(tamper(sealed))
        assert err.value.code == "bad_archive"
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize(("damage", "message"), UNDECODABLE.values(), ids=UNDECODABLE.keys())
    @pytest.mark.parametrize("load", [load_archive, lambda text: load_archive(text, "MED")], ids=["full", "area"])
    def test_undecodable_archive_is_bad_archive(self, sealed, damage, message, load):
        with pytest.raises(PipelineError) as err:
            load(damage(sealed))
        assert err.value.code == "bad_archive"
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize(
        ("damage", "message", "fault"),
        [
            (_with_p4_row(lambda row: row[:-1]), "Expecting ',' delimiter at char 565", '],\n"seal"'),
            (_with_p4_row(lambda row: row.replace("true", "tru")), "Expecting value at char 474", "tru, null"),
            (_with_provenance('{"source_name": nope}'), "Expecting value at char 61", "nope}"),
            (_with_index('[["BIO", 0, x]]'), "Expecting value at char 599", "x]]"),
        ],
        ids=["row_cut_short", "row_misspelt", "provenance_misspelt", "index_misspelt"],
    )
    @pytest.mark.parametrize("load", [load_archive, lambda text: load_archive(text, "MED")], ids=["full", "area"])
    def test_json_syntax_error_is_named_at_its_offset_in_the_archive(self, sealed, damage, message, fault, load):
        """A syntax error is named at its character offset in the archive, not
        in the chunk of rows, the provenance or the area index decoded apart: a
        row cut short runs on to where the products block closes."""
        text = damage(sealed)
        with pytest.raises(PipelineError) as err:
            load(text)
        assert (err.value.code, str(err.value)) == ("bad_archive", "archive is not valid JSON: " + message)
        assert text.startswith(fault, int(message.rpartition(" ")[2]))

    @pytest.mark.parametrize("area", [None, "BIO", "CHE", "MED", "PHY"])
    def test_records_archive_is_bad_archive(self, sealed, area):
        """A vtrkit-dataset/2 archive, sealed with one product record per line
        as its writer wrote it, no longer loads, whole or for one area, present
        or not: the error says to ingest the products CSV again."""
        text = _records_archive(sealed)
        assert json.loads(text)["format"] == "vtrkit-dataset/2"
        with pytest.raises(PipelineError) as err:
            load_archive(text, area)
        assert (err.value.code, str(err.value)) == ("bad_archive", LEGACY_ERROR.format("format 'vtrkit-dataset/2'"))

    @pytest.mark.parametrize("area", [None, "BIO"])
    def test_records_archive_is_rejected_before_its_records_are_built(self, sealed, area, monkeypatch):
        """The format a /2 archive opens with rejects it before any of its
        products is decoded, in its writer's layout or in another, with the
        same error."""
        import vtrkit.model as model

        def no_rows(*args):
            raise AssertionError("product rows were decoded")

        monkeypatch.setattr(model, "_area_products", no_rows)
        text = _records_archive(sealed)
        relaid_out = json.dumps(json.loads(text), indent=1)
        assert not relaid_out.startswith('{"format"')
        for archive in (text, relaid_out):
            with pytest.raises(PipelineError) as err:
                load_archive(archive, area)
            assert (err.value.code, str(err.value)) == ("bad_archive", LEGACY_ERROR.format("format 'vtrkit-dataset/2'"))

    def test_repeated_provenance_key_is_bad_archive(self):
        """A provenance that names a key twice is rejected, not read as its
        last value with the first dropped unread."""
        from conftest import FIXTURES

        golden = (FIXTURES / "golden_dataset.json").read_text(encoding="utf-8")
        assert load_archive(golden).provenance.source_name == "golden.csv"
        repeated = '"source_name": "golden.csv", "source_name": "other.csv"}'
        text = reseal(golden.replace('"source_name": "golden.csv"}', repeated, 1))
        assert text.count('"source_name"') == 2
        for area in (None, "BIO"):
            with pytest.raises(PipelineError) as err:
                load_archive(text, area)
            assert err.value.code == "bad_archive"
            assert str(err.value).startswith("archive provenance must be an object of the keys")

    @pytest.mark.parametrize("empty", ["index", "block"])
    def test_empty_index_goes_only_with_an_empty_block(self, sealed, empty):
        """An empty area index seals an empty products block, and nothing else:
        rows under an empty index, or an index over no rows, are bad_archive."""
        if empty == "index":
            text = reseal(sealed, tamper=lambda index: [])
        else:
            text = reseal(sealed, [], [], tamper=lambda index: [["BIO", 0, 1]])
        with pytest.raises(PipelineError) as err:
            load_archive(text)
        assert err.value.code == "bad_archive"
        assert str(err.value).startswith("the area index does not")


def _records_archive(sealed: str) -> str:
    """The archive ``sealed`` as the retired vtrkit-dataset/2 format wrote it:
    sealed, with one product record (a JSON object of sorted keys) per line."""
    records = [json.dumps(dict(zip(PRODUCTS_HEADER, json.loads(row))), sort_keys=True) for row in archive_rows(sealed)]
    return reseal(sealed.replace("vtrkit-dataset/3", "vtrkit-dataset/2", 1), records)


def reference_archive(dataset: Dataset) -> str:
    """The sealed archive of a dataset with products, written and hashed row
    by row: the reference for ``archive_lines``, which joins and hashes rows a
    piece at a time."""
    head = (
        '{"format": "vtrkit-dataset/3",\n'
        f'"provenance": {json.dumps(dataset.provenance._asdict(), sort_keys=True)},\n'
        '"products": [\n'
    )
    digest = hashlib.sha256(head.encode("utf-8"))
    lines, starts, at = [head], {}, 0
    for i, p in enumerate(dataset.products):
        line = _product_row(p) + (",\n" if i < len(dataset) - 1 else "\n")
        starts.setdefault(p.discipline, at)
        at += len(line)
        digest.update(line.encode("utf-8"))
        lines.append(line)
    ends = [start - 2 for start in list(starts.values())[1:]] + [at - 1]
    areas = [[area, start, end] for (area, start), end in zip(starts.items(), ends)]
    seal = f'],\n"seal": {{"areas": {json.dumps(areas)}, "sha256": "'
    digest.update(seal.encode("utf-8"))
    return "".join(lines) + seal + digest.hexdigest() + '"}}\n'


def _area_rows(area: str, n: int) -> list[Product]:
    return [
        Product(f"P{i:05d}", "S1", area, 2002, ProductType.BOOK, PeerRating.GOOD, False, None, None, 2, 1)
        for i in range(n)
    ]


def _edge_datasets() -> dict[str, Dataset]:
    """Datasets whose products block spans several of the writer's pieces,
    with the second area starting exactly at the edge after the first piece,
    or one row past it; one with a single product; and a generated one."""
    import vtrkit.model as model

    provenance = Provenance("edges.csv", "d" * 64, "2001-01-01T00:00:00+00:00")
    first = _area_rows("BIO", 4 * model.CHUNK // 60)
    pieces = list(archive_lines(Dataset(tuple(first), provenance)))[1:-1]
    assert len(pieces) > 3
    edge = pieces[0].count("\n")  # rows in the first piece
    second = _area_rows("MED", 3 * model.CHUNK // 60)
    areas = (DisciplineSpec("BIO", 30, 4, 40), DisciplineSpec("CHE", 1, 1, 1), DisciplineSpec("MED", 30, 4, 40))
    return {
        "at_edge": Dataset(tuple(first[:edge] + second), provenance),
        "row_after_edge": Dataset(tuple(first[: edge + 1] + second), provenance),
        "one_product": Dataset(tuple(first[:1]), provenance),
        "generated": generate_exercise(SynthConfig(seed=5, disciplines=areas)),
    }


EDGE_DATASETS = _edge_datasets()


class TestArchivePieces:
    @pytest.mark.parametrize("dataset", EDGE_DATASETS.values(), ids=EDGE_DATASETS.keys())
    def test_pieces_give_the_row_by_row_archive(self, dataset):
        text = "".join(archive_lines(dataset))
        assert text == reference_archive(dataset)
        for area in dataset.disciplines:
            assert load_archive(text, area).products == dataset.products_in(area)
        assert load_archive(text) == dataset

    @pytest.mark.parametrize(("name", "rows_before"), [("at_edge", 0), ("row_after_edge", 1)])
    def test_second_area_starts_its_rows_into_a_piece(self, name, rows_before):
        pieces = list(archive_lines(EDGE_DATASETS[name]))[1:-1]
        piece = next(piece for piece in pieces if '"MED"' in piece)
        assert piece is not pieces[0]
        assert ['"MED"' in row for row in piece.split(",\n")[: rows_before + 1]] == [False] * rows_before + [True]

    @pytest.mark.parametrize("dataset", EDGE_DATASETS.values(), ids=EDGE_DATASETS.keys())
    def test_pieces_stay_near_the_chunk_size(self, dataset):
        import vtrkit.model as model

        longest_row = max(len(_product_row(p)) for p in dataset.products)
        pieces = list(archive_lines(dataset))[1:-1]
        assert all(len(piece) < model.CHUNK + longest_row + 2 for piece in pieces)


def test_builds_leave_the_callers_gc_freeze_count():
    """Only the CLI program touches the collector: parsing and loading leave
    ``gc.isenabled()`` and ``gc.get_freeze_count()`` as they found them,
    with the collector on or off, whether they succeed or fail."""
    archive = write_archive(parse_products(THREE_AREA_CSV)[0])
    builds = [
        lambda: parse_products(THREE_AREA_CSV),
        lambda: load_archive(archive),
        lambda: load_archive(archive, "MED"),
    ]
    failures = [
        lambda: load_archive("{not json"),
        lambda: load_archive(archive.replace("P5", "P6")),
        lambda: load_archive(archive.replace("P5", "P6"), "MED"),
    ]
    was_enabled = gc.isenabled()
    try:
        for switch in (gc.enable, gc.disable):
            switch()
            before = (gc.isenabled(), gc.get_freeze_count())
            for build in builds:
                build()
                assert (gc.isenabled(), gc.get_freeze_count()) == before
            for fail in failures:
                with pytest.raises(PipelineError):
                    fail()
                assert (gc.isenabled(), gc.get_freeze_count()) == before
    finally:
        (gc.enable if was_enabled else gc.disable)()
