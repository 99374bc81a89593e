"""Ingestion, dataset invariants, validation, and archive round-trips."""

from __future__ import annotations

import copy
import gc
import json
import pickle
import random
import tracemalloc

import pytest

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
    SelectionPolicy,
    StaffRecord,
    load_archive,
    load_archive_area,
    parse_products,
    parse_products_file,
    parse_staff,
    serialize_products,
    validate_dataset,
    write_archive,
)
from vtrkit.synth import SynthConfig, generate_exercise

from conftest import unsealed_doc

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
        assert [i.rule for i in report.warnings] == ["unknown_discipline", "tr_missing_citations"]
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
        assert '"journal_if": 2.0,' in text
        assert "2.000000" not in text

    def test_archive_keeps_full_float_precision(self):
        dataset, _ = parse_products(make_csv("P1,S1,BIO,2002,journal_article,E,true,1,1.23456789,2,1"))
        (p,) = load_archive(write_archive(dataset)).products
        assert p.journal_if == 1.23456789

    def test_empty_dataset_archive(self):
        dataset, report = parse_products(make_csv())
        assert report.ok and len(dataset) == 0
        text = write_archive(dataset)
        assert text.endswith('\n"products": [\n\n]}\n')
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

    def test_pretty_and_compact_archives_load_alike(self):
        from conftest import FIXTURES

        pretty = (FIXTURES / "golden_dataset.json").read_text(encoding="utf-8")
        compact = json.dumps(json.loads(pretty))
        assert "\n" in pretty and "\n" not in compact
        assert load_archive(compact) == load_archive(pretty)

    def test_bad_archive(self):
        with pytest.raises(PipelineError) as err:
            load_archive("{not json")
        assert err.value.code == "bad_archive"
        with pytest.raises(PipelineError):
            load_archive('{"format": "something-else"}')
        with pytest.raises(PipelineError) as err:
            load_archive('{"format": "vtrkit-dataset/1"}')
        assert err.value.code == "bad_archive"

    @pytest.mark.parametrize("values", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
    def test_out_of_range_archive_is_bad_archive(self, values):
        in_range = [(1, 2.0, 2)] * len(values)
        doc = unsealed_doc(write_archive(parse_products(make_csv(*out_of_range_rows(in_range)))[0]))
        for record, (citations, journal_if, n_authors) in zip(doc["products"], values):
            record.update(citations=citations, journal_if=journal_if, n_authors=n_authors)
        with pytest.raises(PipelineError) as err:
            load_archive(json.dumps(doc))
        assert err.value.code == "bad_archive"

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc["products"].__setitem__(0, None),
            lambda doc: doc["products"][0].__setitem__("citations", "4"),
            lambda doc: doc.__setitem__("products", {"P1": doc["products"][0]}),
            lambda doc: doc.__setitem__("provenance", None),
            lambda doc: doc["products"][0].__setitem__("tr_indexed", "false"),
            lambda doc: doc["products"][0].__setitem__("citations", True),
            lambda doc: doc["products"][0].__setitem__("year", 2001.7),
            lambda doc: doc["products"][0].__setitem__("journal_if", float("nan")),
            lambda doc: doc["products"][0].__setitem__("product_id", 5),
            lambda doc: doc["products"][0].__setitem__("n_authors", True),
            lambda doc: doc["products"][0].__setitem__("discipline", ["BIO"]),
            lambda doc: doc["provenance"].__setitem__("source_name", 5),
            lambda doc: doc["products"].__setitem__(0, "P1"),
            lambda doc: doc["products"].__setitem__(0, [doc["products"][0]]),
            lambda doc: doc["products"][0].pop("product_id"),
            lambda doc: doc["products"][0].__setitem__("citations", doc["products"][1]),
            lambda doc: doc["products"][0].__setitem__("product_id", doc["products"][1]),
            lambda doc: doc["provenance"].__setitem__("product_id", "P1"),
            lambda doc: doc["provenance"].update(doc["products"][0]),
            lambda doc: doc.__setitem__("product_id", "P1"),
            lambda doc: doc["products"][0].__setitem__("peer_rating", "Q"),
            lambda doc: doc["products"][0].__setitem__("product_type", {}),
            lambda doc: doc["products"][0].__setitem__("extra", doc["products"].pop(1)),
            lambda doc: doc.__setitem__("extra", doc["products"].pop(1)),
            lambda doc: doc["products"][0].__setitem__("extra", 1),
            lambda doc: doc["provenance"].__setitem__("extra", ""),
            lambda doc: doc["products"][0].__setitem__("citations", -5),
            lambda doc: doc["products"][0].__setitem__("journal_if", -1.5),
            lambda doc: doc.pop("products"),
            lambda doc: doc.pop("provenance"),
            lambda doc: doc["provenance"].pop("ingested_at"),
        ],
        ids=[
            "null_record",
            "string_citations",
            "non_list_products",
            "null_provenance",
            "string_boolean",
            "boolean_citations",
            "float_year",
            "nan_journal_if",
            "integer_product_id",
            "boolean_n_authors",
            "list_discipline",
            "integer_source_name",
            "string_record",
            "list_record",
            "record_without_product_id",
            "record_as_citations",
            "record_as_product_id",
            "product_id_in_provenance",
            "record_as_provenance",
            "product_id_at_top_level",
            "unknown_rating_token",
            "object_product_type",
            "record_under_unknown_key",
            "record_under_unknown_top_level_key",
            "unknown_record_key",
            "unknown_provenance_key",
            "negative_citations",
            "negative_journal_if",
            "missing_products",
            "missing_provenance",
            "missing_provenance_key",
        ],
    )
    def test_malformed_archive_is_bad_archive(self, four_product_dataset, mutate):
        doc = unsealed_doc(write_archive(four_product_dataset))
        mutate(doc)
        with pytest.raises(PipelineError) as err:
            load_archive(json.dumps(doc))
        assert err.value.code == "bad_archive"

    def test_too_deeply_nested_archive_is_bad_archive(self):
        with pytest.raises(PipelineError) as err:
            load_archive("[" * 100_000 + "]" * 100_000)
        assert err.value.code == "bad_archive"


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


class TestSealedArchive:
    @pytest.fixture()
    def sealed(self) -> str:
        return write_archive(parse_products(THREE_AREA_CSV)[0])

    def test_writer_seals_and_indexes_each_area(self, sealed):
        doc = json.loads(sealed)
        assert doc["format"] == "vtrkit-dataset/2" and list(doc)[-1] == "seal"
        assert [area for area, _, _ in doc["seal"]["areas"]] == ["BIO", "CHE", "MED"]
        block = sealed[sealed.index('"products": [\n') + len('"products": [\n') :]
        for area, start, end in doc["seal"]["areas"]:
            records = json.loads("[" + block[start:end] + "]")
            assert {record["discipline"] for record in records} == {area}
        assert sum(len(json.loads("[" + block[s:e] + "]")) for _, s, e in doc["seal"]["areas"]) == 5

    def test_write_load_write_gives_same_bytes(self, sealed):
        assert write_archive(load_archive(sealed)) == sealed

    @pytest.mark.parametrize("area", ["BIO", "CHE", "MED"])
    def test_area_load_decodes_only_its_records(self, sealed, area, monkeypatch):
        import vtrkit.model as model

        built = []
        hook = model._record_product
        monkeypatch.setattr(model, "_record_product", lambda obj: built.append(hook(obj)) or built[-1])
        dataset = load_archive_area(sealed, area)
        assert [obj for obj in built if type(obj) is Product] == list(dataset.products)
        assert dataset.products == load_archive(sealed).products_in(area)

    def test_absent_area_is_empty_discipline(self, sealed):
        with pytest.raises(PipelineError) as err:
            load_archive_area(sealed, "PHY").products_in("PHY")
        assert err.value.code == "empty_discipline"

    def test_unsealed_archive_loads_through_the_full_path(self):
        from conftest import FIXTURES

        pretty = (FIXTURES / "golden_dataset.json").read_text(encoding="utf-8")
        assert json.loads(pretty)["format"] == "vtrkit-dataset/1"
        for text in (pretty, json.dumps(json.loads(pretty))):
            assert load_archive_area(text, "BIO").products_in("BIO") == load_archive(text).products_in("BIO")

    @pytest.mark.parametrize("relayout", RELAYOUTS.values(), ids=RELAYOUTS.keys())
    @pytest.mark.parametrize("load", [load_archive, lambda text: load_archive_area(text, "CHE")], ids=["full", "area"])
    def test_relaid_out_sealed_archive_is_bad_archive(self, sealed, relayout, load):
        text = relayout(sealed)
        assert text != sealed
        with pytest.raises(PipelineError) as err:
            load(text)
        assert err.value.code == "bad_archive"

    @pytest.mark.parametrize("load", [load_archive, lambda text: load_archive_area(text, "CHE")], ids=["full", "area"])
    def test_changed_record_byte_in_another_area_is_bad_archive(self, sealed, load):
        damaged = sealed.replace('"product_id": "P5"', '"product_id": "P6"')
        assert damaged != sealed
        with pytest.raises(PipelineError) as err:
            load(damaged)
        assert (err.value.code, str(err.value)) == ("bad_archive", "the archive's bytes do not match its seal")


@pytest.mark.parametrize("enabled", [True, False], ids=["gc_enabled", "gc_disabled"])
def test_builds_keep_the_callers_gc_state(enabled, monkeypatch):
    """Parsing and loading pause cyclic GC while they build products, and give
    the caller back its own GC state, also when they fail."""
    import vtrkit.model as model

    archive = write_archive(parse_products(THREE_AREA_CSV)[0])
    seen = []
    hook = model._record_product
    monkeypatch.setattr(model, "_record_product", lambda obj: seen.append(gc.isenabled()) or hook(obj))
    builds = [
        lambda: parse_products(THREE_AREA_CSV),
        lambda: load_archive(archive),
        lambda: load_archive_area(archive, "MED"),
    ]
    failures = [
        lambda: load_archive("{not json"),
        lambda: load_archive(archive.replace("P5", "P6")),
        lambda: load_archive_area(archive.replace("P5", "P6"), "MED"),
    ]
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for build in builds:
            build()
            assert gc.isenabled() is enabled
        for fail in failures:
            with pytest.raises(PipelineError):
                fail()
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen and not any(seen)


def test_builds_leave_the_callers_gc_freeze_count():
    """Only the CLI freezes the collector: parsing and loading leave
    ``gc.isenabled()`` and ``gc.get_freeze_count()`` as they found them."""
    archive = write_archive(parse_products(THREE_AREA_CSV)[0])
    before = (gc.isenabled(), gc.get_freeze_count())
    for build in (
        lambda: parse_products(THREE_AREA_CSV),
        lambda: load_archive(archive),
        lambda: load_archive_area(archive, "MED"),
    ):
        build()
        assert (gc.isenabled(), gc.get_freeze_count()) == before
