"""Property tests: the CSV, the archive and the report agree on any valid
dataset, the per-area tables agree with each other, and a damaged archive
fails only with a PipelineError."""

from __future__ import annotations

import csv
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from vtrkit.indicators import discipline_profile, rating_breakdown
from vtrkit.model import (
    PRODUCTS_HEADER,
    YEAR_MAX,
    YEAR_MIN,
    Dataset,
    PeerRating,
    PipelineError,
    Product,
    ProductType,
    Provenance,
    _csv_rows,
    load_archive,
    parse_products,
    serialize_products,
    write_archive,
)
from vtrkit.report import build_report, render_report_json
from vtrkit.scoring import structure_ratings

# derandomized so tier-1 stays deterministic; small budgets keep it fast
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# commas, quotes and non-ASCII exercise CSV quoting and JSON escaping
identifiers = st.text(alphabet='PS1,"é x', min_size=1, max_size=3)


@st.composite
def products(draw) -> Product:
    n_authors = draw(st.integers(1, 2000))
    tr_indexed = draw(st.booleans())
    return Product(
        product_id=draw(identifiers),
        structure_id=draw(identifiers),
        discipline=draw(st.sampled_from(["BIO", "MED", "NANO"])),
        year=draw(st.integers(YEAR_MIN, YEAR_MAX)),
        product_type=draw(st.sampled_from(list(ProductType))),
        peer_rating=draw(st.sampled_from(list(PeerRating))),
        tr_indexed=tr_indexed,
        citations=draw(st.none() | st.integers(0, 10**6)) if tr_indexed else None,
        journal_if=draw(st.none() | st.just(0.0) | st.floats(1e-6, 1e6)) if tr_indexed else None,
        n_authors=n_authors,
        n_internal_authors=draw(st.integers(0, n_authors)),
    )


datasets = st.lists(products(), max_size=25, unique_by=lambda p: p.key).map(
    lambda ps: Dataset.from_products(ps, Provenance("gen.csv", "d" * 64, "2001-01-01T00:00:00+00:00"))
)


def _via_csv(dataset: Dataset) -> Dataset:
    parsed, report = parse_products(serialize_products(dataset))
    assert report.ok, report.errors
    return parsed


@PROPERTY
@given(datasets)
def test_csv_archive_round_trip(dataset):
    parsed = _via_csv(dataset)
    archive = write_archive(parsed)
    loaded = load_archive(archive)
    assert loaded.products == dataset.products
    assert write_archive(loaded) == archive


@PROPERTY
@given(datasets.filter(len))
def test_report_from_csv_equals_report_from_archive(dataset):
    parsed = _via_csv(dataset)
    from_csv = render_report_json(build_report(parsed, min_products=1))
    from_archive = render_report_json(build_report(load_archive(write_archive(parsed)), min_products=1))
    assert from_archive == from_csv


@PROPERTY
@given(datasets)
def test_per_area_tables_count_the_same_products(dataset):
    for area in dataset.disciplines:
        size = discipline_profile(dataset, area).size
        ratings = structure_ratings(dataset, area)
        assert sum(row.count for row in rating_breakdown(dataset, area)) == size
        assert sum(r.n_products for r in ratings) == size
        assert sum(r.n_tr for r in ratings) == sum(p.tr_indexed for p in dataset.products_in(area))


@PROPERTY
@given(st.text(alphabet='a,"\n\r', max_size=30))
def test_csv_rows_equal_stringio_rows(text):
    """The parsers split their text into lines without copying it; the rows
    are those csv.reader reads from io.StringIO, quoted line breaks included."""
    def read(reader):
        try:
            return list(reader)
        except csv.Error as exc:  # a lone carriage return in an unquoted field
            return str(exc)

    assert read(_csv_rows(text)) == read(csv.reader(io.StringIO(text)))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


_ROWS = ["P1,S1,BIO,2001,journal_article,E,true,4,2.5,2,1", "P2,S2,BIO,2002,book,G,false,,,3,3"]
ARCHIVE = write_archive(parse_products(",".join(PRODUCTS_HEADER) + "\n" + "\n".join(_ROWS) + "\n")[0])

#: every value of ARCHIVE as (container path, key)
FIELDS = [(("products", i), name) for i in range(len(_ROWS)) for name in PRODUCTS_HEADER] + [
    (("provenance",), name) for name in ("source_name", "source_digest", "ingested_at")
]


@PROPERTY
@given(st.sampled_from(FIELDS), json_values)
def test_damaged_archive_raises_only_pipeline_error(field, value):
    doc = json.loads(ARCHIVE)
    (path, key) = field
    container = doc
    for step in path:
        container = container[step]
    container[key] = value
    try:
        load_archive(json.dumps(doc))
    except PipelineError:
        pass
