"""Property tests: every way of building a product applies the same rules,
the CSV, the archive and the report agree on any valid dataset, the per-area
tables agree with each other, the report's battery is the public battery, and
a damaged archive, products file, staff table or synth config fails only
with a rejected-row report or a PipelineError."""

from __future__ import annotations

import bisect
import collections
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import tempfile
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from vtrkit.cli import main
from vtrkit.concordance import (
    VARIABLES,
    adjacent_rating_probabilities,
    chi_square_independence,
    contingency_table,
    peer_bibliometric_spearman,
)
from vtrkit.indicators import discipline_profile, group_stats, rating_breakdown
from vtrkit.model import (
    AUTHORS_MAX,
    CITATIONS_MAX,
    PRODUCTS_HEADER,
    RATING_ORDER,
    YEAR_MAX,
    YEAR_MIN,
    Dataset,
    InvalidProduct,
    PeerRating,
    PipelineError,
    Product,
    ProductType,
    Provenance,
    _csv_rows,
    _product_record,
    _record_product,
    load_archive,
    load_archive_area,
    parse_products,
    serialize_products,
    write_archive,
)
from vtrkit.numerics import average_ranks, student_t_two_sided
from vtrkit.report import build_battery, build_report, render_report_json
from vtrkit.scoring import structure_ratings
from vtrkit.synth import DisciplineSpec, SynthConfig, load_synth_config

from conftest import unsealed_doc

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


#: one field's value that may break a product rule, as (field, strategy)
RULE_BREAKERS = [
    ("product_id", st.just("")),
    ("discipline", st.just("")),
    ("year", st.sampled_from([YEAR_MIN - 1, YEAR_MAX + 1])),
    ("tr_indexed", st.just(False)),
    ("citations", st.integers(-2, -1) | st.just(CITATIONS_MAX + 1)),
    ("journal_if", st.floats()),
    ("n_authors", st.integers(-1, 0) | st.just(AUTHORS_MAX + 1)),
    ("n_internal_authors", st.just(-1) | st.integers(5, 6)),
]


@st.composite
def field_sets(draw) -> dict:
    """The fields of one valid product, or of one with a field drawn from
    ``RULE_BREAKERS`` in place of its valid value."""
    tr_indexed = draw(st.booleans())
    fields = {
        "product_id": draw(identifiers),
        "structure_id": draw(identifiers),
        "discipline": draw(st.sampled_from(["BIO", "NANO"])),
        "year": draw(st.integers(YEAR_MIN, YEAR_MAX)),
        "product_type": draw(st.sampled_from(list(ProductType))),
        "peer_rating": draw(st.sampled_from(list(PeerRating))),
        "tr_indexed": tr_indexed,
        "citations": draw(st.none() | st.integers(0, 20)) if tr_indexed else None,
        "journal_if": draw(st.none() | st.just(0.0) | st.floats(1e-6, 1e6)) if tr_indexed else None,
        "n_authors": draw(st.integers(1, 4)),
    }
    fields["n_internal_authors"] = draw(st.integers(0, fields["n_authors"]))
    breaker = draw(st.none() | st.sampled_from(RULE_BREAKERS))
    if breaker is not None:
        name, values = breaker
        fields[name] = draw(values)
    return fields


VALID_FIELDS = {
    "product_id": "P1",
    "structure_id": "S1",
    "discipline": "BIO",
    "year": 2002,
    "product_type": ProductType.JOURNAL_ARTICLE,
    "peer_rating": PeerRating.GOOD,
    "tr_indexed": True,
    "citations": 3,
    "journal_if": 1.5,
    "n_authors": 2,
    "n_internal_authors": 1,
}


def _built(build):
    """The product ``build`` returns, or the rule id and message it raises."""
    try:
        return build()
    except InvalidProduct as exc:
        return exc.rule, str(exc)


def _parsed_row(fields: dict):
    """The product of a one-row products file, or its one error's rule and message."""
    tokens = dict(
        fields,
        product_type=fields["product_type"].value,
        peer_rating=fields["peer_rating"].token,
        tr_indexed="true" if fields["tr_indexed"] else "false",
    )
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(PRODUCTS_HEADER)
    writer.writerow(["" if tokens[name] is None else tokens[name] for name in PRODUCTS_HEADER])
    dataset, report = parse_products(out.getvalue())
    if dataset is not None:
        return dataset.products[0]
    (issue,) = report.errors
    return issue.rule, issue.message


@PROPERTY
@given(field_sets())
@example(VALID_FIELDS)
@example(dict(VALID_FIELDS, tr_indexed=False, citations=None, journal_if=None))
@example(dict(VALID_FIELDS, journal_if=float("nan")))
@example(dict(VALID_FIELDS, n_authors=0))
def test_every_construction_path_applies_the_same_rules(fields):
    """Keyword and positional construction, the archive hook and a one-row
    products file give equal products, or fail with the same rule and message."""
    record = dict(
        {name: value for name, value in fields.items() if value is not None},
        product_type=fields["product_type"].value,
        peer_rating=fields["peer_rating"].token,
    )
    outcomes = [
        _built(lambda: Product(**fields)),
        _built(lambda: Product(*(fields[name] for name in PRODUCTS_HEADER))),
        _built(lambda: json.loads(json.dumps(record), object_hook=_record_product)),
        _parsed_row(fields),
    ]
    assert outcomes[1:] == outcomes[:1] * 3


@PROPERTY
@given(products())
def test_archive_record_is_the_json_of_its_fields(product):
    """The writer's record of a product is what json.dumps gives for the
    product's fields with sorted keys, without the absent ones, and it
    decodes back to the product."""
    record = _product_record(product)
    decoded = json.loads(record)
    assert None not in decoded.values()
    assert json.dumps(decoded, sort_keys=True) == record
    assert _record_product(decoded) == product


def _dataset(ps) -> Dataset:
    return Dataset.from_products(ps, Provenance("gen.csv", "d" * 64, "2001-01-01T00:00:00+00:00"))


datasets = st.lists(products(), max_size=25, unique_by=lambda p: p.key).map(_dataset)


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


def _battery_dataset(rows) -> Dataset:
    """Dataset of (area, rating token, tr_indexed, citations, journal_if) rows;
    a non-TR row drops its bibliometric values."""
    ps = []
    for i, (area, rating, tr_indexed, citations, journal_if) in enumerate(rows):
        ps.append(
            Product(
                product_id=f"P{i}",
                structure_id="S1",
                discipline=area,
                year=2002,
                product_type=ProductType.JOURNAL_ARTICLE,
                peer_rating=PeerRating.from_token(rating),
                tr_indexed=tr_indexed,
                citations=citations if tr_indexed else None,
                journal_if=journal_if if tr_indexed else None,
                n_authors=2,
                n_internal_authors=1,
            )
        )
    return _dataset(ps)


#: two areas of ~20 products, mostly TR, with tied citation counts: large
#: enough for every battery statistic, small enough to shrink quickly
battery_datasets = st.lists(
    st.tuples(
        st.sampled_from(["BIO", "MED"]),
        st.sampled_from("EGAL"),
        st.sampled_from([True, True, True, False]),
        st.none() | st.integers(0, 12),
        st.none() | st.just(0.0) | st.floats(1e-6, 1e6),
    ),
    max_size=40,
).map(_battery_dataset)


def _outcome(call, *args):
    try:
        return call(*args)
    except PipelineError as exc:
        return f"{exc.code}: {exc}"


@PROPERTY
@given(battery_datasets)
@example(_battery_dataset([("BIO", "E", False, 1, 2.0), ("BIO", "G", True, None, None)]))  # no TR values
@example(_battery_dataset([("BIO", r, True, c, 2.0) for r, c in zip("EEAAA", (3, 5, 1, 4, 0))]))  # empty G and L
def test_report_battery_equals_public_battery(dataset):
    """build_battery gives what the public entry points give on the same
    products: their results, or their errors as notes in call order."""
    for area in dataset.disciplines:
        products = dataset.products_in(area)
        for variable in VARIABLES:
            for coding in ("quartile", "raw"):
                battery = build_battery(products, variable, coding)
                table = _outcome(contingency_table, products, variable)
                if isinstance(table, str):
                    assert (battery.contingency, battery.notes, battery.probabilities) == (None, [table], [])
                    continue
                chi = _outcome(chi_square_independence, table.counts)
                rho = _outcome(peer_bibliometric_spearman, products, variable, coding)
                assert battery.contingency == table
                assert battery.chi_square == (None if isinstance(chi, str) else chi)
                assert battery.product_spearman == (None if isinstance(rho, str) else rho)
                assert battery.notes == [r for r in (chi, rho) if isinstance(r, str)]
                assert battery.probabilities == adjacent_rating_probabilities(products, variable)


class PerProductBattery:
    """The battery computed product by product, as it was before the sorted
    rating groups: the (rating, float value) pairs in product order, quartile
    codes per product, Spearman over the per-product ranks and probabilities
    from per-rating value lists.  The reference the sorted groups must equal."""

    def __init__(self, products, variable):
        pairs = [(p.peer_rating, float(getattr(p, variable))) for p in products if getattr(p, variable) is not None]
        self.variable, self.ratings, self.values = variable, [r for r, _ in pairs], [v for _, v in pairs]

    def _nonempty_values(self):
        if not self.values:
            raise PipelineError("no_bibliometric_data", "no values")
        return self.values

    def bins(self):
        ordered = sorted(self._nonempty_values())

        def quantile(q):
            h = (len(ordered) - 1) * q
            lo = math.floor(h)
            frac = h - lo
            return ordered[lo] if frac == 0.0 else ordered[lo] + frac * (ordered[lo + 1] - ordered[lo])

        return tuple(quantile(q) for q in (0.25, 0.50, 0.75))

    def codes(self):
        cuts = self.bins()
        return [bisect.bisect_left(cuts, v) + 1 for v in self.values]

    def counts(self):
        tally = collections.Counter(zip(self.ratings, self.codes()))
        return tuple(tuple(tally[r, code] for code in (1, 2, 3, 4)) for r in RATING_ORDER)

    def spearman(self, coding):
        x, y = self.ratings, self.codes() if coding == "quartile" else self._nonempty_values()
        n = len(x)
        if n < 3:
            raise PipelineError("too_few_points", "n < 3")
        if min(x) == max(x) or min(y) == max(y):
            raise PipelineError("constant_variable", "constant")
        dx = [r - (n + 1) / 2 for r in average_ranks(x)]
        dy = [r - (n + 1) / 2 for r in average_ranks(y)]
        num = math.fsum(a * b for a, b in zip(dx, dy))
        rho = max(-1.0, min(1.0, num / math.sqrt(math.fsum(a * a for a in dx) * math.fsum(b * b for b in dy))))
        p = 0.0 if abs(rho) == 1.0 else student_t_two_sided(rho * math.sqrt((n - 2) / (1.0 - rho * rho)), n - 2)
        return rho.hex(), p.hex(), n

    def probabilities(self):
        groups = {r: [v for q, v in zip(self.ratings, self.values) if q == r] for r in RATING_ORDER}
        out = []
        for higher, lower in zip(RATING_ORDER, RATING_ORDER[1:]):
            xs, ys = groups[higher], sorted(groups[lower])
            if not xs or not ys:
                out.append((higher, lower, None))
                continue
            greater = sum(bisect.bisect_left(ys, x) for x in xs)
            equal = sum(bisect.bisect_right(ys, x) for x in xs) - greater
            total = len(xs) * len(ys)
            out.append((higher, lower, (Fraction(greater, total), Fraction(total - greater - equal, total), total)))
        return out


def _code_or(call, *args):
    """``call(*args)``, or the code of the PipelineError it raises."""
    try:
        return call(*args)
    except PipelineError as exc:
        return exc.code


def _battery_facts(battery):
    """What the report shows of a battery, floats as ``.hex()``."""
    table, spearman = battery.contingency, battery.product_spearman
    return (
        None if table is None else (tuple(c.hex() for c in table.bins.cutpoints), table.counts),
        None if spearman is None else (spearman.coefficient.hex(), spearman.p_value.hex(), spearman.n),
        [(pair.higher, pair.lower, pair.triple and (pair.triple.p_greater, pair.triple.p_less, pair.triple.pair_count))
         for pair in battery.probabilities],
        [note.split(":")[0] for note in battery.notes],
    )


def _reference_facts(products, variable, coding):
    ref = PerProductBattery(products, variable)
    cuts = _code_or(ref.bins)
    if isinstance(cuts, str):
        return None, None, [], [cuts]
    counts = ref.counts()
    chi = _code_or(chi_square_independence, counts)
    rho = _code_or(ref.spearman, coding)
    return (
        (tuple(c.hex() for c in cuts), counts),
        None if isinstance(rho, str) else rho,
        ref.probabilities(),
        [r for r in (chi, rho) if isinstance(r, str)],
    )


def _rows(ratings, citations, impact, max_size=40):
    """One area's (area, rating, tr_indexed, citations, journal_if) rows."""
    row = st.tuples(st.just("BIO"), ratings, st.sampled_from([True, True, True, False]), st.none() | citations,
                    st.none() | impact)
    return st.lists(row, max_size=max_size)


#: heavily tied values (ints among the impact factors, and both zeros),
#: untied ones, ratings with empty groups, constant values and tiny samples
battery_samples = st.one_of(
    _rows(st.sampled_from("EGAL"), st.integers(0, 3), st.sampled_from([0, 0.0, -0.0, 2, 2.0, 2.5, 7.25])),
    _rows(st.sampled_from("EGAL"), st.integers(0, CITATIONS_MAX), st.floats(1e-6, 1e6)),
    _rows(st.sampled_from("EA") | st.sampled_from("GL"), st.integers(0, 20), st.floats(1e-6, 10.0)),
    _rows(st.sampled_from("EGAL"), st.just(4), st.just(1.5) | st.just(-0.0)),
    _rows(st.sampled_from("EGAL"), st.integers(0, 2), st.sampled_from([0.0, -0.0, 3.0]), max_size=4),
).map(_battery_dataset)


@PROPERTY
@given(battery_samples)
@example(_battery_dataset([("BIO", r, True, 1, v) for r, v in zip("LEEEE", (0.0, -0.0, 1.0, 2.0, 3.0))]))
@example(_battery_dataset([("BIO", r, True, 1, v) for r, v in zip("LEEEE", (-0.0, 0.0, 1.0, 2.0, 3.0))]))
def test_sorted_groups_battery_equals_per_product_battery(dataset):
    """The battery from sorted rating groups gives the per-product battery's
    cutpoints, counts, Spearman and probabilities bit for bit, and the same
    error codes; through an area's cache as through a product sequence."""
    for area in dataset.disciplines:
        products = dataset.products_in(area)
        for variable in VARIABLES:
            for coding in ("quartile", "raw"):
                expected = _reference_facts(products, variable, coding)
                assert _battery_facts(build_battery(products, variable, coding)) == expected
                assert _battery_facts(build_battery(dataset.area(area), variable, coding)) == expected


@PROPERTY
@given(battery_samples)
def test_area_statistics_equal_per_product_statistics(dataset):
    """The profile and breakdown, built from the area's rating groups, hold
    the per-product ``group_stats`` of the area and of each rating."""
    for area in dataset.disciplines:
        products = dataset.products_in(area)
        stats = group_stats(products)
        profile = discipline_profile(dataset, area)
        assert (profile.size, profile.peer_all, profile.peer_tr, profile.mean_citations, profile.mean_if, profile.h) == (
            stats.n, stats.peer_all, stats.peer_tr, stats.mean_citations, stats.mean_if, stats.h
        )
        for row in rating_breakdown(dataset, area):
            part = group_stats([p for p in products if p.peer_rating == row.rating])
            assert (row.count, row.mean_citations, row.mean_if) == (part.n, part.mean_citations, part.mean_if)
            assert row.h == (part.h if part.n_tr else None)


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
    doc = unsealed_doc(ARCHIVE)
    (path, key) = field
    container = doc
    for step in path:
        container = container[step]
    container[key] = value
    try:
        load_archive(json.dumps(doc))
    except PipelineError:
        pass


@PROPERTY
@given(datasets)
def test_area_load_equals_full_load(dataset):
    """Loading one area of a sealed archive gives the products and provenance
    of the full load, or the same empty_discipline error for an absent area."""
    archive = write_archive(dataset)
    full = load_archive(archive)
    for area in [*full.disciplines, "PHY"]:
        scoped = load_archive_area(archive, area)
        assert scoped.provenance == full.provenance
        assert _outcome(scoped.products_in, area) == _outcome(full.products_in, area)


_AREA_ROWS = [*_ROWS, "P3,S3,MED,2003,journal_article,A,true,1,0.5,1,1", "P4,S3,MED,2003,book,L,false,,,1,1"]
SEALED = write_archive(parse_products(",".join(PRODUCTS_HEADER) + "\n" + "\n".join(_AREA_ROWS) + "\n")[0])


@PROPERTY
@given(st.data())
def test_changed_byte_of_a_sealed_archive_is_bad_archive(data):
    """One changed ASCII byte anywhere in a sealed archive gives bad_archive on
    report --all, and on a command that reads an area other than the byte's."""
    at = data.draw(st.integers(0, len(SEALED) - 1))
    char = data.draw(st.characters(max_codepoint=127).filter(lambda c: c != SEALED[at]))
    damaged_line = SEALED[SEALED.rfind("\n", 0, at) + 1 : SEALED.find("\n", at) + 1]
    area = "BIO" if '"discipline": "MED"' in damaged_line else "MED"
    commands = [["report", "--all"], ["probability", "--discipline", area]]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dataset.json")
        with open(path, "wb") as f:
            f.write((SEALED[:at] + char + SEALED[at + 1 :]).encode("utf-8"))
        for argv in commands:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([*argv, "--dataset", path, "--out", os.path.join(tmp, "out")])
            assert (code, json.loads(err.getvalue())["error"]) == (1, "bad_archive"), (argv, err.getvalue())


def test_line_end_changed_to_carriage_return_is_bad_archive(tmp_path, capsys):
    """The CLI reads an archive without newline translation, so a line end
    changed to a carriage return is a changed byte like any other."""
    path = tmp_path / "dataset.json"
    path.write_bytes(SEALED.replace("\n", "\r", 4).replace("\r", "\n", 3).encode("utf-8"))
    assert main(["probability", "--dataset", str(path), "--discipline", "MED"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "bad_archive"


STAFF = "structure_id,kind,avg_staff\nS1,university,8\nS2,agency,2.5\n"

#: one command per damaged input file, which the command reads from {path}
DAMAGED_INPUTS = {
    "products": (serialize_products(load_archive(ARCHIVE)), ["ingest", "--products", "{path}"]),
    "staff": (STAFF, ["validate", "--dataset", "{archive}", "--staff", "{path}"]),
}


@PROPERTY
@given(st.sampled_from(sorted(DAMAGED_INPUTS)), st.data())
def test_damaged_csv_ends_in_a_report_or_pipeline_error(kind, data):
    """One damaged byte in a products file or staff table gives a rejected-row
    report or one PipelineError record, never an internal_error."""
    text, argv = DAMAGED_INPUTS[kind]
    original = text.encode("utf-8")
    at = data.draw(st.integers(0, len(original) - 1))
    byte = data.draw(st.sampled_from(b'\r\n",') | st.integers(0, 255))  # CSV syntax, or any byte
    damaged = original[:at] + bytes([byte]) + original[at + 1 :]
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"path": os.path.join(tmp, "input.csv"), "archive": os.path.join(tmp, "dataset.json")}
        with open(paths["path"], "wb") as f:
            f.write(damaged)
        with open(paths["archive"], "w", encoding="utf-8") as f:
            f.write(ARCHIVE)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([arg.format(**paths) for arg in argv] + ["--out", os.path.join(tmp, "out")])
    records = [json.loads(line) for line in err.getvalue().splitlines()]
    assert code in (0, 1)
    assert all(record.get("error") != "internal_error" for record in records), records


#: a valid value of each SynthConfig knob (year_max's default, 2003, splits the year range)
CONFIG_VALUES = {
    "seed": st.integers(-(2**70), 2**70),
    "target_rho": st.floats(-0.99, 0.99),
    "rating_thresholds": st.lists(st.floats(0.01, 0.99), min_size=3, max_size=3, unique=True).map(sorted),
    "citation_dispersion": st.floats(0.1, 3.0),
    "if_scale": st.floats(0.1, 3.0),
    "year_min": st.integers(YEAR_MIN, 2003),
    "year_max": st.integers(2003, YEAR_MAX),
    "internal_author_share": st.floats(0.0, 1.0),
    "hyperauthor_rate": st.floats(0.0, 1.0),
}
discipline_entries = st.fixed_dictionaries(
    {
        "code": st.sampled_from(["BIO", "MED", "X"]),
        "n_structures": st.integers(1, 3),
        "products_min": st.integers(1, 2),
        "products_max": st.integers(2, 4),
    },
    optional={"coverage": st.floats(0.0, 1.0)},
)
config_documents = st.fixed_dictionaries(
    {},
    optional=dict(
        CONFIG_VALUES, disciplines=st.lists(discipline_entries, min_size=1, max_size=3, unique_by=lambda e: e["code"])
    ),
)
SYNTH_FIELDS = frozenset(f.name for f in dataclasses.fields(SynthConfig))
SPEC_FIELDS = frozenset(f.name for f in dataclasses.fields(DisciplineSpec))
CONFIG_DAMAGE = ["none", "wrong_value", "unknown_key", "missing_key", "extra_entry", "repeated_code"]


@PROPERTY
@given(config_documents, st.sampled_from(CONFIG_DAMAGE), st.data())
def test_config_document_ends_in_a_config_or_invalid_config(doc, damage, data):
    """A valid config document with at most one damage (a value that may be
    wrong, an unknown or missing key, one more discipline entry that may not
    be an object, or a repeated code) loads to the SynthConfig it spells out
    or fails with invalid_config; an unknown key at either level and a
    repeated code always fail."""
    entries = doc.get("disciplines", [])
    target = data.draw(st.sampled_from([doc, *entries]))
    if damage == "wrong_value":
        key = data.draw(st.sampled_from(sorted(SYNTH_FIELDS if target is doc else SPEC_FIELDS)))
        target[key] = data.draw(json_values)
    elif damage == "unknown_key":
        target[data.draw(st.text(max_size=8))] = data.draw(json_values)
    elif damage == "missing_key" and target:
        del target[data.draw(st.sampled_from(sorted(target)))]
    elif damage == "extra_entry" and entries:
        entries.append(data.draw(json_values | discipline_entries))
    elif damage == "repeated_code" and entries:
        entries.append(dict(data.draw(discipline_entries), code=entries[0]["code"]))

    entries = doc["disciplines"] if type(doc.get("disciplines")) is list else []
    unknown = doc.keys() - SYNTH_FIELDS or any(type(e) is dict and e.keys() - SPEC_FIELDS for e in entries)
    codes = [e.get("code") for e in entries if type(e) is dict]
    try:
        config = load_synth_config(json.dumps(doc))
    except PipelineError as exc:
        assert exc.code == "invalid_config"
        return
    assert not unknown and len(set(codes)) == len(codes)
    loaded = json.loads(json.dumps(dataclasses.asdict(config)))
    if "disciplines" in doc:
        doc["disciplines"] = [dict({"coverage": 0.85}, **entry) for entry in entries]
    assert {key: loaded[key] for key in doc} == doc
