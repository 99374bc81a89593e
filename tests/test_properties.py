"""Property tests: every way of building a product applies the same rules,
the CSV, the archive and the report agree on any valid dataset, the per-area
tables agree with each other, the report's battery is the public battery, a
fixed-precision cell is its value rounded half up on the repr, and a damaged archive, products file, staff table or synth config fails only
with a rejected-row report or a PipelineError."""

from __future__ import annotations

import bisect
import collections
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import re
import tempfile
from fractions import Fraction
from statistics import NormalDist

from hypothesis import example, given, settings
from hypothesis import strategies as st

from vtrkit.audit import ValidationReport
from vtrkit.battery import build_battery
from vtrkit.cli import main
from vtrkit.concordance import (
    VARIABLES,
    ProbabilityTriple,
    adjacent_rating_probabilities,
    chi_square_independence,
    contingency_table,
    pairwise_probabilities,
    peer_bibliometric_spearman,
)
from vtrkit.indicators import discipline_profile, rating_breakdown
from vtrkit.ingest import _LAX_NUMBER, _csv_rows, parse_products, serialize_products
from vtrkit.model import (
    AUTHORS_MAX,
    CHUNK,
    CITATIONS_MAX,
    PRODUCTS_HEADER,
    RATING_ORDER,
    TOKEN_RATINGS,
    YEAR_MAX,
    YEAR_MIN,
    Dataset,
    InvalidProduct,
    PeerRating,
    PipelineError,
    Product,
    ProductType,
    Provenance,
    _area_products,
    _product_row,
    load_archive,
    write_archive,
)
from vtrkit.numerics import average_ranks, student_t_two_sided
from vtrkit.report import build_report, render_report_json
from vtrkit.scoring import structure_ratings
from vtrkit.synth import DisciplineSpec, SynthConfig, generate_exercise, load_synth_config
from vtrkit.tables import fmt, fmt_p, fmt_pct

from conftest import archive_rows, group_stats, reseal, rewritten, round_half_up

# derandomized so tier-1 stays deterministic; small budgets keep it fast
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# commas, quotes, line ends and non-ASCII exercise CSV quoting and JSON escaping
identifiers = st.text(alphabet='PS1,"é x\r\n', min_size=1, max_size=3)


@st.composite
def products(draw, ids=identifiers) -> Product:
    n_authors = draw(st.integers(1, 2000))
    tr_indexed = draw(st.booleans())
    return Product(
        product_id=draw(ids),
        structure_id=draw(ids),
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
    writer = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)  # QUOTE_MINIMAL leaves a CR unquoted
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
    """Keyword and positional construction and a one-row products file give
    equal products, or fail with the same rule and message; an archive row
    gives the same product, or bad_archive with the same message."""
    outcomes = [
        _built(lambda: Product(**fields)),
        _built(lambda: Product(*(fields[name] for name in PRODUCTS_HEADER))),
        _parsed_row(fields),
    ]
    assert outcomes[1:] == outcomes[:1] * 2
    expected = outcomes[0] if type(outcomes[0]) is Product else ("bad_archive", f"invalid product row: {outcomes[0][1]}")
    assert _archive_row(fields) == expected


def _archive_row(fields: dict):
    """The product of the archive row of ``fields``, decoded as ``load_archive``
    decodes an area's rows, or the code and message of its error."""
    tokens = dict(fields, product_type=fields["product_type"].value, peer_rating=fields["peer_rating"].token)
    row = json.dumps([tokens[name] for name in PRODUCTS_HEADER])
    try:
        (product,) = _area_products(row, 0, len(row), fields["discipline"])
    except PipelineError as exc:
        return exc.code, str(exc)
    return product


@PROPERTY
@given(products())
def test_archive_record_is_the_json_of_its_fields(product):
    """The writer's row of a product is what json.dumps gives for the
    product's fields in PRODUCTS_HEADER order, with the product type and the
    peer rating as their tokens and an absent value as null."""
    fields = dict(product._asdict(), product_type=product.product_type.value, peer_rating=product.peer_rating.token)
    assert _product_row(product) == json.dumps([fields[name] for name in PRODUCTS_HEADER])


issues = st.lists(st.tuples(st.integers(0, 10**6), st.text(max_size=12), st.text(max_size=40)), max_size=6)
#: more issues than one ~8 KiB part of the record holds, their messages repeated
MANY_ISSUES = [(row, "unknown_discipline", f"discipline code 'X{row % 3}' is not a known area") for row in range(400)]


@PROPERTY
@given(issues, issues, st.integers(0, 10**6))
@example([(3, "rule", 'a "quoted" \\ line\n\x00\u00e9\U0001f600')], [], 0)
@example(MANY_ISSUES[:150], MANY_ISSUES, 400)
def test_report_json_parts_are_the_json_of_its_dict(errors, warnings, accepted):
    """The CLI's stderr record, written an f-string per issue, is what
    json.dumps gives for the report's dict with sorted keys."""
    report = ValidationReport(accepted_count=accepted)
    for row, rule, message in errors:
        report.error(row, rule, message)
    for row, rule, message in warnings:
        report.warn(row, rule, message)
    assert "".join(report.json_parts()) == json.dumps(report.as_dict(), sort_keys=True) + "\n"


def _dataset(ps) -> Dataset:
    return Dataset.from_products(ps, Provenance("gen.csv", "d" * 64, "2001-01-01T00:00:00+00:00"))


datasets = st.lists(products(), max_size=25, unique_by=lambda p: p.key).map(_dataset)


def _via_csv(dataset: Dataset) -> Dataset:
    parsed, report = parse_products(serialize_products(dataset))
    assert report.ok, report.errors
    return parsed


def _csv_writer_text(dataset: Dataset) -> str:
    """The products file of ``dataset`` as ``csv.writer`` renders it, which
    leaves a CR in a field unquoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(PRODUCTS_HEADER)
    writer.writerows(
        (
            pid,
            sid,
            discipline,
            year,
            ptype.value,
            rating.token,
            "true" if tr else "false",
            "" if cites is None else cites,
            "" if impact is None else repr(float(impact)),
            n_au,
            n_in,
        )
        for pid, sid, discipline, year, ptype, rating, tr, cites, impact, n_au, n_in in dataset.products
    )
    return out.getvalue()


def _piece_dataset() -> Dataset:
    """400 products whose ids, from P120 to P259, hold a ",", a ``"`` or a LF
    by turns, about the end of the first ~8 KiB piece of the products file."""
    marks = ',"\n'
    return _dataset(
        Product(**dict(VALID_FIELDS, product_id=f"P{i:03d}" + (marks[i % 3] if 120 <= i < 260 else "")))
        for i in range(400)
    )


def test_piece_dataset_has_quoted_identifiers_on_both_sides_of_a_piece_boundary():
    """The first piece of its products file, cut at the first line that starts
    after CHUNK characters, ends well inside P120 to P259, with or without the
    few characters each line's quotes add."""
    header = len(_csv_writer_text(_dataset([])))
    sizes = [len(_csv_writer_text(_dataset([p]))) - header for p in _piece_dataset().products]
    first = next(i for i in range(len(sizes)) if sum(sizes[:i]) >= CHUNK)
    assert 130 < first < 250


lf_identifiers = identifiers.filter(lambda text: "\r" not in text)


@PROPERTY
@given(st.lists(products(ids=lf_identifiers), max_size=25, unique_by=lambda p: p.key).map(_dataset))
@example(_dataset([]))
@example(_piece_dataset())
def test_serialized_products_are_the_csv_writer_rendering(dataset):
    """Without a CR in an identifier, the products file is what csv.writer
    writes, a field with a ",", a ``"`` or a LF in double quotes."""
    assert serialize_products(dataset) == _csv_writer_text(dataset)


@PROPERTY
@given(datasets)
@example(_dataset([]))
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


def _battery_dataset(rows, structures=None) -> Dataset:
    """Dataset of (area, rating token, tr_indexed, citations, journal_if) rows,
    row i under the structure ``structures[i]``, by default all under S1; a
    non-TR row drops its bibliometric values."""
    ps = []
    for i, (area, rating, tr_indexed, citations, journal_if) in enumerate(rows):
        ps.append(
            Product(
                product_id=f"P{i}",
                structure_id="S1" if structures is None else structures[i],
                discipline=area,
                year=2002,
                product_type=ProductType.JOURNAL_ARTICLE,
                peer_rating=TOKEN_RATINGS[rating],
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
                battery = build_battery(dataset.area(area), variable, coding)
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
            out.append((higher, lower, (greater, total - greater - equal, equal, total)))
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
        [(pair.higher, pair.lower, pair.triple and tuple(pair.triple)) for pair in battery.probabilities],
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
battery_rows = st.one_of(
    _rows(st.sampled_from("EGAL"), st.integers(0, 3), st.sampled_from([0, 0.0, -0.0, 2, 2.0, 2.5, 7.25])),
    _rows(st.sampled_from("EGAL"), st.integers(0, CITATIONS_MAX), st.floats(1e-6, 1e6)),
    _rows(st.sampled_from("EA") | st.sampled_from("GL"), st.integers(0, 20), st.floats(1e-6, 10.0)),
    _rows(st.sampled_from("EGAL"), st.just(4), st.just(1.5) | st.just(-0.0)),
    _rows(st.sampled_from("EGAL"), st.integers(0, 2), st.sampled_from([0.0, -0.0, 3.0]), max_size=4),
)
battery_samples = battery_rows.map(_battery_dataset)


@st.composite
def structure_samples(draw) -> Dataset:
    """Battery rows spread over several structures of the area; S0's
    products are never TR, so S0 has no TR product."""
    rows = draw(battery_rows)
    structures = draw(st.lists(st.sampled_from(["S0", "S1", "S2", "S3"]), min_size=len(rows), max_size=len(rows)))
    return _battery_dataset(
        [(area, rating, tr and s != "S0", c, j) for s, (area, rating, tr, c, j) in zip(structures, rows)], structures
    )


@PROPERTY
@given(battery_samples)
@example(_battery_dataset([("BIO", r, True, 1, v) for r, v in zip("LEEEE", (0.0, -0.0, 1.0, 2.0, 3.0))]))
@example(_battery_dataset([("BIO", r, True, 1, v) for r, v in zip("LEEEE", (-0.0, 0.0, 1.0, 2.0, 3.0))]))
def test_sorted_groups_battery_equals_per_product_battery(dataset):
    """The battery from sorted rating groups gives the per-product battery's
    cutpoints, counts, Spearman and probabilities bit for bit, and the same
    error codes, through the area's cache."""
    for area in dataset.disciplines:
        products = dataset.products_in(area)
        for variable in VARIABLES:
            for coding in ("quartile", "raw"):
                expected = _reference_facts(products, variable, coding)
                assert _battery_facts(build_battery(dataset.area(area), variable, coding)) == expected


@st.composite
def probability_triples(draw) -> ProbabilityTriple:
    """The triple of two hypothesis value lists, or one of counts too large
    for a float to hold, so that dividing them must round."""
    if draw(st.booleans()):
        values = st.lists(st.integers(0, 5) | st.floats(0, 10), min_size=1, max_size=40)
        return pairwise_probabilities(draw(values), draw(values))
    counts = draw(st.lists(st.integers(0, 2**80), min_size=3, max_size=3).filter(any))
    return ProbabilityTriple(*counts, sum(counts))


@PROPERTY
@given(probability_triples())
@example(ProbabilityTriple(1, 1, 1, 3))
def test_probability_floats_are_the_exact_fractions(triple):
    """The counts sum to ``pair_count``, and each probability is the float
    of the exact fraction, bit for bit."""
    assert triple.greater + triple.less + triple.equal == triple.pair_count
    exact = [float(Fraction(count, triple.pair_count)).hex() for count in triple[:3]]
    assert [p.hex() for p in triple.as_floats()] == exact


def _bits(*values) -> tuple:
    """``values`` with each float as its ``hex()``, so that equal means equal bit for bit."""
    return tuple(v.hex() if type(v) is float else v for v in values)


@PROPERTY
@given(structure_samples())
@example(  # S1 without TR products, S2's TR products without citations, S3's without impact factors
    _battery_dataset(
        [("BIO", "E", False, None, None), ("BIO", "G", True, None, 2.5), ("BIO", "L", True, 3, None)],
        ["S1", "S2", "S3"],
    )
)
def test_area_statistics_equal_per_product_statistics(dataset):
    """The structure ratings, the profile and the breakdown, pooled from rating
    groups, hold the per-product ``group_stats`` of each structure, of the area
    and of each rating, float for float."""
    for area in dataset.disciplines:
        products = dataset.products_in(area)
        structures = sorted({p.structure_id for p in products})
        ratings = structure_ratings(dataset, area)
        assert [r.structure_id for r in ratings] == structures
        for r in ratings:
            ref = group_stats([p for p in products if p.structure_id == r.structure_id])
            assert _bits(r.n_products, r.n_tr, r.peer_all, r.peer_tr, r.cites, r.impact) == _bits(
                ref.n, ref.n_tr, ref.peer_all, ref.peer_tr, ref.mean_citations, ref.mean_if
            )
        stats = group_stats(products)
        profile = discipline_profile(dataset, area)
        cites_over_if = None
        if stats.mean_citations is not None and stats.mean_if:
            cites_over_if = stats.mean_citations / stats.mean_if
        assert _bits(
            profile.size, profile.coverage, profile.peer_all, profile.peer_tr, profile.mean_citations,
            profile.cites_over_if, profile.mean_if, profile.h,
        ) == _bits(
            stats.n, stats.n_tr / stats.n, stats.peer_all, stats.peer_tr, stats.mean_citations,
            cites_over_if, stats.mean_if, stats.h,
        )

        def ratio(value, base):
            return None if value is None or not base else value / base

        rows = rating_breakdown(dataset, area)
        assert [row.rating for row in rows] == list(RATING_ORDER)
        for row in rows:
            part = group_stats([p for p in products if p.peer_rating == row.rating])
            assert _bits(
                row.count, row.share, row.mean_citations, row.citations_ratio, row.mean_if, row.if_ratio, row.h,
                row.h_ratio,
            ) == _bits(
                part.n, part.n / stats.n, part.mean_citations, ratio(part.mean_citations, stats.mean_citations),
                part.mean_if, ratio(part.mean_if, stats.mean_if), part.h if part.n_tr else None,
                part.h / stats.h if part.n_tr and stats.h else None,
            )

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


#: the lax-number pattern as first written, one alternative per case it rejects
REFERENCE_LAX_NUMBER = re.compile(r"[\s_]|[^\x00-\x7f]|(?:^|,)\+|,(?:-0|0[0-9])")
number_tokens = st.text(alphabet=st.sampled_from("0123456789-+.e_ \t\x1c\u0662,") | st.characters(), max_size=6)


@PROPERTY
@given(st.lists(number_tokens, min_size=5, max_size=5))
@example([" 2002 ", "2002", "1", "3", "2"])
@example(["1_000", "2002", "1", "3", "2"])
@example(["4.5", "\u0662\u0660\u0660\u0662", "1", "3", "2"])
@example(["4.5", "2002", "+12", "3", "2"])
@example(["+12", "2002", "1", "3", "2"])
@example(["4.5", "02002", "-0", "003", "2"])
@example(["1e+16", "2002", "1", "3", "2"])
@example(["02.50", "2002", "0", "3", "2"])
def test_lax_number_pattern_equals_its_reference(tokens):
    """The parser's lax-number check, on the numeric tokens joined as it joins
    them (journal_if first), flags exactly what the reference pattern flags."""
    joined = ",".join(tokens)
    assert bool(_LAX_NUMBER.search(joined)) == bool(REFERENCE_LAX_NUMBER.search(joined))


def test_lax_number_pattern_equals_its_reference_on_each_ascii_character():
    for text in (f"{a}{b}" for a in map(chr, range(128)) for b in ("", "1", "0", ",")):
        for joined in (text, "1," + text, "1" + text):
            assert bool(_LAX_NUMBER.search(joined)) == bool(REFERENCE_LAX_NUMBER.search(joined)), joined


def _record_start_lines(text: str) -> list[int]:
    """The line each non-empty record of ``text`` after the first starts on,
    read one record at a time, as a reference for the parser's issue rows;
    reading goes on after a record csv cannot split."""
    reader, lines = csv.reader(io.StringIO(text)), []
    while True:
        line = reader.line_num + 1
        try:
            if next(reader):
                lines.append(line)
        except StopIteration:
            return lines[1:]
        except csv.Error:
            lines.append(line)


@PROPERTY
@given(st.text(alphabet='Q,"\n\r', max_size=40))
@example('Q\rQ\nQ\n"Q\nQ"\nQ\n')
def test_issue_rows_are_record_start_lines(body):
    """Every record of a products file that no row can be accepted from gets
    its issues at the line the record starts on, after quoted line breaks and
    after records csv cannot split."""
    text = ",".join(PRODUCTS_HEADER) + "\n" + body
    _, report = parse_products(text)
    assert sorted({issue.row for issue in report.errors}) == _record_start_lines(text)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


_ROWS = ["P1,S1,BIO,2001,journal_article,E,true,4,2.5,2,1", "P2,S2,BIO,2002,book,G,false,,,3,3"]
ARCHIVE = write_archive(parse_products(",".join(PRODUCTS_HEADER) + "\n" + "\n".join(_ROWS) + "\n")[0])

#: every value of ARCHIVE as (container path, key): each field of each row, and each provenance key
FIELDS = [(("products", i), at) for i in range(len(_ROWS)) for at in range(len(PRODUCTS_HEADER))] + [
    (("provenance",), name) for name in ("source_name", "source_digest", "ingested_at")
]


@PROPERTY
@given(st.sampled_from(FIELDS), json_values)
def test_damaged_archive_raises_only_pipeline_error(field, value):
    (path, key) = field

    def damage(doc):
        container = doc
        for step in path:
            container = container[step]
        container[key] = value

    try:
        load_archive(rewritten(ARCHIVE, damage))
    except PipelineError:
        pass


@PROPERTY
@given(datasets, products(), st.integers(0, 24), st.integers(0, len(PRODUCTS_HEADER) - 1), json_values)
@example(_dataset([]), Product(**VALID_FIELDS), 0, 3, None)
def test_damaged_row_raises_only_pipeline_error(dataset, extra, at, field, value):
    """A row of a re-sealed archive with any JSON value in one field loads,
    or fails with a PipelineError, whole and by area.  The archive of an
    empty dataset is given the row of ``extra`` to damage."""
    archive = write_archive(dataset)
    rows = archive_rows(archive) or [_product_row(extra)]
    areas = [json.loads(row)[2] for row in rows]
    at %= len(rows)
    row = json.loads(rows[at])
    row[field] = value
    rows[at] = json.dumps(row)
    damaged = reseal(archive, rows, areas)
    for load in (load_archive, lambda text: load_archive(text, areas[at])):
        try:
            load(damaged)
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
        scoped = load_archive(archive, area)
        assert scoped.provenance == full.provenance
        assert _outcome(scoped.products_in, area) == _outcome(full.products_in, area)


_AREA_ROWS = [*_ROWS, "P3,S3,MED,2003,journal_article,A,true,1,0.5,1,1", "P4,S3,MED,2003,book,L,false,,,1,1"]
SEALED = write_archive(parse_products(",".join(PRODUCTS_HEADER) + "\n" + "\n".join(_AREA_ROWS) + "\n")[0])
EMPTY_SEALED = write_archive(_dataset([]))


@PROPERTY
@given(st.sampled_from([SEALED, EMPTY_SEALED]), st.data())
def test_changed_byte_of_a_sealed_archive_is_bad_archive(sealed, data):
    """One changed ASCII byte anywhere in a sealed archive, of four products or
    of none, gives bad_archive on report --all, and on a command that reads an
    area other than the byte's."""
    at = data.draw(st.integers(0, len(sealed) - 1))
    char = data.draw(st.characters(max_codepoint=127).filter(lambda c: c != sealed[at]))
    damaged_line = sealed[sealed.rfind("\n", 0, at) + 1 : sealed.find("\n", at) + 1]
    area = "BIO" if '"MED"' in damaged_line else "MED"
    commands = [["report", "--all"], ["probability", "--discipline", area]]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dataset.json")
        with open(path, "wb") as f:
            f.write((sealed[:at] + char + sealed[at + 1 :]).encode("utf-8"))
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
SYNTH_FIELDS = frozenset(SynthConfig._fields)
SPEC_FIELDS = frozenset(DisciplineSpec._fields)
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
    # _asdict is shallow: each discipline entry gives its own
    loaded = json.loads(json.dumps(dict(config._asdict(), disciplines=[s._asdict() for s in config.disciplines])))
    if "disciplines" in doc:
        doc["disciplines"] = [dict({"coverage": 0.85}, **entry) for entry in entries]
    assert {key: loaded[key] for key in doc} == doc



def reference_exercise(config: SynthConfig) -> list[Product]:
    """The generator's draws written one helper per draw, with a fresh
    ``random.Random`` per structure's substream, shared by its count and its
    products: the reference ``generate_exercise`` must match product for
    product."""
    normal = NormalDist()

    def substream(*key: object) -> random.Random:
        digest = hashlib.sha256("|".join(str(k) for k in key).encode("utf-8")).digest()
        return random.Random(int.from_bytes(digest, "big"))

    def uniform(rng):
        return min(max(rng.random(), 1e-12), 1.0 - 1e-16)

    def rand_int(rng, lo, hi):
        return lo + min(int(rng.random() * (hi - lo + 1)), hi - lo)

    def rand_normal(rng):
        return normal.inv_cdf(uniform(rng))

    def rating_from_quality(u):
        t1, t2, t3 = config.rating_thresholds
        if u >= 1.0 - t1:
            return PeerRating.EXCELLENT
        if u >= 1.0 - t2:
            return PeerRating.GOOD
        if u >= 1.0 - t3:
            return PeerRating.ACCEPTABLE
        return PeerRating.LIMITED

    def uncovered_type(rng):
        draw = rng.random()
        acc = 0.0
        for ptype, share in (
            (ProductType.JOURNAL_ARTICLE, 0.40),
            (ProductType.BOOK, 0.30),
            (ProductType.CHAPTER, 0.14),
            (ProductType.PROCEEDINGS, 0.10),
            (ProductType.PATENT, 0.04),
            (ProductType.OTHER, 0.02),
        ):
            acc += share
            if draw < acc:
                return ptype
        return ProductType.OTHER

    def author_counts(rng):
        if rng.random() < config.hyperauthor_rate:
            n_authors = rand_int(rng, 100, 1500)
        else:
            n_authors = max(1, int(round(2.0 * math.exp(0.9 * abs(rand_normal(rng))))))
        internal = 1 + sum(1 for _ in range(n_authors - 1) if rng.random() < config.internal_author_share)
        return n_authors, min(internal, n_authors)

    def generate_product(rng, spec, structure_id, index):
        u = uniform(rng)
        rating = rating_from_quality(u)
        covered = rng.random() < spec.coverage
        year = rand_int(rng, config.year_min, config.year_max)
        product_type = ProductType.JOURNAL_ARTICLE if covered else uncovered_type(rng)
        n_authors, n_internal = author_counts(rng)
        citations = journal_if = None
        if covered:
            rho = config.target_rho
            z_biblio = rho * normal.inv_cdf(u) + math.sqrt(1.0 - rho * rho) * rand_normal(rng)
            citations = int(round(math.exp(math.log(4.0) + config.citation_dispersion * z_biblio)))
            journal_if = max(0.001, round(config.if_scale * math.exp(0.4 * z_biblio + 0.25 * rand_normal(rng)), 3))
        product_id = f"P-{spec.code}-{structure_id}-{index:04d}"
        fields = (year, product_type, rating, covered, citations, journal_if, n_authors, n_internal)
        return Product(product_id, structure_id, spec.code, *fields)

    products = []
    for spec in config.disciplines:
        for s in range(1, spec.n_structures + 1):
            structure_id = f"S{s:03d}"
            rng = substream(config.seed, spec.code, structure_id)
            n_products = rand_int(rng, spec.products_min, spec.products_max)
            products += (generate_product(rng, spec, structure_id, index) for index in range(1, n_products + 1))
    return products


#: a small config document, of one to three areas of at most 12 products
small_config_documents = st.fixed_dictionaries(
    {"disciplines": st.lists(discipline_entries, min_size=1, max_size=3, unique_by=lambda e: e["code"])},
    optional=CONFIG_VALUES,
)


@PROPERTY
@given(small_config_documents)
@example(
    {
        "hyperauthor_rate": 1.0,
        "internal_author_share": 0.0,
        "target_rho": -0.9,
        "disciplines": [{"code": "X", "n_structures": 2, "products_min": 1, "products_max": 4, "coverage": 0.0}],
    }
)
@example({"citation_dispersion": 50.0, "disciplines": [{"code": "X", "n_structures": 3, "products_min": 4, "products_max": 4}]})
def test_generator_matches_its_reference(doc):
    """Any small config gives the reference's products, repr for repr, or
    fails as the reference does (a draw past a product bound), as invalid_config."""
    config = load_synth_config(json.dumps(doc))
    try:
        expected = reference_exercise(config)
    except (InvalidProduct, OverflowError) as exc:
        expected = exc
    try:
        generated = generate_exercise(config)
    except PipelineError as exc:
        assert isinstance(expected, Exception), exc
        assert exc.code == "invalid_config" and str(exc).endswith(f": config yields an invalid product: {expected}")
        return
    reference = Dataset.from_products(expected, generated.provenance)
    assert generated == reference
    assert repr(generated.products) == repr(reference.products)


def _half_up_text(x: float, digits: int) -> str:
    return f"{round_half_up(x, digits):.{digits}f}"


def assert_cells_round_half_up(x: float, digits: int) -> None:
    """``fmt``, ``fmt_pct`` and ``fmt_p`` give what ``round_half_up`` gives."""
    assert fmt(x, digits) == _half_up_text(x, digits), (x, digits)
    assert fmt_pct(x) == _half_up_text(100.0 * x, 2) + "%", x
    if x >= 0.001:
        assert fmt_p(x) == _half_up_text(x, 3), x


@st.composite
def fixed_cells(draw) -> tuple[float, int]:
    """A number of places and a float: any finite float whose percentage is
    finite too, small ones in exponent form among them, or a decimal tie at
    those places, ``k / 10**(d+1)`` with k an odd multiple of 5 (negative
    too), or one of its two float neighbours."""
    digits = draw(st.integers(1, 4))
    tie = (10 * draw(st.integers(-(10**10), 10**10)) + 5) / 10 ** (digits + 1)
    near_tie = st.sampled_from([tie, math.nextafter(tie, math.inf), math.nextafter(tie, -math.inf)])
    return draw(st.floats(-1e306, 1e306) | st.floats(-1e-3, 1e-3) | near_tie), digits


@PROPERTY
@given(fixed_cells())
@example((-0.0, 2))
@example((2.675, 2))  # a tie in its repr, just below it in binary
@example((-0.125, 2))
@example((1e-05, 4))  # exponent reprs, small and large
@example((5e-05, 4))  # a tie in exponent form
@example((-5e-05, 4))
@example((1.25e-05, 1))  # "1.25" alone would be a tie at one place; the exponent makes it none
@example((1.5e16, 1))
@example((1.25e16, 1))
@example((1e26, 2))  # beyond a 28-digit decimal context
@example((1e300, 2))
@example((1e24, 2))  # its percentage is 1e26
@example((999999999.995, 2))
@example((1e9 + 0.25, 1))
def test_fixed_cells_round_half_up_on_the_repr(cell):
    assert_cells_round_half_up(*cell)


def test_fixed_cells_round_every_tie_of_a_grid_half_up():
    """Every tie ``k / 10**(d+1)`` of a grid, with and without an integer
    part, and both float neighbours of each."""
    for digits in range(1, 5):
        scale = 10 ** (digits + 1)
        for k in range(-10_005, 10_006, 10):
            for tie in (k / scale, (k + 987_654 * scale) / scale):
                for x in (tie, math.nextafter(tie, math.inf), math.nextafter(tie, -math.inf)):
                    assert fmt(x, digits) == _half_up_text(x, digits), (x, digits)
