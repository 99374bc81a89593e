"""Domain model, file ingestion, and dataset validation.

A *product* is one research output submitted for assessment by a structure
(university or research agency) under a disciplinary area.  Each product
carries a peer rating on the four-point E/G/A/L scale and, when the product
is covered by the citation database, optional bibliometric values (citation
count and journal impact factor).
"""

from __future__ import annotations

import csv
import enum
import gc
import hashlib
import io
import json
import re
import sys
from collections import namedtuple
from dataclasses import dataclass, field, fields
from functools import cached_property, wraps
from itertools import groupby
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping

__all__ = [
    "PRODUCTS_HEADER",
    "STAFF_HEADER",
    "KNOWN_DISCIPLINES",
    "YEAR_MIN",
    "YEAR_MAX",
    "CITATIONS_MAX",
    "AUTHORS_MAX",
    "JOURNAL_IF_MIN",
    "JOURNAL_IF_MAX",
    "PipelineError",
    "InvalidProduct",
    "PeerRating",
    "RATING_ORDER",
    "ProductType",
    "Product",
    "Provenance",
    "Dataset",
    "Area",
    "Issue",
    "ValidationReport",
    "IngestConfig",
    "StaffRecord",
    "SelectionPolicy",
    "parse_products",
    "read_text_file",
    "parse_products_file",
    "serialize_products",
    "parse_staff",
    "validate_dataset",
    "archive_lines",
    "write_archive",
    "load_archive",
    "load_archive_area",
]

PRODUCTS_HEADER = (
    "product_id",
    "structure_id",
    "discipline",
    "year",
    "product_type",
    "peer_rating",
    "tr_indexed",
    "citations",
    "journal_if",
    "n_authors",
    "n_internal_authors",
)

STAFF_HEADER = ("structure_id", "kind", "avg_staff")

#: Disciplinary areas covered by the reference analysis; other codes are
#: accepted at ingestion with a warning.
KNOWN_DISCIPLINES = ("MCS", "PHY", "CHE", "EAS", "BIO", "MED", "AVM", "CEA", "IIE", "ECS")

#: Publication years a product may carry.
YEAR_MIN = 1900
YEAR_MAX = 2100

#: Bounds that keep every sum, mean and ratio over a product set finite:
#: citation counts, author counts, and nonzero impact factors.
CITATIONS_MAX = 10**9
AUTHORS_MAX = 10**6
JOURNAL_IF_MIN = 1e-6
JOURNAL_IF_MAX = 1e6

#: The format ``archive_lines`` writes, sealed; archives of the unsealed
#: format before it still load.
ARCHIVE_FORMAT = "vtrkit-dataset/2"
UNSEALED_FORMAT = "vtrkit-dataset/1"

_FLOAT_MAX = sys.float_info.max


class PipelineError(Exception):
    """Domain error carrying a stable machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class InvalidProduct(ValueError):
    """A product value breaks one of the rules checked by ``Product``."""

    def __init__(self, rule: str, message: str):
        super().__init__(message)
        self.rule = rule


class PeerRating(enum.IntEnum):
    """Four-point peer rating scale, ordered Excellent > Good > Acceptable > Limited;
    each member carries its products-file ``token`` and the committee's fixed ``weight``."""

    EXCELLENT = 4, "E", 1.0
    GOOD = 3, "G", 0.8
    ACCEPTABLE = 2, "A", 0.6
    LIMITED = 1, "L", 0.2

    def __new__(cls, value: int, token: str, weight: float) -> "PeerRating":
        member = int.__new__(cls, value)
        member._value_ = value
        member.token = token
        member.weight = weight
        return member

    @classmethod
    def from_token(cls, token: str) -> "PeerRating":
        try:
            return _TOKEN_RATINGS[token]
        except KeyError:
            raise ValueError(f"unknown peer rating token {token!r}") from None


_TOKEN_RATINGS = {r.token: r for r in PeerRating}

#: Display order used by every report: best rating first.
RATING_ORDER = tuple(PeerRating)


class ProductType(enum.Enum):
    JOURNAL_ARTICLE = "journal_article"
    BOOK = "book"
    CHAPTER = "chapter"
    PROCEEDINGS = "proceedings"
    PATENT = "patent"
    OTHER = "other"


_PRODUCT_TYPES = {t.value: t for t in ProductType}

_tuple_new = tuple.__new__

#: a product's identity, and the order of a Dataset's products
_product_key = attrgetter("discipline", "structure_id", "product_id")
_DUPLICATE_PRODUCT = "duplicate (discipline, structure_id, product_id) triple {}"


class Product(namedtuple("Product", PRODUCTS_HEADER)):
    """One submitted research output under a (structure, discipline) pair: an
    immutable tuple of the ``PRODUCTS_HEADER`` fields, checked when it is built."""

    __slots__ = ()

    def __new__(
        cls,
        product_id: str,
        structure_id: str,
        discipline: str,
        year: int,
        product_type: ProductType,
        peer_rating: PeerRating,
        tr_indexed: bool,
        citations: int | None,
        journal_if: float | None,
        n_authors: int,
        n_internal_authors: int,
    ) -> "Product":
        # The one product rule set: every input path builds a Product, and
        # ``_make``, ``_replace``, copies and unpickling all come through here,
        # so each rule below is checked here and nowhere else.  Types are
        # checked exactly (``type(x) is int`` also rejects bool) to keep this
        # cheap.
        if type(product_id) is not str or type(structure_id) is not str or type(discipline) is not str:
            raise InvalidProduct(
                "empty_identifier",
                "product_id, structure_id and discipline must be strings, "
                f"got {(discipline, structure_id, product_id)!r}",
            )
        if not product_id or not structure_id or not discipline:
            raise InvalidProduct("empty_identifier", "product_id, structure_id and discipline are required")
        # a structure's and an area's products share one copy of its code
        structure_id = sys.intern(structure_id)
        discipline = sys.intern(discipline)
        if type(tr_indexed) is not bool:
            raise InvalidProduct("malformed_boolean", f"tr_indexed must be true|false, got {tr_indexed!r}")
        if type(year) is not int or type(n_authors) is not int or type(n_internal_authors) is not int:
            raise InvalidProduct(
                "malformed_number",
                "year, n_authors and n_internal_authors must be integers, "
                f"got {(year, n_authors, n_internal_authors)!r}",
            )
        if not YEAR_MIN <= year <= YEAR_MAX:
            raise InvalidProduct("year_out_of_range", f"year {year} outside [{YEAR_MIN}, {YEAR_MAX}]")
        if n_authors < 1:
            raise InvalidProduct("nonpositive_authors", f"n_authors must be >= 1, got {n_authors}")
        if not 0 <= n_internal_authors <= n_authors:
            raise InvalidProduct(
                "author_bounds", f"n_internal_authors {n_internal_authors} outside [0, {n_authors}]"
            )
        if citations is not None:
            if type(citations) is not int:
                raise InvalidProduct("malformed_number", f"citations must be an integer, got {citations!r}")
            if citations < 0:
                raise InvalidProduct("malformed_number", f"citations must be >= 0, got {citations}")
        if journal_if is not None:
            if type(journal_if) is not float and type(journal_if) is not int:
                raise InvalidProduct("malformed_number", f"journal_if must be a number, got {journal_if!r}")
            # false for NaN, the infinities and integers beyond float range
            if not -_FLOAT_MAX <= journal_if <= _FLOAT_MAX:
                raise InvalidProduct("non_finite_number", f"journal_if must be finite, got {journal_if!r}")
            if journal_if < 0:
                raise InvalidProduct("malformed_number", f"journal_if must be >= 0, got {journal_if}")
        if not tr_indexed and (citations is not None or journal_if is not None):
            raise InvalidProduct("bibliometrics_on_uncovered", "citations/journal_if present but tr_indexed is false")
        if (
            n_authors > AUTHORS_MAX
            or (citations is not None and citations > CITATIONS_MAX)
            or (journal_if and not JOURNAL_IF_MIN <= journal_if <= JOURNAL_IF_MAX)
        ):
            raise InvalidProduct(
                "value_out_of_range",
                f"n_authors must be <= {AUTHORS_MAX}, citations <= {CITATIONS_MAX} and journal_if 0 or in "
                f"[{JOURNAL_IF_MIN:g}, {JOURNAL_IF_MAX:g}], got {n_authors}, {citations} and {journal_if!r}",
            )
        return _tuple_new(
            cls,
            (
                product_id,
                structure_id,
                discipline,
                year,
                product_type,
                peer_rating,
                tr_indexed,
                citations,
                journal_if,
                n_authors,
                n_internal_authors,
            ),
        )

    @classmethod
    def _make(cls, iterable: Iterable) -> "Product":
        # namedtuple's own _make (which _replace calls) would skip the rules
        return cls(*iterable)

    key = property(_product_key)


@dataclass(frozen=True)
class Provenance:
    source_name: str
    source_digest: str
    ingested_at: str


@dataclass(frozen=True)
class Dataset:
    """Immutable, canonically ordered collection of products.

    Products are sorted by (discipline, structure_id, product_id), so the
    dataset built from a given set of rows never depends on input row order.
    Keys must strictly increase; an equal pair is a duplicate product.
    """

    products: tuple[Product, ...]
    provenance: Provenance

    def __post_init__(self) -> None:
        keys = map(_product_key, self.products)
        prev = next(keys, None)
        for key in keys:
            if prev == key:
                raise PipelineError("duplicate_product", _DUPLICATE_PRODUCT.format(key))
            if prev > key:
                raise ValueError("products must be in key order; build the dataset with Dataset.from_products")
            prev = key

    @classmethod
    def from_products(cls, products: Iterable[Product], provenance: Provenance) -> "Dataset":
        return cls(products=tuple(sorted(products, key=_product_key)), provenance=provenance)

    def __len__(self) -> int:
        return len(self.products)

    @cached_property
    def _by_discipline(self) -> dict[str, Area]:
        # key order puts each discipline's products in one run, in sorted order
        return {d: Area(tuple(run)) for d, run in groupby(self.products, attrgetter("discipline"))}

    @property
    def disciplines(self) -> tuple[str, ...]:
        return tuple(self._by_discipline)

    def area(self, discipline: str) -> Area:
        """The discipline's products and the statistics' cache of them; a
        discipline without any products is an error."""
        try:
            return self._by_discipline[discipline]
        except KeyError:
            raise PipelineError("empty_discipline", f"no products for discipline {discipline!r}") from None

    def products_in(self, discipline: str) -> tuple[Product, ...]:
        """The discipline's products in key order; a discipline without any is an error."""
        return self.area(discipline).products


class RatingGroup:
    """What the per-area statistics read of one rating's products: the product
    and TR counts, and the citation counts and impact factors present, in an
    order no statistic depends on: the battery sorts them in place."""

    __slots__ = ("rating", "n", "n_tr", "citations", "journal_if")

    def __init__(self, rating: PeerRating):
        self.rating, self.n, self.n_tr = rating, 0, 0
        self.citations: list[int] = []
        self.journal_if: list[float] = []


class Area:
    """One area's products in key order, and the parts the per-area builders
    derive from them, each built on first use and kept, so a report reads
    each product's fields once and a single table builds only its own parts."""

    def __init__(self, products: tuple[Product, ...]):
        self.products = products
        self._parts: dict = {}

    @cached_property
    def by_rating(self) -> tuple[RatingGroup, ...]:
        """The rating groups in ``RATING_ORDER``, from one pass over the products."""
        groups = {rating: RatingGroup(rating) for rating in RATING_ORDER}
        for p in self.products:
            group = groups[p.peer_rating]
            group.n += 1
            if p.tr_indexed:  # Product's bibliometrics_on_uncovered rule: only TR products carry values
                group.n_tr += 1
                if (citations := p.citations) is not None:
                    group.citations.append(citations)
                if (journal_if := p.journal_if) is not None:
                    group.journal_if.append(journal_if)
        return tuple(groups.values())

    def part(self, build: Callable):
        """``build(self)``, built on first use and kept."""
        if build not in self._parts:
            self._parts[build] = build(self)
        return self._parts[build]


@dataclass(frozen=True)
class Issue:
    row: int
    rule: str
    message: str


@dataclass
class ValidationReport:
    errors: list[Issue] = field(default_factory=list)
    warnings: list[Issue] = field(default_factory=list)
    accepted_count: int = 0

    @property
    def ok(self) -> bool:
        return not self.errors

    def error(self, row: int, rule: str, message: str) -> None:
        self.errors.append(Issue(row, rule, message))

    def warn(self, row: int, rule: str, message: str) -> None:
        self.warnings.append(Issue(row, rule, message))

    def as_dict(self) -> dict:
        return {
            "accepted_count": self.accepted_count,
            "errors": [vars(i) for i in self.errors],
            "warnings": [vars(i) for i in self.warnings],
        }


@dataclass(frozen=True)
class IngestConfig:
    source_name: str = "<stream>"


@dataclass(frozen=True)
class StaffRecord:
    structure_id: str
    kind: str  # "university" | "agency"
    avg_staff: float


@dataclass(frozen=True)
class SelectionPolicy:
    """Submission-cap policy: products may not exceed ``cap_fraction`` of the
    structure's full-time-equivalent researchers.

    A university researcher counts as 0.5 FTE (teaching duties), an agency
    researcher as 1.0, so the default cap is 25% of university staff and 50%
    of agency staff.
    """

    staff: Mapping[str, StaffRecord] | None = None
    cap_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0 <= self.cap_fraction <= _FLOAT_MAX:  # false for NaN too
            raise PipelineError("bad_cap", f"cap must be a finite number >= 0, got {self.cap_fraction!r}")

    def cap_for(self, record: StaffRecord) -> float:
        fte = 0.5 if record.kind == "university" else 1.0
        return self.cap_fraction * fte * record.avg_staff


_BOOLEAN_TOKENS = {"true": True, "false": False}

# the lines io.StringIO would give (split after each "\n"), as slices of the
# text instead of a second, four-bytes-per-character copy of it
_LINE = re.compile(r"[^\n]*\n|[^\n]+")

# what int() and float() accept beyond a plain ASCII number: surrounding
# whitespace, digit separators, non-ASCII digits, a leading "+", and an integer's
# leading zeros or "-0"; searched in the tokens joined by "," (which neither
# accepts), journal_if first, so each token's start shows and only integers follow a ","
_LAX_NUMBER = re.compile(r"[\s_]|[^\x00-\x7f]|(?:^|,)\+|,(?:-0|0[0-9])")


def _csv_rows(text: str) -> Iterator[list[str]]:
    return csv.reader(map(re.Match.group, _LINE.finditer(text)))


def _csv_records(text: str) -> Iterator[tuple[int, list[str] | csv.Error]]:
    """The rows of ``_csv_rows``, each with the line it starts on (the first
    line is 1), and with each record csv cannot split (such as a lone carriage
    return in an unquoted field) given as its ``csv.Error``; reading goes on at
    the next line."""
    reader = _csv_rows(text)
    while True:
        line = reader.line_num + 1
        try:
            yield line, next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            yield line, exc


def _gc_paused(build):
    """``build`` with cyclic garbage collection paused while it runs: each
    product holds enum members, so every product stays tracked, and the
    collections a build of thousands of them sets off find no garbage.  The
    caller's ``gc.isenabled()`` state is restored however ``build`` ends."""

    @wraps(build)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


def read_text_file(path: str, newline: str | None = None) -> str:
    """The text of the UTF-8 file at ``path``, with ``open``'s ``newline``
    handling; a file that is not UTF-8 is a ``bad_encoding`` PipelineError."""
    with open(path, "r", encoding="utf-8", newline=newline) as f:
        try:
            return f.read()
        except UnicodeDecodeError as exc:
            raise PipelineError("bad_encoding", f"input is not UTF-8 text: {exc}") from None


@_gc_paused
def parse_products(text: str, config: IngestConfig = IngestConfig()) -> tuple[Dataset | None, ValidationReport]:
    """Parse the products file format into a Dataset.

    Every accepted row becomes exactly one product; rejected rows are listed
    in the report with a row number and rule id.  If any error is recorded no
    dataset is produced.
    """
    report = ValidationReport()
    # rows are read one at a time: only the accepted products are kept
    rows = _csv_records(text)
    _, header = next(rows, (1, None))
    if not isinstance(header, list) or tuple(header) != PRODUCTS_HEADER:
        report.error(1, "bad_header", f"header must be exactly {','.join(PRODUCTS_HEADER)}")
        return None, report

    products: dict[tuple[str, str, str], Product] = {}
    for lineno, row in rows:
        if isinstance(row, csv.Error):
            report.error(lineno, "malformed_csv", f"malformed CSV: {row}")
            continue
        if not row:
            continue
        if len(row) != len(PRODUCTS_HEADER):
            report.error(lineno, "field_count", f"expected {len(PRODUCTS_HEADER)} fields, got {len(row)}")
            continue
        (
            product_id,
            structure_id,
            discipline,
            year_tok,
            type_tok,
            rating_tok,
            tr_tok,
            cit_tok,
            if_tok,
            na_tok,
            ni_tok,
        ) = row

        bad = False
        rating = _TOKEN_RATINGS.get(rating_tok)
        if rating is None:
            report.error(lineno, "unknown_rating", f"unknown peer rating token {rating_tok!r}")
            bad = True

        ptype = _PRODUCT_TYPES.get(type_tok)
        if ptype is None:
            report.error(lineno, "unknown_product_type", f"unknown product type {type_tok!r}")
            bad = True

        tr_indexed = _BOOLEAN_TOKENS.get(tr_tok)
        if tr_indexed is None:
            report.error(lineno, "malformed_boolean", f"tr_indexed must be true|false, got {tr_tok!r}")
            bad = True

        try:
            year = int(year_tok)
            citations = None if cit_tok == "" else int(cit_tok)
            journal_if = None if if_tok == "" else float(if_tok)
            n_authors = int(na_tok)
            n_internal = int(ni_tok)
            if _LAX_NUMBER.search(",".join((if_tok, year_tok, cit_tok, na_tok, ni_tok))):
                raise ValueError(
                    "year, citations, journal_if, n_authors and n_internal_authors must be plain ASCII numbers, "
                    "without whitespace, '_', a leading '+' or an integer's leading zeros or '-0', "
                    f"got {(year_tok, cit_tok, if_tok, na_tok, ni_tok)!r}"
                )
        except ValueError as exc:
            report.error(lineno, "malformed_number", str(exc))
            bad = True
        if bad:
            continue

        try:
            product = Product(
                product_id,
                structure_id,
                discipline,
                year,
                ptype,
                rating,
                tr_indexed,
                citations,
                journal_if,
                n_authors,
                n_internal,
            )
        except InvalidProduct as exc:
            report.error(lineno, exc.rule, str(exc))
            continue

        key = product.key  # holds the product's shared codes, so the row's copies are freed
        if key in products:
            report.error(lineno, "duplicate_product", _DUPLICATE_PRODUCT.format(key))
            continue

        if discipline not in KNOWN_DISCIPLINES:
            report.warn(lineno, "unknown_discipline", f"discipline code {discipline!r} is not a known area")
        if tr_indexed and citations is None:
            report.warn(
                lineno,
                "tr_missing_citations",
                f"product {product_id!r} is TR-indexed but has no citation count; "
                "it is excluded from citation means",
            )
        products[key] = product

    report.accepted_count = len(products)
    if not report.ok:
        return None, report

    from datetime import datetime, timezone  # only ingestion stamps a time; no archive query imports it

    provenance = Provenance(
        source_name=config.source_name,
        source_digest=hashlib.sha256(text.encode("utf-8")).hexdigest(),
        ingested_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )
    return Dataset.from_products(products.values(), provenance), report


def parse_products_file(path: str) -> tuple[Dataset | None, ValidationReport]:
    return parse_products(read_text_file(path, newline=""), IngestConfig(source_name=path))


def serialize_products(dataset: Dataset) -> str:
    """Render a dataset back to the products file format in canonical order."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(PRODUCTS_HEADER)
    for p in dataset.products:
        writer.writerow(
            [
                p.product_id,
                p.structure_id,
                p.discipline,
                p.year,
                p.product_type.value,
                p.peer_rating.token,
                "true" if p.tr_indexed else "false",
                "" if p.citations is None else p.citations,
                "" if p.journal_if is None else repr(float(p.journal_if)),  # shortest round-trip form
                p.n_authors,
                p.n_internal_authors,
            ]
        )
    return out.getvalue()


def parse_staff(text: str) -> dict[str, StaffRecord]:
    """Parse the optional staff table (structure_id,kind,avg_staff)."""
    rows = _csv_records(text)
    _, header = next(rows, (1, None))
    if not isinstance(header, list) or tuple(header) != STAFF_HEADER:
        raise PipelineError("bad_staff_header", f"staff header must be {','.join(STAFF_HEADER)}")
    records: dict[str, StaffRecord] = {}
    for lineno, row in rows:
        if isinstance(row, csv.Error):
            raise PipelineError("bad_staff_row", f"row {lineno}: malformed CSV: {row}")
        if not row:
            continue
        if len(row) != 3:
            raise PipelineError("bad_staff_row", f"row {lineno}: expected 3 fields")
        structure_id, kind, staff_tok = row
        if kind not in ("university", "agency"):
            raise PipelineError("bad_staff_kind", f"row {lineno}: kind must be university|agency")
        try:
            avg_staff = float(staff_tok)
        except ValueError:
            raise PipelineError("bad_staff_number", f"row {lineno}: avg_staff must be numeric") from None
        if not 0 <= avg_staff <= _FLOAT_MAX:  # false for NaN too
            raise PipelineError("bad_staff_number", f"row {lineno}: avg_staff must be a finite number >= 0")
        if structure_id in records:
            raise PipelineError("bad_staff_row", f"row {lineno}: structure {structure_id!r} is listed twice")
        records[structure_id] = StaffRecord(structure_id, kind, avg_staff)
    return records


def validate_dataset(dataset: Dataset, policy: SelectionPolicy | None = None) -> ValidationReport:
    """Flag TR-indexed products without citations and audit submission caps.

    Cap violations are warnings, never errors: the tool audits historic or
    synthetic data rather than enforcing submission rules.
    """
    report = ValidationReport(accepted_count=len(dataset))
    for p in dataset.products:
        if p.tr_indexed and p.citations is None:
            report.warn(0, "tr_missing_citations", f"product {p.product_id!r} is TR-indexed without a citation count")

    if policy is not None and policy.staff:
        submitted: dict[str, set[str]] = {}
        for p in dataset.products:
            submitted.setdefault(p.structure_id, set()).add(p.product_id)
        for structure_id in sorted(submitted):
            record = policy.staff.get(structure_id)
            if record is None:
                continue
            cap = policy.cap_for(record)
            count = len(submitted[structure_id])
            if count > cap:
                report.warn(
                    0,
                    "cap_exceeded",
                    f"structure {structure_id!r} submitted {count} products, cap is {cap:g} "
                    f"({record.kind}, avg staff {record.avg_staff:g})",
                )
    return report


def _product_record(p: Product) -> str:
    """The product's archive record: the JSON that ``json.dumps`` gives for its
    fields with sorted keys, ``citations`` and ``journal_if`` left out when
    absent.  It is written in one f-string, which is faster than building a
    dict for ``json.dumps``: every value is an exact int, bool, finite float
    or str (``Product`` checks), so ``repr`` and ``_quote`` give the same bytes."""
    citations = "" if p.citations is None else f'"citations": {p.citations}, '
    journal_if = "" if p.journal_if is None else f'"journal_if": {float(p.journal_if)!r}, '
    return (
        f'{{{citations}"discipline": {_quote(p.discipline)}, {journal_if}"n_authors": {p.n_authors}, '
        f'"n_internal_authors": {p.n_internal_authors}, "peer_rating": "{p.peer_rating.token}", '
        f'"product_id": {_quote(p.product_id)}, "product_type": "{p.product_type.value}", '
        f'"structure_id": {_quote(p.structure_id)}, "tr_indexed": {"true" if p.tr_indexed else "false"}, '
        f'"year": {p.year}}}'
    )


def archive_lines(dataset: Dataset) -> Iterator[str]:
    """The canonical archive, line by line: a JSON document with the format
    and provenance first, then one product record per line, keys sorted,
    floats in their shortest round-trip form, so re-emitting a loaded archive
    gives the same bytes.  A trailing seal indexes each area's records and
    holds the sha256 of every byte before it.  A dataset without products has
    nothing to index and is written unsealed, as ``UNSEALED_FORMAT``."""
    products = dataset.products
    head = (
        f'{{"format": "{ARCHIVE_FORMAT if products else UNSEALED_FORMAT}",\n'
        f'"provenance": {json.dumps(vars(dataset.provenance), sort_keys=True)},\n'
        '"products": [\n'
    )
    if not products:
        yield head + "\n]}\n"
        return
    yield head
    digest = hashlib.sha256(head.encode("utf-8"))
    starts: list[tuple[str, int]] = []  # each area, and where its first record starts in the products block
    area, at, last = None, 0, len(products) - 1
    for i, p in enumerate(products):
        line = _product_record(p) + (",\n" if i < last else "\n")
        if p.discipline != area:
            area = p.discipline
            starts.append((area, at))
        at += len(line)
        digest.update(line.encode("utf-8"))
        yield line
    # an area's records end where the next area's start, less the ",\n" between them
    ends = [start - 2 for _, start in starts[1:]] + [at - 1]
    areas = [[area, start, end] for (area, start), end in zip(starts, ends)]
    seal = f'],\n"seal": {{"areas": {json.dumps(areas)}, "sha256": "'
    digest.update(seal.encode("utf-8"))
    yield seal + digest.hexdigest() + '"}}\n'


def write_archive(dataset: Dataset) -> str:
    """The archive of ``archive_lines`` as one string."""
    return "".join(archive_lines(dataset))


#: The keys of a product record; all but ``citations`` and ``journal_if``
#: are always written.
_RECORD_KEYS = frozenset(PRODUCTS_HEADER)
_REQUIRED_RECORD_KEYS = len(_RECORD_KEYS) - 2
_PROVENANCE_KEYS = frozenset(f.name for f in fields(Provenance))
_FORMAT_KEYS = {
    UNSEALED_FORMAT: frozenset(("format", "provenance", "products")),
    ARCHIVE_FORMAT: frozenset(("format", "provenance", "products", "seal")),
}

# A sealed archive is read by its lines, so it must keep the writer's layout:
# the format line, then the provenance and products-opening lines, and at the
# end the line that closes the products and the seal line.
_SEALED_HEAD = f'{{"format": "{ARCHIVE_FORMAT}",\n'
_SEALED_HEAD_REST = re.compile(r'"provenance": (\{[^\n]*\}),\n"products": \[\n')
_SEALED_TAIL = re.compile(r'\],\n"seal": \{"areas": (\[[^\n]*\]), "sha256": "([0-9a-f]{64})"\}\}\n')
_LAYOUT_ERROR = f"a {ARCHIVE_FORMAT} archive must keep the canonical line layout of its writer"
#: characters hashed at a time: checking a seal never copies the whole text,
#: and a chunk this small is reused from the heap instead of raising peak memory
_DIGEST_CHUNK = 1 << 16


def _record_product(obj: dict):
    """``load_archive``'s object hook: a JSON object with a ``product_id`` key
    becomes its Product as soon as it is decoded, and fails on a key that is
    not a product field; any other object is kept."""
    if "product_id" not in obj:
        return obj
    # a missing key fails its lookup below, so any key beyond those read is unknown
    if len(obj) > _REQUIRED_RECORD_KEYS + ("citations" in obj) + ("journal_if" in obj):
        raise ValueError(f"unknown keys {sorted(obj.keys() - _RECORD_KEYS)}")
    return Product(
        obj["product_id"],
        obj["structure_id"],
        obj["discipline"],
        obj["year"],
        _PRODUCT_TYPES[obj["product_type"]],
        _TOKEN_RATINGS[obj["peer_rating"]],
        obj["tr_indexed"],
        obj.get("citations"),
        obj.get("journal_if"),
        obj["n_authors"],
        obj["n_internal_authors"],
    )


def _decode(text: str):
    """``text`` as JSON, each product record built into its Product."""
    try:
        return json.loads(text, object_hook=_record_product)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep to decode
        raise PipelineError("bad_archive", f"archive is not valid JSON: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:  # ValueError covers InvalidProduct
        raise PipelineError("bad_archive", f"invalid product record: {exc}") from None


def _provenance(prov) -> Provenance:
    if not isinstance(prov, dict) or prov.keys() != _PROVENANCE_KEYS or not all(type(v) is str for v in prov.values()):
        raise PipelineError(
            "bad_archive", f"archive provenance must be an object of the keys {sorted(_PROVENANCE_KEYS)}, all strings"
        )
    return Provenance(**prov)


def _unseal(text: str) -> tuple[str, int, str]:
    """Check the layout and the seal of a sealed archive.  Returns the JSON
    text of its provenance, the offset its products block starts at, and the
    JSON text of its area index."""
    last_line = text.rfind("\n", 0, len(text) - 1) + 1
    head = _SEALED_HEAD_REST.match(text, len(_SEALED_HEAD))
    tail = _SEALED_TAIL.fullmatch(text, max(last_line - len("],\n"), 0))
    if not text.startswith(_SEALED_HEAD) or head is None or tail is None:
        raise PipelineError("bad_archive", _LAYOUT_ERROR)
    end = tail.start(2)
    digest = hashlib.sha256()
    for at in range(0, end, _DIGEST_CHUNK):
        digest.update(text[at : min(at + _DIGEST_CHUNK, end)].encode("utf-8", "surrogatepass"))
    if digest.hexdigest() != tail[2]:
        raise PipelineError("bad_archive", "the archive's bytes do not match its seal")
    return head[1], head.end(), tail[1]


@_gc_paused
def load_archive(text: str) -> Dataset:
    """The dataset of an archive: every record is decoded and checked, and a
    sealed archive's seal too."""
    sealed = text.startswith(_SEALED_HEAD)
    if sealed:
        _unseal(text)
    doc = _decode(text)
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt == ARCHIVE_FORMAT and not sealed:
        raise PipelineError("bad_archive", _LAYOUT_ERROR)
    if fmt not in (ARCHIVE_FORMAT, UNSEALED_FORMAT):
        raise PipelineError("bad_archive", f"expected archive format {ARCHIVE_FORMAT!r} or {UNSEALED_FORMAT!r}")
    # every archive the writer has produced carries exactly these keys, so a
    # missing key is as bad as an unknown one
    if doc.keys() != _FORMAT_KEYS[fmt]:
        raise PipelineError(
            "bad_archive", f"{fmt} archive keys must be exactly {sorted(_FORMAT_KEYS[fmt])}, got {sorted(doc)}"
        )
    products = doc["products"]
    if not isinstance(products, list) or not all(type(p) is Product for p in products):
        raise PipelineError("bad_archive", "archive products must be a list of product records")
    return Dataset.from_products(products, _provenance(doc["provenance"]))


@_gc_paused
def load_archive_area(text: str, discipline: str) -> Dataset:
    """The dataset of ``discipline``'s products alone, for a command that reads
    one area.  A sealed archive is checked whole through its seal, and then only
    the area's records are decoded; an archive without one goes through
    ``load_archive``.  Either way ``products_in(discipline)`` gives the area's
    products, or the ``empty_discipline`` error when it has none."""
    if not text.startswith(_SEALED_HEAD):
        return load_archive(text)
    provenance, block, index = _unseal(text)
    try:
        # an area the index does not list has no records: an empty slice
        start, end = next(((s, e) for area, s, e in json.loads(index) if area == discipline), (0, 0))
        products = _decode("[" + text[block + start : block + end] + "]")
    except (TypeError, ValueError) as exc:
        raise PipelineError("bad_archive", f"invalid area index: {exc}") from None
    if not all(type(p) is Product and p.discipline == discipline for p in products):
        raise PipelineError("bad_archive", f"the area index does not hold the records of {discipline!r}")
    return Dataset.from_products(products, _provenance(_decode(provenance)))
