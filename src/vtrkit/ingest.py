"""The CSV inputs, the products file and the staff table, and the checks a
dataset gets when it is ingested or audited.

Only the commands that read or write a CSV file or audit a dataset
(``ingest``, ``validate``, ``synth`` and ``report``) import this module; a
query on an archive loads no CSV code.
"""

from __future__ import annotations

import csv
import io
import re
from collections import namedtuple
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterator, Mapping

from .model import (
    DUPLICATE_PRODUCT,
    FLOAT_MAX,
    KNOWN_DISCIPLINES,
    PRODUCT_TYPES,
    PRODUCTS_HEADER,
    TOKEN_RATINGS,
    Dataset,
    InvalidProduct,
    PipelineError,
    Product,
    Provenance,
    read_text_file,
    text_sha256,
)

__all__ = [
    "STAFF_HEADER",
    "Issue",
    "ValidationReport",
    "IngestConfig",
    "StaffRecord",
    "SelectionPolicy",
    "parse_products",
    "parse_products_file",
    "serialize_products",
    "parse_staff",
    "validate_dataset",
]

STAFF_HEADER = ("structure_id", "kind", "avg_staff")


class Issue(namedtuple("Issue", "row rule message")):
    """One validation finding: the input row, the rule and a message."""

    __slots__ = ()


class ValidationReport:
    def __init__(self, accepted_count: int = 0):
        self.errors: list[Issue] = []
        self.warnings: list[Issue] = []
        self.accepted_count = accepted_count

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
            "errors": [i._asdict() for i in self.errors],
            "warnings": [i._asdict() for i in self.warnings],
        }

    json_shape = as_dict

    def json_parts(self) -> Iterator[str]:
        """``json.dumps(self.as_dict(), sort_keys=True)`` and a newline, in parts: an f-string per issue
        (int row, str rule and message), as the archive writer writes a product: faster, and no dict per issue."""
        yield f'{{"accepted_count": {self.accepted_count}, "errors": ['
        for issues, end in ((self.errors, '], "warnings": ['), (self.warnings, "]}\n")):
            texts = (f'{{"message": {_quote(msg)}, "row": {row}, "rule": {_quote(rule)}}}' for row, rule, msg in issues)
            yield ", ".join(texts)
            yield end


class IngestConfig(namedtuple("IngestConfig", "source_name", defaults=("<stream>",))):
    """What ``parse_products`` records of its input: the source name."""

    __slots__ = ()


class StaffRecord(namedtuple("StaffRecord", "structure_id kind avg_staff")):
    """A structure's average staff; ``kind`` is "university" or "agency"."""

    __slots__ = ()


class SelectionPolicy:
    """Submission-cap policy: products may not exceed ``cap_fraction`` of the
    structure's full-time-equivalent researchers.

    A university researcher counts as 0.5 FTE (teaching duties), an agency
    researcher as 1.0, so the default cap is 25% of university staff and 50%
    of agency staff.
    """

    def __init__(self, staff: Mapping[str, StaffRecord] | None = None, cap_fraction: float = 0.5):
        if not 0 <= cap_fraction <= FLOAT_MAX:  # false for NaN too
            raise PipelineError("bad_cap", f"cap must be a finite number >= 0, got {cap_fraction!r}")
        self.staff, self.cap_fraction = staff, cap_fraction

    def cap_for(self, record: StaffRecord) -> float:
        fte = 0.5 if record.kind == "university" else 1.0
        return self.cap_fraction * fte * record.avg_staff


_BOOLEAN_TOKENS = {"true": True, "false": False}
#: ``KNOWN_DISCIPLINES`` as a set, for the per-row warning check
_KNOWN_DISCIPLINES = frozenset(KNOWN_DISCIPLINES)

# the lines io.StringIO would give (split after each "\n"), as slices of the
# text instead of a second, four-bytes-per-character copy of it
_LINE = re.compile(r"[^\n]*\n|[^\n]+")

# what int() and float() accept beyond a plain ASCII number: surrounding
# whitespace, digit separators, non-ASCII digits, a leading "+", and an integer's
# leading zeros or "-0"; searched in the tokens joined by "," (which neither
# accepts), journal_if first, so each token's start shows and only integers follow
# a ","; the set is every character but the ASCII ones that are neither whitespace
# (for str.isspace and re's \s: \t to \r, \x1c to \x1f and " ") nor "_": one
# bitmap test per position, where a set with \s or a range up to \U0010FFFF is
# slower to search or to compile
_LAX_NUMBER = re.compile(r"^\+|[^\x00-\x08\x0e-\x1b\x21-\x5e\x60-\x7f]|,(?:[+]|-0|0[0-9])")


def _csv_rows(text: str) -> Iterator[list[str]]:
    return csv.reader(map(re.Match.group, _LINE.finditer(text)))


def _rows_after_header(text: str, header: tuple[str, ...]):
    """The ``_csv_rows`` reader of ``text``, past its first record, or None
    when that record is not ``header``."""
    reader = _csv_rows(text)
    try:
        first = next(reader, None)
    except csv.Error:
        return None
    return reader if first is not None and tuple(first) == header else None


def _accepted(reader, report: ValidationReport, seen: set | None = None) -> Iterator[Product]:
    """The product of each accepted row of the ``_csv_rows`` reader, in file
    order.  A rejected row's errors go to ``report``, as do an accepted row's
    warnings, each at the line its record starts on.  A record csv cannot
    split (such as a lone carriage return in an unquoted field) is a
    ``malformed_csv`` error, and reading goes on at the next line.  Given
    ``seen``, the keys accepted so far, a row whose key is in it is a
    ``duplicate_product`` error instead."""
    end = reader.line_num  # the line the previous record ends on
    while True:
        try:
            for row in reader:
                lineno, end = end + 1, reader.line_num
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
                rating = TOKEN_RATINGS.get(rating_tok)
                if rating is None:
                    report.error(lineno, "unknown_rating", f"unknown peer rating token {rating_tok!r}")
                    bad = True

                ptype = PRODUCT_TYPES.get(type_tok)
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
                            "year, citations, journal_if, n_authors and n_internal_authors must be plain ASCII "
                            "numbers, without whitespace, '_', a leading '+' or an integer's leading zeros or '-0', "
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

                if seen is not None:
                    key = product.key
                    if key in seen:
                        report.error(lineno, "duplicate_product", DUPLICATE_PRODUCT.format(key))
                        continue
                    seen.add(key)

                if discipline not in _KNOWN_DISCIPLINES:
                    report.warn(lineno, "unknown_discipline", f"discipline code {discipline!r} is not a known area")
                if tr_indexed and citations is None:
                    report.warn(
                        lineno,
                        "tr_missing_citations",
                        f"product {product_id!r} is TR-indexed but has no citation count; "
                        "it is excluded from citation means",
                    )
                yield product
            return
        except csv.Error as exc:
            report.error(end + 1, "malformed_csv", f"malformed CSV: {exc}")
            end = reader.line_num


def parse_products(text: str, config: IngestConfig = IngestConfig()) -> tuple[Dataset | None, ValidationReport]:
    """Parse the products file format into a Dataset.

    Every accepted row becomes exactly one product; rejected rows are listed
    in the report with a row number and rule id.  If any error is recorded no
    dataset is produced.
    """
    report = ValidationReport()
    # rows are read one at a time: only the accepted products are kept
    reader = _rows_after_header(text, PRODUCTS_HEADER)
    if reader is None:
        report.error(1, "bad_header", f"header must be exactly {','.join(PRODUCTS_HEADER)}")
        return None, report

    products = tuple(_accepted(reader, report))

    from datetime import datetime, timezone  # only ingestion stamps a time; no archive query imports it

    provenance = Provenance(
        source_name=config.source_name,
        source_digest=text_sha256(text, len(text)),
        ingested_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )
    try:
        dataset = Dataset.from_products(products, provenance)
    except PipelineError:
        # rare: a key repeats.  Scan the file again in its order, keeping each
        # key seen, so that every repeat is reported on its own line, among
        # the other errors, and without the warnings of an accepted row.
        report = ValidationReport()
        products = tuple(_accepted(_rows_after_header(text, PRODUCTS_HEADER), report, seen=set()))
        dataset = None
    report.accepted_count = len(products)
    return (dataset if report.ok else None), report


def parse_products_file(path: str) -> tuple[Dataset | None, ValidationReport]:
    return parse_products(read_text_file(path, newline=""), IngestConfig(source_name=path))


def serialize_products(dataset: Dataset) -> str:
    """Render a dataset back to the products file format in canonical order."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(PRODUCTS_HEADER)
    # a product type's token is read as its _value_, past the slower enum descriptor ``value``
    writer.writerows(
        (
            pid,
            sid,
            discipline,
            year,
            ptype._value_,
            rating.token,
            "true" if tr else "false",
            "" if cites is None else cites,
            "" if impact is None else repr(float(impact)),  # shortest round-trip form
            n_au,
            n_in,
        )
        for pid, sid, discipline, year, ptype, rating, tr, cites, impact, n_au, n_in in dataset.products
    )
    return out.getvalue()


def parse_staff(text: str) -> dict[str, StaffRecord]:
    """Parse the optional staff table (structure_id,kind,avg_staff)."""
    reader = _rows_after_header(text, STAFF_HEADER)
    if reader is None:
        raise PipelineError("bad_staff_header", f"staff header must be {','.join(STAFF_HEADER)}")
    records: dict[str, StaffRecord] = {}
    end = reader.line_num  # the line the previous record ends on
    try:
        for row in reader:
            lineno, end = end + 1, reader.line_num
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
            if not 0 <= avg_staff <= FLOAT_MAX:  # false for NaN too
                raise PipelineError("bad_staff_number", f"row {lineno}: avg_staff must be a finite number >= 0")
            if structure_id in records:
                raise PipelineError("bad_staff_row", f"row {lineno}: structure {structure_id!r} is listed twice")
            records[structure_id] = StaffRecord(structure_id, kind, avg_staff)
    except csv.Error as exc:
        raise PipelineError("bad_staff_row", f"row {end + 1}: malformed CSV: {exc}") from None
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
