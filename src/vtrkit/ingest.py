"""The CSV inputs: the products file and the staff table.

Only the commands that read or write one of them (``ingest``, ``synth`` and
``validate --staff``) import this module; a query on an archive, and a
report, load no CSV parser.  Its issues go to an ``audit.ValidationReport``.
"""

from __future__ import annotations

import csv
import re
from collections import namedtuple
from typing import Iterator

from .audit import ValidationReport, warn_tr_missing
from .model import (
    CHUNK,
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

STAFF_HEADER = ("structure_id", "kind", "avg_staff")


class IngestConfig(namedtuple("IngestConfig", "source_name", defaults=("<stream>",))):
    """What ``parse_products`` records of its input: the source name."""

    __slots__ = ()


class StaffRecord(namedtuple("StaffRecord", "structure_id kind avg_staff")):
    """A structure's average staff; ``kind`` is "university" or "agency"."""

    __slots__ = ()


_BOOLEAN_TOKENS = {"true": True, "false": False}
#: ``KNOWN_DISCIPLINES`` as a set, for the per-row warning check
_KNOWN_DISCIPLINES = frozenset(KNOWN_DISCIPLINES)

# the lines io.StringIO would give (split after each "\n"), as slices of the
# text instead of a second, four-bytes-per-character copy of it
_LINE = re.compile(r"[^\n]*\n|[^\n]+")

#: the characters that put a products-file field in double quotes
_NEEDS_QUOTES = re.compile('[,"\r\n]')

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
    unknown: dict[str, str] = {}  # the warning of each unknown area code, which its rows share
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
                    message = unknown.get(discipline)
                    if message is None:
                        message = unknown[discipline] = f"discipline code {discipline!r} is not a known area"
                    report.warn(lineno, "unknown_discipline", message)
                if citations is None or journal_if is None:  # a product with both values has none to warn of
                    warn_tr_missing(report, lineno, product)
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


def _csv_lines(rows) -> Iterator[str]:
    """The products-file line of each product in ``rows``, its identifiers
    written as they are.  The product type's token is read as its _value_,
    past the slower enum descriptor ``value``."""
    return (
        f"{pid},{sid},{discipline},{year},{ptype._value_},{rating.token},{'true' if tr else 'false'},"
        f"{'' if cites is None else cites},{'' if impact is None else repr(float(impact))},{n_au},{n_in}\n"
        for pid, sid, discipline, year, ptype, rating, tr, cites, impact, n_au, n_in in rows
    )


def _csv_field(text: str) -> str:
    """An identifier as the products file writes it: in double quotes, each
    ``"`` doubled, when it holds ``,``, ``"``, CR or LF, else as it is."""
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES.search(text) else text


def _csv_piece(lines: list[str], products: tuple[Product, ...], start: int) -> str:
    """The joined ``lines`` of the products from ``products[start]`` on.
    Only an identifier can add a ",", a LF, a ``"`` or a CR to a line, so a
    piece with exactly 10 commas and one LF per line and neither of the
    others needs no quotes; any other piece is rendered again with its
    identifiers quoted."""
    piece = "".join(lines)
    n = len(lines)
    if piece.count(",") == 10 * n and piece.count("\n") == n and '"' not in piece and "\r" not in piece:
        return piece
    rows = products[start : start + n]
    return "".join(_csv_lines((_csv_field(p), _csv_field(s), _csv_field(d), *rest) for p, s, d, *rest in rows))


def serialize_products(dataset: Dataset) -> str:
    """Render a dataset back to the products file format in canonical order,
    which ``parse_products`` reads back whole.  The lines are joined into
    pieces of about 8 KiB, as ``model.archive_lines`` joins archive rows, and
    the pieces once at the end."""
    products = dataset.products
    pieces = [",".join(PRODUCTS_HEADER) + "\n"]
    lines: list[str] = []  # the lines of the piece being joined
    start = size = 0  # the index of the piece's first product, and the piece's size so far
    for line in _csv_lines(products):
        if size >= CHUNK:
            pieces.append(_csv_piece(lines, products, start))
            start += len(lines)
            lines.clear()
            size = 0
        lines.append(line)
        size += len(line)
    pieces.append(_csv_piece(lines, products, start))
    return "".join(pieces)


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
