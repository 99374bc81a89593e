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
import hashlib
import io
import json
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from functools import cached_property
from typing import Iterable, Mapping, TextIO

__all__ = [
    "PRODUCTS_HEADER",
    "STAFF_HEADER",
    "KNOWN_DISCIPLINES",
    "PipelineError",
    "PeerRating",
    "RATING_ORDER",
    "ProductType",
    "Product",
    "Provenance",
    "Dataset",
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
    "write_archive",
    "load_archive",
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

ARCHIVE_FORMAT = "vtrkit-dataset/1"


class PipelineError(Exception):
    """Domain error carrying a stable machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class PeerRating(enum.IntEnum):
    """Four-point peer rating scale, ordered Excellent > Good > Acceptable > Limited."""

    EXCELLENT = 4
    GOOD = 3
    ACCEPTABLE = 2
    LIMITED = 1

    @property
    def token(self) -> str:
        return _RATING_TOKENS[self]

    @classmethod
    def from_token(cls, token: str) -> "PeerRating":
        try:
            return _TOKEN_RATINGS[token]
        except KeyError:
            raise ValueError(f"unknown peer rating token {token!r}") from None


_RATING_TOKENS = {
    PeerRating.EXCELLENT: "E",
    PeerRating.GOOD: "G",
    PeerRating.ACCEPTABLE: "A",
    PeerRating.LIMITED: "L",
}
_TOKEN_RATINGS = {v: k for k, v in _RATING_TOKENS.items()}

#: Display order used by every report: best rating first.
RATING_ORDER = (
    PeerRating.EXCELLENT,
    PeerRating.GOOD,
    PeerRating.ACCEPTABLE,
    PeerRating.LIMITED,
)


class ProductType(enum.Enum):
    JOURNAL_ARTICLE = "journal_article"
    BOOK = "book"
    CHAPTER = "chapter"
    PROCEEDINGS = "proceedings"
    PATENT = "patent"
    OTHER = "other"


@dataclass(frozen=True)
class Product:
    """One submitted research output under a (structure, discipline) pair."""

    product_id: str
    structure_id: str
    discipline: str
    year: int
    product_type: ProductType
    peer_rating: PeerRating
    tr_indexed: bool
    citations: int | None
    journal_if: float | None
    n_authors: int
    n_internal_authors: int

    def __post_init__(self) -> None:
        if not self.product_id or not self.structure_id or not self.discipline:
            raise ValueError("product_id, structure_id and discipline must be nonempty")
        if self.n_authors < 1:
            raise ValueError("n_authors must be >= 1")
        if not 0 <= self.n_internal_authors <= self.n_authors:
            raise ValueError("n_internal_authors must lie in [0, n_authors]")
        if self.citations is not None and self.citations < 0:
            raise ValueError("citations must be >= 0")
        if self.journal_if is not None and self.journal_if < 0:
            raise ValueError("journal_if must be >= 0")
        if not self.tr_indexed and (self.citations is not None or self.journal_if is not None):
            raise ValueError("bibliometric values require tr_indexed")

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.discipline, self.structure_id, self.product_id)


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
    """

    products: tuple[Product, ...]
    provenance: Provenance

    @classmethod
    def from_products(cls, products: Iterable[Product], provenance: Provenance) -> "Dataset":
        ordered = tuple(sorted(products, key=lambda p: p.key))
        seen: set[tuple[str, str, str]] = set()
        for p in ordered:
            if p.key in seen:
                raise PipelineError(
                    "duplicate_product",
                    f"duplicate (product_id, structure_id, discipline) triple {p.key}",
                )
            seen.add(p.key)
        return cls(products=ordered, provenance=provenance)

    def __len__(self) -> int:
        return len(self.products)

    @cached_property
    def disciplines(self) -> tuple[str, ...]:
        return tuple(sorted({p.discipline for p in self.products}))

    @cached_property
    def structures(self) -> tuple[str, ...]:
        return tuple(sorted({p.structure_id for p in self.products}))

    @property
    def distinct_product_count(self) -> int:
        """Number of distinct products (multi-affiliation entries collapse)."""
        return len({p.product_id for p in self.products})

    def products_in(self, discipline: str) -> tuple[Product, ...]:
        return tuple(p for p in self.products if p.discipline == discipline)

    def products_of_structure(self, structure_id: str) -> tuple[Product, ...]:
        return tuple(p for p in self.products if p.structure_id == structure_id)


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
    year_min: int = 1900
    year_max: int = 2100
    known_disciplines: tuple[str, ...] = KNOWN_DISCIPLINES
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
    university_fte: float = 0.5
    agency_fte: float = 1.0

    def cap_for(self, record: StaffRecord) -> float:
        fte = self.university_fte if record.kind == "university" else self.agency_fte
        return self.cap_fraction * fte * record.avg_staff


def _parse_bool(token: str) -> bool:
    if token == "true":
        return True
    if token == "false":
        return False
    raise ValueError(f"expected true|false, got {token!r}")


def _parse_optional_int(token: str) -> int | None:
    return None if token == "" else int(token)


def _parse_optional_float(token: str) -> float | None:
    return None if token == "" else float(token)


def parse_products(
    source: str | TextIO, config: IngestConfig = IngestConfig()
) -> tuple[Dataset | None, ValidationReport]:
    """Parse the products file format into a Dataset.

    Every accepted row becomes exactly one product; rejected rows are listed
    in the report with a row number and rule id.  If any error is recorded no
    dataset is produced.
    """
    if isinstance(source, str):
        text = source
    else:
        text = source.read()
    report = ValidationReport()
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows or tuple(rows[0]) != PRODUCTS_HEADER:
        report.error(1, "bad_header", f"header must be exactly {','.join(PRODUCTS_HEADER)}")
        return None, report

    products: dict[tuple[str, str, str], Product] = {}
    for lineno, row in enumerate(rows[1:], start=2):
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
        if not product_id or not structure_id or not discipline:
            report.error(lineno, "empty_identifier", "product_id, structure_id and discipline are required")
            bad = True

        try:
            rating = PeerRating.from_token(rating_tok)
        except ValueError:
            report.error(lineno, "unknown_rating", f"unknown peer rating token {rating_tok!r}")
            bad = True

        try:
            ptype = ProductType(type_tok)
        except ValueError:
            report.error(lineno, "unknown_product_type", f"unknown product type {type_tok!r}")
            bad = True

        try:
            tr_indexed = _parse_bool(tr_tok)
        except ValueError:
            report.error(lineno, "malformed_boolean", f"tr_indexed must be true|false, got {tr_tok!r}")
            bad = True

        try:
            year = int(year_tok)
            citations = _parse_optional_int(cit_tok)
            journal_if = _parse_optional_float(if_tok)
            n_authors = int(na_tok)
            n_internal = int(ni_tok)
        except ValueError as exc:
            report.error(lineno, "malformed_number", str(exc))
            bad = True
        if bad:
            continue

        if not config.year_min <= year <= config.year_max:
            report.error(
                lineno,
                "year_out_of_range",
                f"year {year} outside [{config.year_min}, {config.year_max}]",
            )
            continue
        if n_authors < 1:
            report.error(lineno, "nonpositive_authors", f"n_authors must be >= 1, got {n_authors}")
            continue
        if not 0 <= n_internal <= n_authors:
            report.error(
                lineno,
                "author_bounds",
                f"n_internal_authors {n_internal} outside [0, {n_authors}]",
            )
            continue
        if citations is not None and citations < 0:
            report.error(lineno, "malformed_number", f"citations must be >= 0, got {citations}")
            continue
        if journal_if is not None and journal_if < 0:
            report.error(lineno, "malformed_number", f"journal_if must be >= 0, got {journal_if}")
            continue
        if not tr_indexed and (citations is not None or journal_if is not None):
            report.error(
                lineno,
                "bibliometrics_on_uncovered",
                "citations/journal_if present but tr_indexed is false",
            )
            continue

        key = (discipline, structure_id, product_id)
        if key in products:
            report.error(
                lineno,
                "duplicate_product",
                f"duplicate (product_id, structure_id, discipline) triple {key}",
            )
            continue

        if discipline not in config.known_disciplines:
            report.warn(lineno, "unknown_discipline", f"discipline code {discipline!r} is not a known area")
        if tr_indexed and citations is None:
            report.warn(
                lineno,
                "tr_missing_citations",
                f"product {product_id!r} is TR-indexed but has no citation count; "
                "it is excluded from citation means",
            )

        products[key] = Product(
            product_id=product_id,
            structure_id=structure_id,
            discipline=discipline,
            year=year,
            product_type=ptype,
            peer_rating=rating,
            tr_indexed=tr_indexed,
            citations=citations,
            journal_if=journal_if,
            n_authors=n_authors,
            n_internal_authors=n_internal,
        )

    report.accepted_count = len(products)
    if not report.ok:
        return None, report

    provenance = Provenance(
        source_name=config.source_name,
        source_digest=hashlib.sha256(text.encode("utf-8")).hexdigest(),
        ingested_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )
    return Dataset.from_products(products.values(), provenance), report


def parse_products_file(
    path: str, config: IngestConfig | None = None
) -> tuple[Dataset | None, ValidationReport]:
    with open(path, "r", encoding="utf-8", newline="") as f:
        text = f.read()
    cfg = config or IngestConfig()
    if cfg.source_name == "<stream>":
        cfg = replace(cfg, source_name=path)
    return parse_products(text, cfg)


def _float_token(x: float) -> str:
    """Shortest decimal form that round-trips through float()."""
    return repr(float(x))


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
                "" if p.journal_if is None else _float_token(p.journal_if),
                p.n_authors,
                p.n_internal_authors,
            ]
        )
    return out.getvalue()


def parse_staff(source: str | TextIO) -> dict[str, StaffRecord]:
    """Parse the optional staff table (structure_id,kind,avg_staff)."""
    text = source if isinstance(source, str) else source.read()
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows or tuple(rows[0]) != STAFF_HEADER:
        raise PipelineError("bad_staff_header", f"staff header must be {','.join(STAFF_HEADER)}")
    records: dict[str, StaffRecord] = {}
    for lineno, row in enumerate(rows[1:], start=2):
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
        if avg_staff < 0:
            raise PipelineError("bad_staff_number", f"row {lineno}: avg_staff must be >= 0")
        records[structure_id] = StaffRecord(structure_id, kind, avg_staff)
    return records


def validate_dataset(dataset: Dataset, policy: SelectionPolicy | None = None) -> ValidationReport:
    """Re-check product invariants and audit submission caps.

    Cap violations are warnings, never errors: the tool audits historic or
    synthetic data rather than enforcing submission rules.
    """
    report = ValidationReport(accepted_count=len(dataset))
    seen: set[tuple[str, str, str]] = set()
    for p in dataset.products:
        if p.key in seen:
            report.error(0, "duplicate_product", f"duplicate triple {p.key}")
        seen.add(p.key)
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


def _canonical_json(value, indent: int = 0) -> str:
    """Canonical JSON: sorted keys, floats with exactly 6 fractional digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{inner}{json.dumps(str(k))}: {_canonical_json(value[k], indent + 1)}'
            for k in sorted(value)
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{inner}{_canonical_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, int):
        return str(value)
    if value is None:
        return "null"
    return json.dumps(value)


def _product_record(p: Product) -> dict:
    record: dict = {
        "product_id": p.product_id,
        "structure_id": p.structure_id,
        "discipline": p.discipline,
        "year": p.year,
        "product_type": p.product_type.value,
        "peer_rating": p.peer_rating.token,
        "tr_indexed": p.tr_indexed,
        "n_authors": p.n_authors,
        "n_internal_authors": p.n_internal_authors,
    }
    if p.citations is not None:
        record["citations"] = p.citations
    if p.journal_if is not None:
        record["journal_if"] = float(p.journal_if)
    return record


def write_archive(dataset: Dataset) -> str:
    """Serialize a dataset to the canonical archive: a deterministic JSON
    document (sorted keys, floats at 6 fractional digits) suitable for
    byte-stable re-emission."""
    doc = {
        "format": ARCHIVE_FORMAT,
        "provenance": {
            "source_name": dataset.provenance.source_name,
            "source_digest": dataset.provenance.source_digest,
            "ingested_at": dataset.provenance.ingested_at,
        },
        "products": [_product_record(p) for p in dataset.products],
    }
    return _canonical_json(doc) + "\n"


def load_archive(text: str) -> Dataset:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PipelineError("bad_archive", f"archive is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != ARCHIVE_FORMAT:
        raise PipelineError("bad_archive", f"expected archive format {ARCHIVE_FORMAT!r}")
    prov = doc.get("provenance", {})
    records = doc.get("products", [])
    if not isinstance(prov, dict) or not isinstance(records, list):
        raise PipelineError("bad_archive", "archive provenance must be an object and products a list")
    provenance = Provenance(
        source_name=prov.get("source_name", ""),
        source_digest=prov.get("source_digest", ""),
        ingested_at=prov.get("ingested_at", ""),
    )
    products = []
    for rec in records:
        try:
            if not isinstance(rec["tr_indexed"], bool):
                raise ValueError(f"tr_indexed must be a JSON boolean, got {rec['tr_indexed']!r}")
            products.append(
                Product(
                    product_id=rec["product_id"],
                    structure_id=rec["structure_id"],
                    discipline=rec["discipline"],
                    year=int(rec["year"]),
                    product_type=ProductType(rec["product_type"]),
                    peer_rating=PeerRating.from_token(rec["peer_rating"]),
                    tr_indexed=rec["tr_indexed"],
                    citations=rec.get("citations"),
                    journal_if=rec.get("journal_if"),
                    n_authors=int(rec["n_authors"]),
                    n_internal_authors=int(rec["n_internal_authors"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PipelineError("bad_archive", f"invalid product record: {exc}") from None
    return Dataset.from_products(products, provenance)
