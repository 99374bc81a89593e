"""The audit of a dataset: its validation report, and the submission-cap
policy it checks.

``validate_dataset`` re-checks a loaded dataset; ``ingest`` fills the same
``ValidationReport`` with the issues of a products file, and both call
``warn_tr_missing``.  This module imports only ``model``, so ``report`` and
``validate`` load none of the CSV code of ``ingest``.
"""

from __future__ import annotations

from collections import namedtuple
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .model import CHUNK, FLOAT_MAX, Dataset, PipelineError, Product

if TYPE_CHECKING:
    from .ingest import StaffRecord


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
        (int row, str rule and message), as the archive writer writes a product: faster, and no dict per issue.
        The issues are joined into parts of about 8 KiB, and each distinct rule and message is quoted once."""
        yield f'{{"accepted_count": {self.accepted_count}, "errors": ['
        quoted: dict[str, str] = {}
        for issues, end in ((self.errors, '], "warnings": ['), (self.warnings, "]}\n")):
            texts: list[str] = []  # the issues of the part being joined
            size = 0
            for row, rule, msg in issues:
                if size >= CHUNK:
                    yield ", ".join(texts) + ", "
                    texts.clear()
                    size = 0
                if (q_msg := quoted.get(msg)) is None:
                    q_msg = quoted[msg] = _quote(msg)
                if (q_rule := quoted.get(rule)) is None:
                    q_rule = quoted[rule] = _quote(rule)
                text = f'{{"message": {q_msg}, "row": {row}, "rule": {q_rule}}}'
                texts.append(text)
                size += len(text)
            yield ", ".join(texts)
            yield end


class SelectionPolicy(namedtuple("SelectionPolicy", "staff cap_fraction", defaults=(None, 0.5))):
    """Submission-cap policy: products may not exceed ``cap_fraction`` of the
    structure's full-time-equivalent researchers.

    A university researcher counts as 0.5 FTE (teaching duties), an agency
    researcher as 1.0, so the default cap is 25% of university staff and 50%
    of agency staff.
    """

    __slots__ = ()

    def __new__(cls, staff: Mapping[str, StaffRecord] | None = None, cap_fraction: float = 0.5) -> "SelectionPolicy":
        if not 0 <= cap_fraction <= FLOAT_MAX:  # false for NaN too
            raise PipelineError("bad_cap", f"cap must be a finite number >= 0, got {cap_fraction!r}")
        return super().__new__(cls, staff, cap_fraction)

    @classmethod
    def _make(cls, iterable: Iterable) -> "SelectionPolicy":
        # namedtuple's own _make (which _replace calls) would skip the check
        return cls(*iterable)

    def cap_for(self, record: StaffRecord) -> float:
        fte = 0.5 if record.kind == "university" else 1.0
        return self.cap_fraction * fte * record.avg_staff


def warn_tr_missing(report: ValidationReport, row: int, product: Product) -> None:
    """Warn at ``row`` of each value the TR-indexed ``product`` lacks, whose means leave it out."""
    if product.tr_indexed:
        lacks = f"product {product.product_id!r} is TR-indexed without"
        if product.citations is None:
            report.warn(row, "tr_missing_citations", f"{lacks} a citation count")
        if product.journal_if is None:
            report.warn(row, "tr_missing_if", f"{lacks} an impact factor")


def validate_dataset(
    dataset: Dataset, policy: SelectionPolicy | None = None, disciplines: Sequence[str] | None = None
) -> ValidationReport:
    """Flag TR-indexed products lacking a value and audit caps, in every area or in ``disciplines``.

    Cap violations are warnings, never errors: the tool audits historic or
    synthetic data rather than enforcing submission rules.
    """
    report = ValidationReport(accepted_count=len(dataset))
    products = dataset.products if disciplines is None else [p for d in disciplines for p in dataset.area(d).products]
    for p in products:
        if p.citations is None or p.journal_if is None:  # a product with both values has none to warn of
            warn_tr_missing(report, 0, p)

    if policy is not None and policy.staff:
        submitted: dict[str, set[str]] = {}
        for p in products:
            submitted.setdefault(p.structure_id, set()).add(p.product_id)
        for structure_id in sorted(submitted.keys() & policy.staff.keys()):  # an unlisted structure has no cap
            record = policy.staff[structure_id]
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
