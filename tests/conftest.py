"""Shared fixtures: published-value tables and small hand datasets, archive
helpers, and the per-product references the library's statistics are
checked against."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from decimal import ROUND_HALF_UP, Context, Decimal
from pathlib import Path
from typing import Sequence

import pytest

from vtrkit.indicators import GroupStats, h_index
from vtrkit.ingest import parse_products
from vtrkit.model import PRODUCTS_HEADER, Product, load_archive

FIXTURES = Path(__file__).parent / "fixtures"

_PRODUCTS_OPEN = '"products": [\n'
_SEAL_OPEN = '],\n"seal": '


def archive_rows(archive: str) -> list[str]:
    """The product lines of a sealed archive, without their line ends."""
    block = archive[archive.index(_PRODUCTS_OPEN) + len(_PRODUCTS_OPEN) : archive.rindex(_SEAL_OPEN)]
    return block[:-1].split(",\n") if block else []


def reseal(archive: str, rows: list[str] | None = None, areas: list[str] | None = None, tamper=lambda index: index):
    """The sealed archive ``archive`` with ``rows`` as its product lines (by
    default its own), each in the area at the same position of ``areas`` (by
    default that of the line at the same position of ``archive``), indexed
    and sealed again, with ``tamper`` applied to the index first.  A damage
    done to the rows or the index then reaches the check of the rule it
    breaks, not the seal's."""
    own = archive_rows(archive)
    rows = own if rows is None else rows
    areas = [json.loads(row)[2] for row in own] if areas is None else areas
    assert len(rows) == len(areas)
    index, at = [], 0
    for row, area in zip(rows, areas):
        if not index or index[-1][0] != area:
            index.append([area, at, None])
        index[-1][2] = at + len(row)
        at += len(row) + 2
    text = (
        archive[: archive.index(_PRODUCTS_OPEN) + len(_PRODUCTS_OPEN)]
        + ",\n".join(rows)
        + ("\n" if rows else "")  # an empty block has no line end
        + f'{_SEAL_OPEN}{{"areas": {json.dumps(tamper(index))}, "sha256": "'
    )
    return text + hashlib.sha256(text.encode("utf-8")).hexdigest() + '"}}\n'


def read_archive(text: str, area: str | None = None) -> tuple[Product, ...]:
    """The products of the archive ``text``, every area's or ``area``'s alone:
    a fault of the seal, the layout, the index or the provenance is raised by
    ``load_archive``, and a damaged row when its area is read."""
    dataset = load_archive(text)
    return dataset.products if area is None else dataset.products_in(area)


def rewritten(archive: str, damage) -> str:
    """The sealed archive ``archive`` with ``damage`` applied to its JSON
    document, whose products are rows (JSON arrays), and the provenance and
    the rows of the result written back, each row in the area of the row at
    the same position of ``archive``, and sealed again: a damage to a value
    then reaches the check of the rule it breaks, not the seal's or the line
    layout's."""
    doc = json.loads(archive)
    areas = [row[2] for row in doc["products"]]
    damage(doc)
    start = archive.index('"provenance": ') + len('"provenance": ')
    head = archive[:start] + json.dumps(doc["provenance"]) + archive[archive.index(",\n", start) :]
    return reseal(head, [json.dumps(row) for row in doc["products"]], areas)


#: the sha256 of the golden input as first committed: a pretty-printed
#: document of the retired ``vtrkit-dataset/1`` format
LEGACY_GOLDEN_SHA256 = "d47d7fdd358195d470d66fe857f96113047aea8f4984872cdec752f3905725d9"


def legacy_golden_text() -> str:
    """The golden input as it was before it was converted to the current
    format, byte for byte: a ``vtrkit-dataset/1`` document of sorted keys
    indented by 2, each product a record (a JSON object) without its absent
    values, and each impact factor written with six decimals."""
    golden = (FIXTURES / "golden_dataset.json").read_text(encoding="utf-8")
    doc = json.loads(golden)
    doc["format"] = "vtrkit-dataset/1"
    del doc["seal"]
    doc["products"] = [
        {name: value for name, value in zip(PRODUCTS_HEADER, row) if value is not None} for row in doc["products"]
    ]
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    text = re.sub(r'("journal_if": )([0-9.]+)', lambda m: f"{m[1]}{float(m[2]):.6f}", text)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == LEGACY_GOLDEN_SHA256
    return text


def _mean(values: list[float]) -> float | None:
    return math.fsum(values) / len(values) if values else None


def group_stats(products: Sequence[Product]) -> GroupStats:
    """The per-product reference for ``pooled_stats``: size, TR count, peer
    means, TR citation and IF means, and h of a group, from one list per
    statistic over the products."""
    tr = [p for p in products if p.tr_indexed]
    cites = [p.citations for p in tr if p.citations is not None]
    impact = [p.journal_if for p in tr if p.journal_if is not None]
    return GroupStats(
        n=len(products),
        n_tr=len(tr),
        peer_all=_mean([p.peer_rating.weight for p in products]),
        peer_tr=_mean([p.peer_rating.weight for p in tr]),
        mean_citations=_mean(cites),
        mean_if=_mean(impact),
        h=h_index(cites),
    )


#: wide enough to hold every finite float to 4 places, 1.8e308 among them
_WIDE = Context(prec=400)


def round_half_up(x: float, digits: int) -> float:
    """The Decimal reference of the report's cells: ``x``'s repr rounded
    half up (away from zero) to ``digits`` places, as a float."""
    quantum = Decimal(1).scaleb(-digits)
    return float(Decimal(repr(x)).quantize(quantum, rounding=ROUND_HALF_UP, context=_WIDE))


def probability_sum_deviation(p_greater: float, p_less: float, p_equal: float) -> float:
    """How far a reported probability triple strays from the sum identity."""
    return abs(p_greater + p_less + p_equal - 1.0)


def flag_probability_rows(
    rows: Sequence[tuple[float, float, float]], tolerance: float = 0.02
) -> list[int]:
    """Indices of reported triples violating the sum identity beyond
    ``tolerance`` (inclusive, guarded against float fuzz).

    Published tables carry rounded values, so a small tolerance is expected;
    anything beyond it indicates an inconsistent row.
    """
    return [
        i
        for i, (pg, pl, pe) in enumerate(rows)
        if probability_sum_deviation(pg, pl, pe) > tolerance + 1e-12
    ]


def load_fixture(name: str) -> list[dict]:
    with open(FIXTURES / name, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


@pytest.fixture(scope="session")
def discipline_profiles() -> list[dict]:
    """Published per-discipline aggregates (size, coverage, authorship,
    ownership, peer means, citation/IF means with their ratio, h)."""
    return load_fixture("vtr_discipline_profiles.csv")


@pytest.fixture(scope="session")
def rating_breakdowns() -> list[dict]:
    """Published per-rating aggregates with bracketed ratios."""
    return load_fixture("vtr_rating_breakdowns.csv")


@pytest.fixture(scope="session")
def citation_quartile_rows() -> list[dict]:
    """Published row percentages: citation quartile given peer rating."""
    return load_fixture("vtr_citation_quartiles.csv")


@pytest.fixture(scope="session")
def if_quartile_rows() -> list[dict]:
    """Published row percentages: impact-factor quartile given peer rating."""
    return load_fixture("vtr_if_quartiles.csv")


@pytest.fixture(scope="session")
def pairwise_probability_rows() -> list[dict]:
    """Published adjacent-rating probability triples for both variables."""
    return load_fixture("vtr_pairwise_probabilities.csv")


FOUR_PRODUCT_CSV = """\
product_id,structure_id,discipline,year,product_type,peer_rating,tr_indexed,citations,journal_if,n_authors,n_internal_authors
P1,S1,BIO,2001,journal_article,E,true,4,2,2,1
P2,S1,BIO,2001,journal_article,G,true,3,2,2,1
P3,S1,BIO,2002,journal_article,A,true,2,1,2,1
P4,S1,BIO,2003,journal_article,L,true,1,1,2,1
"""


@pytest.fixture()
def four_product_dataset():
    """Tiny all-TR dataset: ratings E,G,A,L; citations 4,3,2,1; IF 2,2,1,1."""
    dataset, report = parse_products(FOUR_PRODUCT_CSV)
    assert report.ok
    return dataset


EIGHT_PRODUCT_CSV = """\
product_id,structure_id,discipline,year,product_type,peer_rating,tr_indexed,citations,journal_if,n_authors,n_internal_authors
P1,S1,BIO,2001,journal_article,E,true,8,2,2,1
P2,S1,BIO,2001,journal_article,E,true,7,2,2,1
P3,S1,BIO,2001,journal_article,G,true,6,2,2,1
P4,S1,BIO,2001,journal_article,G,true,5,2,2,1
P5,S1,BIO,2001,journal_article,A,true,4,2,2,1
P6,S1,BIO,2001,journal_article,A,true,3,2,2,1
P7,S1,BIO,2001,journal_article,L,true,2,2,2,1
P8,S1,BIO,2001,journal_article,L,true,1,2,2,1
"""


@pytest.fixture()
def eight_product_dataset():
    """Ratings E,E,G,G,A,A,L,L paired with citations 8..1."""
    dataset, report = parse_products(EIGHT_PRODUCT_CSV)
    assert report.ok
    return dataset
