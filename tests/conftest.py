"""Shared fixtures: published-value tables and small hand datasets."""

from __future__ import annotations

import csv
import hashlib
import json
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import pytest

from vtrkit.ingest import parse_products
from vtrkit.model import ARCHIVE_FORMAT, PRODUCTS_HEADER, RECORDS_FORMAT, UNSEALED_FORMAT, write_archive

FIXTURES = Path(__file__).parent / "fixtures"

_PRODUCTS_OPEN = '"products": [\n'
_SEAL_OPEN = '],\n"seal": '


def unsealed_doc(archive: str) -> dict:
    """The archive text ``archive`` as a document of the unsealed format, each
    product row turned into the record (a JSON object) of that format: with
    its seal dropped, a damage done to the document and dumped again fails on
    the rule it breaks, not on the seal or the line layout."""
    doc = json.loads(archive)
    del doc["seal"]
    doc["format"] = UNSEALED_FORMAT
    doc["products"] = [
        {name: value for name, value in zip(PRODUCTS_HEADER, row) if value is not None} for row in doc["products"]
    ]
    return doc


def archive_rows(archive: str) -> list[str]:
    """The product lines of a sealed archive, without their line ends."""
    block = archive[archive.index(_PRODUCTS_OPEN) + len(_PRODUCTS_OPEN) : archive.rindex(_SEAL_OPEN)]
    return block[:-1].split(",\n")


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
        + f'\n{_SEAL_OPEN}{{"areas": {json.dumps(tamper(index))}, "sha256": "'
    )
    return text + hashlib.sha256(text.encode("utf-8")).hexdigest() + '"}}\n'


def _product_record(p) -> str:
    """The product's record in a vtrkit-dataset/2 archive: the JSON of its
    fields with sorted keys, ``citations`` and ``journal_if`` left out when
    absent, as that format's writer wrote it."""
    citations = "" if p.citations is None else f'"citations": {p.citations}, '
    journal_if = "" if p.journal_if is None else f'"journal_if": {float(p.journal_if)!r}, '
    return (
        f'{{{citations}"discipline": {_quote(p.discipline)}, {journal_if}"n_authors": {p.n_authors}, '
        f'"n_internal_authors": {p.n_internal_authors}, "peer_rating": "{p.peer_rating.token}", '
        f'"product_id": {_quote(p.product_id)}, "product_type": "{p.product_type.value}", '
        f'"structure_id": {_quote(p.structure_id)}, "tr_indexed": {"true" if p.tr_indexed else "false"}, '
        f'"year": {p.year}}}'
    )


def records_archive(dataset) -> str:
    """The vtrkit-dataset/2 archive of ``dataset``: the bytes that format's
    writer wrote, one product record per line.  A dataset without products is
    written unsealed, as by every writer."""
    archive = write_archive(dataset)
    if not dataset.products:
        return archive
    return reseal(archive.replace(ARCHIVE_FORMAT, RECORDS_FORMAT, 1), [_product_record(p) for p in dataset.products])


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
