"""Shared fixtures: published-value tables and small hand datasets."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from vtrkit.model import UNSEALED_FORMAT, parse_products

FIXTURES = Path(__file__).parent / "fixtures"


def unsealed_doc(archive: str) -> dict:
    """The archive text ``archive`` as a document of the unsealed format: with
    its seal dropped, a damage done to the document and dumped again fails on
    the rule it breaks, not on the seal or the line layout."""
    doc = json.loads(archive)
    del doc["seal"]
    doc["format"] = UNSEALED_FORMAT
    return doc


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
