"""Domain model and the dataset archive.

A *product* is one research output submitted for assessment by a structure
(university or research agency) under a disciplinary area.  Each product
carries a peer rating on the four-point E/G/A/L scale and, when the product
is covered by the citation database, optional bibliometric values (citation
count and journal impact factor).

The archive is the one file format this module reads and writes.  The CSV
inputs are ``ingest``'s, which no query on an archive imports.
"""

from __future__ import annotations

import enum
import hashlib
import json
import re
import sys
from collections import namedtuple
from functools import cached_property
from itertools import groupby
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from typing import Callable, Iterable, Iterator

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

#: The one archive format: sealed, one product row (a JSON array) per line.
ARCHIVE_FORMAT = "vtrkit-dataset/3"

#: The largest finite float: ``not -FLOAT_MAX <= x <= FLOAT_MAX`` holds for
#: NaN, the infinities and integers beyond float range.
FLOAT_MAX = sys.float_info.max


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


#: Each rating by its token, in the products file and the archive.
TOKEN_RATINGS = {r.token: r for r in PeerRating}

#: Display order used by every report: best rating first.
RATING_ORDER = tuple(PeerRating)


class ProductType(enum.Enum):
    JOURNAL_ARTICLE = "journal_article"
    BOOK = "book"
    CHAPTER = "chapter"
    PROCEEDINGS = "proceedings"
    PATENT = "patent"
    OTHER = "other"


#: Each product type by its token, its value.
PRODUCT_TYPES = {t.value: t for t in ProductType}

_tuple_new = tuple.__new__
#: each year a product may carry, as the one int its products share
_YEARS = tuple(range(YEAR_MIN, YEAR_MAX + 1))

#: a product's identity, and the order of a Dataset's products
_KEY_FIELDS = ("discipline", "structure_id", "product_id")
_product_key = attrgetter(*_KEY_FIELDS)
#: the message of a repeated key, filled with the key
DUPLICATE_PRODUCT = "duplicate (discipline, structure_id, product_id) triple {}"
_KEY_ORDER = "products must be in key order; build the dataset with Dataset.from_products"


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
        year = _YEARS[year - YEAR_MIN]  # and a year's products one int of it
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
            if not -FLOAT_MAX <= journal_if <= FLOAT_MAX:
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


class Provenance(namedtuple("Provenance", "source_name source_digest ingested_at")):
    """Where a dataset came from: its source's name and digest, and when it was ingested."""

    __slots__ = ()


class Dataset:
    """Immutable, canonically ordered collection of products.

    Products are sorted by (discipline, structure_id, product_id), so the
    dataset built from a given set of rows never depends on input row order.
    Keys must strictly increase; an equal pair is a duplicate product.
    """

    def __init__(self, products: tuple[Product, ...], provenance: Provenance):
        # neighbours compared field by field, by index: a Product is (product_id, structure_id, discipline, ...)
        it = iter(products)
        prev = next(it, None)
        for p in it:
            if prev[2] == p[2] and prev[1] == p[1]:  # one structure's products
                if prev[0] >= p[0]:
                    if prev[0] == p[0]:
                        raise PipelineError("duplicate_product", DUPLICATE_PRODUCT.format(p.key))
                    raise ValueError(_KEY_ORDER)
            elif (prev[2], prev[1]) > (p[2], p[1]):
                raise ValueError(_KEY_ORDER)
            prev = p
        self.__dict__.update(products=products, provenance=provenance)  # past __setattr__, which refuses all

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"a Dataset is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and (self.products, self.provenance) == (other.products, other.provenance)

    def __hash__(self) -> int:
        return hash((self.products, self.provenance))

    @classmethod
    def from_products(cls, products: Iterable[Product], provenance: Provenance) -> "Dataset":
        """The dataset of ``products`` in any order: they are sorted into key
        order only when the order check finds them out of it."""
        products = tuple(products)
        try:
            return cls(products=products, provenance=provenance)
        except ValueError:  # out of key order: _KEY_ORDER
            return cls(products=tuple(key_sorted(list(products))), provenance=provenance)

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


def key_sorted(products: list[Product]) -> list[Product]:
    """``products``, sorted in place into key order: one stable sort per key
    field, the least significant first, so that no key tuple is built per
    product."""
    for name in reversed(_KEY_FIELDS):
        products.sort(key=attrgetter(name))
    return products


class RatingGroup:
    """What the per-area statistics read of one rating's products: the product
    and TR counts, and the citation counts and impact factors present, in an
    order no statistic depends on: the battery sorts them in place."""

    __slots__ = ("rating", "n", "n_tr", "citations", "journal_if")

    def __init__(self, rating: PeerRating):
        self.rating, self.n, self.n_tr = rating, 0, 0
        self.citations: list[int] = []
        self.journal_if: list[float] = []


def rating_groups(products: Iterable[Product]) -> tuple[RatingGroup, ...]:
    """The rating groups of ``products`` in ``RATING_ORDER``, from one pass over them."""
    groups = {rating: RatingGroup(rating) for rating in RATING_ORDER}
    for p in products:
        group = groups[p.peer_rating]
        group.n += 1
        if p.tr_indexed:  # Product's bibliometrics_on_uncovered rule: only TR products carry values
            group.n_tr += 1
            if (citations := p.citations) is not None:
                group.citations.append(citations)
            if (journal_if := p.journal_if) is not None:
                group.journal_if.append(journal_if)
    return tuple(groups.values())


class Area:
    """One area's products in key order, and the parts the per-area builders
    derive from them, each built on first use and kept, so a report reads
    each product's fields once and a single table builds only its own parts."""

    def __init__(self, products: tuple[Product, ...]):
        self.products = products
        self._parts: dict = {}

    @cached_property
    def by_rating(self) -> tuple[RatingGroup, ...]:
        """The area's rating groups."""
        return rating_groups(self.products)

    def part(self, build: Callable):
        """``build(self)``, built on first use and kept."""
        if build not in self._parts:
            self._parts[build] = build(self)
        return self._parts[build]


def read_text_file(path: str, newline: str | None = None) -> str:
    """The text of the UTF-8 file at ``path``, with ``open``'s ``newline``
    handling; a file that is not UTF-8 is a ``bad_encoding`` PipelineError."""
    with open(path, "r", encoding="utf-8", newline=newline) as f:
        try:
            return f.read()
        except UnicodeDecodeError as exc:
            raise PipelineError("bad_encoding", f"input is not UTF-8 text: {exc}") from None


def _product_row(p: Product) -> str:
    """The product's archive row: the JSON array that ``json.dumps`` gives for
    its fields in ``PRODUCTS_HEADER`` order, with the product type and the peer
    rating as their tokens and an absent value as ``null``.  It is written in
    one f-string, which is faster than ``json.dumps``: every value is an exact
    int, bool, finite float or str (``Product`` checks), so ``repr`` and
    ``_quote`` give the same bytes.  The product type's token is read as its
    ``_value_``, past the slower enum descriptor ``value``."""
    product_id, structure_id, discipline, year, ptype, rating, tr_indexed, citations, journal_if, n_au, n_in = p
    return (
        f"[{_quote(product_id)}, {_quote(structure_id)}, {_quote(discipline)}, {year}, "
        f'"{ptype._value_}", "{rating.token}", {"true" if tr_indexed else "false"}, '
        f'{"null" if citations is None else citations}, {"null" if journal_if is None else repr(float(journal_if))}, '
        f"{n_au}, {n_in}]"
    )


def archive_lines(dataset: Dataset) -> Iterator[str]:
    """The canonical archive, in pieces: a JSON document with the format and
    provenance first, then one product row per line, floats in their shortest
    round-trip form, so re-emitting a loaded archive gives the same bytes.  A
    trailing seal indexes each area's rows and holds the sha256 of every byte
    before it.  The rows are joined into pieces of about ``CHUNK``
    characters, each hashed as it is yielded, so the text held at once stays
    small whatever the dataset's size.  A dataset without products has an
    empty products block and an empty area index."""
    head = (
        f'{{"format": "{ARCHIVE_FORMAT}",\n'
        f'"provenance": {json.dumps(dataset.provenance._asdict(), sort_keys=True)},\n'
        '"products": [\n'
    )
    yield head
    digest = hashlib.sha256(head.encode("utf-8"))
    starts: list[tuple[str, int]] = []  # each area, and where its first row starts in the products block
    area = None
    rows: list[str] = []  # the rows of the piece being joined
    at = size = 0  # where the piece starts in the products block, and its size with a ",\n" after each row
    for p in dataset.products:
        if size >= CHUNK:
            piece = ",\n".join(rows) + ",\n"
            digest.update(piece.encode("utf-8"))
            yield piece
            rows.clear()
            at, size = at + size, 0
        row = _product_row(p)
        if p[2] != area:  # p.discipline
            area = p[2]
            starts.append((area, at + size))
        rows.append(row)
        size += len(row) + 2
    if rows:  # the last piece, which ends the block with "\n" in place of ",\n"; only an empty dataset has none
        piece = ",\n".join(rows) + "\n"
        digest.update(piece.encode("utf-8"))
        yield piece
    at += size - 1
    # an area's rows end where the next area's start, less the ",\n" between them
    ends = [start - 2 for _, start in starts[1:]] + [at - 1]
    areas = [[area, start, end] for (area, start), end in zip(starts, ends)]
    seal = f'],\n"seal": {{"areas": {json.dumps(areas)}, "sha256": "'
    digest.update(seal.encode("utf-8"))
    yield seal + digest.hexdigest() + '"}}\n'


def write_archive(dataset: Dataset) -> str:
    """The archive of ``archive_lines`` as one string."""
    return "".join(archive_lines(dataset))


_PROVENANCE_KEYS = frozenset(Provenance._fields)

# A sealed archive is read by its lines, so it must keep the writer's layout:
# the format line, then the provenance and products-opening lines, and at the
# end the line that closes the products and the seal line.
_SEALED_HEAD = f'{{"format": "{ARCHIVE_FORMAT}",\n'
_SEALED_HEAD_REST = re.compile(r'"provenance": (\{[^\n]*\}),\n"products": \[\n')
_SEALED_TAIL = re.compile(r'\],\n"seal": \{"areas": (\[[^\n]*\]), "sha256": "([0-9a-f]{64})"\}\}\n')
_LAYOUT_ERROR = f"a {ARCHIVE_FORMAT} archive must keep the canonical line layout of its writer"
_FORMAT_ERROR = (
    f"expected a {ARCHIVE_FORMAT!r} archive in its writer's layout, got {{}}: "
    "ingest the products CSV again to write a current archive"
)
#: The format string an archive opens with, in any layout, when it needs no
#: JSON escape: read only to name it in ``_FORMAT_ERROR``.
_FORMAT_HEAD = re.compile(r'\{\s*"format"\s*:\s*"([^"\\\x00-\x1f]*)"')
#: characters hashed, rows written, or rows decoded, at a time, and those of
#: a piece of the products file or of ``ingest``'s issue record: checking a
#: seal never copies the whole text, and a chunk this small is reused from the
#: heap instead of raising peak memory
CHUNK = 1 << 13


def _loads(text: str, at: int, undecodable: str = "archive is not valid JSON", **hooks):
    """``text``, which stands for the archive's text from offset ``at`` on, as
    JSON, decoded with ``json.loads``' ``hooks``; JSON that does not decode is
    ``bad_archive``: a syntax error named at its offset in the archive, any
    other failure after ``undecodable``."""
    try:
        return json.loads(text, **hooks)
    except json.JSONDecodeError as exc:
        raise PipelineError("bad_archive", f"archive is not valid JSON: {exc.msg} at char {at + exc.pos}") from None
    except (ValueError, RecursionError) as exc:  # an integer too long to convert, or nesting too deep to decode
        raise PipelineError("bad_archive", f"{undecodable}: {exc}") from None


def _provenance(text: str, at: int) -> Provenance:
    """The provenance of the JSON object ``text``, at offset ``at`` of the
    archive: each of its keys once, all strings.  Its (key, value) pairs are
    read as written, so that a repeated key is not dropped unread."""
    pairs = _loads(text, at, object_pairs_hook=list)  # an object: the layout check read ``text`` as "{...}"
    prov = dict(pairs)
    if len(prov) != len(pairs) or prov.keys() != _PROVENANCE_KEYS or not all(type(v) is str for v in prov.values()):
        raise PipelineError(
            "bad_archive", f"archive provenance must be an object of the keys {sorted(_PROVENANCE_KEYS)}, all strings"
        )
    return Provenance(**prov)


def text_sha256(text: str, end: int) -> str:
    """The sha256 of ``text[:end]`` in UTF-8, a lone surrogate encoded as its
    code point (``"surrogatepass"``), so that any ``str`` has a digest.  The
    text is hashed a chunk at a time, so it is never copied whole."""
    digest = hashlib.sha256()
    for at in range(0, end, CHUNK):
        digest.update(text[at : min(at + CHUNK, end)].encode("utf-8", "surrogatepass"))
    return digest.hexdigest()


def _unseal(text: str) -> tuple[str, int, int, int, str, int]:
    r"""Check the layout and the seal of a sealed archive.  Returns the JSON
    text of its provenance and the offset it starts at, the offsets its
    products block starts and ends at (the end is that of the block's last
    "\n"), and the JSON text of its area index and the offset it starts at."""
    last_line = text.rfind("\n", 0, len(text) - 1) + 1
    head = _SEALED_HEAD_REST.match(text, len(_SEALED_HEAD))
    tail = _SEALED_TAIL.fullmatch(text, max(last_line - len("],\n"), 0))
    if head is None or tail is None:
        raise PipelineError("bad_archive", _LAYOUT_ERROR)
    if text_sha256(text, tail.start(2)) != tail[2]:
        raise PipelineError("bad_archive", "the archive's bytes do not match its seal")
    return head[1], head.start(1), head.end(), tail.start(), tail[1], tail.start(1)


def _area_index(text: str, block: int, end: int, index: str, index_at: int) -> list[tuple[str, int, int]]:
    r"""The (area, start, end) entries of a row archive's index, the JSON text
    ``index`` at offset ``index_at`` of the archive, checked to
    tile its products block ``text[block:end]`` exactly: the first area starts
    at 0, each next one 2 characters after the previous one ends, where the
    block holds ",\n", and the last ends at the block's final "\n"; the area
    names strictly increase.  An empty block, an empty dataset's, has an empty
    index, and no other block has.  The seal is not a signature, so without this
    check a re-sealed archive could leave rows out of every area unread."""
    entries = _loads(index, index_at, "invalid area index")
    try:
        areas = [(area, start, stop) for area, start, stop in entries]
    except (TypeError, ValueError) as exc:
        raise PipelineError("bad_archive", f"invalid area index: {exc}") from None
    size, at, previous = end - block, 0, ""
    for area, start, stop in areas:
        if not (
            type(area) is str
            and area > previous
            and type(start) is int
            and start == at
            and type(stop) is int
            and start < stop < size
            and text.startswith(",\n" if stop < size - 1 else "\n", block + stop)
        ):
            raise PipelineError(
                "bad_archive", f"the area index does not tile the products block in area order, at {area!r}"
            )
        at, previous = stop + 2, area
    if at != (size + 1 if size else 0):  # past the last area's final "\n", or no area at all
        raise PipelineError("bad_archive", "the area index does not cover the whole products block")
    return areas


def _area_products(text: str, start: int, stop: int, area: str) -> list[Product]:
    r"""The products of the rows ``text[start:stop]``, one area's: each row
    must be a list of the ``PRODUCTS_HEADER`` values, with ``area`` as its
    discipline.  The rows are decoded about ``CHUNK`` characters at a time,
    each chunk cut at a ",\n" between two rows, so the decoded rows held at
    once stay few however large the area."""
    products: list[Product] = []
    while start < stop:
        cut = text.find(",\n", min(start + CHUNK, stop), stop)
        cut = stop if cut < 0 else cut
        try:
            for row in _loads("[" + text[start:cut] + "]", start - 1):
                if type(row) is not list or len(row) != len(PRODUCTS_HEADER):
                    raise ValueError(f"a row must be a list of {len(PRODUCTS_HEADER)} values, got {row!r}")
                pid, sid, discipline, year, ptype, rating, tr, cites, impact, n_au, n_in = row
                if discipline != area:
                    raise ValueError(f"a row under area {area!r} has the discipline {discipline!r}")
                ptype, rating = PRODUCT_TYPES[ptype], TOKEN_RATINGS[rating]
                products.append(Product(pid, sid, discipline, year, ptype, rating, tr, cites, impact, n_au, n_in))
        except (KeyError, TypeError, ValueError) as exc:  # KeyError, TypeError: an unknown or unhashable token
            raise PipelineError("bad_archive", f"invalid product row: {exc}") from None
        start = cut + 2
    return products


def load_archive(text: str, discipline: str | None = None) -> Dataset:
    """The dataset of an ``ARCHIVE_FORMAT`` archive: its seal is checked and
    every product is built and checked.  It is decoded one area at a time, and
    given a ``discipline``, for a command that reads one area, only that
    area's rows are decoded, after the seal and the area index are checked
    whole; ``products_in(discipline)`` then gives the area's products, or the
    ``empty_discipline`` error when it has none.  A text that does not open
    with the format's head line, an archive of an earlier format among them,
    is ``bad_archive``."""
    if not text.startswith(_SEALED_HEAD):
        head = _FORMAT_HEAD.match(text)
        raise PipelineError("bad_archive", _FORMAT_ERROR.format(f"format {head[1]!r}" if head else "no format"))
    provenance_json, provenance_at, block, end, index, index_at = _unseal(text)
    products: list[Product] = []
    for area, start, stop in _area_index(text, block, end, index, index_at):
        if discipline is None or area == discipline:
            products += _area_products(text, block + start, block + stop, area)
    provenance = _provenance(provenance_json, provenance_at)
    try:
        return Dataset(products=tuple(products), provenance=provenance)
    except (PipelineError, ValueError) as exc:  # a row out of key order, or a repeated one
        raise PipelineError("bad_archive", f"archive rows must be in strictly increasing key order: {exc}") from None
