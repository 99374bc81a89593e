"""Archives of the two formats before ``vtrkit-dataset/3``, whose products
are records, JSON objects keyed by the products-file columns: the sealed
``vtrkit-dataset/2`` and the unsealed ``vtrkit-dataset/1``.

``model.load_archive`` imports this module only for such an archive, so a
command on a current archive does not load it.
"""

from __future__ import annotations

import json

from .model import (
    ARCHIVE_FORMAT,
    PRODUCTS_HEADER,
    RECORDS_FORMAT,
    UNSEALED_FORMAT,
    Dataset,
    PipelineError,
    Product,
    _LAYOUT_ERROR,
    _PRODUCT_TYPES,
    _SEALED_HEADS,
    _TOKEN_RATINGS,
    _provenance,
    _sealed_format,
    _unseal,
)

#: The keys of a product record; all but ``citations`` and ``journal_if``
#: are always written.
_RECORD_KEYS = frozenset(PRODUCTS_HEADER)
_REQUIRED_RECORD_KEYS = len(_RECORD_KEYS) - 2
_FORMAT_KEYS = {
    UNSEALED_FORMAT: frozenset(("format", "provenance", "products")),
    RECORDS_FORMAT: frozenset(("format", "provenance", "products", "seal")),
}


def _record_product(obj: dict):
    """``load_records``' object hook: a JSON object with a ``product_id`` key
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


def load_records(text: str) -> Dataset:
    """The dataset of an archive that is not a sealed ``ARCHIVE_FORMAT`` one:
    a ``RECORDS_FORMAT`` archive's seal is checked, then the whole document is
    decoded, each product record built as soon as it is decoded, so the
    decoded records are never held at once."""
    sealed = _sealed_format(text)
    if sealed is not None:
        _unseal(text, sealed)
    doc = _decode(text)
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt in _SEALED_HEADS and sealed is None:
        raise PipelineError("bad_archive", _LAYOUT_ERROR)
    if fmt not in _FORMAT_KEYS:
        raise PipelineError(
            "bad_archive", f"expected archive format {ARCHIVE_FORMAT!r}, {RECORDS_FORMAT!r} or {UNSEALED_FORMAT!r}"
        )
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
