"""JSON output of the result records.

JSON needs no table: ``as_json`` converts the result records field by field,
or through their own ``json_shape`` method where they have one, and keeps
full-precision numbers, with separate fields for bracketed ratios.  This
module imports only ``model``, so a ``--format json`` command loads none of
the markdown and CSV code of ``tables``.
"""

from __future__ import annotations

import enum
import json

from .model import PeerRating, Product


def json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})


def as_json(value):
    """JSON-ready form of a result: a value with a ``json_shape`` method
    becomes what it returns, a record (a namedtuple, tested before tuples) a
    dict of its fields; peer ratings become their tokens, other enums their
    values, and tuples, a ``Product`` among them, lists."""
    if type(value) in _JSON_SCALARS:
        return value
    shape = getattr(value, "json_shape", None)
    if shape is not None:
        return shape()
    if hasattr(value, "_asdict") and not isinstance(value, Product):
        return {k: as_json(v) for k, v in value._asdict().items()}
    if isinstance(value, (list, tuple)):
        return [as_json(v) for v in value]
    if isinstance(value, dict):
        return {k: as_json(v) for k, v in value.items()}
    if isinstance(value, PeerRating):
        return value.token
    if isinstance(value, enum.Enum):
        return value.value
    return value
