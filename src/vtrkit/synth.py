"""Seeded synthetic assessment-exercise generator.

The confidential product-level data of the original exercise is not
available, so end-to-end validation runs on generated data with a known
latent model: each product draws a latent quality u ~ Uniform(0,1); the peer
rating comes from quality thresholds anchored at the published scale shares
(top 20% excellent, next 20% good, next 20% acceptable, bottom 40% limited);
covered products attach citations and impact factor through a bivariate
normal whose correlation with the quality score is configurable.

Determinism contract: every structure draws from its own stream keyed by
(seed, discipline, structure), so neither the order of the areas nor the
other structures change its products, and within a generator version
(``GENERATOR``) the same seed always produces byte-identical output.
``generate_exercise`` lists the draws a structure takes from its stream.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from bisect import bisect_right
from collections import namedtuple
from itertools import accumulate
from statistics import _normal_dist_inv_cdf
from typing import Iterable

from .model import (
    KNOWN_DISCIPLINES,
    RATING_ORDER,
    YEAR_MAX,
    YEAR_MIN,
    Dataset,
    InvalidProduct,
    PipelineError,
    Product,
    ProductType,
    Provenance,
)

#: The generator version, covered by the provenance digest: a change to the
#: data a seed gives is a new version, so one digest never names two datasets.
GENERATOR = "vtrkit-synth/2"

#: Product-type mix for generated products that are not database-covered:
#: a draw below the i-th cumulative share picks the i-th type, and a draw
#: past the last cut (their float sum) is OTHER.
_UNCOVERED_MIX = (
    (ProductType.JOURNAL_ARTICLE, 0.40),
    (ProductType.BOOK, 0.30),
    (ProductType.CHAPTER, 0.14),
    (ProductType.PROCEEDINGS, 0.10),
    (ProductType.PATENT, 0.04),
    (ProductType.OTHER, 0.02),
)
_UNCOVERED_CUTS = tuple(accumulate(share for _, share in _UNCOVERED_MIX))
_UNCOVERED_TYPES = (*(ptype for ptype, _ in _UNCOVERED_MIX), ProductType.OTHER)

_CITATION_LOG_MEDIAN = math.log(4.0)
#: A uniform that enters a normal score is clamped to [_LOW, _HIGH], strictly
#: inside (0, 1), so the score stays finite.
_LOW, _HIGH = 1e-12, 1.0 - 1e-16
#: The ratings from the bottom up: u takes the one at the count of quality cuts it reaches.
_BY_QUALITY = RATING_ORDER[::-1]


class DisciplineSpec(
    namedtuple("DisciplineSpec", "code n_structures products_min products_max coverage", defaults=(0.85,))
):
    __slots__ = ()


DEFAULT_DISCIPLINES = tuple(
    DisciplineSpec(code, n_structures=12, products_min=4, products_max=40) for code in KNOWN_DISCIPLINES
)


#: The SynthConfig fields, in order, each with its default.
_CONFIG_DEFAULTS = {
    "seed": 0,
    "disciplines": DEFAULT_DISCIPLINES,
    "target_rho": 0.5,
    "rating_thresholds": (0.20, 0.40, 0.60),
    "citation_dispersion": 1.0,
    "if_scale": 2.0,
    "year_min": 2001,
    "year_max": 2003,
    "internal_author_share": 0.7,
    "hyperauthor_rate": 0.002,
}


class SynthConfig(namedtuple("SynthConfig", _CONFIG_DEFAULTS, defaults=_CONFIG_DEFAULTS.values())):
    """Generator knobs.

    ``rating_thresholds`` are cumulative shares from the top of the quality
    scale: with the default (0.20, 0.40, 0.60) the top 20% of latent quality
    is rated E, the next 20% G, the next 20% A and the bottom 40% L.
    ``target_rho`` is the latent normal-scale correlation between quality and
    the bibliometric draws.
    Each config is checked where it is built (in code, by ``_replace`` or from
    JSON), so an invalid one is an ``invalid_config`` PipelineError.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "SynthConfig":
        self = super().__new__(cls, *args, **kwargs)
        # types are checked exactly, as Product does: bool is not an int here
        if type(self.seed) is not int:
            raise PipelineError("invalid_config", "seed must be an integer")
        reals = (
            self.target_rho,
            self.citation_dispersion,
            self.if_scale,
            self.internal_author_share,
            self.hyperauthor_rate,
        )
        if not all(map(_is_real, reals)):
            raise PipelineError(
                "invalid_config",
                "target_rho, citation_dispersion, if_scale, internal_author_share and hyperauthor_rate "
                "must be finite numbers",
            )
        if type(self.rating_thresholds) is not tuple or len(self.rating_thresholds) != 3:
            raise PipelineError("invalid_config", "rating_thresholds must have exactly three levels")
        if not all(map(_is_real, self.rating_thresholds)):
            raise PipelineError("invalid_config", "rating_thresholds must be finite numbers")
        t1, t2, t3 = self.rating_thresholds
        if not 0.0 < t1 < t2 < t3 < 1.0:
            raise PipelineError("invalid_config", "rating_thresholds must be strictly increasing in (0, 1)")
        if not -1.0 < self.target_rho < 1.0:
            raise PipelineError("invalid_config", "target_rho must lie in (-1, 1)")
        if self.citation_dispersion <= 0 or self.if_scale <= 0:
            raise PipelineError("invalid_config", "citation_dispersion and if_scale must be positive")
        if type(self.year_min) is not int or type(self.year_max) is not int:
            raise PipelineError("invalid_config", "year_min and year_max must be integers")
        if not YEAR_MIN <= self.year_min <= self.year_max <= YEAR_MAX:
            raise PipelineError(
                "invalid_config", f"year bounds must satisfy {YEAR_MIN} <= year_min <= year_max <= {YEAR_MAX}"
            )
        if not 0.0 <= self.internal_author_share <= 1.0:
            raise PipelineError("invalid_config", "internal_author_share must lie in [0, 1]")
        if not 0.0 <= self.hyperauthor_rate <= 1.0:
            raise PipelineError("invalid_config", "hyperauthor_rate must lie in [0, 1]")
        specs = self.disciplines
        if type(specs) is not tuple or not specs or not all(type(s) is DisciplineSpec for s in specs):
            raise PipelineError("invalid_config", "at least one discipline is required, as a tuple of DisciplineSpec")
        for spec in specs:
            if type(spec.code) is not str or not spec.code:
                raise PipelineError("invalid_config", "discipline code must be a nonempty string")
            if not all(type(n) is int for n in (spec.n_structures, spec.products_min, spec.products_max)):
                raise PipelineError(
                    "invalid_config", f"{spec.code}: n_structures, products_min and products_max must be integers"
                )
            if not _is_real(spec.coverage):
                raise PipelineError("invalid_config", f"{spec.code}: coverage must be a finite number")
            if spec.n_structures < 1:
                raise PipelineError("invalid_config", f"{spec.code}: n_structures must be >= 1")
            if not 1 <= spec.products_min <= spec.products_max:
                raise PipelineError("invalid_config", f"{spec.code}: bad products range")
            if not 0.0 <= spec.coverage <= 1.0:
                raise PipelineError("invalid_config", f"{spec.code}: coverage must lie in [0, 1]")
        codes = [spec.code for spec in specs]
        if len(set(codes)) != len(codes):
            raise PipelineError("invalid_config", f"discipline codes must be unique, got {codes}")
        return self

    @classmethod
    def _make(cls, iterable: Iterable) -> "SynthConfig":
        # namedtuple's own _make (which _replace calls) would skip the checks
        return cls(*iterable)


def _is_real(value: object) -> bool:
    """A finite int or float; bool does not count."""
    return type(value) is int or (type(value) is float and math.isfinite(value))


def generate_exercise(config: SynthConfig) -> Dataset:
    """Generate a full synthetic exercise dataset from a config.

    Each structure seeds one stream from ``"{seed}|{code}|{structure}"`` (sha256
    of the key, as a big-endian integer).  Its first draw is the structure's
    product count; then each product, in index order, draws from the same
    stream, in this order: the quality u, coverage, year, the type if
    uncovered, the hyperauthor draw, the author count (a uniform or a normal),
    one draw per co-author, then two normals if covered.
    """
    seed = config.seed
    # u >= 1 - t1 is E; else u >= 1 - t2 is G; else u >= 1 - t3 is A; else L
    quality_cuts = sorted(1.0 - t for t in config.rating_thresholds)
    year_min, years = config.year_min, config.year_max - config.year_min + 1
    hyperauthor_rate, internal_share = config.hyperauthor_rate, config.internal_author_share
    rho, dispersion, if_scale = config.target_rho, config.citation_dispersion, config.if_scale
    rho_rest = math.sqrt(1.0 - rho * rho)
    # inv_cdf is NormalDist().inv_cdf's kernel, without the range checks the clamp already meets
    inv_cdf, exp, sha256, from_bytes = _normal_dist_inv_cdf, math.exp, hashlib.sha256, int.from_bytes
    Random = random.Random
    products = []
    append = products.append
    indices: list[str] = []  # f"{i + 1:04d}" at i, up to the largest product count drawn so far
    try:
        for spec in config.disciplines:
            code, coverage, products_min = spec.code, spec.coverage, spec.products_min
            sizes = spec.products_max - products_min + 1
            for s in range(1, spec.n_structures + 1):
                structure_id = f"S{s:03d}"
                prefix = f"P-{code}-{structure_id}-"
                draw = Random(from_bytes(sha256(f"{seed}|{code}|{structure_id}".encode()).digest(), "big")).random
                n_products = products_min + min(int(draw() * sizes), sizes - 1)
                if n_products > len(indices):
                    indices += [f"{i:04d}" for i in range(len(indices) + 1, n_products + 1)]
                for index in indices[:n_products]:
                    if not _LOW <= (u := draw()) <= _HIGH:
                        u = min(max(u, _LOW), _HIGH)
                    rating = _BY_QUALITY[bisect_right(quality_cuts, u)]
                    covered = draw() < coverage
                    year = year_min + min(int(draw() * years), years - 1)
                    if covered:
                        product_type = ProductType.JOURNAL_ARTICLE
                    else:
                        product_type = _UNCOVERED_TYPES[bisect_right(_UNCOVERED_CUTS, draw())]
                    if draw() < hyperauthor_rate:
                        n_authors = 100 + min(int(draw() * 1401), 1400)
                    else:
                        if not _LOW <= (v := draw()) <= _HIGH:
                            v = min(max(v, _LOW), _HIGH)
                        # at least 2: exp of a non-negative number is at least 1
                        n_authors = round(2.0 * exp(0.9 * abs(inv_cdf(v, 0.0, 1.0))))
                    n_internal = 1
                    for _ in range(n_authors - 1):
                        if draw() < internal_share:
                            n_internal += 1
                    citations = journal_if = None
                    if covered:
                        if not _LOW <= (v := draw()) <= _HIGH:
                            v = min(max(v, _LOW), _HIGH)
                        z_biblio = rho * inv_cdf(u, 0.0, 1.0) + rho_rest * inv_cdf(v, 0.0, 1.0)
                        citations = round(exp(_CITATION_LOG_MEDIAN + dispersion * z_biblio))
                        if not _LOW <= (v := draw()) <= _HIGH:
                            v = min(max(v, _LOW), _HIGH)
                        journal_if = max(0.001, round(if_scale * exp(0.4 * z_biblio + 0.25 * inv_cdf(v, 0.0, 1.0)), 3))
                    append(
                        Product(
                            prefix + index,
                            structure_id,
                            code,
                            year,
                            product_type,
                            rating,
                            covered,
                            citations,
                            journal_if,
                            n_authors,
                            n_internal,
                        )
                    )
    except (InvalidProduct, OverflowError) as exc:  # extreme knobs can draw values past the bounds
        raise PipelineError("invalid_config", f"{spec.code}: config yields an invalid product: {exc}") from None

    config_digest = hashlib.sha256(f"{GENERATOR}|{config!r}".encode("utf-8")).hexdigest()
    provenance = Provenance(
        source_name=f"synth:seed={config.seed}",
        source_digest=config_digest,
        ingested_at="1970-01-01T00:00:00+00:00",
    )
    return Dataset.from_products(products, provenance)


def load_synth_config(text: str) -> SynthConfig:
    """Build a SynthConfig from its JSON form.

    The keys are the SynthConfig fields; ``disciplines`` is a list of objects
    whose keys are the DisciplineSpec fields.  Bad JSON, an unknown or missing
    key at either level, or a wrong value is ``invalid_config``.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an integer past int()'s digit limit, or deep nesting
        raise PipelineError("invalid_config", f"config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise PipelineError("invalid_config", "config must be a JSON object")
    if type(doc.get("rating_thresholds")) is list:
        doc["rating_thresholds"] = tuple(doc["rating_thresholds"])
    try:
        if type(doc.get("disciplines")) is list:
            doc["disciplines"] = tuple(DisciplineSpec(**entry) for entry in doc["disciplines"])
        return SynthConfig(**doc)
    except TypeError as exc:  # an unknown or missing key, or an entry that is not an object
        raise PipelineError("invalid_config", f"bad config: {exc}") from None
