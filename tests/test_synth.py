"""Synthetic exercise generator: determinism, latent-model fidelity, config."""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.stats

from vtrkit import model, synth
from vtrkit.cli import main
from vtrkit.concordance import pairwise_probabilities, peer_bibliometric_spearman
from vtrkit.ingest import serialize_products
from vtrkit.model import PipelineError, write_archive
from vtrkit.synth import (
    DEFAULT_DISCIPLINES,
    DisciplineSpec,
    SynthConfig,
    generate_exercise,
    load_synth_config,
)


def small_config(seed: int = 1, rho: float = 0.5, **kwargs) -> SynthConfig:
    disciplines = kwargs.pop(
        "disciplines", (DisciplineSpec("BIO", 4, 10, 30, coverage=0.9),)
    )
    return SynthConfig(seed=seed, disciplines=disciplines, target_rho=rho, **kwargs)


def latent_model_spearman_oracle(rho: float, n: int = 100_000, seed: int = 0) -> float:
    """Direct simulation of the documented latent model, independent of the
    generator: quality u -> rating level via the default top-share anchors,
    citations via the correlated log-normal draw."""
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    levels = np.select([u >= 0.8, u >= 0.6, u >= 0.4], [4, 3, 2], default=1)
    z_quality = scipy.stats.norm.ppf(u)
    z_biblio = rho * z_quality + math.sqrt(1.0 - rho * rho) * rng.standard_normal(n)
    citations = np.rint(np.exp(math.log(4.0) + z_biblio))
    return scipy.stats.spearmanr(levels, citations).statistic


#: The known areas in the order of the benchmark's inputs.
BENCHMARK_AREAS = ("MCS", "PHY", "CHE", "EAS", "BIO", "MED", "AVM", "CEA", "IIE", "ECS")


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        a = serialize_products(generate_exercise(small_config(seed=42)))
        b = serialize_products(generate_exercise(small_config(seed=42)))
        assert a == b

    def test_same_seed_same_archive(self):
        a = write_archive(generate_exercise(small_config(seed=42)))
        b = write_archive(generate_exercise(small_config(seed=42)))
        assert a == b

    @pytest.mark.parametrize(
        "config, seed, digest",
        [
            (None, 42, "6205d7f59a9c58276230315f6db19dafbf6cb21b5e00aa01ef62b5a28dd2bd53"),
            (
                '{"target_rho": 0.6, "disciplines": [{"code": "BIO", "n_structures": 10,'
                ' "products_min": 50, "products_max": 50, "coverage": 1.0}]}',
                4000001,
                "f9faa5235a698af9b20f5aa62ae4598034020248de519479c3c600ff40c3821e",
            ),
            (
                '{"target_rho": -0.8, "hyperauthor_rate": 1.0, "internal_author_share": 1.0,'
                ' "rating_thresholds": [0.05, 0.5, 0.95], "citation_dispersion": 0.3, "if_scale": 7.5,'
                ' "year_min": 1990, "year_max": 2010, "disciplines": ['
                '{"code": "MCS", "n_structures": 3, "products_min": 1, "products_max": 9, "coverage": 0.0},'
                ' {"code": "Q1", "n_structures": 2, "products_min": 3, "products_max": 7, "coverage": 1.0}]}',
                31,
                "de207b0db31f4247a743e53ff0b739e1352274a561015e3577ba547d707ca09a",
            ),
        ],
        ids=["default", "trial_shape", "every_branch"],
    )
    def test_pinned_csv_digest(self, tmp_path, config, seed, digest):
        """The generated bytes for a seed are fixed across code changes within
        a generator version, not only between two runs of one build."""
        out = tmp_path / "products.csv"
        argv = ["synth", "--seed", str(seed), "--out", str(out)]
        if config is not None:
            (tmp_path / "config.json").write_text(config, encoding="utf-8")
            argv += ["--config", str(tmp_path / "config.json")]
        assert main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "specs, digest",
        [
            (
                [DisciplineSpec(code, 120, 4, 40) for code in BENCHMARK_AREAS],
                "cdce999e5117b18cd235f1d7027052e81a86ea0f8d67fe22f73a183df841b29e",
            ),
            (
                [DisciplineSpec(f"X{i:02d}", 12, 4, 40) for i in range(100)],
                "776a62399095639c6b5b13eef6658657becf1a5fef36c18bee49a7dfe0a93b08",
            ),
            (
                [DisciplineSpec("BIO", 10, 50, 50, 1.0)],
                "fdf7e0b141b006f14cca4b3c335855d473d98f601bbafbaf4ef9b95148fe25c6",
            ),
        ],
        ids=["exercise-26k", "many-areas", "validation-study"],
    )
    def test_pinned_benchmark_input_digest(self, tmp_path, specs, digest):
        """The seed-7 products CSV of each benchmark input shape: 120
        structures per area and 100 areas are pinned too."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"disciplines": [spec._asdict() for spec in specs]}), encoding="utf-8")
        out = tmp_path / "products.csv"
        assert main(["synth", "--seed", "7", "--config", str(config), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_normal_quantile_kernel_equals_normal_dist(self):
        """The generator calls the private kernel behind ``NormalDist().inv_cdf``
        directly; a Python release that renames or changes it fails here."""
        rng = random.Random(5)
        for p in (synth._LOW, synth._HIGH, 0.5, *(rng.random() for _ in range(10_000))):
            assert statistics._normal_dist_inv_cdf(p, 0.0, 1.0).hex() == statistics.NormalDist().inv_cdf(p).hex()

    def test_different_seed_different_data(self):
        a = serialize_products(generate_exercise(small_config(seed=1)))
        b = serialize_products(generate_exercise(small_config(seed=2)))
        assert a != b

    def test_discipline_order_irrelevant(self):
        """Streams are keyed by (seed, discipline, structure), so neither spec
        order nor the other areas change an area's products: generated alone,
        it has the products it has listed first or last."""
        specs = (
            DisciplineSpec("BIO", 3, 5, 15, coverage=0.9),
            DisciplineSpec("MCS", 2, 5, 15, coverage=0.7),
        )
        forward = generate_exercise(small_config(seed=9, disciplines=specs))
        backward = generate_exercise(small_config(seed=9, disciplines=specs[::-1]))
        assert forward.products == backward.products
        for spec in specs:
            alone = generate_exercise(small_config(seed=9, disciplines=(spec,)))
            assert alone.products == forward.products_in(spec.code) == backward.products_in(spec.code)

    def test_other_structures_irrelevant(self):
        """A structure's products do not depend on how many structures follow it."""
        three = generate_exercise(small_config(seed=9, disciplines=(DisciplineSpec("BIO", 3, 5, 15),)))
        five = generate_exercise(small_config(seed=9, disciplines=(DisciplineSpec("BIO", 5, 5, 15),)))
        assert {p.structure_id for p in three.products} == {"S001", "S002", "S003"}
        assert three.products == tuple(p for p in five.products if p.structure_id <= "S003")

    def test_structure_sizes_ignore_the_product_draws(self):
        """A structure's product count is its stream's first draw, so knobs that
        change how many draws a product takes change no structure's size."""

        def sizes(**kwargs) -> Counter:
            return Counter(p.structure_id for p in generate_exercise(small_config(seed=9, **kwargs)).products)

        fewer_draws = (DisciplineSpec("BIO", 4, 10, 30, coverage=0.1),)
        assert sizes() == sizes(internal_author_share=0.2, hyperauthor_rate=0.3) == sizes(disciplines=fewer_draws)

    def test_provenance_digest_covers_the_generator_version(self, monkeypatch):
        """The same digest never names the data of two generator versions."""
        config = small_config(seed=3)
        digest = generate_exercise(config).provenance.source_digest
        assert digest != hashlib.sha256(repr(config).encode("utf-8")).hexdigest()
        monkeypatch.setattr(synth, "GENERATOR", "vtrkit-synth/0")
        assert generate_exercise(config).provenance.source_digest != digest

    @pytest.mark.parametrize(
        "config, digest",
        [
            (SynthConfig(seed=1), "85b1f6a4a645f74384ab4cf0f604ac36f47c6326a52cb402112bcb72fce079cd"),
            (
                SynthConfig(seed=7, disciplines=(DisciplineSpec("BIO", 10, 50, 50, 1.0),), target_rho=0.6),
                "1b8a2553b20b3ba71faf15902491c68d19b28c97a9715087ec06070cc812ed2d",
            ),
        ],
        ids=["default", "validation-study"],
    )
    def test_pinned_provenance_digest(self, config, digest):
        """The digest hashes the config's repr: a config's fields, their
        order and their defaults name the same data under one generator."""
        assert generate_exercise(config).provenance.source_digest == digest

    def test_one_seeding_per_structure(self, monkeypatch):
        """The generator seeds the Mersenne Twister once per structure, not
        once per product."""
        seedings = []

        class CountingRandom(random.Random):
            def seed(self, *args, **kwargs):
                seedings.append(args)
                super().seed(*args, **kwargs)

        specs = (DisciplineSpec("BIO", 4, 10, 30), DisciplineSpec("MCS", 3, 1, 5))
        expected = generate_exercise(small_config(seed=9, disciplines=specs))
        monkeypatch.setattr(synth.random, "Random", CountingRandom)
        dataset = generate_exercise(small_config(seed=9, disciplines=specs))
        assert len(seedings) == 4 + 3
        assert dataset.products == expected.products


class TestGeneratedData:
    def test_products_satisfy_model_invariants(self):
        dataset = generate_exercise(small_config(seed=11))
        for p in dataset.products:
            assert p.n_authors >= 1
            assert 0 <= p.n_internal_authors <= p.n_authors
            if p.citations is not None or p.journal_if is not None:
                assert p.tr_indexed
            if p.tr_indexed:
                assert p.citations is not None and p.citations >= 0
                assert p.journal_if is not None and p.journal_if > 0
            assert 2001 <= p.year <= 2003

    def test_rating_shares_converge_to_threshold_widths(self):
        config = small_config(
            seed=3, disciplines=(DisciplineSpec("X", 20, 500, 500, coverage=0.5),)
        )
        dataset = generate_exercise(config)
        assert len(dataset) == 10_000
        shares = Counter(p.peer_rating.token for p in dataset.products)
        expected = {"E": 0.20, "G": 0.20, "A": 0.20, "L": 0.40}
        for token, want in expected.items():
            assert shares[token] / len(dataset) == pytest.approx(want, abs=0.02)

    def test_coverage_fraction(self):
        config = small_config(
            seed=3, disciplines=(DisciplineSpec("X", 20, 500, 500, coverage=0.5),)
        )
        dataset = generate_exercise(config)
        covered = sum(1 for p in dataset.products if p.tr_indexed)
        assert covered / len(dataset) == pytest.approx(0.5, abs=0.02)

    @pytest.mark.parametrize(
        ("areas", "sorts"),
        [
            # areas come in config order, and the default order is not alphabetical
            (DEFAULT_DISCIPLINES[:3], 1),
            # S1000 sorts before S999
            ((DisciplineSpec("BIO", 1000, 1, 1),), 1),
            # a product index of 10000 sorts before 9999
            ((DisciplineSpec("BIO", 1, 10_000, 10_000),), 1),
            # each id below those widths, areas in alphabetical order: already in key order
            ((DisciplineSpec("BIO", 999, 1, 1), DisciplineSpec("MED", 1, 9_999, 9_999)), 0),
        ],
        ids=["config_order", "wide_structure_id", "wide_product_index", "in_key_order"],
    )
    def test_key_order_and_sorts(self, areas, sorts, monkeypatch):
        """Generated products end in key order, and are sorted only when a
        shape generates them out of it."""
        calls = []
        key_sorted = model.key_sorted
        monkeypatch.setattr(model, "key_sorted", lambda products: calls.append(1) or key_sorted(products))
        dataset = generate_exercise(small_config(seed=2, disciplines=areas))
        keys = [p.key for p in dataset.products]
        assert keys == sorted(keys) and len(calls) == sorts

    def test_product_ids_past_four_digits(self):
        """Product ids keep the zero-padded index, which widens past 9999."""
        dataset = generate_exercise(small_config(seed=2, disciplines=(DisciplineSpec("BIO", 1, 10_001, 10_001),)))
        ids = {p.product_id for p in dataset.products}
        assert ids == {f"P-BIO-S001-{index:04d}" for index in range(1, 10_002)}
        assert {"P-BIO-S001-0001", "P-BIO-S001-9999", "P-BIO-S001-10000", "P-BIO-S001-10001"} <= ids

    def test_smaller_structures_after_larger_ones(self):
        """An area of small structures after an area of large ones has the
        products it has when it is generated alone."""
        small = DisciplineSpec("MCS", 5, 1, 12)
        both = generate_exercise(small_config(seed=4, disciplines=(DisciplineSpec("BIO", 3, 200, 300), small)))
        alone = generate_exercise(small_config(seed=4, disciplines=(small,)))
        assert both.products_in("MCS") == alone.products
        sizes = Counter(p.structure_id for p in alone.products)
        assert {p.product_id for p in alone.products} == {
            f"P-MCS-{structure}-{index:04d}" for structure, n in sizes.items() for index in range(1, n + 1)
        }

    def test_products_file_peak_memory_and_shared_years(self):
        """The products file is written in small pieces joined once at the
        end, and a year's products share one int."""
        dataset = generate_exercise(SynthConfig(seed=42))
        tracemalloc.start()
        try:
            text = serialize_products(dataset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # ~2.1 times here; 3.7 with the whole file in a csv.writer's io.StringIO first
        assert peak < 2.5 * len(text)
        assert len({id(p.year) for p in dataset.products}) == 3

    def test_structure_count_and_ids(self):
        dataset = generate_exercise(small_config(seed=5))
        structures = sorted({p.structure_id for p in dataset.products})
        assert structures == ["S001", "S002", "S003", "S004"]
        for structure in structures:
            count = len([p for p in dataset.products if p.structure_id == structure])
            assert 10 <= count <= 30


class TestLatentCorrelation:
    def two_thousand(self, rho: float, seed: int = 77):
        config = small_config(
            seed=seed,
            rho=rho,
            disciplines=(DisciplineSpec("BIO", 4, 500, 500, coverage=1.0),),
        )
        return generate_exercise(config)

    def test_high_rho_matches_simulation_oracle(self):
        dataset = self.two_thousand(rho=0.9)
        measured = peer_bibliometric_spearman(dataset.products_in("BIO"), "citations", "raw")
        oracle = latent_model_spearman_oracle(0.9)
        assert measured.coefficient > 0
        assert measured.coefficient == pytest.approx(oracle, abs=0.1)

    def test_zero_rho_uncorrelated(self):
        dataset = self.two_thousand(rho=0.0)
        measured = peer_bibliometric_spearman(dataset.products_in("BIO"), "citations", "raw")
        assert abs(measured.coefficient) < 0.1

    def test_rho_raises_adjacent_probability(self):
        """Paired seeds, 50 replicates: p_greater(E, G) should rise with the
        latent correlation essentially always (sign test)."""
        wins = 0
        for k in range(50):
            observed = {}
            for rho in (0.2, 0.7):
                config = small_config(
                    seed=9000 + k,
                    rho=rho,
                    disciplines=(DisciplineSpec("BIO", 1, 240, 240, coverage=1.0),),
                )
                dataset = generate_exercise(config)
                groups: dict[int, list[int]] = {4: [], 3: []}
                for p in dataset.products:
                    if p.citations is not None and p.peer_rating.value in groups:
                        groups[p.peer_rating.value].append(p.citations)
                observed[rho] = pairwise_probabilities(groups[4], groups[3]).as_floats()[0]
            if observed[0.7] > observed[0.2]:
                wins += 1
        # under no effect wins ~ Binomial(50, 0.5); 42 is > 4 sigma away
        assert wins >= 42


class TestConfig:
    def test_default_config_valid(self):
        SynthConfig()
        assert len(DEFAULT_DISCIPLINES) == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rating_thresholds": (0.4, 0.4, 0.6)},
            {"rating_thresholds": (0.0, 0.4, 0.6)},
            {"rating_thresholds": (0.2, 0.4)},
            {"target_rho": 1.0},
            {"citation_dispersion": 0.0},
            {"if_scale": -1.0},
            {"year_min": 2005, "year_max": 2003},
            {"year_min": 2001.5},
            {"year_min": 1500},
            {"year_max": 2200},
            {"disciplines": ()},
            {"disciplines": (DisciplineSpec(5, 1, 1, 5),)},
            {"disciplines": (DisciplineSpec("X", 0, 1, 5),)},
            {"disciplines": (DisciplineSpec("X", 1, 5, 4),)},
            {"disciplines": (DisciplineSpec("X", 1, 1, 5, coverage=1.5),)},
            {"target_rho": "0.5"},
            {"disciplines": (DisciplineSpec("X", 2.7, 1, 5),)},
            {"seed": 1.5},
            {"disciplines": (DisciplineSpec("X", 1, 1, 5, coverage="0.85"),)},
            {"rating_thresholds": (0.2, float("nan"), 0.6)},
            {"internal_author_share": 1.5},
            {"hyperauthor_rate": -0.1},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(PipelineError) as err:
            SynthConfig(**kwargs)
        assert err.value.code == "invalid_config"

    def test_load_json_config(self):
        text = """
        {
          "seed": 7,
          "target_rho": 0.3,
          "rating_thresholds": [0.1, 0.3, 0.5],
          "citation_dispersion": 1.5,
          "disciplines": [
            {"code": "BIO", "n_structures": 2, "products_min": 3, "products_max": 9, "coverage": 0.75}
          ]
        }
        """
        config = load_synth_config(text)
        assert config.seed == 7
        assert config.target_rho == 0.3
        assert config.rating_thresholds == (0.1, 0.3, 0.5)
        assert config.disciplines == (DisciplineSpec("BIO", 2, 3, 9, coverage=0.75),)

    def test_load_fills_defaults(self):
        config = load_synth_config(
            '{"disciplines": [{"code": "BIO", "n_structures": 2, "products_min": 3, "products_max": 9}]}'
        )
        assert config == SynthConfig(disciplines=(DisciplineSpec("BIO", 2, 3, 9, coverage=0.85),))

    def test_load_rejects_unknown_discipline_key(self):
        """A typo key in a discipline entry used to be ignored, leaving the
        default coverage in place."""
        text = '{"disciplines": [{"code": "X", "n_structures": 2, "products_min": 1, "products_max": 5, "coverag": 0.1}]}'
        with pytest.raises(PipelineError) as err:
            load_synth_config(text)
        assert err.value.code == "invalid_config" and "coverag" in str(err.value)

    def test_duplicate_codes_are_invalid_config(self):
        """Two areas of the same code are rejected when the config is built,
        not as duplicate products after generating every one of them."""
        entry = '{"code": "BIO", "n_structures": 2, "products_min": 1, "products_max": 5}'
        with pytest.raises(PipelineError) as err:
            load_synth_config(f'{{"disciplines": [{entry}, {entry}]}}')
        assert err.value.code == "invalid_config"
        with pytest.raises(PipelineError) as err:
            SynthConfig(disciplines=(DisciplineSpec("BIO", 2, 1, 5), DisciplineSpec("BIO", 3, 1, 5, coverage=0.5)))
        assert err.value.code == "invalid_config"

    def test_replace_is_checked(self):
        with pytest.raises(PipelineError) as err:
            SynthConfig()._replace(target_rho=2.0)
        assert err.value.code == "invalid_config"

    def test_load_rejects_bad_json(self):
        with pytest.raises(PipelineError) as err:
            load_synth_config("{nope")
        assert err.value.code == "invalid_config"

    def test_load_rejects_unknown_keys(self):
        with pytest.raises(PipelineError) as err:
            load_synth_config('{"sede": 3}')
        assert err.value.code == "invalid_config"

    @pytest.mark.parametrize(
        "text",
        [
            '{"target_rho": "0.5"}',
            '{"seed": true}',
            '{"rating_thresholds": 0.2}',
            '{"disciplines": 5}',
            '{"disciplines": [{"code": "X", "n_structures": 2.7, "products_min": 1, "products_max": 5}]}',
            '{"disciplines": []}',
            '{"disciplines": {"code": "X", "n_structures": 2, "products_min": 1, "products_max": 5}}',
            '{"disciplines": ["X"]}',
            '{"disciplines": [{"code": "X", "n_structures": 2, "products_min": 1}]}',
            pytest.param('{"seed": 1' + "0" * 5000 + "}", id="seed_past_int_digit_limit"),
            pytest.param('{"seed": ' + "[" * 100_000 + "]" * 100_000 + "}", id="nested_too_deep"),
            '[{"seed": 1}]',
            '"config"',
        ],
    )
    def test_load_rejects_mistyped_values(self, text):
        with pytest.raises(PipelineError) as err:
            load_synth_config(text)
        assert err.value.code == "invalid_config"

    def test_out_of_range_draws_are_invalid_config(self):
        with pytest.raises(PipelineError) as err:
            generate_exercise(small_config(citation_dispersion=50.0))
        assert err.value.code == "invalid_config"

    def test_load_rejects_invalid_values(self):
        with pytest.raises(PipelineError) as err:
            load_synth_config('{"target_rho": 2.0}')
        assert err.value.code == "invalid_config"
