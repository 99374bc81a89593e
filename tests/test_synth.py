"""Synthetic exercise generator: determinism, latent-model fidelity, config."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
import scipy.stats

from vtrkit.concordance import pairwise_probabilities, peer_bibliometric_spearman
from vtrkit.model import PipelineError, serialize_products, write_archive
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


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        a = serialize_products(generate_exercise(small_config(seed=42)))
        b = serialize_products(generate_exercise(small_config(seed=42)))
        assert a == b

    def test_same_seed_same_archive(self):
        a = write_archive(generate_exercise(small_config(seed=42)))
        b = write_archive(generate_exercise(small_config(seed=42)))
        assert a == b

    def test_different_seed_different_data(self):
        a = serialize_products(generate_exercise(small_config(seed=1)))
        b = serialize_products(generate_exercise(small_config(seed=2)))
        assert a != b

    def test_discipline_order_irrelevant(self):
        """Substreams are keyed by (seed, discipline, structure, index), so
        spec order cannot change any product."""
        specs = (
            DisciplineSpec("BIO", 3, 5, 15, coverage=0.9),
            DisciplineSpec("MCS", 2, 5, 15, coverage=0.7),
        )
        forward = generate_exercise(small_config(seed=9, disciplines=specs))
        backward = generate_exercise(small_config(seed=9, disciplines=specs[::-1]))
        assert forward.products == backward.products


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
                observed[rho] = pairwise_probabilities(groups[4], groups[3]).p_greater
            if observed[0.7] > observed[0.2]:
                wins += 1
        # under no effect wins ~ Binomial(50, 0.5); 42 is > 4 sigma away
        assert wins >= 42


class TestConfig:
    def test_default_config_valid(self):
        SynthConfig().validate()
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
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(PipelineError) as err:
            SynthConfig(**kwargs).validate()
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
