"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with its measured numbers.

Criterion 4a (published contingency row sums) is expected to FAIL: the
published CHE/G citation row prints 35.2 + 22.8 + 22.8 + 19.8 = 100.6,
outside the stated +-0.3 band.  That is a defect of the published table
itself (all 80 rows were transcribed mechanically and cross-checked); the
test states the bound faithfully and reports the offending row rather than
widening the tolerance.
"""

from __future__ import annotations

import json
import math
import random
import time

import pytest

from conftest import flag_probability_rows
from test_numerics import CHI2_GRID, T_GRID, chi2_upper_oracle, t_two_sided_oracle

from vtrkit.cli import main
from vtrkit.concordance import (
    adjacent_rating_probabilities,
    chi_square_independence,
    contingency_table,
    pairwise_probabilities,
    peer_bibliometric_spearman,
    spearman,
)
from vtrkit.indicators import h_index
from vtrkit.model import load_archive
from vtrkit.numerics import chi_square_upper_tail, student_t_two_sided
from vtrkit.synth import DisciplineSpec, SynthConfig, generate_exercise
from vtrkit.tables import fmt


def announce(label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({detail})")


# -----------------------------------------------------------------------
# 1. small-sample Spearman on the published authorship/ownership pairs
# -----------------------------------------------------------------------


def test_criterion_1_published_authorship_ownership_correlation(discipline_profiles):
    start = time.perf_counter()
    auth = [float(r["auth"]) for r in discipline_profiles]
    own = [float(r["own"]) for r in discipline_profiles]
    result = spearman(auth, own)
    elapsed = time.perf_counter() - start

    ok = (
        abs(result.coefficient - (-0.82)) <= 0.005
        and result.p_value <= 0.01
        and elapsed < 1.0
    )
    announce(
        "1 authorship~ownership correlation",
        ok,
        f"sigma={result.coefficient:.4f} (published -0.82), p={result.p_value:.4f}, {elapsed:.3f}s",
    )
    assert abs(result.coefficient - (-0.82)) <= 0.005
    assert result.p_value <= 0.01
    # the published analysis reports p = 0.007; the t approximation with
    # n-2 = 8 degrees of freedom lands near 0.004 (method gap, documented)
    assert result.p_value == pytest.approx(0.004, abs=0.001)
    assert elapsed < 1.0


# -----------------------------------------------------------------------
# 2. bracketed-ratio fixtures (profile rows and per-rating spot ratios)
# -----------------------------------------------------------------------


def rendered_2dp(value: float) -> float:
    """The tool's own fixed-precision rendering, read back as a number."""
    return float(fmt(value, 2))


def test_criterion_2_bracketed_ratio_fixtures(discipline_profiles, rating_breakdowns):
    start = time.perf_counter()
    base = {r["area"]: r for r in discipline_profiles}
    failures = []

    for r in discipline_profiles:
        computed = float(r["cites"]) / float(r["if"])
        printed = float(r["cites_over_if"])
        if abs(rendered_2dp(computed) - printed) > 0.01 + 1e-9:
            failures.append((r["area"], "cites_over_if", computed, printed))

    spot_checks = 0
    for row in rating_breakdowns:
        profile = base[row["area"]]
        for column, denominator in (("cites", "cites"), ("if", "if"), ("h", "h")):
            computed = float(row[column]) / float(profile[denominator])
            printed = float(row[f"{column}_ratio"])
            spot_checks += 1
            if abs(rendered_2dp(computed) - printed) > 0.01 + 1e-9:
                failures.append((row["area"], f"{row['rating']}:{column}", computed, printed))

    elapsed = time.perf_counter() - start
    ok = not failures and spot_checks >= 20 and elapsed < 1.0
    announce(
        "2 bracketed-ratio fixtures",
        ok,
        f"10 profile ratios + {spot_checks} spot ratios within +-0.01 at 2dp, {elapsed:.3f}s",
    )
    assert spot_checks >= 20
    assert not failures, f"ratio mismatches: {failures}"
    assert elapsed < 1.0


# -----------------------------------------------------------------------
# 3. probability sum identity: exact for the tool, validator flags the
#    inconsistent published row
# -----------------------------------------------------------------------


def test_criterion_3_probability_identity_validator(pairwise_probability_rows):
    rng = random.Random(20260808)
    for _ in range(1000):
        xs = [rng.randint(0, 9) for _ in range(rng.randint(1, 40))]
        ys = [rng.randint(0, 9) for _ in range(rng.randint(1, 40))]
        triple = pairwise_probabilities(xs, ys)
        assert triple.greater + triple.less + triple.equal == triple.pair_count == len(xs) * len(ys)

    dataset = generate_exercise(
        SynthConfig(seed=33, disciplines=(DisciplineSpec("BIO", 5, 20, 40, coverage=0.9),))
    )
    for variable in ("citations", "journal_if"):
        for pair in adjacent_rating_probabilities(dataset.products_in("BIO"), variable):
            assert pair.triple is not None
            assert pair.triple.greater + pair.triple.less + pair.triple.equal == pair.triple.pair_count

    triples = [
        (float(r["p_greater"]), float(r["p_less"]), float(r["p_equal"]))
        for r in pairwise_probability_rows
    ]
    flagged = flag_probability_rows(triples, tolerance=0.02)
    labels = [
        (
            pairwise_probability_rows[i]["area"],
            pairwise_probability_rows[i]["variable"],
            pairwise_probability_rows[i]["pair"],
        )
        for i in flagged
    ]
    ok = labels == [("IIE", "if", "GA")]
    announce(
        "3 probability identity validator",
        ok,
        f"tool triples sum to 1 exactly; published rows flagged: {labels}",
    )
    assert ("IIE", "if", "GA") in labels, "the known inconsistent published row must be flagged"
    assert labels == [("IIE", "if", "GA")], f"unexpected flags: {labels}"


# -----------------------------------------------------------------------
# 4. contingency row sums: published fixtures (+-0.3) and tool output (1e-9)
# -----------------------------------------------------------------------


def test_criterion_4a_published_contingency_row_sums(citation_quartile_rows, if_quartile_rows):
    offenders = []
    for variable, rows in (("cites", citation_quartile_rows), ("if", if_quartile_rows)):
        for r in rows:
            total = math.fsum(float(r[q]) for q in ("q1", "q2", "q3", "q4"))
            if abs(total - 100.0) > 0.3:
                offenders.append((variable, r["area"], r["rating"], round(total, 1)))
    ok = not offenders
    announce(
        "4a published contingency row sums within +-0.3",
        ok,
        f"{80 - len(offenders)}/80 rows in band"
        + ("" if ok else f"; offending published rows: {offenders}"),
    )
    assert not offenders, (
        "published rows out of the +-0.3 band (the CHE/G citation row prints "
        f"35.2+22.8+22.8+19.8 = 100.6 in the source table): {offenders}"
    )


def test_criterion_4b_tool_contingency_row_sums():
    dataset = generate_exercise(
        SynthConfig(seed=21, disciplines=(DisciplineSpec("BIO", 6, 30, 60, coverage=0.85),))
    )
    checked = 0
    for variable in ("citations", "journal_if"):
        table = contingency_table(dataset.products_in("BIO"), variable)
        for row, total in zip(table.row_percentages, table.row_totals):
            if total:
                checked += 1
                assert abs(math.fsum(row) - 100.0) <= 1e-9
    announce("4b tool contingency row sums within 1e-9", True, f"{checked} nonempty rows checked")


# -----------------------------------------------------------------------
# 5. oracle equivalence: pairwise probabilities and h index
# -----------------------------------------------------------------------


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(55)

    for _ in range(1000):
        nx, ny = rng.randint(1, 200), rng.randint(1, 200)
        xs = [rng.randint(0, 7) for _ in range(nx)]  # heavy ties
        ys = [rng.randint(0, 7) for _ in range(ny)]
        fast = pairwise_probabilities(xs, ys)
        greater = sum(1 for x in xs for y in ys if x > y)
        less = sum(1 for x in xs for y in ys if x < y)
        equal = nx * ny - greater - less
        assert fast == (greater, less, equal, nx * ny)

    for _ in range(1000):
        multiset = [rng.randint(0, 60) for _ in range(rng.randint(0, 50))]
        brute = max(
            (n for n in range(len(multiset) + 1) if sum(1 for c in multiset if c >= n) >= n),
            default=0,
        )
        assert h_index(multiset) == brute

    elapsed = time.perf_counter() - start
    announce("5 oracle equivalence", elapsed < 30.0, f"2000 randomized cases, {elapsed:.1f}s")
    assert elapsed < 30.0


# -----------------------------------------------------------------------
# 6. special-function accuracy against the integration oracle
# -----------------------------------------------------------------------


def test_criterion_6_special_function_accuracy():
    start = time.perf_counter()
    points = 0
    worst = 0.0
    for x, df in CHI2_GRID:
        diff = abs(chi_square_upper_tail(x, df) - chi2_upper_oracle(x, df))
        worst = max(worst, diff)
        points += 1
        assert diff <= 1e-6, f"chi-square tail off at (x={x}, df={df}): {diff}"
    for t, df in T_GRID:
        diff = abs(student_t_two_sided(t, df) - t_two_sided_oracle(t, df))
        worst = max(worst, diff)
        points += 1
        assert diff <= 1e-6, f"t tail off at (t={t}, df={df}): {diff}"

    for x in (0.3, 1.0, 2.0, 7.5, 40.0):
        assert chi_square_upper_tail(x, 2) == pytest.approx(math.exp(-x / 2.0), abs=1e-12)
    for t in (0.2, 1.0, 3.0, 25.0):
        assert student_t_two_sided(t, 1) == pytest.approx(1.0 - 2.0 * math.atan(t) / math.pi, abs=1e-12)

    elapsed = time.perf_counter() - start
    ok = points >= 200 and elapsed < 30.0
    announce(
        "6 special-function accuracy",
        ok,
        f"{points} grid points, worst |diff| = {worst:.2e}, {elapsed:.1f}s",
    )
    assert points >= 200
    assert elapsed < 30.0


# -----------------------------------------------------------------------
# 7. statistical sanity of the full pipeline on synthetic data
# -----------------------------------------------------------------------


def trial_config(seed: int, rho: float) -> SynthConfig:
    return SynthConfig(
        seed=seed,
        disciplines=(DisciplineSpec("BIO", n_structures=10, products_min=50, products_max=50, coverage=1.0),),
        target_rho=rho,
    )


def test_criterion_7_pipeline_statistical_sanity():
    start = time.perf_counter()

    rejections = 0
    for i in range(200):
        dataset = generate_exercise(trial_config(1000 + i, rho=0.0))
        table = contingency_table(dataset.products_in("BIO"), "citations")
        if chi_square_independence(table.counts).p_value < 0.05:
            rejections += 1
    rejection_fraction = rejections / 200

    positives = 0
    for i in range(200):
        dataset = generate_exercise(trial_config(5000 + i, rho=0.6))
        result = peer_bibliometric_spearman(dataset.products_in("BIO"), "citations", "quartile")
        if result.coefficient > 0:
            positives += 1

    elapsed = time.perf_counter() - start
    ok = 0.01 <= rejection_fraction <= 0.12 and positives >= 195 and elapsed < 120.0
    announce(
        "7 pipeline statistical sanity",
        ok,
        f"null rejection fraction {rejection_fraction:.3f} (alpha=0.05), "
        f"positive Spearman {positives}/200 at rho=0.6, {elapsed:.1f}s",
    )
    assert 0.01 <= rejection_fraction <= 0.12
    assert positives >= 195
    assert elapsed < 120.0


# -----------------------------------------------------------------------
# 8. determinism of the generator and of report regeneration
# -----------------------------------------------------------------------


def test_criterion_8_determinism(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["synth", "--seed", "42", "--out", str(first)]) == 0
    assert main(["synth", "--seed", "42", "--out", str(second)]) == 0
    synth_identical = first.read_bytes() == second.read_bytes()

    archive = tmp_path / "dataset.json"
    assert main(["ingest", "--products", str(first), "--out", str(archive)]) == 0
    report_a, report_b = tmp_path / "r1.md", tmp_path / "r2.md"
    assert main(["report", "--dataset", str(archive), "--all", "--out", str(report_a)]) == 0
    assert main(["report", "--dataset", str(archive), "--all", "--out", str(report_b)]) == 0
    report_identical = report_a.read_bytes() == report_b.read_bytes()

    json_a, json_b = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["report", "--dataset", str(archive), "--all", "--format", "json", "--out", str(json_a)]) == 0
    assert main(["report", "--dataset", str(archive), "--all", "--format", "json", "--out", str(json_b)]) == 0
    json_identical = json_a.read_bytes() == json_b.read_bytes()

    coverage = sorted(json.loads(json_a.read_text())["disciplines"])
    expected = sorted(load_archive(archive.read_text()).disciplines)

    ok = synth_identical and report_identical and json_identical and coverage == expected
    announce(
        "8 determinism",
        ok,
        f"synth byte-identical: {synth_identical}, report byte-identical: "
        f"{report_identical and json_identical}, report covers {len(coverage)} disciplines",
    )
    assert synth_identical
    assert report_identical and json_identical
    assert coverage == expected
