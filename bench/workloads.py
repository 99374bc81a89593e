"""Workload definitions and the in-process calls into vtrkit.

Every workload has an input exercise (written as a products CSV and driven
through the CLI) and a trial shape: one synthetic single-area exercise that
is generated and run through the concordance battery in-process.  All inputs
derive from the workload seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from vtrkit import (
    DisciplineSpec,
    IngestConfig,
    PipelineError,
    SynthConfig,
    adjacent_rating_probabilities,
    assign_quartile,
    average_ranks,
    chi_square_independence,
    chi_square_upper_tail,
    compile_ranking,
    contingency_table,
    discipline_profile,
    generate_exercise,
    load_archive,
    parse_products,
    peer_bibliometric_spearman,
    rank_comparison,
    rating_breakdown,
    serialize_products,
    structure_ratings,
    student_t_two_sided,
    validate_dataset,
    write_archive,
)
from vtrkit.concordance import VARIABLES
from vtrkit.report import build_report, render_report_csv, render_report_json, render_report_md

KNOWN_AREAS = ("MCS", "PHY", "CHE", "EAS", "BIO", "MED", "AVM", "CEA", "IIE", "ECS")

#: CLI queries, each on one area.  A round issues two of them, continuing
#: the cycle where the previous round stopped.
QUERY_KINDS = (
    ("profile",),
    ("breakdown",),
    ("rank",),
    ("compare-ranks",),
    ("concordance", "--variable", "cites"),
    ("concordance", "--variable", "if"),
    ("probability", "--variable", "cites"),
    ("probability", "--variable", "if"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    areas: tuple[DisciplineSpec, ...]  # the input exercise
    trial_area: DisciplineSpec  # shape of one trial exercise
    trial_rhos: tuple[float, ...]  # trial i uses trial_rhos[i % len(trial_rhos)]
    trials_per_round: int
    setup_repeats: int

    def input_config(self, seed: int) -> SynthConfig:
        return SynthConfig(seed=seed, disciplines=self.areas)

    def trial_config(self, seed: int, index: int) -> SynthConfig:
        return SynthConfig(
            seed=seed * 1_000_000 + index,
            disciplines=(self.trial_area,),
            target_rho=self.trial_rhos[index % len(self.trial_rhos)],
        )


WORKLOADS = {
    w.name: w
    for w in (
        # The reference size of the roadmap: 10 known areas x 120 structures.
        Workload(
            name="exercise-26k",
            areas=tuple(DisciplineSpec(code, 120, 4, 40) for code in KNOWN_AREAS),
            trial_area=DisciplineSpec("BIO", 120, 4, 40),
            trial_rhos=(0.5,),
            trials_per_round=4,
            setup_repeats=3,
        ),
        # Same product count, CSV and archive size, spread over 100 unknown
        # area codes: per-area scans and rendering grow, parse/write/load stay.
        Workload(
            name="many-areas",
            areas=tuple(DisciplineSpec(f"X{i:02d}", 12, 4, 40) for i in range(100)),
            trial_area=DisciplineSpec("X00", 12, 4, 40),
            trial_rhos=(0.5,),
            trials_per_round=20,
            setup_repeats=3,
        ),
        # Monte Carlo check of the battery: small full-coverage areas, half
        # under independence and half at latent rho 0.6.
        Workload(
            name="validation-study",
            areas=(DisciplineSpec("BIO", 10, 50, 50, 1.0),),
            trial_area=DisciplineSpec("BIO", 10, 50, 50, 1.0),
            trial_rhos=(0.0, 0.6),
            trials_per_round=100,
            setup_repeats=5,
        ),
    )
}


@dataclass
class TrialResult:
    rho: float
    # per variable: (chi-square statistic, df, p, Spearman coefficient, p, n)
    stats: dict[str, tuple[float, int, float, float, float, int]]
    products: tuple | None = None  # kept for the trials the oracle re-checks


def battery(products, rec, numerics: bool):
    """The concordance battery on one area's products, one span per call.

    With ``numerics`` the tail functions and the rank kernel are also called
    on the statistics and inputs the battery used, so their cost shows as
    layers of their own.
    """
    stats = {}
    for variable in VARIABLES:
        with rec.span("concordance.contingency"):
            table = contingency_table(products, variable)
        with rec.span("concordance.chi_square"):
            chi = chi_square_independence(table.counts)
        with rec.span("concordance.spearman"):
            sp = peer_bibliometric_spearman(products, variable)
        with rec.span("concordance.probabilities"):
            adjacent_rating_probabilities(products, variable)
        if numerics:
            values = [
                (float(p.peer_rating.value), float(getattr(p, variable)))
                for p in products
                if p.tr_indexed and getattr(p, variable) is not None
            ]
            coded = [float(assign_quartile(v, table.bins)) for _, v in values]
            with rec.span("numerics.average_ranks"):
                average_ranks([r for r, _ in values])
                average_ranks(coded)
            with rec.span("numerics.tail"):
                chi_square_upper_tail(chi.statistic, chi.df)
                if abs(sp.coefficient) < 1.0:
                    t = sp.coefficient * math.sqrt((sp.n - 2) / (1.0 - sp.coefficient**2))
                    student_t_two_sided(t, sp.n - 2)
        stats[variable] = (chi.statistic, chi.df, chi.p_value, sp.coefficient, sp.p_value, sp.n)
    return stats


def run_trial(workload: Workload, seed: int, index: int, rec, numerics: bool = False, keep: bool = False):
    config = workload.trial_config(seed, index)
    with rec.span("synth.generate") as counts:
        dataset = generate_exercise(config)
        counts["products"] = len(dataset)
    products = dataset.products  # a trial exercise has a single area
    return TrialResult(
        rho=config.target_rho,
        stats=battery(products, rec, numerics),
        products=products if keep else None,
    )


def make_inputs(workload: Workload, seed: int, rec) -> str:
    """The input exercise as products CSV text."""
    with rec.span("synth.generate") as counts:
        dataset = generate_exercise(workload.input_config(seed))
        counts["products"] = len(dataset)
    with rec.span("model.serialize"):
        return serialize_products(dataset)


def area_layers(dataset, area: str, rec) -> None:
    """What ``build_report`` does for one area, one span per public call."""
    with rec.span("model.products_in"):
        products = dataset.products_in(area)
    with rec.span("indicators.profile"):
        discipline_profile(dataset, area)
    with rec.span("indicators.breakdown"):
        rating_breakdown(dataset, area)
    with rec.span("scoring.structure_ratings"):
        ratings = structure_ratings(dataset, area)
    with rec.span("scoring.ranking"):
        try:
            rank_comparison(compile_ranking(ratings, "peer_tr"), compile_ranking(ratings, "cites"))
        except PipelineError:
            pass  # too few structures for a ranking; build_report notes it the same way
    battery(products, rec, numerics=True)


def pipeline_pass(workload: Workload, seed: int, source_name: str, rec):
    """One in-process pass over every layer: inputs, ingest, report and the
    per-area layer calls.  Returns (markdown, json text, loaded dataset,
    ingest report)."""
    text = make_inputs(workload, seed, rec)
    with rec.span("model.parse") as counts:
        parsed, ingest_report = parse_products(text, IngestConfig(source_name=source_name))
        counts["warnings"] = len(ingest_report.warnings)
    if parsed is None:
        raise PipelineError("ingest_failed", f"{len(ingest_report.errors)} rows rejected")
    with rec.span("model.write_archive") as counts:
        archive = write_archive(parsed)
        counts["archive_bytes"] = len(archive.encode("utf-8"))
    with rec.span("model.load_archive"):
        dataset = load_archive(archive)
    with rec.span("report.build"):
        bundle = build_report(dataset)
    with rec.span("report.render_md") as counts:
        md = render_report_md(bundle)
        counts["md_bytes"] = len(md.encode("utf-8"))
    with rec.span("report.render_json"):
        js = render_report_json(bundle)
    with rec.span("report.render_csv"):
        render_report_csv(bundle)
    with rec.span("model.validate"):
        validate_dataset(dataset)
    for area in dataset.disciplines:
        area_layers(dataset, area, rec)
    return md, js, dataset, ingest_report
