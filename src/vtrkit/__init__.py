"""Research-assessment analytics: peer ratings, bibliometric indicators, and
their concordance, with fixture-verifiable statistics and a seeded synthetic
exercise generator.

The names below are re-exported lazily (PEP 562): ``import vtrkit`` imports
no submodule, and ``vtrkit.X`` imports the one module that defines ``X`` on
first use, so a command loads only what it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "audit": "Issue SelectionPolicy ValidationReport validate_dataset",
    "concordance": """AdjacentPairResult ChiSquareResult ContingencyTable CorrelationResult
        ProbabilityTriple QuartileBins adjacent_rating_probabilities assign_quartile
        chi_square_independence contingency_table pairwise_probabilities peer_bibliometric_spearman
        spearman""",
    "indicators": "DisciplineProfile GroupStats RatingBreakdown discipline_profile h_index rating_breakdown",
    "ingest": "IngestConfig StaffRecord parse_products parse_products_file parse_staff serialize_products",
    "model": """Dataset InvalidProduct PeerRating PipelineError Product ProductType Provenance
        RATING_ORDER load_archive write_archive""",
    "numerics": "average_ranks chi_square_upper_tail student_t_two_sided",
    "scoring": """RankComparison Ranking SizeClass StructureRating compile_ranking rank_comparison
        size_class structure_ratings""",
    "synth": "DisciplineSpec SynthConfig generate_exercise load_synth_config",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups find it without calling this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
