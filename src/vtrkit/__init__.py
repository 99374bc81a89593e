"""Research-assessment analytics: peer ratings, bibliometric indicators, and
their concordance, with fixture-verifiable statistics and a seeded synthetic
exercise generator."""

from .concordance import (
    AdjacentPairResult,
    ChiSquareResult,
    ContingencyTable,
    CorrelationResult,
    ProbabilityTriple,
    QuartileBins,
    adjacent_rating_probabilities,
    assign_quartile,
    chi_square_independence,
    contingency_table,
    flag_probability_rows,
    pairwise_probabilities,
    peer_bibliometric_spearman,
    quartile_bins,
    spearman,
)
from .indicators import (
    DisciplineProfile,
    GroupStats,
    RatingBreakdown,
    discipline_profile,
    group_stats,
    h_index,
    ownership_degree,
    rating_breakdown,
)
from .model import (
    Dataset,
    IngestConfig,
    InvalidProduct,
    Issue,
    PeerRating,
    PipelineError,
    Product,
    ProductType,
    Provenance,
    RATING_ORDER,
    SelectionPolicy,
    StaffRecord,
    ValidationReport,
    load_archive,
    parse_products,
    parse_products_file,
    parse_staff,
    serialize_products,
    validate_dataset,
    write_archive,
)
from .numerics import average_ranks, chi_square_upper_tail, student_t_two_sided
from .scoring import (
    RankComparison,
    Ranking,
    SizeClass,
    StructureRating,
    compile_ranking,
    rank_comparison,
    size_class,
    structure_ratings,
)
from .synth import DisciplineSpec, SynthConfig, generate_exercise, load_synth_config

__version__ = "0.1.0"
