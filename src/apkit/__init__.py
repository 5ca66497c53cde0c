"""Point-set analysis toolkit for aperiodic order.

Windowed point sets, almost-periodicity pseudo-metrics, autocorrelation
measures, diffraction periodograms with Bragg-peak detection, cut-and-project
and stationary-process generators, and Palm-calculus estimators, with a batch
CLI on top.
"""

from .errors import (
    ApkitError,
    ConfigError,
    DimensionMismatch,
    EmptyCandidateSet,
    InvalidArgument,
    NoAtomAtZero,
    NotUniformlyDiscrete,
    OutsideWindow,
    PsiNotNormalized,
    RadiusExceedsWindow,
    RegionOutsideWindow,
    SingularBasis,
    SupportTooLarge,
    TranslationExceedsWindow,
    WindowTooSmall,
)
from .pointset import (
    DensityEstimate,
    PointSet,
    RegionSpec,
    ball_volume,
    count_in_region,
    mean_nn_spacing,
    metric_d,
    read_pointset_csv,
    relative_density_gap,
    translate,
    upper_density,
    write_pointset_csv,
)
from .testfunc import TestFunction
from .pseudometrics import (
    PseudoMetricReport,
    asymmetric_mismatch,
    dbar,
    dbar_c,
    dbar_f,
    dtilde,
    mu_conv_f,
    symmetric_mismatch,
)
from .autocorr import (
    AutocorrEstimate,
    PairDifferences,
    WeightedAtomMeasure,
    autocorrelation_limit,
    bin_atoms,
    birkhoff_average_hf,
    debias_ball_edge,
    evaluate,
    finite_autocorrelation,
    hf_functional,
    read_measure_csv,
    write_measure_csv,
)
from .diffraction import (
    BraggPeak,
    CriterionReport,
    KGrid,
    Periodogram,
    atom_mass,
    bohr_test_mu_conv_f,
    criterion_almost_periods,
    criterion_atom_concentration,
    criterion_gamma_concentration,
    default_gap_bound,
    detect_bragg_peaks,
    fourier_sum,
    peak_span_gap,
    periodogram,
    write_periodogram_csv,
)
from .generators import (
    CutProjectConfig,
    FIBONACCI_DENSITY,
    FIBONACCI_MIN_GAP,
    GOLDEN_RATIO,
    PalmIntensityEstimate,
    ProcessSampler,
    SinusoidalDeformation,
    WindowGraze,
    cut_and_project,
    default_palm_base,
    event_almost_periods,
    fibonacci_config,
    lattice_covolume,
    make_lattice,
    matern_effective_intensity,
    palm_intensity,
    rationality_report,
    sample,
    verify_acpalm,
)
from .verify import CHECK_TAGS, CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "ApkitError", "ConfigError", "DimensionMismatch", "EmptyCandidateSet",
    "InvalidArgument", "NoAtomAtZero", "NotUniformlyDiscrete",
    "OutsideWindow", "PsiNotNormalized", "RadiusExceedsWindow",
    "RegionOutsideWindow", "SingularBasis", "SupportTooLarge",
    "TranslationExceedsWindow", "WindowTooSmall",
    "DensityEstimate", "PointSet", "RegionSpec", "ball_volume",
    "count_in_region", "mean_nn_spacing", "metric_d", "read_pointset_csv",
    "relative_density_gap", "translate", "upper_density",
    "write_pointset_csv",
    "TestFunction",
    "PseudoMetricReport", "asymmetric_mismatch", "dbar", "dbar_c", "dbar_f",
    "dtilde", "mu_conv_f", "symmetric_mismatch",
    "AutocorrEstimate", "PairDifferences", "WeightedAtomMeasure",
    "autocorrelation_limit",
    "bin_atoms", "birkhoff_average_hf", "debias_ball_edge", "evaluate",
    "finite_autocorrelation", "hf_functional", "read_measure_csv",
    "write_measure_csv",
    "BraggPeak", "CriterionReport", "KGrid", "Periodogram", "atom_mass",
    "bohr_test_mu_conv_f", "criterion_almost_periods",
    "criterion_atom_concentration", "criterion_gamma_concentration",
    "default_gap_bound", "detect_bragg_peaks", "fourier_sum",
    "peak_span_gap", "periodogram", "write_periodogram_csv",
    "CutProjectConfig", "FIBONACCI_DENSITY", "FIBONACCI_MIN_GAP",
    "GOLDEN_RATIO", "PalmIntensityEstimate", "ProcessSampler",
    "SinusoidalDeformation", "WindowGraze", "cut_and_project",
    "default_palm_base", "event_almost_periods", "fibonacci_config",
    "lattice_covolume", "make_lattice", "matern_effective_intensity",
    "palm_intensity", "rationality_report", "sample", "verify_acpalm",
    "CHECK_TAGS", "CheckResult", "run_checks",
]
