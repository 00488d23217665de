"""Genetic-algorithm EXAFS spectrum fitting.

Evaluates the EXAFS forward model over theoretical scattering paths, evolves
path parameters against chi(k) data, prunes insignificant paths, and
quantifies parameter uncertainty with randomized-hyperparameter ensembles.
"""

__version__ = "0.1.0"

from .analysis import (
    CutoffReport,
    ErrorReport,
    attribute_operators,
    cutoff_select,
    cutoff_sweep,
    error_analysis,
    synth_generate,
)
from .fitness import FitnessConfig, SpectrumObjective, chi2, estimate_epsilon, metrics
from .ga import (
    Chromosome,
    FitResult,
    GAConfig,
    GeneSpec,
    default_gene_specs,
    run_ga,
)
from .model import PathParams, evaluate_model, path_contribution, shift_k
from .paths import (
    PathSet,
    ScatteringPath,
    load_manifest,
    load_path_file,
    parse_feff_path,
    serialize_feff_path,
    synth_path,
)
from .spectra import (
    EV_TO_KSQ,
    FTConfig,
    KGrid,
    KSpectrum,
    RSpectrum,
    make_window,
    resample_onto,
    transform_k_to_r,
)

__all__ = [
    "Chromosome",
    "CutoffReport",
    "ErrorReport",
    "EV_TO_KSQ",
    "FitnessConfig",
    "FitResult",
    "FTConfig",
    "GAConfig",
    "GeneSpec",
    "KGrid",
    "KSpectrum",
    "PathParams",
    "PathSet",
    "RSpectrum",
    "ScatteringPath",
    "SpectrumObjective",
    "attribute_operators",
    "chi2",
    "cutoff_select",
    "cutoff_sweep",
    "default_gene_specs",
    "error_analysis",
    "estimate_epsilon",
    "evaluate_model",
    "load_manifest",
    "load_path_file",
    "make_window",
    "metrics",
    "parse_feff_path",
    "path_contribution",
    "resample_onto",
    "run_ga",
    "serialize_feff_path",
    "shift_k",
    "synth_generate",
    "synth_path",
    "transform_k_to_r",
]
