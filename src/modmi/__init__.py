"""Entropy and mutual-information analysis of aligned multimodal streams.

Continuous feature streams are discretized with K-means codebooks so that
plug-in entropy, mutual information and multivariate (co-)information can be
computed jointly with discrete label streams on a common frame grid.
"""

__version__ = "0.1.0"

from .errors import AlignmentError, DataError, FormatError, InfeasibleError, ModmiError
from .infotheory import (
    InfoQuantities,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    info_diagram,
    multivariate_mi_recursive,
    mutual_information,
    pair_quantities,
    trivariate_mmi,
)
from .ingestion import (
    FeatureMatrix,
    LabelSequence,
    Manifest,
    StreamSpec,
    align,
    load_manifest,
    read_feature_matrix,
    read_labels,
    resample_nearest,
    write_feature_matrix,
    write_labels,
)
from .pipeline import AnalysisConfig, InfoReport, StreamSummary, analyze, sweep_clusters
from .quantizer import Codebook, assign, fit, load_codebook, save_codebook
from .synthetic import (
    JointPmf,
    exhaustive_stream,
    gen_gaussian_mixture,
    oracle_quantities,
    sample_discrete,
    xor_pmf,
)

__all__ = [
    "AlignmentError",
    "AnalysisConfig",
    "Codebook",
    "DataError",
    "FeatureMatrix",
    "FormatError",
    "InfeasibleError",
    "InfoQuantities",
    "InfoReport",
    "JointPmf",
    "LabelSequence",
    "Manifest",
    "ModmiError",
    "StreamSpec",
    "StreamSummary",
    "align",
    "analyze",
    "assign",
    "conditional_entropy",
    "conditional_mutual_information",
    "entropy",
    "exhaustive_stream",
    "fit",
    "gen_gaussian_mixture",
    "info_diagram",
    "load_codebook",
    "load_manifest",
    "multivariate_mi_recursive",
    "mutual_information",
    "oracle_quantities",
    "pair_quantities",
    "read_feature_matrix",
    "read_labels",
    "resample_nearest",
    "sample_discrete",
    "save_codebook",
    "sweep_clusters",
    "trivariate_mmi",
    "write_feature_matrix",
    "write_labels",
    "xor_pmf",
]
