"""Entropy and mutual-information analysis of aligned multimodal streams.

Continuous feature streams are discretized with K-means codebooks so that
plug-in entropy, mutual information and multivariate (co-)information can be
computed jointly with discrete label streams on a common frame grid.

The public names below load their submodule on first use (PEP 562), so
``import modmi`` imports no numpy.  ``modmi.cli`` relies on that: it sets the
BLAS thread default before anything loads numpy.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        ["AlignmentError", "DataError", "FormatError", "InfeasibleError", "ModmiError"],
        "errors",
    ),
    **dict.fromkeys(
        [
            "InfoQuantities",
            "conditional_entropy",
            "conditional_mutual_information",
            "entropy",
            "info_diagram",
            "multivariate_mi_recursive",
            "mutual_information",
            "pair_quantities",
            "trivariate_mmi",
        ],
        "infotheory",
    ),
    **dict.fromkeys(
        [
            "FeatureMatrix",
            "LabelSequence",
            "Manifest",
            "StreamSpec",
            "align",
            "load_manifest",
            "read_feature_matrix",
            "read_labels",
            "resample_nearest",
            "write_feature_matrix",
            "write_labels",
        ],
        "ingestion",
    ),
    **dict.fromkeys(
        ["AnalysisConfig", "InfoReport", "StreamSummary", "analyze", "sweep_clusters"],
        "pipeline",
    ),
    **dict.fromkeys(["Codebook", "assign", "fit", "load_codebook", "save_codebook"], "quantizer"),
    **dict.fromkeys(
        [
            "JointPmf",
            "exhaustive_stream",
            "gen_gaussian_mixture",
            "oracle_quantities",
            "sample_discrete",
            "xor_pmf",
        ],
        "synthetic",
    ),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
