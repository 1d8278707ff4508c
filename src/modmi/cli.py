"""Command-line interface.

Subcommands: fit, assign, analyze, sweep, synth, report.  Every command is
deterministic given its flags; JSON carries full precision, tables print 4
decimals, and ``--format svg`` draws the three-circle information diagram.

Exit codes: 0 success, 1 runtime/data error, 2 usage error (including an
infeasible cluster count).
"""

import os

# Run BLAS on one thread unless the user set OPENBLAS_NUM_THREADS,
# MKL_NUM_THREADS or OMP_NUM_THREADS (OpenBLAS and MKL read their own
# variable before OMP_NUM_THREADS).  This must run before numpy loads, which
# is why the package __init__ imports no numpy.  On a 2-core machine a second
# OpenBLAS thread spin-waits between calls: `modmi analyze` on the benchmark's
# analyze-av inputs used 0.665 s of CPU in 0.402 s of wall time with it and
# 0.422 s of CPU in 0.429 s without.  It shortens only the larger products:
# an assignment pass by 12-15% at k=500 and k=2000, not at k=128.
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse
import gc
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DataError, InfeasibleError, ModmiError, printable
from .ingestion import _U32_MAX, FeatureMatrix, Manifest, StreamSpec, load_manifest
from .ingestion import read_feature_matrix, write_feature_matrix, write_labels
from .pipeline import analyze, sweep_clusters
from .report import LOG_BASES, AnalysisConfig, InfoReport, render_diagram_svg
from .report import check_diagram_arity, render_sweep_json, render_sweep_table, render_table

# quantizer (with _kernels) and synthetic load only in the commands that use
# them, so a label-only `modmi analyze` never imports them.


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# AnalysisConfig field -> its flag and argparse keywords.  No flag carries a
# default: an omitted flag leaves its field to AnalysisConfig, the one place
# the defaults live.
_CONFIG_FLAGS = {
    "clusters": ("--clusters", {"type": int, "help": "clusters per continuous stream"}),
    "seed": ("--seed", {"type": int, "help": "RNG seed (pcg64)"}),
    "target_rate_hz": (
        "--rate",
        {
            "type": float,
            "metavar": "RATE",
            "help": "target frame rate in Hz (default: manifest's)",
        },
    ),
    "log_base": ("--base", {"choices": list(LOG_BASES), "help": "log base"}),
    "tol": ("--tol", {"type": float, "help": "relative distortion improvement to stop at"}),
    "max_iter": ("--max-iter", {"type": int, "help": "max K-means iterations"}),
    "normalize": (
        "--normalize",
        {"action": "store_true", "help": "z-normalize features per dimension"},
    ),
}


def _add_config_flags(p: argparse.ArgumentParser, *names: str) -> None:
    """Register the flags of the AnalysisConfig fields ``names``."""
    for name in names:
        flag, kwargs = _CONFIG_FLAGS[name]
        p.add_argument(flag, dest=name, default=argparse.SUPPRESS, **kwargs)


def _given_config(args) -> dict:
    """The AnalysisConfig fields set on the command line."""
    given = vars(args)
    return {name: given[name] for name in _CONFIG_FLAGS if name in given}


def _render_report(report: InfoReport, fmt: str, out: str | None, title: str = "") -> None:
    if fmt == "json":
        _emit(report.to_json(), out)
    elif fmt == "table":
        _emit(render_table(report), out)
    else:
        _emit(render_diagram_svg(report.quantities, title), out)


def cmd_fit(args) -> int:
    from .quantizer import fit, save_codebook

    features = read_feature_matrix(args.features)
    # Not an AnalysisConfig: fit takes any u64 seed, while an analysis stops
    # at 2**64 - 3 because stream i is fitted with seed + i.  fit's keyword
    # defaults are AnalysisConfig's.
    knobs = _given_config(args)
    cb = fit(features, knobs.pop("clusters", AnalysisConfig.clusters), **knobs)
    save_codebook(cb, args.out)
    print(f"k={cb.k} iterations={cb.iterations_run} distortion={cb.final_distortion:.6g}")
    return 0


def cmd_assign(args) -> int:
    from .quantizer import assign, load_codebook

    labels = assign(load_codebook(args.codebook), read_feature_matrix(args.features))
    write_labels(labels, args.out)
    print(f"wrote {labels.rows} labels over alphabet {labels.alphabet_size}")
    return 0


def cmd_analyze(args) -> int:
    manifest = load_manifest(args.manifest)
    if args.format == "svg":  # before any stream is fitted
        check_diagram_arity(len(manifest.streams))
    report = analyze(manifest, AnalysisConfig(**_given_config(args)))
    _render_report(report, args.format, args.out, title=Path(args.manifest).stem)
    return 0


def _cluster_counts(text: str) -> list[int]:
    """The argparse type of ``--ks``: comma-separated cluster counts."""
    try:
        ks = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        ks = []
    if not ks:
        raise argparse.ArgumentTypeError(f"must be comma-separated integers, got {text!r}")
    return ks


def cmd_sweep(args) -> int:
    config = AnalysisConfig(**_given_config(args))
    reports = sweep_clusters(load_manifest(args.manifest), config, args.ks)
    render = render_sweep_json if args.format == "json" else render_sweep_table
    _emit(render(reports), args.out)
    return 0


def cmd_report(args) -> int:
    report = InfoReport.from_json(Path(args.report).read_bytes())
    _render_report(report, args.format, args.out, title=Path(args.report).stem)
    return 0


def _check_synth_flags(args) -> None:
    """Reject a synth size, scale or seed before any array is built: the rows
    and dims must fit the u32 counts of LBL1 and FMX1, a blobs draw of rows x
    dims float64 values one numpy array, and each centre a float.  The
    generators refuse a count < 1."""
    def require(flag, value, ok, rule):
        if not ok:
            raise DataError(f"{flag} must be {rule}, got {value}")

    u32 = f"<= {_U32_MAX}, a u32 count of LBL1 and FMX1"
    if args.generator == "xor":  # four frames a copy
        require("4 x --copies", 4 * args.copies, 4 * args.copies <= _U32_MAX, u32)
        return
    rows = args.centers * max(1, args.n_per_center)  # >= --centers; a count < 1 is refused later
    array = f"<= {sys.maxsize // 8}, the float64 values one numpy array holds"
    require("--centers", args.centers, args.centers >= 1, ">= 1")
    require("--dims", args.dims, args.dims >= 1, ">= 1")
    require("--dims", args.dims, args.dims <= _U32_MAX, u32)
    require("--centers x --n-per-center", rows, rows <= _U32_MAX, u32)
    require("rows x --dims", rows * args.dims, rows * args.dims <= sys.maxsize // 8, array)
    require("--stddev", args.stddev, 0 <= args.stddev < math.inf, "finite and >= 0")
    require("--spacing", args.spacing, math.isfinite(args.spacing), "finite")
    last = args.spacing * (args.centers - 1)  # the last centre's first coordinate
    require("--spacing x (--centers - 1)", last, math.isfinite(last), "finite")
    require("--seed", args.seed, 0 <= args.seed < 2**64, "in [0, 2**64 - 1]")


def cmd_synth(args) -> int:
    from .synthetic import exhaustive_stream, gen_gaussian_mixture, xor_pmf

    _check_synth_flags(args)
    if args.generator == "xor":
        streams = exhaustive_stream(xor_pmf(), copies=args.copies, tags=["v", "t", "s"])
    else:  # blobs
        centers = np.zeros((args.centers, args.dims))
        centers[:, 0] = args.spacing * np.arange(args.centers)
        features, components = gen_gaussian_mixture(
            centers, args.stddev, args.n_per_center, args.seed
        )
        streams = [replace(features, modality_tag="s"), replace(components, modality_tag="t")]
    # Built before the directory is made, so a refused allocation leaves no
    # empty directory behind.
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    specs = []
    for stream in streams:
        tag, rate = stream.modality_tag, stream.sample_rate_hz
        if isinstance(stream, FeatureMatrix):
            specs.append(StreamSpec(tag, f"{tag}.fmx", "features", rate, clusters=args.centers))
            write_feature_matrix(stream, out_dir / specs[-1].path)
        else:
            specs.append(StreamSpec(tag, f"{tag}.lbl", "labels", rate))
            write_labels(stream, out_dir / specs[-1].path)
    (out_dir / "manifest.json").write_text(Manifest(25.0, specs).to_json())
    print(f"wrote {printable(out_dir / 'manifest.json')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modmi",
        description="Entropy / mutual-information analysis of aligned multimodal streams",
    )
    parser.add_argument("--version", action="version", version=f"modmi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="train a K-means codebook on an FMX1 feature file")
    p.add_argument("features", help="FMX1 feature file")
    _add_config_flags(p, "clusters", "seed", "tol", "max_iter", "normalize")
    p.add_argument("--out", required=True, help="output KMC1 codebook path")
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("assign", help="label features with an existing codebook")
    p.add_argument("codebook", help="KMC1 codebook file")
    p.add_argument("features", help="FMX1 feature file")
    p.add_argument("--out", required=True, help="output LBL1 labels path")
    p.set_defaults(handler=cmd_assign)

    p = sub.add_parser("analyze", help="full analysis of a stream manifest")
    p.add_argument("manifest", help="manifest JSON path")
    _add_config_flags(p, *_CONFIG_FLAGS)
    p.add_argument("--format", choices=["json", "table", "svg"], default="json")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("sweep", help="analyze under several cluster counts")
    p.add_argument("manifest", help="manifest JSON path")
    p.add_argument(
        "--ks",
        type=_cluster_counts,
        required=True,
        help="comma-separated cluster counts, e.g. 100,200",
    )
    _add_config_flags(p, "seed", "target_rate_hz", "log_base", "tol", "max_iter", "normalize")
    p.add_argument("--format", choices=["json", "table"], default="table")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("report", help="re-render a saved JSON report")
    p.add_argument("report", help="InfoReport JSON path")
    p.add_argument("--format", choices=["json", "table", "svg"], default="table")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_report)

    p = sub.add_parser("synth", help="generate synthetic demo datasets")
    p.set_defaults(handler=cmd_synth)
    generators = p.add_subparsers(dest="generator", required=True)
    g = generators.add_parser("xor", help="three bit streams, the third the XOR of the others")
    g.add_argument("--out-dir", required=True)
    g.add_argument("--copies", type=int, default=1, help="copies of the 4-frame block")
    g = generators.add_parser("blobs", help="Gaussian blobs with ground-truth component labels")
    g.add_argument("--out-dir", required=True)
    g.add_argument("--centers", type=int, default=3, help="number of components")
    g.add_argument("--dims", type=int, default=16, help="feature dimensions")
    g.add_argument("--n-per-center", type=int, default=1000, help="rows per component")
    g.add_argument("--stddev", type=float, default=1.0, help="per-dimension noise stddev")
    g.add_argument("--spacing", type=float, default=100.0, help="distance between centers")
    g.add_argument("--seed", type=int, default=0, help="RNG seed (pcg64)")
    return parser


def main(argv=None) -> int:
    if argv is None:
        # The process entry point (`modmi` and `python -m modmi.cli`): move
        # the ~22k objects the imports built to the permanent generation, so
        # the collections made at exit no longer walk and free them.  On a
        # 2-core VM that cut the time from the last atexit handler to the
        # parent's wait4 from 20 to 6 ms.  The run's own objects stay
        # collectable, and an in-process main(argv) leaves gc as it was.
        gc.freeze()
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except InfeasibleError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ModmiError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
