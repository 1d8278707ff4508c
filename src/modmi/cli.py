"""Command-line interface.

Subcommands: fit, assign, analyze, sweep, synth, report.  Every command is
deterministic given its flags; JSON carries full precision, tables print 4
decimals, and ``--format svg`` draws the three-circle information diagram.

Exit codes: 0 success, 1 runtime/data error, 2 usage error (including an
infeasible cluster count).
"""

from __future__ import annotations

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
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DataError, InfeasibleError, ModmiError
from .infotheory import LOG_BASES, InfoQuantities
from .ingestion import FeatureMatrix, load_manifest, read_feature_matrix
from .ingestion import write_feature_matrix, write_labels
from .pipeline import AnalysisConfig, InfoReport, analyze, sweep_clusters
from .quantizer import assign, fit, load_codebook, save_codebook
from .synthetic import exhaustive_stream, gen_gaussian_mixture, xor_pmf

# Table column -> the InfoQuantities field it prints, in column order.  A
# two-variable report leaves out the columns whose field is None.
TABLE_COLUMNS = {
    "H(T)": "h_t",
    "H(S)": "h_s",
    "H(V)": "h_v",
    "I(T;V)": "i_tv",
    "I(T;S)": "i_ts",
    "I(V;S)": "i_vs",
    "I(V;T;S)": "i_vts",
}


def _fmt(value: float) -> str:
    text = f"{value:.4f}"
    return "0.0000" if text == "-0.0000" else text


def _columns(q: InfoQuantities) -> dict[str, float]:
    """The table's columns for ``q``, each with its value."""
    values = {column: getattr(q, name) for column, name in TABLE_COLUMNS.items()}
    return {column: value for column, value in values.items() if value is not None}


def _row(q: InfoQuantities) -> str:
    return " ".join(_fmt(v) for v in _columns(q).values())


def render_table(report: InfoReport) -> str:
    return " ".join(_columns(report.quantities)) + "\n" + _row(report.quantities) + "\n"


def render_sweep_table(reports: list[InfoReport]) -> str:
    lines = ["k " + " ".join(_columns(reports[0].quantities))]
    for report in reports:
        lines.append(f"{report.config.clusters} {_row(report.quantities)}")
    return "\n".join(lines) + "\n"


# Fixed layout for the three-circle diagram: circle centers and the anchor
# point of each of the seven region labels.
_CIRCLES = {"V": (250.0, 215.0), "S": (390.0, 215.0), "T": (320.0, 330.0)}
_RADIUS = 118.0
_REGION_XY = {
    "V|T,S": (205.0, 185.0),
    "S|V,T": (435.0, 185.0),
    "T|V,S": (320.0, 390.0),
    "V;S|T": (320.0, 185.0),
    "V;T|S": (255.0, 295.0),
    "T;S|V": (385.0, 295.0),
    "V;T;S": (320.0, 255.0),
}


def render_diagram_svg(q: InfoQuantities, title: str = "") -> str:
    """Information diagram: three circles, seven region values."""
    if q.arity != 3:
        raise ModmiError("the information diagram needs a three-stream report")
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="470" '
        'viewBox="0 0 640 470">',
        '<rect width="640" height="470" fill="white"/>',
        f'<text x="320" y="34" text-anchor="middle" font-size="18" '
        f'font-family="sans-serif">{title or "Information diagram"}</text>',
    ]
    fills = {"V": "#e41a1c", "S": "#377eb8", "T": "#4daf4a"}
    for name, (cx, cy) in _CIRCLES.items():
        parts.append(
            f'<circle cx="{cx:g}" cy="{cy:g}" r="{_RADIUS:g}" fill="{fills[name]}" '
            f'fill-opacity="0.18" stroke="{fills[name]}" stroke-width="2"/>'
        )
    entropies = {"V": q.h_v, "S": q.h_s, "T": q.h_t}
    label_xy = {"V": (140.0, 105.0), "S": (500.0, 105.0), "T": (320.0, 462.0)}
    for name, (x, y) in label_xy.items():
        parts.append(
            f'<text x="{x:g}" y="{y:g}" text-anchor="middle" font-size="16" '
            f'font-family="sans-serif" fill="{fills[name]}">H({name}) = '
            f"{_fmt(entropies[name])}</text>"
        )
    for region, (x, y) in _REGION_XY.items():
        parts.append(
            f'<text x="{x:g}" y="{y:g}" text-anchor="middle" font-size="13" '
            f'font-family="sans-serif">{_fmt(q.regions[region])}</text>'
        )
    parts.append(
        f'<text x="320" y="442" text-anchor="middle" font-size="12" font-family="sans-serif">'
        f"log base {q.log_base}; center is I(V;T;S)</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


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
    features = read_feature_matrix(args.features)
    # Not an AnalysisConfig: fit takes any u64 seed, while an analysis stops
    # at 2**64 - 3 because stream i is fitted with seed + i.  fit's keyword
    # defaults equal AnalysisConfig's.
    knobs = _given_config(args)
    cb = fit(features, knobs.pop("clusters", AnalysisConfig.clusters), **knobs)
    save_codebook(cb, args.out)
    print(f"k={cb.k} iterations={cb.iterations_run} distortion={cb.final_distortion:.6g}")
    return 0


def cmd_assign(args) -> int:
    cb = load_codebook(args.codebook)
    features = read_feature_matrix(args.features)
    labels = assign(cb, features)
    write_labels(labels, args.out)
    print(f"wrote {labels.rows} labels over alphabet {labels.alphabet_size}")
    return 0


def cmd_analyze(args) -> int:
    report = analyze(load_manifest(args.manifest), AnalysisConfig(**_given_config(args)))
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
    if args.format == "json":
        text = "[\n" + ",\n".join(r.to_json().rstrip("\n") for r in reports) + "\n]\n"
        _emit(text, args.out)
    else:
        _emit(render_sweep_table(reports), args.out)
    return 0


def cmd_report(args) -> int:
    report = InfoReport.from_json(Path(args.report).read_bytes())
    _render_report(report, args.format, args.out, title=Path(args.report).stem)
    return 0


def _check_blobs_flags(args) -> None:
    """Reject a blobs shape, scale or seed before any centre is built;
    ``gen_gaussian_mixture`` checks ``--n-per-center`` itself."""
    for flag, value, ok, rule in (
        ("--centers", args.centers, args.centers >= 1, ">= 1"),
        ("--dims", args.dims, args.dims >= 1, ">= 1"),
        ("--stddev", args.stddev, 0 <= args.stddev < math.inf, "finite and >= 0"),
        ("--spacing", args.spacing, math.isfinite(args.spacing), "finite"),
        ("--seed", args.seed, 0 <= args.seed < 2**64, "in [0, 2**64 - 1]"),
    ):
        if not ok:
            raise DataError(f"{flag} must be {rule}, got {value}")


def cmd_synth(args) -> int:
    if args.generator == "xor":
        streams = exhaustive_stream(xor_pmf(), copies=args.copies, tags=["v", "t", "s"])
    else:  # blobs
        _check_blobs_flags(args)
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
    entries = []
    for stream in streams:
        entry = {"name": stream.modality_tag, "sample_rate_hz": stream.sample_rate_hz}
        if isinstance(stream, FeatureMatrix):
            entry.update(path=f"{stream.modality_tag}.fmx", kind="features", clusters=args.centers)
            write_feature_matrix(stream, out_dir / entry["path"])
        else:
            entry.update(path=f"{stream.modality_tag}.lbl", kind="labels")
            write_labels(stream, out_dir / entry["path"])
        entries.append(entry)
    manifest = {"target_rate_hz": 25.0, "streams": entries}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_dir / 'manifest.json'}")
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
