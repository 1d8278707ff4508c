"""Seeded inputs for the benchmark workloads.

Every workload derives its streams from one latent class sequence at the
25 Hz analysis rate: feature rows are the class's center plus unit Gaussian
noise, label symbols are the class modulo the alphabet with half of them
replaced by uniform noise.  The files are written in modmi's on-disk formats
(FMX1, LBL1, one integer per line) by this module, so the inputs stay the
same when modmi's own writers change.

Feature workloads pin the K-means iteration count: ``--tol`` lies far below
any real improvement and ``--max-iter`` is fixed, so a run does the same
amount of work whichever seed generated its data.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

TARGET_RATE_HZ = 25.0


def pinned_lloyd(iterations: int) -> tuple[str, ...]:
    """Flags that make every fit run exactly ``iterations`` Lloyd passes.

    ``iterations`` must stay below the pass count at which any seed's data
    reaches a fixed point, where the improvement is exactly 0 and the fit
    stops early.  With one pass more than the caps used below, every fit of
    seeds 0-31 still ran to the cap.
    """
    return ("--tol", "1e-12", "--max-iter", str(iterations))


@dataclass(frozen=True)
class StreamPlan:
    """What the benchmark expects a report to say about one stream."""

    name: str
    role: str
    kind: str  # "features" | "labels"
    dims: int | None = None
    clusters: int | None = None  # None: the sweep's k
    alphabet: int | None = None


@dataclass(frozen=True)
class Inputs:
    """One generated input set: the manifest plus what the checks need."""

    manifest: Path
    frames: int  # aligned frames at TARGET_RATE_HZ
    labels: dict  # labels stream name -> aligned symbols (int64)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "analyze" | "sweep"
    flags: tuple[str, ...]
    streams: tuple[StreamPlan, ...]
    make: Callable  # (rng, out_dir) -> Inputs
    ks: tuple[int, ...] = ()  # sweep cluster counts, one report each

    def argv(self, manifest: Path, out: Path) -> list[str]:
        return [self.command, str(manifest), *self.flags, "--format", "json", "--out", str(out)]


def write_fmx(path: Path, values: np.ndarray) -> None:
    rows, dims = values.shape
    path.write_bytes(b"FMX1" + struct.pack("<II", rows, dims) + values.astype("<f4").tobytes())


def write_lbl(path: Path, symbols: np.ndarray, alphabet: int) -> None:
    header = b"LBL1" + struct.pack("<II", symbols.size, alphabet)
    path.write_bytes(header + symbols.astype("<u4").tobytes())


def write_text_labels(path: Path, symbols: np.ndarray) -> None:
    path.write_text("\n".join(map(str, symbols.tolist())) + "\n")


def _features(rng, classes, centers, repeat: int) -> np.ndarray:
    per_row = np.repeat(classes, repeat)
    noise = rng.standard_normal((per_row.size, centers.shape[1]), dtype=np.float32)
    return centers[per_row] + noise


def _labels(rng, classes, alphabet: int, repeat: int = 1) -> np.ndarray:
    symbols = np.repeat(classes, repeat) % alphabet
    noisy = rng.random(symbols.size) < 0.5
    symbols[noisy] = rng.integers(alphabet, size=int(noisy.sum()))
    return symbols


def _decimate(symbols: np.ndarray, factor: int) -> np.ndarray:
    """The frames nearest-frame resampling keeps at 1/factor of the rate."""
    return symbols[factor // 2 :: factor]


def _manifest(out: Path, streams: list[dict]) -> Path:
    path = out / "manifest.json"
    path.write_text(json.dumps({"target_rate_hz": TARGET_RATE_HZ, "streams": streams}, indent=2))
    return path


# Sizes are chosen so one CLI call takes about 3 s on the numpy backend, and
# a run of a few calls fits the driver's time budget with a median per run.
AV_FRAMES = 3_000
AV_CLUSTERS = 500
LABEL_FRAMES = 300_000
LABEL_ALPHABET = 2000
TEXT_ALPHABET = 217
SWEEP_FRAMES = 20_000
SWEEP_KS = (8, 32, 128)


def _make_analyze_av(rng, out: Path) -> Inputs:
    classes = rng.integers(64, size=AV_FRAMES)
    audio_centers = rng.normal(0.0, 0.5, (64, 32)).astype(np.float32)
    video_centers = rng.normal(0.0, 0.5, (64, 32)).astype(np.float32)
    text = _labels(rng, classes, TEXT_ALPHABET)
    write_fmx(out / "audio.fmx", _features(rng, classes, audio_centers, 4))
    write_fmx(out / "video.fmx", _features(rng, classes, video_centers, 1))
    write_lbl(out / "text.lbl", text, TEXT_ALPHABET)
    manifest = _manifest(
        out,
        [
            {"name": "audio", "path": "audio.fmx", "kind": "features",
             "sample_rate_hz": 100.0, "clusters": AV_CLUSTERS},
            {"name": "video", "path": "video.fmx", "kind": "features",
             "sample_rate_hz": 25.0, "clusters": AV_CLUSTERS},
            {"name": "text", "path": "text.lbl", "kind": "labels",
             "sample_rate_hz": 25.0, "alphabet_size": TEXT_ALPHABET},
        ],
    )
    return Inputs(manifest, AV_FRAMES, {"text": text})


def _make_analyze_labels(rng, out: Path) -> Inputs:
    classes = rng.integers(4096, size=LABEL_FRAMES)
    audio = _labels(rng, classes, LABEL_ALPHABET, repeat=4)
    video = _labels(rng, classes, LABEL_ALPHABET)
    text = _labels(rng, classes, TEXT_ALPHABET)
    write_lbl(out / "audio.lbl", audio, LABEL_ALPHABET)
    write_lbl(out / "video.lbl", video, LABEL_ALPHABET)
    write_text_labels(out / "text.txt", text)
    manifest = _manifest(
        out,
        [
            {"name": "audio", "path": "audio.lbl", "kind": "labels", "sample_rate_hz": 100.0},
            {"name": "video", "path": "video.lbl", "kind": "labels", "sample_rate_hz": 25.0},
            {"name": "text", "path": "text.txt", "kind": "labels",
             "sample_rate_hz": 25.0, "alphabet_size": TEXT_ALPHABET},
        ],
    )
    aligned = {"audio": _decimate(audio, 4), "video": video, "text": text}
    return Inputs(manifest, LABEL_FRAMES, aligned)


def _make_sweep_long(rng, out: Path) -> Inputs:
    classes = rng.integers(256, size=SWEEP_FRAMES)
    centers = rng.normal(0.0, 2.0, (256, 16)).astype(np.float32)
    text = _labels(rng, classes, TEXT_ALPHABET)
    write_fmx(out / "features.fmx", _features(rng, classes, centers, 1))
    write_text_labels(out / "text.txt", text)
    manifest = _manifest(
        out,
        [
            {"name": "features", "path": "features.fmx", "kind": "features", "sample_rate_hz": 25.0},
            {"name": "text", "path": "text.txt", "kind": "labels",
             "sample_rate_hz": 25.0, "alphabet_size": TEXT_ALPHABET},
        ],
    )
    return Inputs(manifest, SWEEP_FRAMES, {"text": text})


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analyze-av",
            "analyze",
            pinned_lloyd(6),
            (
                StreamPlan("audio", "S", "features", dims=32, clusters=AV_CLUSTERS),
                StreamPlan("video", "V", "features", dims=32, clusters=AV_CLUSTERS),
                StreamPlan("text", "T", "labels", alphabet=TEXT_ALPHABET),
            ),
            _make_analyze_av,
        ),
        Workload(
            "analyze-labels",
            "analyze",
            (),
            (
                StreamPlan("audio", "V", "labels", alphabet=LABEL_ALPHABET),
                StreamPlan("video", "T", "labels", alphabet=LABEL_ALPHABET),
                StreamPlan("text", "S", "labels", alphabet=TEXT_ALPHABET),
            ),
            _make_analyze_labels,
        ),
        Workload(
            "sweep-long",
            "sweep",
            ("--ks", ",".join(map(str, SWEEP_KS)), *pinned_lloyd(10)),
            (
                StreamPlan("features", "S", "features", dims=16),
                StreamPlan("text", "T", "labels", alphabet=TEXT_ALPHABET),
            ),
            _make_sweep_long,
            ks=SWEEP_KS,
        ),
    )
}

def generate(name: str, seed: int, out: Path) -> Inputs:
    """Write workload ``name``'s inputs for ``seed`` under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    return WORKLOADS[name].make(rng, out)
