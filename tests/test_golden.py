"""Reports, sweeps and a table rendering pinned byte for byte in tests/golden/.

The test regenerates the corpus in-process from fresh ``synth`` inputs and
compares it with the stored files.  Report bytes depend on the platform
through numpy's SIMD ``np.log``, so exact bytes are demanded only on the
platform recorded in ``golden/platform.txt``.  Elsewhere only each report's
``codebook_sha256`` is compared (the kernels are exact), and the test skips.

A deliberate change of the report bytes rewrites the corpus in its own diff:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import platform
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from modmi.cli import main
from modmi.ingestion import read_feature_matrix, write_feature_matrix

GOLDEN = Path(__file__).parent / "golden"

# Input directory -> the synth arguments that write it.
INPUTS = {
    "xor": "xor --copies 3",
    "blobs3": "blobs --centers 3 --dims 4 --n-per-center 60 --spacing 2 --seed 1",
    "blobs5": "blobs --centers 5 --dims 4 --n-per-center 60 --spacing 2 --seed 2",
    "paper": "blobs --centers 200 --dims 16 --n-per-center 30",
    "narrow": "blobs --centers 6 --dims 1 --n-per-center 50 --spacing 3 --seed 4",
    "offset": "blobs --centers 32 --dims 16 --n-per-center 25 --spacing 4 --seed 5",
}

# Added to every coordinate of offset/s.fmx after synth writes it, so the
# squared norms dwarf the distances between rows.
OFFSET = 1e3

# Corpus file -> the command that writes it, in writing order; {root} is the
# directory that holds the inputs and the files written before it.
CORPUS = {
    "xor.json": "analyze {root}/xor/manifest.json",
    "blobs3.json": "analyze {root}/blobs3/manifest.json --seed 1",
    "blobs3-normalize.json": "analyze {root}/blobs3/manifest.json --seed 1 --normalize",
    "blobs5.json": "analyze {root}/blobs5/manifest.json --seed 1",
    "blobs5-normalize.json": "analyze {root}/blobs5/manifest.json --seed 1 --normalize",
    "sweep.json": "sweep {root}/blobs5/manifest.json --ks 2,4,8 --seed 2 --format json",
    "pair.json": "analyze {root}/pair.manifest.json",
    "blobs5.table.txt": "report {root}/blobs5-normalize.json --format table",
    "paper.json": "analyze {root}/paper.manifest.json --clusters 2000",
    "paper-normalize.json": "analyze {root}/paper.manifest.json --clusters 2000 --normalize",
    "paper-sweep.json": "sweep {root}/paper/manifest.json --ks 500,1000,2000 --seed 1 --format json",
    "narrow-normalize.json": "analyze {root}/narrow/manifest.json --seed 3 --normalize",
    "offset.json": "analyze {root}/offset/manifest.json --seed 4",
}

# Two label streams: blobs3's 180 labels, declared at 16 Hz, resample to 281
# frames at 25 Hz, and blobs5's 300 labels lose 19 frames to the truncation.
PAIR_MANIFEST = {
    "target_rate_hz": 25.0,
    "streams": [
        {"name": "t", "path": "blobs5/t.lbl", "kind": "labels", "sample_rate_hz": 25.0},
        {"name": "s", "path": "blobs3/t.lbl", "kind": "labels", "sample_rate_hz": 16.0},
    ],
}

# The paper's cluster count needs a manifest whose features stream names no
# cluster count of its own: synth's names its --centers.
PAPER_MANIFEST = {
    "target_rate_hz": 25.0,
    "streams": [
        {"name": "s", "path": "paper/s.fmx", "kind": "features", "sample_rate_hz": 25.0},
        {"name": "t", "path": "paper/t.lbl", "kind": "labels", "sample_rate_hz": 25.0},
    ],
}


def platform_fingerprint() -> str:
    """Machine, numpy version and the SIMD targets numpy dispatches to, the
    same string as ``perfbench/run.py``'s ``platform_fingerprint``."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        targets = "unknown"
    else:
        targets = "+".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))
    return f"{platform.machine()} numpy-{np.__version__} simd-{targets}"


def build(root: Path) -> dict[str, bytes]:
    """Every corpus file, written under ``root`` from fresh synth inputs."""
    for name, args in INPUTS.items():
        assert main(["synth", *args.split(), "--out-dir", str(root / name)]) == 0
    shifted = read_feature_matrix(root / "offset" / "s.fmx")
    write_feature_matrix(replace(shifted, values=shifted.values + OFFSET), root / "offset" / "s.fmx")
    (root / "pair.manifest.json").write_text(json.dumps(PAIR_MANIFEST))
    (root / "paper.manifest.json").write_text(json.dumps(PAPER_MANIFEST))
    for name, command in CORPUS.items():
        argv = [token.format(root=root) for token in command.split()]
        assert main([*argv, "--out", str(root / name)]) == 0, name
    return {name: (root / name).read_bytes() for name in CORPUS}


def codebook_digests(corpus: dict[str, bytes]) -> dict[str, list]:
    """Each JSON file's ``codebook_sha256`` values, stream by stream."""
    digests = {}
    for name, data in corpus.items():
        if name.endswith(".json"):
            doc = json.loads(data)
            reports = doc if isinstance(doc, list) else [doc]
            digests[name] = [s.get("codebook_sha256") for r in reports for s in r["streams"]]
    return digests


def test_golden_corpus(tmp_path):
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted([*CORPUS, "platform.txt"])
    stored = {name: (GOLDEN / name).read_bytes() for name in CORPUS}
    built = build(tmp_path)
    recorded = (GOLDEN / "platform.txt").read_text().strip()
    if recorded == platform_fingerprint():
        assert [name for name in CORPUS if built[name] != stored[name]] == []
        return
    assert codebook_digests(built) == codebook_digests(stored)
    pytest.skip(
        f"golden report bytes were recorded on {recorded!r}, not {platform_fingerprint()!r}; "
        "compared codebook_sha256 only"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        corpus = build(Path(tmp))
    GOLDEN.mkdir(exist_ok=True)
    for name, data in corpus.items():
        (GOLDEN / name).write_bytes(data)
    (GOLDEN / "platform.txt").write_text(platform_fingerprint() + "\n")
