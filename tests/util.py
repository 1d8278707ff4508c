"""Shared helpers for the test suite."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import modmi
from modmi.ingestion import FeatureMatrix, LabelSequence


def seq(symbols, alphabet_size=None, rate=25.0, tag="") -> LabelSequence:
    symbols = np.asarray(symbols, dtype=np.int64)
    if alphabet_size is None:
        alphabet_size = int(symbols.max()) + 1
    return LabelSequence(symbols, alphabet_size, rate, tag)


def tuple_counts(streams) -> Counter:
    """How often each aligned symbol tuple occurs in ``streams``."""
    return Counter(zip(*(s.symbols.tolist() for s in streams)))


def features(values, rate=25.0, tag="") -> FeatureMatrix:
    return FeatureMatrix(np.asarray(values, dtype=np.float32), rate, tag)


def repair_every_pass_matrix() -> FeatureMatrix:
    """Four distinct rows whose normalized values 1 and 1 + 2^-23 round to the
    same float32 centroid, so a normalized fit with k=4 repairs an empty
    cluster on every Lloyd pass."""
    return features(np.array([[0.0], [1.0], [1.0 + 2.0**-23], [1000.0]], dtype=np.float32))


def random_streams(rng, n_streams, length, alphabet=4, correlated=True):
    """Aligned random label streams; optionally push them off independence."""
    base = rng.integers(0, alphabet, size=length)
    out = []
    for _ in range(n_streams):
        if correlated:
            noise = rng.integers(0, alphabet, size=length)
            mix = rng.random(length) < 0.5
            symbols = np.where(mix, base, noise)
        else:
            symbols = rng.integers(0, alphabet, size=length)
        out.append(seq(symbols, alphabet))
    return out


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def child_env(**env_vars: str) -> dict:
    """An environment for a fresh interpreter that imports this checkout's
    modmi and sees no BLAS thread variable other than ``env_vars``."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env.update(env_vars)
    src = str(Path(modmi.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_cli_process(args, openblas_threads: str) -> None:
    """Run the modmi CLI in a fresh process under ``OPENBLAS_NUM_THREADS``
    (OpenBLAS reads its thread count once, when it loads)."""
    subprocess.run(
        [sys.executable, "-m", "modmi.cli", *args],
        check=True,
        capture_output=True,
        env=child_env(OPENBLAS_NUM_THREADS=openblas_threads),
    )
