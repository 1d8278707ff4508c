"""Correctness checks on the reports a workload's modmi call wrote.

Three checks, each independent of modmi's code:

* shape: every report names the planned streams with their roles, kinds,
  frame counts, dimensions and cluster counts;
* values: the identities that tie the quantities together hold, every
  entropy lies within [0, log2(alphabet)], and every quantity that involves
  only label streams equals a plug-in estimate recomputed here from the
  generated symbols;
* digest: a sha256 over each report's ``quantities`` block and each
  stream's ``codebook_sha256``.  Fields a report may gain later are left
  out, so the digest changes only when a number or a codebook does.  It is
  compared with the stored reference for the seed, when there is one.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np

TOL_BITS = 1e-9
ROLES = ("V", "T", "S")


def load_reports(path: Path) -> list[dict]:
    doc = json.loads(path.read_text())
    return doc if isinstance(doc, list) else [doc]


def digest(reports: list[dict]) -> str:
    material = [
        {
            "quantities": r["quantities"],
            "codebooks": {s["name"]: s["codebook_sha256"] for s in r["streams"] if "codebook_sha256" in s},
        }
        for r in reports
    ]
    blob = json.dumps(material, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _entropy_bits(arrays: list[np.ndarray], alphabets: list[int]) -> float:
    key = arrays[0].astype(np.int64)
    for arr, size in zip(arrays[1:], alphabets[1:]):
        key = key * size + arr
    _, counts = np.unique(key, return_counts=True)
    p = counts / key.size
    return float(-(p * np.log2(p)).sum())


def _joint_entropies(symbols: dict, alphabets: dict) -> dict:
    """H of every non-empty subset of roles, keyed by the sorted role string."""
    out = {}
    roles = sorted(symbols)
    for n in range(1, len(roles) + 1):
        for subset in itertools.combinations(roles, n):
            out["".join(subset)] = _entropy_bits(
                [symbols[r] for r in subset], [alphabets[r] for r in subset]
            )
    return out


def _h(entropies: dict, *roles: str) -> float:
    return entropies["".join(sorted(roles))]


def _derived(h: dict, three: bool) -> dict:
    """The quantities block a report must carry, from joint entropies."""

    def i2(a, b):
        return _h(h, a) + _h(h, b) - _h(h, a, b)

    def cond(a, b):
        return _h(h, a, b) - _h(h, b)

    pairs = (("T", "S"), ("T", "V"), ("V", "S")) if three else (("T", "S"),)
    out = {
        "H": {r: _h(h, r) for r in (ROLES if three else ("T", "S"))},
        "I2": {f"{a},{b}": i2(a, b) for a, b in pairs},
        "cond": {f"{a}|{b}": cond(a, b) for x, y in pairs for a, b in ((x, y), (y, x))},
    }
    if three:
        center = sum(_h(h, r) for r in ROLES) - sum(_h(h, a, b) for a, b in pairs) + _h(h, *ROLES)
        out["I3"] = center
        out["regions"] = {
            "V|T,S": _h(h, *ROLES) - _h(h, "T", "S"),
            "T|V,S": _h(h, *ROLES) - _h(h, "V", "S"),
            "S|V,T": _h(h, *ROLES) - _h(h, "V", "T"),
            "V;T|S": i2("V", "T") - center,
            "T;S|V": i2("T", "S") - center,
            "V;S|T": i2("V", "S") - center,
            "V;T;S": center,
        }
    return out


def _flat(block: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in block.items():
        if isinstance(value, dict):
            out.update(_flat(value, f"{prefix}{key}."))
        elif key != "log_base":
            out[prefix + key] = value
    return out


def check_report(report: dict, workload, inputs, k: int | None) -> list[str]:
    """Problems found in one report; an empty list means it passed."""
    problems = []
    streams = {s.get("name"): s for s in report.get("streams", [])}
    plans = {p.name: p for p in workload.streams}
    if set(streams) != set(plans):
        return [f"streams {sorted(streams)} != planned {sorted(plans)}"]
    alphabets = {}
    for name, plan in plans.items():
        got = streams[name]
        want = {"role": plan.role, "kind": plan.kind, "L": inputs.frames}
        if plan.kind == "features":
            want.update(d=plan.dims, k=plan.clusters or k)
            if not isinstance(got.get("codebook_sha256"), str) or len(got["codebook_sha256"]) != 64:
                problems.append(f"stream {name}: no codebook_sha256")
        for key, value in want.items():
            if got.get(key) != value:
                problems.append(f"stream {name}: {key}={got.get(key)!r}, expected {value!r}")
        alphabets[plan.role] = plan.alphabet or want.get("k")

    q = report.get("quantities", {})
    three = len(plans) == 3
    if q.get("log_base") != "2":
        problems.append(f"log_base {q.get('log_base')!r}, expected '2'")
    try:
        values = _flat(q)
        for role, size in alphabets.items():
            if not -TOL_BITS <= q["H"][role] <= math.log2(size) + TOL_BITS:
                problems.append(f"H({role})={q['H'][role]} outside [0, log2 {size}]")
        # Identities: the derived block recomputed from the report's own
        # entropies (joints recovered through its conditionals) must match.
        h = {r: q["H"][r] for r in alphabets}
        for key, value in q["cond"].items():
            a, b = key.split("|")
            h["".join(sorted(a + b))] = value + q["H"][b]
        if three:
            h["STV"] = q["regions"]["V|T,S"] + h["ST"]
        for key, value in _flat(_derived(h, three)).items():
            if abs(values[key] - value) > TOL_BITS:
                problems.append(f"identity broken at {key}: {values[key]} vs {value}")
        known = {p.role: inputs.labels[p.name] for p in plans.values() if p.kind == "labels"}
        oracle = _joint_entropies(known, alphabets)
        if len(known) == len(plans):
            expected = _flat(_derived(oracle, three))
        else:
            expected = {f"H.{r}": oracle[r] for r in known}
        for key, value in expected.items():
            if abs(values[key] - value) > TOL_BITS:
                problems.append(f"{key}={values[key]} but the symbols give {value}")
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed quantities block: {exc!r}")
    return problems


def check_output(path: Path, workload, inputs) -> tuple[str | None, list[str]]:
    """(digest, problems) for the file one modmi call wrote."""
    try:
        reports = load_reports(path)
    except (OSError, ValueError) as exc:
        return None, [f"unreadable output: {exc}"]
    ks = workload.ks or (None,)
    if len(reports) != len(ks):
        return None, [f"{len(reports)} reports, expected {len(ks)}"]
    problems = []
    for report, k in zip(reports, ks):
        problems += check_report(report, workload, inputs, k)
    try:
        return digest(reports), problems
    except (KeyError, TypeError) as exc:
        return None, problems + [f"cannot digest reports: {exc!r}"]
