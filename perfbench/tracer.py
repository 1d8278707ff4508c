"""Per-layer spans for one in-process modmi CLI call, and the layer metrics
derived from them.

Run as a script, this imports modmi, wraps the public functions listed in
``TARGETS`` in every modmi module that holds them, runs ``modmi.cli.main``
once with the remaining arguments, and writes the recorded spans as one JSON
document.  Spans are kept in memory until the call returns.  Only traced
runs carry wrappers; the timed runs execute modmi untouched.

A target that no longer exists (renamed or deleted) is reported as missing
with a warning; the metrics that depend on it are then absent instead of
wrong.

    python3 perfbench/tracer.py OUT.json -- analyze manifest.json --format json --out r.json
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time

# (layer, module, attribute).  An attribute "Class.method" patches the class.
TARGETS = (
    ("cli", "modmi.cli", "render_table"),
    ("cli", "modmi.cli", "render_sweep_table"),
    ("cli", "modmi.pipeline", "InfoReport.to_json"),
    ("pipeline", "modmi.pipeline", "analyze"),
    ("pipeline", "modmi.pipeline", "sweep_clusters"),
    ("ingestion", "modmi.ingestion", "read_feature_matrix"),
    ("ingestion", "modmi.ingestion", "read_labels"),
    ("ingestion", "modmi.ingestion", "resample_nearest"),
    ("quantizer", "modmi.quantizer", "fit"),
    ("quantizer", "modmi.quantizer", "assign"),
    ("kernels", "modmi._kernels", "assign_labels"),
    ("kernels", "modmi._kernels", "accumulate_means"),
    ("infotheory", "modmi.infotheory", "info_diagram"),
    ("infotheory", "modmi.infotheory", "pair_quantities"),
)


def _span_name(layer: str, attribute: str) -> str:
    return f"{layer}.{attribute.rsplit('.', 1)[-1]}"


# Counts recorded with a span, from the call's arguments and result.
PROBES = {
    "kernels.assign_labels": lambda a, r: {
        "rows": a[0].shape[0], "dims": a[0].shape[1], "centroids": a[1].shape[0]
    },
    "quantizer.fit": lambda a, r: {"iterations": r.iterations_run},
    "ingestion.read_feature_matrix": lambda a, r: {"bytes": os.path.getsize(a[0])},
    "ingestion.read_labels": lambda a, r: {"bytes": os.path.getsize(a[0])},
    "infotheory.info_diagram": lambda a, r: {"frames": a[0].rows},
    "infotheory.pair_quantities": lambda a, r: {"frames": a[0].rows},
}


class Tracer:
    """Records nested spans of wrapped calls in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._broken_probes: set[str] = set()

    def _wrap(self, name: str, layer: str, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name,
                "layer": layer,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if probe is not None and name not in self._broken_probes:
                try:
                    span["attrs"] = probe(args, result)
                except (AttributeError, IndexError, TypeError, OSError) as exc:
                    self._broken_probes.add(name)
                    self.missing.append(f"{name}:probe")
                    _warn(f"cannot read counts of {name} ({exc!r}); they are absent")
            return result

        return traced

    def install(self) -> None:
        for layer, module_name, attribute in TARGETS:
            name = _span_name(layer, attribute)
            try:
                owner = importlib.import_module(module_name)
                *classes, leaf = attribute.split(".")
                for cls in classes:
                    owner = getattr(owner, cls)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(name)
                _warn(f"trace target {module_name}.{attribute} not found; its metrics are absent")
                continue
            wrapped = self._wrap(name, layer, original)
            if classes:
                setattr(owner, leaf, wrapped)
                continue
            # `from .x import f` copies the reference, so patch every alias.
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == "modmi" or mod_name.startswith("modmi.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)


def _warn(message: str) -> None:
    print(f"perfbench: warning: {message}", file=sys.stderr)


# --- metrics ---------------------------------------------------------------

_ASSIGN = "kernels.assign_labels"
_FIT = "quantizer.fit"
_ASSIGN_Q = "quantizer.assign"
_READS = ("ingestion.read_feature_matrix", "ingestion.read_labels")
_INFO = ("infotheory.info_diagram", "infotheory.pair_quantities")
_ALL = tuple(_span_name(layer, attr) for layer, _, attr in TARGETS)

# Per-layer metric -> the span names whose absence makes it absent.  Units
# and directions live in BENCHMARK.json.
PER_LAYER = {
    "kernels.lloyd_assign_s": (_ASSIGN,),
    "kernels.seed_assign_s": (_ASSIGN,),
    "kernels.assign_calls": (_ASSIGN,),
    "kernels.dist_evals": (_ASSIGN,),
    "kernels.gflops": (_ASSIGN,),
    "kernels.accumulate_s": ("kernels.accumulate_means",),
    "quantizer.fit_s": (_FIT,),
    "quantizer.lloyd_iters": (_FIT,),
    "quantizer.s_per_iter": (_FIT, _ASSIGN),
    "quantizer.final_assign_s": (_ASSIGN_Q,),
    "quantizer.self_s": (_FIT, _ASSIGN_Q, _ASSIGN, "kernels.accumulate_means"),
    "infotheory.total_s": _INFO,
    "infotheory.frames_per_s": _INFO,
    "ingestion.read_s": _READS,
    "ingestion.read_mb": _READS,
    "ingestion.resample_s": ("ingestion.resample_nearest",),
    "pipeline.total_s": ("pipeline.analyze", "pipeline.sweep_clusters"),
    "pipeline.self_s": _ALL,
    "pipeline.stream_loads": _READS,
    "cli.render_s": ("cli.render_table", "cli.render_sweep_table", "cli.to_json"),
}

# Counts that must repeat exactly between runs of the same inputs.
DETERMINISTIC = (
    "kernels.dist_evals",
    "kernels.assign_calls",
    "quantizer.lloyd_iters",
    "pipeline.stream_loads",
)


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _self_time(span: dict, children: dict) -> float:
    """Duration minus the time spent in spans of other layers below it."""
    inner = 0.0
    stack = list(children.get(span["id"], ()))
    while stack:
        child = stack.pop()
        if child["layer"] == span["layer"]:
            stack.extend(children.get(child["id"], ()))
        else:
            inner += _duration(child)
    return _duration(span) - inner


def layer_metrics(spans: list[dict], missing: list[str]) -> dict:
    """Per-layer metrics of one traced call."""
    by_id = {s["id"]: s for s in spans}
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def top(layer):  # spans of a layer not nested in another span of it
        out = []
        for s in spans:
            parent = by_id.get(s["parent"])
            while parent is not None and parent["layer"] != layer:
                parent = by_id.get(parent["parent"])
            if s["layer"] == layer and parent is None:
                out.append(s)
        return out

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def total(items):
        return sum(_duration(s) for s in items)

    # Counts are read lazily: a broken probe leaves spans without "attrs",
    # and only the metrics that need them go absent.
    def attr(items, key):
        return sum(s["attrs"][key] for s in items)

    def seeding():  # kmeans++ D^2 passes: one centroid per call
        return [s for s in assign if s["attrs"]["centroids"] == 1]

    def flops():
        return sum(3 * s["attrs"]["rows"] * s["attrs"]["centroids"] * s["attrs"]["dims"] for s in assign)

    assign = named(_ASSIGN)
    fits = named(_FIT)
    info = top("infotheory")
    reads = named(*_READS)
    values = {
        "kernels.lloyd_assign_s": lambda: total(assign) - total(seeding()),
        "kernels.seed_assign_s": lambda: total(seeding()),
        "kernels.assign_calls": lambda: len(assign),
        "kernels.dist_evals": lambda: sum(s["attrs"]["rows"] * s["attrs"]["centroids"] for s in assign),
        "kernels.gflops": lambda: flops() / total(assign) / 1e9 if assign else 0.0,
        "kernels.accumulate_s": lambda: total(named("kernels.accumulate_means")),
        "quantizer.fit_s": lambda: total(fits),
        "quantizer.lloyd_iters": lambda: attr(fits, "iterations"),
        "quantizer.s_per_iter": lambda: (
            (total(fits) - total(seeding())) / attr(fits, "iterations") if fits else 0.0
        ),
        "quantizer.final_assign_s": lambda: total(named(_ASSIGN_Q)),
        "quantizer.self_s": lambda: sum(_self_time(s, children) for s in top("quantizer")),
        "infotheory.total_s": lambda: total(info),
        "infotheory.frames_per_s": lambda: attr(info, "frames") / total(info) if info else 0.0,
        "ingestion.read_s": lambda: total(reads),
        "ingestion.read_mb": lambda: attr(reads, "bytes") / 2**20,
        "ingestion.resample_s": lambda: total(named("ingestion.resample_nearest")),
        "pipeline.total_s": lambda: total(top("pipeline")),
        "pipeline.self_s": lambda: sum(_self_time(s, children) for s in top("pipeline")),
        "pipeline.stream_loads": lambda: len(reads),
        "cli.render_s": lambda: total(top("cli")),
    }
    gone = {m.split(":")[0] for m in missing}
    out = {}
    for name, needs in PER_LAYER.items():
        if gone.intersection(needs):
            continue
        try:
            out[name] = values[name]()
        except KeyError:  # a probe's counts are missing on some span
            continue
    return out


def median_metrics(per_call: list[dict]) -> dict:
    """Median of each metric that every call reports."""
    if not per_call:
        return {}
    names = [n for n in PER_LAYER if all(n in m for m in per_call)]
    return {n: statistics.median(m[n] for m in per_call) for n in names}


def main(argv: list[str]) -> int:
    out_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT.json -- <modmi arguments>")
    import modmi.cli  # imports every layer before the wrappers go in

    tracer = Tracer()
    tracer.install()
    try:
        code = modmi.cli.main(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"spans": tracer.spans, "missing": tracer.missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
