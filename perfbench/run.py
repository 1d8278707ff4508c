"""modmi benchmark: end-to-end timings of the CLI, per-layer traced runs.

    python3 perfbench/run.py --workload analyze-av --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one after another

One client, closed loop: each call of the ``modmi`` CLI runs in a fresh
process, and the next starts when it has exited.  Inputs come from
``--seed`` (see workloads.py); modmi receives only the files.

``--trace 0`` times whole CLI processes (wall, CPU and peak RSS from
``wait4``) and ``modmi --version`` start-up.  ``--trace 1`` first makes one
untraced call, then runs calls in-process under tracer.py's wrappers and
reports per-layer metrics.  Every call's output is checked (check.py); a
call that exits non-zero or fails a check counts as failed.  Metrics are
medians over the calls of the run.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A full record of the run
(environment, per-call samples, digests) goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
RESULTS = HERE / "results"
REFERENCE = HERE / "reference.json"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPEATS = 11
MIN_TRACED_CALLS = 2  # two, so the count-determinism check has a pair to compare
DEADLINE_S = 160.0  # the whole run must end well within 180 s

ENV_PROBE = """
import json, sys, numpy, modmi, modmi._kernels as k
print(json.dumps({
    "backend": k.backend_name,
    "modmi_file": modmi.__file__,
    "numpy": numpy.__version__,
    "python": sys.version.split()[0],
}))
"""
ENV_VARS = ("MODMI_BACKEND", "MODMI_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
            "MKL_NUM_THREADS")


class Budget:
    """Wall-clock budget of one run, so it ends before the caller's limit."""

    def __init__(self, seconds: float):
        self.deadline = time.perf_counter() + seconds

    def left(self) -> float:
        return self.deadline - time.perf_counter()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(args: list[str], budget: Budget, log: Path) -> dict:
    """Run one process to completion; wall time, rusage and exit code.

    Its stderr goes to ``log``.  The process is killed if it outlives the
    run's budget.
    """
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(budget.left(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    return {
        "code": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is KiB on Linux
        "stderr": log.read_text(errors="replace")[-2000:],
    }


def modmi_cmd(*args: str) -> list[str]:
    return [sys.executable, "-m", "modmi.cli", *args]


def environment(budget: Budget) -> dict:
    probe = subprocess.run(
        [sys.executable, "-c", ENV_PROBE], env=child_env(), capture_output=True, text=True,
        timeout=max(budget.left(), 1.0),
    )
    if probe.returncode != 0:
        raise RuntimeError(f"cannot import modmi from {SRC}:\n{probe.stderr}")
    env = json.loads(probe.stdout)
    if not Path(env["modmi_file"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported modmi from {env['modmi_file']}, not from {SRC}")
    env.update({var: os.environ.get(var) for var in ENV_VARS})
    env["nproc"] = len(os.sched_getaffinity(0))
    env["git_commit"] = _git_commit()
    env["source_sha256"] = _source_digest()
    return env


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():  # an exported checkout: do not ask an enclosing repo
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over modmi's source tree, so records of the same code can be matched."""
    h = hashlib.sha256()
    for path in sorted((SRC / "modmi").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def platform_fingerprint() -> str:
    """What stored digests depend on besides modmi: numpy's build and the
    SIMD paths it dispatches to, which can move np.log by an ulp."""
    import numpy

    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        targets = "unknown"
    else:
        targets = "+".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))
    return f"{platform.machine()} numpy-{numpy.__version__} simd-{targets}"


def load_reference() -> dict:
    """Stored digests by workload and seed, or {} when recorded elsewhere."""
    doc = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    if doc and doc["platform"] != platform_fingerprint():
        print(f"perfbench: stored digests were recorded on {doc['platform']!r}, "
              f"not {platform_fingerprint()!r}; checking run-to-run identity instead",
              file=sys.stderr)
        return {}
    return doc.get("digests", {})


class Run:
    """One workload at one seed: its inputs, calls, checks and record."""

    def __init__(self, workload: workloads.Workload, seed: int, budget: Budget, scratch: Path):
        self.workload = workload
        self.budget = budget
        self.scratch = scratch
        self.inputs = workloads.generate(workload.name, seed, scratch / "inputs")
        self.reference = load_reference().get(workload.name, {}).get(str(seed))
        self.digests: list[str] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.calls = 0

    def argv(self, out: Path) -> list[str]:
        return self.workload.argv(self.inputs.manifest, out)

    def _out(self) -> Path:
        self.calls += 1
        return self.scratch / f"out-{self.calls}.json"

    def judge(self, label: str, code: int, stderr: str, out: Path) -> bool:
        """Check one call's exit code and output; record a failure."""
        self.attempted += 1
        problems = [f"exit code {code}: {stderr.strip()[-500:]}"] if code != 0 else []
        if not problems:
            found, problems = check.check_output(out, self.workload, self.inputs)
            want = self.reference or (self.digests[0] if self.digests else found)
            if found is not None:
                self.digests.append(found)
                if found != want:
                    source = "stored reference" if self.reference else "first call of this run"
                    problems.append(f"result digest {found[:16]} != {source} {want[:16]}")
        self.failed += bool(problems)
        self.failures += [f"{label}: {problem}" for problem in problems]
        return not problems

    def timed_call(self) -> dict:
        out = self._out()
        sample = spawn(modmi_cmd(*self.argv(out)), self.budget, out.with_suffix(".err"))
        sample["ok"] = self.judge(f"call {self.calls}", sample["code"], sample["stderr"], out)
        return sample

    def traced_call(self) -> tuple[dict, dict]:
        out, spans_path = self._out(), self.scratch / f"spans-{self.calls}.json"
        args = [sys.executable, str(HERE / "tracer.py"), str(spans_path), "--", *self.argv(out)]
        sample = spawn(args, self.budget, out.with_suffix(".err"))
        ok = self.judge(f"traced call {self.calls}", sample["code"], sample["stderr"], out)
        try:
            doc = json.loads(spans_path.read_text())
        except (OSError, ValueError) as exc:
            if ok:  # a failed call is already counted
                self.failed += 1
            self.failures.append(f"traced call {self.calls}: no spans ({exc})")
            return sample, {"spans": [], "missing": []}
        if sample["stderr"].strip():
            print(sample["stderr"].strip(), file=sys.stderr)
        return sample, doc

    def setup_seconds(self, repeats: int) -> float:
        log = self.scratch / "version.err"
        samples = [spawn(modmi_cmd("--version"), self.budget, log) for _ in range(repeats)]
        bad = [s for s in samples if s["code"] != 0]
        if bad:
            self.failures.append(f"modmi --version failed: {bad[0]['stderr'].strip()[-500:]}")
        return statistics.median(s["wall_s"] for s in samples)

    def repeat(self, call, seconds: float, least: int) -> list:
        """Results of ``call()`` made until ``seconds`` have passed and at
        least ``least`` times, while the budget still fits one more."""
        results, started, last = [], time.perf_counter(), 0.0
        while len(results) < least or time.perf_counter() - started < seconds:
            if self.budget.left() <= last:
                break
            before = time.perf_counter()
            results.append(call())
            last = time.perf_counter() - before
        return results


def _median_of(samples: list[dict], key: str) -> float:
    ok = [s[key] for s in samples if s.get("ok")] or [s[key] for s in samples]
    return statistics.median(ok)


def run_timed(run: Run, seconds: float) -> dict:
    setup = run.setup_seconds(SETUP_REPEATS)
    samples = run.repeat(run.timed_call, seconds, least=1)
    metrics = {k: _median_of(samples, k) for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = setup
    return {
        "metrics": metrics,
        "samples": [{k: s[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "code", "ok")} for s in samples],
    }


# What each workload was chosen to stress, as confirmed by its traced run.
# These are reported, not enforced: an optimisation may rightly move them.
STRESS = {
    "analyze-av": [
        ("kernel assign time > 50% of pipeline.total_s",
         lambda m: m["kernels.lloyd_assign_s"] + m["kernels.seed_assign_s"] > 0.5 * m["pipeline.total_s"]),
        ("infotheory.total_s < 5% of pipeline.total_s",
         lambda m: m["infotheory.total_s"] < 0.05 * m["pipeline.total_s"]),
    ],
    "analyze-labels": [
        ("infotheory.total_s > 50% of pipeline.total_s",
         lambda m: m["infotheory.total_s"] > 0.5 * m["pipeline.total_s"]),
        ("kernels.dist_evals == 0", lambda m: m["kernels.dist_evals"] == 0),
    ],
    "sweep-long": [
        ("pipeline.stream_loads == 6", lambda m: m["pipeline.stream_loads"] == 6),
    ],
}


def run_traced(run: Run, seconds: float) -> dict:
    setup = run.setup_seconds(3)
    untraced = run.timed_call()  # also warms the caches before the traced calls
    per_call, spans = [], []
    for run_id, (_, doc) in enumerate(run.repeat(run.traced_call, seconds, MIN_TRACED_CALLS)):
        for span in doc["spans"]:
            span.update(workload=run.workload.name, run=run_id)
        spans += doc["spans"]
        per_call.append(tracer.layer_metrics(doc["spans"], doc["missing"]))

    metrics = tracer.median_metrics(per_call)
    for name in tracer.PER_LAYER:
        if name not in metrics:
            print(f"perfbench: warning: per-layer metric {name} is absent", file=sys.stderr)
    for name in tracer.DETERMINISTIC:
        seen = {m.get(name) for m in per_call}
        if len(seen) > 1:
            run.failures.append(f"determinism: {name} differs between traced calls: {sorted(map(str, seen))}")
    stress = {}
    for label, holds in STRESS.get(run.workload.name, []):
        try:
            stress[label] = bool(holds(metrics))
        except KeyError:
            stress[label] = None
    untraced_work = untraced["wall_s"] - setup
    overhead = None
    if "pipeline.total_s" in metrics and untraced_work > 0:
        overhead = metrics["pipeline.total_s"] / untraced_work
    return {
        "metrics": metrics,
        "samples": per_call,
        "counts": {n: per_call[0].get(n) for n in tracer.DETERMINISTIC} if per_call else {},
        "stress": stress,
        "trace_overhead_ratio": overhead,
        "untraced_wall_s": untraced["wall_s"],
        "spans": spans,
    }


def units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


def bench(name: str, seed: int, seconds: float, trace: int, budget: Budget) -> dict:
    """One workload at one seed; returns the full record."""
    workload = workloads.WORKLOADS[name]
    WORK.mkdir(parents=True, exist_ok=True)
    scratch = WORK / f"{name}-s{seed}-t{trace}-{os.getpid()}"
    try:
        run = Run(workload, seed, budget, scratch)
        env = environment(budget)
        result = (run_traced if trace else run_timed)(run, seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "env": env,
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "digest": run.digests[0] if run.digests else None,
        "reference": "stored" if run.reference else "none",
        **result,
    }
    return record


def save(record: dict) -> None:
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-s{record['seed']}-t{record['trace']}-{record['utc'][:19].replace(':', '')}-{os.getpid()}"
    spans = record.pop("spans", None)
    if spans is not None:
        with open(RESULTS / f"{stem}.spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def describe(record: dict) -> None:
    """Human-readable lines: every metric by name and unit, then the checks."""
    name = record["workload"]
    unit_of = units(record["trace"])
    n = len(record["samples"])
    kind = "traced calls" if record["trace"] else "calls"
    for metric, value in record["metrics"].items():
        basis = f"median of {SETUP_REPEATS} modmi --version" if metric == "setup_s" else f"median of {n} {kind}"
        print(f"{name:15s} {metric:26s} {value:12.6g} {unit_of[metric]:8s} ({basis})")
    frac = record["failed"] / max(record["attempted"], 1)
    print(f"{name:15s} {'failed_frac':26s} {frac:12.6g} {'ratio':8s} "
          f"({record['failed']} of {record['attempted']} calls)")
    env = record["env"]
    print(f"{name:15s} backend={env['backend']} numpy={env['numpy']} python={env['python']} "
          f"nproc={env['nproc']} MODMI_THREADS={env['MODMI_THREADS']} commit={env['git_commit']}")
    ref = "stored reference" if record["reference"] == "stored" else "no stored reference; run-to-run identity"
    print(f"{name:15s} result digest {str(record['digest'])[:16]} checked against {ref}")
    for label, holds in record.get("stress", {}).items():
        verdict = {True: "yes", False: "NO", None: "unknown"}[holds]
        print(f"{name:15s} stress check: {label}: {verdict}")
    if record.get("trace_overhead_ratio") is not None:
        print(f"{name:15s} traced pipeline.total_s / untraced (wall_s - setup_s) = "
              f"{record['trace_overhead_ratio']:.3f}")
    for failure in record["failures"]:
        print(f"{name:15s} FAILED {failure}")


def record_reference(name: str, seed: int, budget: Budget) -> int:
    """Store this seed's digest after one call that passes every other check.

    A stored digest is never replaced: a different result for a stored seed
    fails the check like in any other run.
    """
    scratch = WORK / f"{name}-s{seed}-record-{os.getpid()}"
    try:
        run = Run(workloads.WORKLOADS[name], seed, budget, scratch)
        run.timed_call()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for failure in run.failures:
        print(f"{name} seed {seed}: FAILED {failure}", file=sys.stderr)
    if run.failures:
        return 1
    doc = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    doc.setdefault("platform", platform_fingerprint())
    if doc["platform"] != platform_fingerprint():
        print(f"not recording: {REFERENCE.name} belongs to {doc['platform']!r}", file=sys.stderr)
        return 1
    entries = doc.setdefault("digests", {}).setdefault(name, {})
    entries.setdefault(str(seed), run.digests[0])
    doc["digests"][name] = dict(sorted(entries.items(), key=lambda kv: int(kv[0])))
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"{name} seed {seed}: {run.digests[0]}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store the result digest of --seed if it has none yet")
    args = parser.parse_args(argv)

    if not (SRC / "modmi" / "cli.py").is_file():
        print(f"perfbench: no modmi source tree at {SRC}", file=sys.stderr)
        return 2
    if set(units(1)) != set(tracer.PER_LAYER):
        print("perfbench: BENCHMARK.json per_layer and tracer.PER_LAYER name different metrics",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.record_reference:
        WORK.mkdir(parents=True, exist_ok=True)
        return max(record_reference(n, args.seed, Budget(DEADLINE_S)) for n in names)

    records = []
    for name in names:
        record = bench(name, args.seed, args.seconds, args.trace, Budget(DEADLINE_S))
        save(record)
        describe(record)
        records.append(record)
    unit_of = units(args.trace)
    metrics = {}
    for r in records:  # with several workloads, names carry the workload
        prefix = f"{r['workload']}." if len(records) > 1 else ""
        for k, v in r["metrics"].items():
            metrics[prefix + k] = {"value": v, "unit": unit_of[k]}
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
