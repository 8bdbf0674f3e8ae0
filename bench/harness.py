"""Measurement loop of the benchmark; ``run.py`` pins the BLAS and calls ``run``.

One run: set the inputs up (several times, for ``setup_s``), make one
untimed reference invocation (turn 0), then make timed invocations, turn
0, 1, 2, ..., until ``--seconds`` have passed. Every timed invocation must
exit 0, pass the workload's output checks and write the same bytes and
standard output as every earlier invocation with the same command line
(the reference, for the first timed one); the manifests' ``created_utc``
field is the one part left out of the comparison. Failed invocations
count in ``error_rate``.

A traced run (``--trace 1``) sets up once and traces every timed
invocation. After the reference, which also warms lazy imports up, it
makes one more untraced invocation of turn 0, the base of
``trace.overhead_s``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import spinsens.cli
from metrics import (END_TO_END, PER_LAYER, WORKER_CALLS, WORKLOAD_ONLY, Observed,
                     layer_metrics)
from run import BLAS_PINS, ROOT, SRC
from tracing import Tracer
from workloads import WORKLOADS

OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5

_IMPORT_PROBE = ("import sys, time\n"
                 "sys.path.insert(0, sys.argv[1])\n"
                 "start = time.perf_counter()\n"
                 "import spinsens.cli\n"
                 "print(time.perf_counter() - start)\n")


@dataclass
class Invocation:
    argv: list
    code: object
    wall_s: float
    stdout: str
    stderr: str
    fingerprint: dict = field(default_factory=dict)
    bytes_written: int = 0
    problems: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "platform": platform.platform(),
        "pins": {var: os.environ.get(var) for var in BLAS_PINS},
    }


def import_seconds() -> float:
    """Time to import spinsens.cli in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def fingerprint(out: Path, stdout: str) -> tuple[dict, int]:
    """SHA-256 of each output file and of stdout, plus the bytes written."""
    digests = {"<stdout>": hashlib.sha256(stdout.encode()).hexdigest()}
    written = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        written += len(data)
        if path.name.endswith(".manifest.json"):
            doc = json.loads(data)
            doc.pop("created_utc", None)
            data = json.dumps(doc, sort_keys=True).encode()
        digests[str(path.relative_to(out))] = hashlib.sha256(data).hexdigest()
    return digests, written


def invoke(workload, seed, inputs: Path, out: Path, smoke: bool, turn: int) -> Invocation:
    """One in-process ``spinsens`` invocation, its outputs checked."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    argv = workload.argv(seed, inputs, out, smoke, turn)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = spinsens.cli.main(argv)
        except Exception:  # a crash is a failed invocation, not a failed run
            code = None
            traceback.print_exc()
        wall = time.perf_counter() - start
    inv = Invocation(argv, code, wall, stdout.getvalue(), stderr.getvalue())
    if code != 0:
        inv.problems.append(f"exit code {code}: {inv.stderr.strip()[-400:]}")
        return inv
    try:
        inv.fingerprint, inv.bytes_written = fingerprint(out, inv.stdout)
        inv.problems, inv.facts = workload.check(seed, inputs, out, inv.stdout, smoke)
    except (OSError, ValueError, KeyError) as exc:
        inv.problems.append(f"unreadable output: {exc!r}")
    return inv


def _median(values) -> float:
    return float(statistics.median(values))


def _setup(workload, seed, inputs: Path, smoke: bool) -> list[float]:
    """Seconds per set-up, of SETUP_REPEATS; the last one's inputs stay.

    A set-up is a fresh interpreter's import of spinsens plus the input
    generation in this process.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        probe = import_seconds()
        shutil.rmtree(inputs, ignore_errors=True)
        start = time.perf_counter()
        workload.prepare(seed, inputs, smoke)
        samples.append(probe + time.perf_counter() - start)
    return samples


def _compare(inv: Invocation, seen: dict) -> None:
    """Compare with the first clean invocation of the same command line."""
    if inv.problems:
        return
    earlier = seen.setdefault(tuple(inv.argv), inv.fingerprint)
    if inv.fingerprint != earlier:
        differ = sorted(k for k in set(inv.fingerprint) | set(earlier)
                        if inv.fingerprint.get(k) != earlier.get(k))
        inv.problems.append(f"output differs from an earlier invocation: {differ}")


def _traced(workload, seed, inputs, out, smoke, spans_csv, index):
    """One traced invocation: the invocation, its layer metrics, its table."""
    observed = Observed()
    tracer = Tracer(watchers=observed.watchers(), cpu_timed=WORKER_CALLS)
    with tracer:
        inv = invoke(workload, seed, inputs, out, smoke, index)
    layers = layer_metrics(tracer, observed, inv.bytes_written)
    table = tracer.table()
    if not inv.problems:
        calls = {name: row["calls"] for name, row in table.items()}
        inv.problems += [f"incomplete trace: {p}"
                         for p in workload.complete(calls, inv.facts, smoke)]
    tracer.write_csv(spans_csv, index)
    return inv, layers, table


def _end_to_end(timed, setup, facts) -> dict[str, tuple[float, int]]:
    """Every END_TO_END metric, plus the WORKLOAD_ONLY ones the facts allow."""
    attempted = len(timed)
    failed = sum(1 for inv in timed if inv.problems)
    # the mean, not the median: the turns of synth and verify differ in work,
    # and the mean weighs every turn's draws alike
    wall = statistics.fmean(inv.wall_s for inv in timed)
    values = {
        "setup_s": (_median(setup), len(setup)),
        "wall_s": (wall, attempted),
        # high-water mark of this process: imports, set-up and every invocation
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "success_rate": ((attempted - failed) / attempted, attempted),
        "error_rate": (failed / attempted, attempted),
    }
    if "restarts" in facts:
        values["restarts_per_s"] = (facts["restarts"] / wall, attempted)
        values["best_error"] = (facts["best_error"], facts["kept"])
        values["median_error"] = (facts["median_error"], facts["kept"])
    if "records" in facts:
        values["records_per_s"] = (facts["records"] / wall, attempted)
    return values


def run(args) -> int:
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 1
    seed = workload.default_seed if args.seed is None else args.seed
    tag = f"{workload.name}-seed{seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    base = OUT / tag
    shutil.rmtree(base, ignore_errors=True)
    inputs, out = base / "inputs", base / "out"

    setup = []
    if args.trace:
        workload.prepare(seed, inputs, args.smoke)
    else:
        setup = _setup(workload, seed, inputs, args.smoke)
    reference = invoke(workload, seed, inputs, out, args.smoke, 0)
    seen = {} if reference.problems else {tuple(reference.argv): reference.fingerprint}
    untraced = None
    if args.trace:
        untraced = invoke(workload, seed, inputs, out, args.smoke, 0)
        _compare(untraced, seen)
    timed: list[Invocation] = []
    layers: list[dict] = []
    table: dict = {}
    start = time.perf_counter()
    while not timed or time.perf_counter() - start < args.seconds:
        if args.trace:
            inv, layer, table = _traced(workload, seed, inputs, out, args.smoke,
                                        base / "spans.csv", len(timed))
            layers.append(layer)
        else:
            inv = invoke(workload, seed, inputs, out, args.smoke, len(timed))
        _compare(inv, seen)
        timed.append(inv)

    attempted = len(timed)
    failed = sum(1 for inv in timed if inv.problems)
    correct = not reference.problems and not (untraced and untraced.problems) \
        and failed == 0
    if args.trace:
        values = {name: (_median([m[name] for m in layers]), attempted)
                  for name in layers[0]}
        # turn 0 traced against turn 0 untraced, one sample each: noise can
        # exceed the overhead and make it negative
        values["trace.overhead_s"] = (timed[0].wall_s - untraced.wall_s, 1)
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
        result_names = list(PER_LAYER)
    else:
        values = _end_to_end(timed, setup, reference.facts)
        units = dict(END_TO_END, **{k: v[0] for k, v in WORKLOAD_ONLY.items()})
        result_names = list(END_TO_END)
    metrics = {name: {"value": v, "unit": units[name], "n": n}
               for name, (v, n) in values.items()}

    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "argv": reference.argv,
        "environment": environment(),
        "setup_samples_s": setup,
        "reference": {"wall_s": reference.wall_s, "code": reference.code,
                      "problems": reference.problems, "facts": reference.facts},
        "untraced": {"wall_s": untraced.wall_s, "problems": untraced.problems}
        if untraced else None,
        "invocations": [{"argv": inv.argv, "wall_s": inv.wall_s, "problems": inv.problems}
                        for inv in timed],
        "correct": correct,
        "metrics": metrics,
        "layer_moves": {name: list(spec[2]) for name, spec in PER_LAYER.items()}
        if args.trace else {},
        "functions": {name: {k: row[k] for k in ("calls", "total_s", "self_s")}
                      for name, row in sorted(table.items())},
    }
    report_path = base / "report.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")

    print(f"bench {tag}: {attempted} timed invocations, {failed} failed"
          + ("" if correct else "; INCORRECT"))
    untimed = [reference] + ([untraced] if untraced else [])
    for problem in [p for inv in untimed + timed for p in inv.problems][:10]:
        print(f"  problem: {problem}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']:6s} (n={m['n']})")
    print(f"  report: {report_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": units[name]}
                    for name in result_names},
    }))
    return 0
