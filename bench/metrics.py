"""Metric definitions and the per-layer numbers of one traced invocation.

End-to-end metrics come from untraced invocations (see ``harness.py``). The
per-layer metrics below come from a ``tracing.Tracer`` span table plus a
few values the watchers read off the return values of the traced calls.
A layer that does no work on a workload reports 0 there.
"""

from __future__ import annotations

import statistics
from collections import Counter

import numpy as np

from tracing import LAYERS

# Reported by every workload; these are the ``end_to_end`` metrics of
# BENCHMARK.json. setup_s is the median of the run's set-ups, wall_s the
# mean of its timed invocations.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

# Reported in the run's report where the workload has them. They are not in
# the last result line: each exists on one workload only, and error_rate is
# 0 at a correct commit (success_rate carries it there).
WORKLOAD_ONLY = {
    "restarts_per_s": ("1/s", "synth-ring4"),
    "records_per_s": ("1/s", "analyze-chain12"),
    "best_error": ("1", "synth-ring4"),
    "median_error": ("1", "synth-ring4"),
    "error_rate": ("ratio", "all"),
}

_SYN = "synth-ring4"
_ANA = "analyze-chain12"
_VER = "verify-threads2"
_EVERY = ("restarts_per_s@" + _SYN, "records_per_s@" + _ANA, "wall_s@" + _VER)
_SYNTH_PATH = ("restarts_per_s@" + _SYN, "wall_s@" + _VER, "records_per_s@" + _ANA)
_ANALYZE_PATH = ("records_per_s@" + _ANA,)
_VERIFY_PATH = ("wall_s@" + _VER,)

CHECKS = ("check_lemma1", "check_lemma2", "check_theorem1", "check_remark1",
          "check_remark2", "check_pst_sufficiency", "check_necessity",
          "check_three_way", "check_cross_formulation")

# name -> (unit, better, end-to-end metrics @ workloads it should move)
PER_LAYER: dict[str, tuple[str, str, tuple[str, ...]]] = {}


def _add(names, unit, better, moves):
    for name in names:
        PER_LAYER[name] = (unit, better, tuple(moves))


def _calls_self(fn, moves):
    _add([f"{fn}.calls"], "count", "lower", moves)
    _add([f"{fn}.self_s"], "s", "lower", moves)


_calls_self("network.build_hamiltonian", _EVERY)
_calls_self("bloch.adjoint_rep", _EVERY)
_calls_self("sensitivity.spectral_decompose", _SYNTH_PATH)
_calls_self("synthesis.fidelity_objective", _SYNTH_PATH)
_add(["synthesis.evals_per_restart"], "count", "lower", _SYNTH_PATH)
_calls_self("synthesis.local_optimize", ("restarts_per_s@" + _SYN, "wall_s@" + _VER))
_add(["synthesis.local_optimize.p50_ms", "synthesis.local_optimize.p95_ms"],
     "ms", "lower", ("restarts_per_s@" + _SYN, "wall_s@" + _VER))
_add(["synthesis.converged_ratio", "synthesis.kept_ratio"], "ratio", "higher",
     ("restarts_per_s@" + _SYN, "median_error@" + _SYN, "wall_s@" + _VER))
_add(["synthesis.best_error", "synthesis.median_error"], "1", "lower",
     ("best_error@" + _SYN, "median_error@" + _SYN))
for _fn in ("sensitivity.sensitivity_operator", "sensitivity.propagator_matrix",
            "geometry.project", "geometry.angles"):
    _calls_self(_fn, _ANALYZE_PATH)
_calls_self("sensitivity.hadamard_core",
            _ANALYZE_PATH + ("restarts_per_s@" + _SYN, "wall_s@" + _VER))
_calls_self("analytics.evaluate_controller", _ANALYZE_PATH)
_add(["analytics.evaluate_controller.p50_ms", "analytics.evaluate_controller.p95_ms"],
     "ms", "lower", _ANALYZE_PATH)
_add(["analytics.summarize_structure.self_s"], "s", "lower", _ANALYZE_PATH)
_add(["analytics.zero_fidelity_records"], "count", "lower", _ANALYZE_PATH)
_calls_self("sensitivity.quadrature_oracle", _VERIFY_PATH)
_calls_self("sensitivity.fd_oracle", _VERIFY_PATH)
_add([f"verification.{c}.s" for c in CHECKS + ("sample_instances",)], "s", "lower",
     _VERIFY_PATH)
_add(["synthesis.parallel_efficiency", "analytics.parallel_efficiency"], "ratio",
     "higher", _VERIFY_PATH)
_add(["cli.write_records_csv.self_s", "cli.file_sha256.self_s"], "s", "lower",
     _ANALYZE_PATH)
_add(["cli.bytes_written"], "B", "lower", _ANALYZE_PATH)
_add([f"{layer}.self_s" for layer in LAYERS], "s", "lower", ("wall_s@all",))
_add(["trace.overhead_s"], "s", "lower", ())


def _arg(args, kwargs, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


class Observed:
    """Values read off return values of traced calls, keyed by span id."""

    def __init__(self):
        self.statuses: Counter = Counter()
        self.ensembles: list[tuple[int, int, int, list[float]]] = []
        self.analyses: list[tuple[int, int]] = []
        self.zero_fidelity = 0

    def watchers(self) -> dict:
        return {
            "synthesis.local_optimize": self._local_optimize,
            "synthesis.synthesize_ensemble": self._synthesize_ensemble,
            "analytics.analyze": self._analyze,
            "analytics.evaluate_controller": self._evaluate_controller,
        }

    def _local_optimize(self, args, kwargs, result, sid):
        self.statuses[result.status] += 1

    def _synthesize_ensemble(self, args, kwargs, result, sid):
        config = _arg(args, kwargs, 1, "config")
        threads = _arg(args, kwargs, 2, "threads") or 1
        self.ensembles.append((sid, threads, config.restarts,
                               [c.error for c in result]))

    def _analyze(self, args, kwargs, result, sid):
        self.analyses.append((sid, kwargs.get("threads") or 1))

    def _evaluate_controller(self, args, kwargs, result, sid):
        self.zero_fidelity += sum(r.zero_fidelity for r in result)


WORKER_CALLS = ("synthesis.local_optimize", "analytics.evaluate_controller")


def _efficiency(tracer, owners, worker_name: str) -> float:
    """CPU time of the worker calls over threads x wall of the owning spans.

    Worker calls are timed in thread CPU time: wall time would count the
    time a pool thread waits for the interpreter lock as work.
    """
    if not owners:
        return 0.0
    worker = tracer.names.index(worker_name)
    spans = {s[0]: s for s in tracer.spans}
    busy = Counter()
    for sid, index, parent, _, _ in tracer.spans:
        if index == worker:
            busy[parent] += tracer.cpu[sid]
    capacity = sum(threads * (spans[sid][4] - spans[sid][3]) for sid, threads in owners)
    return sum(busy[sid] for sid, _ in owners) / capacity if capacity > 0 else 0.0


def layer_metrics(tracer, observed: Observed, bytes_written: int) -> dict[str, float]:
    """Every PER_LAYER metric except trace.overhead_s for one traced invocation."""
    table = tracer.table()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
    out: dict[str, float] = {}
    for name in PER_LAYER:
        fn, _, stat = name.rpartition(".")
        row = table.get(fn, empty)
        if stat in ("calls", "self_s"):
            out[name] = row[stat]
        elif stat == "s":
            out[name] = row["total_s"]
        elif stat in ("p50_ms", "p95_ms"):
            q = 50 if stat == "p50_ms" else 95
            out[name] = float(np.percentile(row["durations"], q)) * 1e3 \
                if row["durations"] else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(row["self_s"] for fn, row in table.items()
                                     if fn.startswith(layer + "."))

    restarts = table.get("synthesis.local_optimize", empty)["calls"]
    evals = table.get("synthesis.fidelity_objective", empty)["calls"]
    out["synthesis.evals_per_restart"] = evals / restarts if restarts else 0.0
    out["synthesis.converged_ratio"] = \
        observed.statuses["converged"] / restarts if restarts else 0.0
    attempted = sum(e[2] for e in observed.ensembles)
    errors = [err for e in observed.ensembles for err in e[3]]
    out["synthesis.kept_ratio"] = len(errors) / attempted if attempted else 0.0
    out["synthesis.best_error"] = min(errors) if errors else 0.0
    out["synthesis.median_error"] = statistics.median(errors) if errors else 0.0
    out["synthesis.parallel_efficiency"] = _efficiency(
        tracer, [(e[0], e[1]) for e in observed.ensembles], "synthesis.local_optimize")
    out["analytics.parallel_efficiency"] = _efficiency(
        tracer, observed.analyses, "analytics.evaluate_controller")
    out["analytics.zero_fidelity_records"] = observed.zero_fidelity
    out["cli.bytes_written"] = bytes_written
    return out
