"""The benchmark's workloads: inputs from a seed, spinsens argv, output checks.

Each workload names the spinsens command line it times. ``prepare`` makes
the inputs from the benchmark seed (the program sees only those inputs),
``argv`` gives a run's ``turn``-th invocation, and ``check`` lists what is
wrong with one invocation's outputs, apart from the byte comparison that
``harness.py`` makes between invocations with the same command line.

Where the work of an invocation depends much on its random draws (the
optimizer's restarts), each turn of a run gets its own program seed,
derived from the benchmark seed, so that a run's median covers many
draws and two benchmark seeds give runs of about the same work.
"""

from __future__ import annotations

import csv
import json
import math
import re
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spinsens.network import NetworkSpec, enumerate_structures
from spinsens.synthesis import Controller, controllers_to_json, transfer_fidelity


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    default_seed: int

    def prepare(self, seed: int, inputs: Path, smoke: bool) -> None:
        """Write the invocation's input files into ``inputs``."""

    def argv(self, seed: int, inputs: Path, out: Path, smoke: bool,
             turn: int) -> list[str]:
        raise NotImplementedError

    def check(self, seed: int, inputs: Path, out: Path, stdout: str,
              smoke: bool) -> tuple[list[str], dict]:
        """Problems with the outputs, and facts read from them."""
        raise NotImplementedError

    def complete(self, calls: dict[str, int], facts: dict, smoke: bool) -> list[str]:
        """Problems with a traced invocation's call counts."""
        return []


def program_seed(seed: int, turn: int) -> int:
    """The program seed of a run's ``turn``-th invocation; turn 0 keeps ``seed``."""
    if turn == 0:
        return seed
    return int(np.random.SeedSequence([seed, turn]).generate_state(1)[0])


RING4 = NetworkSpec(num_spins=4, topology="ring", input_spin=1, output_spin=2)
CHAIN12 = NetworkSpec(num_spins=12, topology="chain", input_spin=1, output_spin=12)


class SynthRing4(Workload):
    # a tenth of the 220 restarts of the test suite's 4-ring ensemble: short
    # invocations give a run many samples, so its wall time can leave out
    # the stretches in which a shared machine runs slow
    def restarts(self, smoke: bool) -> int:
        return 4 if smoke else 22

    def argv(self, seed, inputs, out, smoke, turn):
        return ["synth", "--n", "4", "--topology", "ring", "--in", "1", "--out", "2",
                "--restarts", str(self.restarts(smoke)), "--threads", "1",
                "--seed", str(program_seed(seed, turn)),
                "-o", str(out / "controllers.json")]

    def check(self, seed, inputs, out, stdout, smoke):
        spec = NetworkSpec.from_json((out / "controllers.spec.json").read_text())
        rows = json.loads((out / "controllers.json").read_text())
        problems = []
        if spec != RING4:
            problems.append(f"spec sidecar describes {spec}")
        if not rows:
            problems.append("empty ensemble")
        for row in rows:
            f = transfer_fidelity(spec, np.asarray(row["biases"]), row["tf"])
            if not abs(f - row["fidelity"]) <= 1e-12:
                problems.append(f"controller {row['index']}: stored fidelity "
                                f"{row['fidelity']!r} re-evaluates to {f!r}")
        errors = [1.0 - row["fidelity"] for row in rows]
        return problems, {
            "restarts": self.restarts(smoke),
            "kept": len(rows),
            "best_error": min(errors, default=math.nan),
            "median_error": statistics.median(errors) if errors else math.nan,
        }

    def complete(self, calls, facts, smoke):
        got = calls.get("synthesis.local_optimize", 0)
        if got != facts["restarts"]:
            return [f"local_optimize ran {got} times for {facts['restarts']} restarts"]
        return []


class AnalyzeChain12(Workload):
    # short invocations give a run many samples (see SynthRing4)
    def controllers(self, smoke: bool) -> int:
        return 3 if smoke else 8

    def prepare(self, seed, inputs, smoke):
        # the synth defaults: biases in [0, 10], read-out time in [1, 50]
        rng = np.random.default_rng(seed)
        ensemble = []
        for i in range(self.controllers(smoke)):
            biases = rng.uniform(0.0, 10.0, CHAIN12.num_spins)
            t_f = float(rng.uniform(1.0, 50.0))
            f = transfer_fidelity(CHAIN12, biases, t_f)
            ensemble.append(Controller(biases=biases, t_f=t_f,
                                       fidelity=min(1.0, max(0.0, f)),
                                       spec=CHAIN12, seed=i, index=i))
        inputs.mkdir(parents=True, exist_ok=True)
        (inputs / "controllers.json").write_text(controllers_to_json(ensemble))
        (inputs / "controllers.spec.json").write_text(CHAIN12.to_json())

    def argv(self, seed, inputs, out, smoke, turn):
        # the work per controller hardly depends on the draw: one input
        return ["analyze", str(inputs / "controllers.json"),
                "--records", str(out / "records.csv"),
                "--summaries", str(out / "summaries.csv"), "--threads", "1"]

    def check(self, seed, inputs, out, stdout, smoke):
        with open(out / "records.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        expected = self.controllers(smoke) * len(enumerate_structures(CHAIN12))
        problems = []
        if len(rows) != expected:
            problems.append(f"{len(rows)} record rows, expected {expected}")
        for row in rows:
            residual, zeta = float(row["identity_residual"]), float(row["zeta"])
            if math.isfinite(residual) and not residual <= 1e-8 * max(1.0, abs(zeta)):
                problems.append(f"identity residual {residual!r} at controller "
                                f"{row['controller_index']} structure "
                                f"{row['structure_index']}")
        return problems, {"records": len(rows)}

    def complete(self, calls, facts, smoke):
        got = calls.get("sensitivity.sensitivity_operator", 0)
        if got != facts["records"]:
            return [f"sensitivity_operator ran {got} times for {facts['records']} records"]
        return []


_VERIFY_LINE = re.compile(r"^verify: (\d+) checks, (\d+) passed", re.M)


class VerifyThreads2(Workload):
    # the checks other than necessity at about a quarter of their default
    # sample counts (see SynthRing4). Necessity keeps its 40 restarts: with
    # 10, about one seed in a hundred leaves it no eligible record, and a run
    # draws a new seed per turn. Smoke also restricts the dimensions.
    def restarts(self, smoke: bool) -> int:
        return 4 if smoke else 40

    def argv(self, seed, inputs, out, smoke, turn):
        argv = ["verify", "--threads", "2", "--seed", str(program_seed(seed, turn)),
                "--restarts", str(self.restarts(smoke))]
        if smoke:
            argv += ["--n", "2", "3", "--systems-per-dim", "2",
                     "--three-way-per-dim", "2", "--cross-count", "4"]
        else:
            argv += ["--systems-per-dim", "4", "--three-way-per-dim", "12",
                     "--cross-count", "25"]
        return argv

    def check(self, seed, inputs, out, stdout, smoke):
        match = _VERIFY_LINE.search(stdout)
        if match is None:
            return ["no verify summary line"], {}
        checks, passed = int(match[1]), int(match[2])
        problems = []
        if checks != 9 or passed != checks:
            problems.append(f"{checks} checks, {checks - passed} failed")
        return problems, {"checks": checks}

    def complete(self, calls, facts, smoke):
        got = calls.get("synthesis.local_optimize", 0)
        if got != self.restarts(smoke):
            return [f"local_optimize ran {got} times for {self.restarts(smoke)} restarts"]
        return []


# BENCHMARK.json declares analyze-chain12 and verify-threads2 only. On a
# shared 2-core machine a run's mean wall time follows the host's slow
# spells, which last tens of seconds, so runs must be long to agree; the
# time allowed for all runs of the benchmark fits two workloads at such
# runs, not three. synth-ring4 is the one left out because its layers also
# run in verify-threads2 (the necessity check's 40-restart 4-ring synth),
# while analyze-chain12's 12-spin matrices and verify's oracles run nowhere
# else. It stays here for runs by hand.
WORKLOADS = {w.name: w for w in (
    SynthRing4(
        "synth-ring4",
        "22-restart 4-ring synth, a new seed per invocation: Python overhead in "
        "the objective and the eigensolve on small matrices dominates; serial "
        "baseline",
        default_seed=7),
    AnalyzeChain12(
        "analyze-chain12",
        "analyze of 8 random 12-spin chain controllers: 144x144 adjoint "
        "sensitivity operators and projections dominate",
        default_seed=12),
    VerifyThreads2(
        "verify-threads2",
        "verify on 2 threads, a new seed per invocation, checks but necessity at "
        "reduced counts: the oracles plus the thread-pool paths of a 40-restart "
        "4-ring synth and its analyze",
        default_seed=2024),
)}
