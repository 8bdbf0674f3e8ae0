"""Command-line front end: synth, analyze, verify.

synth writes a controller ensemble as JSON with a spec sidecar and a run
manifest; analyze turns an ensemble into figure-ready records and
summaries CSV; verify runs the numerical invariant suite and reports a
pass/fail table. Floats in the controller file and the CSV tables carry
17 significant digits; the spec sidecar and the manifests are written by
``json.dumps``, whose shortest round-trip repr is exact as well. All
randomness flows from the master seed, and nothing wall-clock dependent
lands in a data file, so reruns are byte-identical. The run
manifest carries the config hash plus the SHA-256 of every data file it
produced; it is the one file with a timestamp. The synth manifest also
counts the kept controllers by optimizer status and the duplicate
restarts dropped, and gives their best and median error; the analyze
manifest counts the perfect-transfer and zero-fidelity records. When a
synth manifest sits next to the controllers, analyze checks its inputs
against the digests it records. Analyze refuses, before writing, an
output path that is one of its inputs, the synth manifest or another
output.

Exit codes: 0 success, 1 validation error, 2 invariant failure,
3 input/output error, a file that is not JSON included.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from collections import Counter
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import analyze
from .errors import InvariantViolation
from .geometry import PST_TOL
from .network import NetworkSpec
from .synthesis import (FIDELITY_TOL, SynthesisConfig, controllers_from_json,
                        controllers_to_json, f17, synthesize_ensemble)

# Each CSV's columns in order, mapped to the field each one is read from.
RECORD_COLUMNS = {"controller_index": "controller_index",
                  "structure_index": "structure_index", "F": "F", "e": "e",
                  "zeta": "zeta", "abs_zeta": "abs_zeta", "f_n": "f_n", "tf": "t_f",
                  "norm_K": "norm_K", "norm_Rs": "norm_Rs", "cos_phi": "cos_phi",
                  "sin_phi": "sin_phi", "cos_theta": "cos_theta",
                  "identity_residual": "identity_residual", "pst_flag": "pst"}
SUMMARY_COLUMNS = {"structure_index": "structure_index", "n_records": "count",
                   "pearson_loglog": "pearson_r_loglog",
                   "kendall_tau_e_vs_sinphi": "kendall_tau",
                   "mean_norm_K": "mean_norm_K", "var_norm_K": "var_norm_K"}
SCHEMA_VERSION = 1
THREADS_HELP = "accepted for compatibility and ignored: every command runs serially"


class CommandLineError(Exception):
    """Bad invocation; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags, which collides with the
    # invariant-failure code; route through the validation path instead
    def error(self, message):
        raise CommandLineError(f"{self.prog}: {message}")


def _int_at_least(low: int):
    """argparse type for an integer flag with a lower bound."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _positive_float(text: str) -> float:
    """argparse type for a tolerance: a finite float above zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_input(path: Path) -> tuple[str, str]:
    """Text and SHA-256 of one input file, both from a single read."""
    data = path.read_bytes()
    return data.decode("utf-8"), hashlib.sha256(data).hexdigest()


def config_hash(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    command: str
    master_seed: int
    config: dict
    inputs: dict
    outputs: dict
    counts: dict | None = None

    def to_json(self) -> str:
        body = {
            "schema_version": SCHEMA_VERSION,
            "tool": f"spinsens {__version__}",
            "command": self.command,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "master_seed": self.master_seed,
            "config": self.config,
            "config_hash": config_hash(self.config),
            "inputs": self.inputs,
            "outputs": self.outputs,
        }
        if self.counts is not None:
            body["counts"] = self.counts
        return json.dumps(body, indent=1, sort_keys=False) + "\n"


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _cell(value) -> str:
    # a flag (bool) or an index as a decimal integer, a float with 17 digits
    return str(int(value)) if isinstance(value, int) else f17(value)


def _write_csv(path: Path, columns: dict, rows) -> None:
    lines = [",".join(columns)]
    lines += [",".join(_cell(getattr(row, field)) for field in columns.values())
              for row in rows]
    _write(path, "\n".join(lines) + "\n")


def write_records_csv(path: Path, records) -> None:
    _write_csv(path, RECORD_COLUMNS, records)


def write_summaries_csv(path: Path, summaries) -> None:
    _write_csv(path, SUMMARY_COLUMNS, summaries)


def _spec_from_args(args) -> NetworkSpec:
    if args.spec is not None:
        if args.n is not None or args.topology is not None \
                or args.input_spin is not None or args.output_spin is not None:
            raise CommandLineError("give either --spec or the --n/--topology/"
                                   "--in/--out flags, not both")
        try:
            text = Path(args.spec).read_text(encoding="utf-8")
        except OSError as exc:
            raise IOError(f"cannot read network spec: {exc}") from exc
        return NetworkSpec.from_json(text)
    missing = [flag for flag, val in (("--n", args.n), ("--topology", args.topology),
                                      ("--in", args.input_spin), ("--out", args.output_spin))
               if val is None]
    if missing:
        raise CommandLineError("missing required flags: " + ", ".join(missing))
    return NetworkSpec(num_spins=args.n, topology=args.topology,
                       input_spin=args.input_spin, output_spin=args.output_spin,
                       coupling=args.coupling)


def cmd_synth(args) -> int:
    spec = _spec_from_args(args)
    config = SynthesisConfig(
        restarts=args.restarts,
        t_f_range=tuple(args.tf_range),
        bias_range=tuple(args.bias_range),
        tolerance=args.tolerance,
        seed=args.seed)
    ensemble = synthesize_ensemble(spec, config)
    if not ensemble:
        raise CommandLineError("synthesis produced no controllers; "
                               "check ranges and restart count")

    out_path = Path(args.output)
    spec_path = out_path.with_name(out_path.stem + ".spec.json")
    manifest_path = out_path.with_name(out_path.stem + ".manifest.json")
    _write(out_path, controllers_to_json(ensemble))
    _write(spec_path, spec.to_json())
    manifest = RunManifest(
        command="synth",
        master_seed=config.seed,
        config={"spec": json.loads(spec.to_json()), **asdict(config)},
        inputs={},
        outputs={str(out_path): file_sha256(out_path),
                 str(spec_path): file_sha256(spec_path)},
        counts={"duplicates_dropped": config.restarts - len(ensemble),
                "status": dict(sorted(Counter(c.status for c in ensemble).items())),
                "best_error": ensemble[0].error,
                "median_error": float(np.median([c.error for c in ensemble]))})
    _write(manifest_path, manifest.to_json())
    best = ensemble[0]
    print(f"synth: {len(ensemble)} controllers -> {out_path} "
          f"(best error {best.error:.3e})")
    return 0


def _check_against_manifest(manifest_path: Path, inputs: dict) -> None:
    """Compare input digests with the synth manifest next to the controllers.

    ``inputs`` maps each input path to its SHA-256. Synth keys its outputs
    by the path it was given, so entries are matched by file name; a file
    the manifest does not list is not checked, and without a manifest
    nothing is.
    """
    if not manifest_path.exists():
        return
    try:
        outputs = json.loads(manifest_path.read_text(encoding="utf-8"))["outputs"]
        expected = {Path(name).name: digest for name, digest in outputs.items()}
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
        raise IOError(f"corrupt manifest {manifest_path}: {exc!r}") from exc
    for path, digest in inputs.items():
        if expected.get(Path(path).name, digest) != digest:
            raise ValueError(f"{path} does not match the SHA-256 that "
                             f"{manifest_path} records for it")


def _refuse_overwrites(reads: dict, writes: dict) -> None:
    """Reject a run in which a file to write is a file read, the synth
    manifest or another file to write; both dicts map a description to
    a path, and nothing has been written when this raises."""
    taken = {path.resolve(): what for what, path in reads.items()}
    for what, path in writes.items():
        where = path.resolve()
        if where in taken:
            raise CommandLineError(f"{what} would overwrite {taken[where]}; "
                                   "give the output another name or directory")
        taken[where] = what


def cmd_analyze(args) -> int:
    controllers_path = Path(args.controllers)
    spec_path = Path(args.spec) if args.spec else \
        controllers_path.with_name(controllers_path.stem + ".spec.json")
    records_path = Path(args.records)
    summaries_path = Path(args.summaries)
    manifest_path = records_path.with_name(records_path.stem + ".manifest.json")
    synth_manifest = controllers_path.with_name(controllers_path.stem + ".manifest.json")
    _refuse_overwrites(
        {f"the controllers {controllers_path}": controllers_path,
         f"the spec {spec_path}": spec_path,
         f"the synth manifest {synth_manifest}": synth_manifest},
        {f"--records {records_path}": records_path,
         f"--summaries {summaries_path}": summaries_path,
         f"the manifest {manifest_path} of --records {records_path}": manifest_path})
    try:
        spec_text, spec_digest = _read_input(spec_path)
        controllers_text, controllers_digest = _read_input(controllers_path)
    except OSError as exc:
        raise IOError(f"cannot read inputs: {exc}") from exc
    inputs = {str(controllers_path): controllers_digest, str(spec_path): spec_digest}
    _check_against_manifest(synth_manifest, inputs)
    spec = NetworkSpec.from_json(spec_text)
    controllers = controllers_from_json(controllers_text, spec)
    if not controllers:
        raise CommandLineError(f"no controllers in {controllers_path}")

    records, summaries = analyze(controllers, pst_tol=args.pst_tol)
    per_controller = len(records) // len(controllers)
    for c, r in zip(controllers, records[::per_controller]):
        if abs(c.fidelity - r.F) > FIDELITY_TOL:
            raise ValueError(f"controller {c.index} stores fidelity {c.fidelity!r} "
                             f"but its working point gives {r.F!r}")
    write_records_csv(records_path, records)
    write_summaries_csv(summaries_path, summaries)
    manifest = RunManifest(
        command="analyze",
        master_seed=-1,
        config={"pst_tol": args.pst_tol,
                "columns": list(RECORD_COLUMNS),
                "summary_columns": list(SUMMARY_COLUMNS)},
        inputs=inputs,
        outputs={str(records_path): file_sha256(records_path),
                 str(summaries_path): file_sha256(summaries_path)},
        counts={"pst_records": sum(r.pst for r in records),
                "zero_fidelity_records": sum(r.zero_fidelity for r in records)})
    _write(manifest_path, manifest.to_json())
    print(f"analyze: {len(records)} records over {len(summaries)} structures "
          f"-> {records_path}, {summaries_path}")
    return 0


def cmd_verify(args) -> int:
    # the oracles load scipy; synth and analyze do not need them
    from .verification import run_checks

    results = run_checks(
        seed=args.seed, dims=tuple(args.n), systems_per_dim=args.systems_per_dim,
        three_way_per_dim=args.three_way_per_dim, cross_count=args.cross_count,
        necessity_restarts=args.restarts, pst_only=args.pst)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{r.label:4s} {r.name:{width}s}  {r.detail}")
    failures = [r for r in results if not r.passed]
    warnings = [r for r in results if r.warning]
    print(f"verify: {len(results)} checks, {len(results) - len(failures)} passed, "
          f"{len(warnings)} warnings (seed {args.seed})")
    return 2 if failures else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="spinsens",
                     description="Sensitivity geometry of bias-controlled "
                                 "spin-network state transfer.")
    parser.add_argument("--version", action="version",
                        version=f"spinsens {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = SynthesisConfig()
    synth = sub.add_parser("synth", help="synthesize a controller ensemble")
    synth.add_argument("--spec", help="network spec JSON file")
    synth.add_argument("--n", type=int, help="number of spins")
    synth.add_argument("--topology", choices=("chain", "ring"))
    synth.add_argument("--in", dest="input_spin", type=int,
                       help="input spin (1-indexed)")
    synth.add_argument("--out", dest="output_spin", type=int,
                       help="output spin (1-indexed)")
    synth.add_argument("--coupling", type=float, default=1.0)
    synth.add_argument("--restarts", type=int, default=defaults.restarts)
    synth.add_argument("--seed", type=_int_at_least(0), default=defaults.seed)
    synth.add_argument("--tf-range", nargs=2, type=float,
                       default=list(defaults.t_f_range), metavar=("LO", "HI"))
    synth.add_argument("--bias-range", nargs=2, type=float,
                       default=list(defaults.bias_range), metavar=("LO", "HI"))
    synth.add_argument("--tolerance", type=float, default=defaults.tolerance)
    synth.add_argument("--threads", type=_int_at_least(1), default=1,
                       help=THREADS_HELP)
    synth.add_argument("-o", "--output", default="controllers.json")
    synth.set_defaults(func=cmd_synth)

    analyze_p = sub.add_parser("analyze", help="compute sensitivity records "
                                               "and summaries for an ensemble")
    analyze_p.add_argument("controllers", help="controller ensemble JSON")
    analyze_p.add_argument("--spec", default=None,
                           help="network spec JSON (default: <ensemble>.spec.json)")
    analyze_p.add_argument("--records", default="records.csv")
    analyze_p.add_argument("--summaries", default="summaries.csv")
    analyze_p.add_argument("--pst-tol", type=_positive_float, default=PST_TOL)
    analyze_p.add_argument("--threads", type=_int_at_least(1), default=1,
                           help=THREADS_HELP)
    analyze_p.set_defaults(func=cmd_analyze)

    # verify's default sample sizes live here alone; run_checks has none
    verify = sub.add_parser("verify", help="run the numerical invariant suite")
    verify.add_argument("--seed", type=_int_at_least(0), default=2024)
    verify.add_argument("--n", type=_int_at_least(2), nargs="+", default=(2, 3, 4, 5, 6),
                        help="restrict instance dimensions")
    verify.add_argument("--pst", action="store_true",
                        help="run only the perfect-transfer sufficiency check")
    verify.add_argument("--systems-per-dim", type=_int_at_least(1), default=14)
    verify.add_argument("--three-way-per-dim", type=_int_at_least(1), default=50)
    verify.add_argument("--cross-count", type=_int_at_least(1), default=100)
    verify.add_argument("--restarts", type=_int_at_least(1), default=40,
                        help="ensemble size for the necessity check")
    verify.add_argument("--threads", type=_int_at_least(1), default=1,
                        help=THREADS_HELP)
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CommandLineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        # a ValueError, but a file that is not JSON is an input/output error
        print(f"i/o error: corrupt input file: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
