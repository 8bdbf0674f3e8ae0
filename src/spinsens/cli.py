"""Command-line front end: synth, analyze, verify.

synth writes a controller ensemble as JSON with a spec sidecar and a run
manifest; analyze turns an ensemble into figure-ready records and
summaries CSV; verify runs the numerical invariant suite and reports a
pass/fail table. Floats in the controller file and the CSV tables carry
17 significant digits; the spec sidecar and the manifests are written by
``json.dumps``, whose shortest round-trip repr is exact as well. Each CSV
row is rendered by one format string built from the column types that
``RECORD_COLUMNS`` and ``SUMMARY_COLUMNS`` declare: "%.17g" for a float
(the text of ``synthesis.f17``, nan and infinities included) and "%d"
for an index, a count or a flag. All
randomness flows from the master seed, and nothing wall-clock dependent
lands in a data file, so reruns are byte-identical. The run
manifest carries the config hash plus the SHA-256 of every data file it
produced, taken from the bytes written, so no output is read back; it is
the one file with a timestamp. The synth manifest also
counts the kept controllers by optimizer status and the duplicate
restarts dropped, and gives their best and median error; the analyze
manifest counts the perfect-transfer and zero-fidelity records. When a
synth manifest sits next to the controllers, analyze checks its inputs
against the digests it records, and its manifest counts the inputs so
checked (0 without a synth manifest). Analyze refuses, before writing, an
output path that is one of its inputs, the synth manifest or another
output.

Exit codes: 0 success, 1 validation error, 2 invariant failure,
3 input/output error, a file that is not JSON (or not UTF-8) included.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import Counter
from datetime import datetime, timezone
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import TF_CONDITION_LIMIT, analyze
from .errors import InvariantViolation
from .geometry import PST_TOL
from .network import NetworkSpec
from .synthesis import (FIDELITY_TOL, TOLERANCE, SynthesisConfig,
                        controllers_from_json, controllers_to_json,
                        synthesize_ensemble)

# Each CSV's columns in order, mapped to the field each one is read from
# and the type it is written as: an int (a bool flag too) as a decimal
# integer, a float with 17 significant digits.
RECORD_COLUMNS = {"controller_index": ("controller_index", int),
                  "structure_index": ("structure_index", int),
                  "F": ("F", float), "e": ("e", float), "zeta": ("zeta", float),
                  "abs_zeta": ("abs_zeta", float), "f_n": ("f_n", float),
                  "tf": ("t_f", float), "norm_K": ("norm_K", float),
                  "norm_Rs": ("norm_Rs", float), "cos_phi": ("cos_phi", float),
                  "sin_phi": ("sin_phi", float), "cos_theta": ("cos_theta", float),
                  "identity_residual": ("identity_residual", float),
                  "pst_flag": ("pst", bool)}
SUMMARY_COLUMNS = {"structure_index": ("structure_index", int),
                   "n_records": ("count", int),
                   "pearson_loglog": ("pearson_r_loglog", float),
                   "kendall_tau_e_vs_sinphi": ("kendall_tau", float),
                   "mean_norm_K": ("mean_norm_K", float),
                   "var_norm_K": ("var_norm_K", float)}
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


def _read_input(path: Path) -> tuple[str, str]:
    """Text and SHA-256 of one input file, both from a single read."""
    data = path.read_bytes()
    return data.decode("utf-8"), hashlib.sha256(data).hexdigest()


def config_hash(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _manifest_json(*, command: str, master_seed: int, config: dict, inputs: dict,
                   outputs: dict, counts: dict) -> str:
    """Text of a run manifest; ``created_utc`` is its one timestamp."""
    body = {
        "schema_version": SCHEMA_VERSION,
        "tool": f"spinsens {__version__}",
        "command": command,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "master_seed": master_seed,
        "config": config,
        "config_hash": config_hash(config),
        "inputs": inputs,
        "outputs": outputs,
        "counts": counts,
    }
    return json.dumps(body, indent=1, sort_keys=False) + "\n"


def _write(path: Path, text: str) -> str:
    """Write ``text`` as UTF-8; returns the SHA-256 of the bytes written."""
    data = text.encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _write_csv(path: Path, columns: dict, rows) -> str:
    # one format string per table; "%d" % True is "1"
    row_format = ",".join("%.17g" if kind is float else "%d"
                          for _, kind in columns.values())
    fields = attrgetter(*(field for field, _ in columns.values()))
    lines = [",".join(columns)]
    lines += [row_format % fields(row) for row in rows]
    return _write(path, "\n".join(lines) + "\n")


def write_records_csv(path: Path, records) -> str:
    return _write_csv(path, RECORD_COLUMNS, records)


def write_summaries_csv(path: Path, summaries) -> str:
    return _write_csv(path, SUMMARY_COLUMNS, summaries)


def cmd_synth(args) -> int:
    spec = NetworkSpec(num_spins=args.n, topology=args.topology,
                       input_spin=args.input_spin, output_spin=args.output_spin,
                       coupling=args.coupling)
    config = SynthesisConfig(
        restarts=args.restarts,
        t_f_range=tuple(args.tf_range),
        bias_range=tuple(args.bias_range),
        seed=args.seed)
    # Gershgorin: every eigenvalue of H obeys |E| <= max|bias| + 2|J| on a
    # chain or a ring, so above this analyze could refuse what synth writes
    radius = max(map(abs, config.bias_range)) + 2.0 * abs(spec.coupling)
    if config.t_f_range[1] * radius > TF_CONDITION_LIMIT:
        raise CommandLineError(
            f"--tf-range upper end {config.t_f_range[1]!r} times the spectral "
            f"radius bound {radius!r} of H is {config.t_f_range[1] * radius:.3e}, "
            f"above {TF_CONDITION_LIMIT:.0e}, the most analyze accepts")
    ensemble = synthesize_ensemble(spec, config)

    out_path = Path(args.output)
    spec_path = out_path.with_name(out_path.stem + ".spec.json")
    manifest_path = out_path.with_name(out_path.stem + ".manifest.json")
    outputs = {str(out_path): _write(out_path, controllers_to_json(ensemble)),
               str(spec_path): _write(spec_path, spec.to_json())}
    _write(manifest_path, _manifest_json(
        command="synth",
        master_seed=config.seed,
        # the fixed tolerance keeps its place among the settings
        config={"spec": json.loads(spec.to_json()), "restarts": config.restarts,
                "t_f_range": config.t_f_range, "bias_range": config.bias_range,
                "tolerance": TOLERANCE, "seed": config.seed},
        inputs={},
        outputs=outputs,
        counts={"duplicates_dropped": config.restarts - len(ensemble),
                "status": dict(sorted(Counter(c.status for c in ensemble).items())),
                "best_error": ensemble[0].error,
                "median_error": float(np.median([c.error for c in ensemble]))}))
    best = ensemble[0]
    print(f"synth: {len(ensemble)} controllers -> {out_path} "
          f"(best error {best.error:.3e})")
    return 0


def _check_against_manifest(manifest_path: Path, inputs: dict) -> int:
    """Compare input digests with the synth manifest next to the controllers;
    returns how many inputs were compared.

    ``inputs`` maps each input path to its SHA-256. Synth keys its outputs
    by the path it was given, so entries are matched by file name; a file
    the manifest does not list is not checked, and without a manifest
    nothing is.
    """
    if not manifest_path.exists():
        return 0
    try:
        outputs = json.loads(manifest_path.read_text(encoding="utf-8"))["outputs"]
        expected = {Path(name).name: digest for name, digest in outputs.items()}
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        # ValueError: bytes that are not UTF-8 or text that is not JSON
        raise IOError(f"corrupt manifest {manifest_path}: {exc!r}") from exc
    checked = 0
    for path, digest in inputs.items():
        recorded = expected.get(Path(path).name)
        if recorded is None:
            continue
        if recorded != digest:
            raise ValueError(f"{path} does not match the SHA-256 that "
                             f"{manifest_path} records for it")
        checked += 1
    return checked


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
    checked = _check_against_manifest(synth_manifest, inputs)
    spec = NetworkSpec.from_json(spec_text)
    controllers = controllers_from_json(controllers_text, spec)
    if not controllers:
        raise CommandLineError(f"no controllers in {controllers_path}")

    records, summaries = analyze(controllers)
    per_controller = len(records) // len(controllers)
    for c, r in zip(controllers, records[::per_controller]):
        if abs(c.fidelity - r.F) > FIDELITY_TOL:
            raise ValueError(f"controller {c.index} stores fidelity {c.fidelity!r} "
                             f"but its working point gives {r.F!r}")
    outputs = {str(records_path): write_records_csv(records_path, records),
               str(summaries_path): write_summaries_csv(summaries_path, summaries)}
    _write(manifest_path, _manifest_json(
        command="analyze",
        master_seed=-1,
        config={"pst_tol": PST_TOL,
                "columns": list(RECORD_COLUMNS),
                "summary_columns": list(SUMMARY_COLUMNS)},
        inputs=inputs,
        outputs=outputs,
        counts={"pst_records": sum(r.pst for r in records),
                "zero_fidelity_records": sum(r.zero_fidelity for r in records),
                "inputs_checked_against_manifest": checked}))
    print(f"analyze: {len(records)} records over {len(summaries)} structures "
          f"-> {records_path}, {summaries_path}")
    return 0


def cmd_verify(args) -> int:
    # the checks and their reference routes; synth and analyze do not need them
    from .verification import run_checks

    results = run_checks(
        seed=args.seed, dims=tuple(args.n), systems_per_dim=args.systems_per_dim,
        three_way_per_dim=args.three_way_per_dim, cross_count=args.cross_count,
        necessity_restarts=args.restarts)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{r.label:4s} {r.name:{width}s}  {r.detail}")
    failures = [r for r in results if not r.passed]
    warnings = [r for r in results if r.warning]
    print(f"verify: {len(results)} checks, {len(results) - len(failures)} passed, "
          f"{len(warnings)} warnings (seed {args.seed})")
    return 2 if failures else 0


def _add_synth(sub) -> None:
    defaults = SynthesisConfig()
    synth = sub.add_parser("synth", help="synthesize a controller ensemble")
    synth.add_argument("--n", type=int, required=True, help="number of spins")
    synth.add_argument("--topology", choices=("chain", "ring"), required=True)
    synth.add_argument("--in", dest="input_spin", type=int, required=True,
                       help="input spin (1-indexed)")
    synth.add_argument("--out", dest="output_spin", type=int, required=True,
                       help="output spin (1-indexed)")
    synth.add_argument("--coupling", type=float, default=NetworkSpec.coupling,
                       help="uniform coupling J (default %(default)s)")
    synth.add_argument("--restarts", type=int, default=defaults.restarts)
    synth.add_argument("--seed", type=_int_at_least(0), default=defaults.seed)
    synth.add_argument("--tf-range", nargs=2, type=float,
                       default=list(defaults.t_f_range), metavar=("LO", "HI"))
    synth.add_argument("--bias-range", nargs=2, type=float,
                       default=list(defaults.bias_range), metavar=("LO", "HI"))
    synth.add_argument("--threads", type=_int_at_least(1), default=1,
                       help=THREADS_HELP)
    synth.add_argument("-o", "--output", default="controllers.json")
    synth.set_defaults(func=cmd_synth)


def _add_analyze(sub) -> None:
    analyze_p = sub.add_parser("analyze", help="compute sensitivity records "
                                               "and summaries for an ensemble")
    analyze_p.add_argument("controllers", help="controller ensemble JSON")
    analyze_p.add_argument("--spec", default=None,
                           help="network spec JSON (default: <ensemble>.spec.json)")
    analyze_p.add_argument("--records", default="records.csv")
    analyze_p.add_argument("--summaries", default="summaries.csv")
    analyze_p.add_argument("--threads", type=_int_at_least(1), default=1,
                           help=THREADS_HELP)
    analyze_p.set_defaults(func=cmd_analyze)


def _add_verify(sub) -> None:
    # verify's default sample sizes live here alone; run_checks has none
    verify = sub.add_parser("verify", help="run the numerical invariant suite")
    verify.add_argument("--seed", type=_int_at_least(0), default=2024)
    verify.add_argument("--n", type=_int_at_least(2), nargs="+", default=(2, 3, 4, 5, 6),
                        help="restrict instance dimensions")
    verify.add_argument("--systems-per-dim", type=_int_at_least(1), default=14)
    verify.add_argument("--three-way-per-dim", type=_int_at_least(1), default=50)
    verify.add_argument("--cross-count", type=_int_at_least(1), default=100)
    verify.add_argument("--restarts", type=_int_at_least(1), default=40,
                        help="ensemble size for the necessity check")
    verify.add_argument("--threads", type=_int_at_least(1), default=1,
                        help=THREADS_HELP)
    verify.set_defaults(func=cmd_verify)


# each subcommand's name and the function that adds its parser, in the
# order the help lists them
_SUBCOMMANDS = {"synth": _add_synth, "analyze": _add_analyze, "verify": _add_verify}


def build_parser(command: str | None = None) -> _Parser:
    """The command-line parser: with every subcommand, or with only the
    one ``command`` names, which parses that subcommand's arguments the
    same way."""
    parser = _Parser(prog="spinsens",
                     description="Sensitivity geometry of bias-controlled "
                                 "spin-network state transfer.")
    parser.add_argument("--version", action="version",
                        version=f"spinsens {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, add in _SUBCOMMANDS.items():
        if command in (None, name):
            add(sub)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a named subcommand needs only its own parser; the top-level help and
    # the error for an unknown subcommand list them all
    parser = build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CommandLineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        # ValueErrors, but a file that is not JSON (UTF-8 text) is an i/o error
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
