"""Command-line interface: exit codes, file formats, byte-level determinism."""

import argparse
import hashlib
import json
import math
import re
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from spinsens import (Controller, NetworkSpec, SynthesisConfig, analyze,
                      controllers_to_json, synthesize_ensemble, transfer_fidelity)
from spinsens.cli import (RECORD_COLUMNS, SUMMARY_COLUMNS, build_parser,
                          config_hash, main, write_records_csv,
                          write_summaries_csv)
from spinsens.network import SPEC_KINDS
from spinsens.synthesis import ROW_KINDS, f17
from test_imports import fresh

RING_FLAGS = ["--n", "4", "--topology", "ring", "--in", "1", "--out", "2"]
README = Path(__file__).resolve().parents[1] / "README.md"
# a command-line flag written in prose: "--tf-range", "-o"
FLAG = re.compile(r"(?<![\w-])--?[a-z][\w-]*")

# parseable documents whose numbers are not finite; json reads null in a
# float array as nan
NONFINITE_SPECS = ['{"n": 2, "topology": "chain", "j": Infinity, "in": 1, "out": 2}']
NONFINITE_ROWS = [
    '[{"index": 0, "tf": 1.0, "biases": [null, 0], "fidelity": 0.5}]',
    '[{"index": 0, "tf": 1.0, "biases": [0, Infinity], "fidelity": 0.5}]']
NONFINITE_TIMES = [
    '[{"index": 0, "tf": Infinity, "biases": [0, 0], "fidelity": 0.5}]',
    '[{"index": 0, "tf": 1e309, "biases": [0, 0], "fidelity": 0.5}]']


def threads_flag(threads):
    # no flag at all for threads=None
    return [] if threads is None else ["--threads", str(threads)]


def synth_argv(out, threads, restarts=6, seed=3):
    return ["synth", *RING_FLAGS, "--restarts", str(restarts), "--seed", str(seed),
            "--tf-range", "1", "10", *threads_flag(threads), "-o", str(out)]


def analyze_argv(controllers_path, threads):
    # the tables land next to the controllers
    return ["analyze", str(controllers_path),
            "--records", str(controllers_path.with_name("records.csv")),
            "--summaries", str(controllers_path.with_name("summaries.csv")),
            *threads_flag(threads)]


def run_synth(tmp_path, name, threads, restarts=6, seed=3):
    out = tmp_path / name / "controllers.json"
    assert main(synth_argv(out, threads, restarts, seed)) == 0
    return out


def run_analyze(controllers_path, threads):
    assert main(analyze_argv(controllers_path, threads)) == 0
    return (controllers_path.with_name("records.csv"),
            controllers_path.with_name("summaries.csv"))


def chain12_ensemble():
    # eight random 12-spin chain controllers drawn like the synth defaults
    spec = NetworkSpec(num_spins=12, topology="chain", input_spin=1, output_spin=12)
    rng = np.random.default_rng(12)
    ensemble = []
    for i in range(8):
        biases = rng.uniform(0.0, 10.0, 12)
        t_f = float(rng.uniform(1.0, 50.0))
        f = transfer_fidelity(spec, biases, t_f)
        ensemble.append(Controller(biases=biases, t_f=t_f, fidelity=min(1.0, max(0.0, f)),
                                   spec=spec, seed=i, index=i))
    return ensemble


ANALYZE_PINS = {
    "chain12": chain12_ensemble,
    "ring4": lambda: synthesize_ensemble(
        NetworkSpec(num_spins=4, topology="ring", input_spin=1, output_spin=2),
        SynthesisConfig(restarts=40, seed=0)),
}


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def checked_count(records):
    manifest = json.loads(records.with_name(records.stem + ".manifest.json").read_text())
    return manifest["counts"]["inputs_checked_against_manifest"]


class TestArgumentHandling:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "spinsens" in capsys.readouterr().out

    def test_no_command_is_validation_error(self):
        assert main([]) == 1

    def test_unknown_flag_is_validation_error(self):
        assert main(["synth", "--bogus"]) == 1

    @pytest.mark.parametrize("command", ["synth", "analyze", "verify"])
    def test_subparser_built_alone_matches_full_build(self, command):
        # main builds only the subcommand argv[0] names; that parser must
        # take the same options, defaults and help as in the full build
        def subparsers(parser):
            sub, = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            return sub.choices

        alone = subparsers(build_parser(command))
        assert list(alone) == [command]
        full = subparsers(build_parser())[command]

        def options(parser):
            return [(a.option_strings, a.dest, a.default, a.help, a.nargs, a.required,
                     a.choices, a.metavar) for a in parser._actions]

        assert options(alone[command]) == options(full)
        assert alone[command].format_help() == full.format_help()

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0), (["--version"], 0), (["analyze", "--help"], 0),
        (["bogus"], 1), (["--threads", "2"], 1)],
        ids=["help", "version", "analyze-help", "unknown-command", "flag-first"])
    def test_top_level_output_unchanged_by_partial_build(self, capsys, argv, code):
        # with every subparser built, as main did before it built only the
        # named one: same bytes on stdout and stderr, same exit code
        def run(parse):
            try:
                returned = parse(argv)
            except SystemExit as exc:
                returned = exc.code
            return returned, capsys.readouterr()

        def full_build(args):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr("spinsens.cli.build_parser",
                              lambda command=None, full=build_parser: full())
                return main(args)

        returned, streams = run(main)
        assert returned == code
        assert (returned, streams) == run(full_build)

    def test_missing_network_flags(self, capsys):
        assert main(["synth", "--n", "4"]) == 1
        assert ("the following arguments are required: --topology, --in, --out"
                in capsys.readouterr().err)

    def test_coupling_defaults_to_unity_without_spec(self, tmp_path):
        out = tmp_path / "controllers.json"
        assert main(["synth", *RING_FLAGS, "--restarts", "1", "-o", str(out)]) == 0
        assert out.with_name("controllers.spec.json").read_bytes() == (
            b'{"n": 4, "topology": "ring", "j": 1.0, "in": 1, "out": 2}')

    def test_invalid_network_is_validation_error(self, capsys):
        assert main(["synth", "--n", "4", "--topology", "ring",
                     "--in", "1", "--out", "1"]) == 1
        assert "differ" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        # no ZZ term is modelled, so there is no flag for one
        (["synth", *RING_FLAGS, "--kappa", "0.5"], "--kappa"),
        # the network comes from the network flags alone, the optimizer
        # tolerance is fixed, and verify always runs all nine checks
        (["synth", *RING_FLAGS, "--spec", "net.json"], "--spec"),
        (["synth", *RING_FLAGS, "--tolerance", "1e-6"], "--tolerance"),
        (["verify", "--pst"], "--pst")],
        ids=["synth-kappa", "synth-spec", "synth-tolerance", "verify-pst"])
    def test_unmodelled_or_removed_flag_rejected(self, tmp_path, monkeypatch, capsys,
                                                 argv, flag):
        # nothing printed, no file written
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {flag}" in captured.err
        assert captured.out == "" and not any(tmp_path.iterdir())

    @staticmethod
    def analyze_with_spec(tmp_path, monkeypatch, doc):
        # analyze --spec FILE: the network file given by path, not the sidecar
        monkeypatch.chdir(tmp_path)
        Path("rows.json").write_text(
            '[{"index": 0, "tf": 1.0, "biases": [0, 0], "fidelity": 0.5}]')
        Path("net.json").write_text(doc)
        return main(["analyze", "rows.json", "--spec", "net.json"])

    def test_spec_file_with_unknown_key_rejected(self, tmp_path, monkeypatch, capsys):
        doc = '{"n": 2, "topology": "chain", "j": 1.0, "in": 1, "out": 2, "kappa": 0.5}'
        assert self.analyze_with_spec(tmp_path, monkeypatch, doc) == 1
        assert "unknown keys ['kappa']" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.json", "rows.json"]

    @pytest.mark.parametrize("doc", [
        "5", '{"n": [4], "topology": "ring", "j": 1.0, "in": 1, "out": 2}',
        '{"n": 4.7, "topology": "ring", "in": 1.9, "out": "2"}'])
    def test_malformed_spec_file_is_validation_error(self, tmp_path, monkeypatch, capsys,
                                                     doc):
        assert self.analyze_with_spec(tmp_path, monkeypatch, doc) == 1
        assert capsys.readouterr().err.startswith("error: network document")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.json", "rows.json"]

    @pytest.mark.parametrize("flags, field", [
        (["--tf-range", "1", "inf"], "t_f_range"),
        (["--bias-range", "0", "inf"], "bias_range")])
    def test_non_finite_synth_settings_rejected(self, tmp_path, capsys, flags, field):
        out = tmp_path / "controllers.json"
        assert main(["synth", *RING_FLAGS, "--restarts", "1", *flags,
                     "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not out.exists()

    def test_synth_refuses_read_out_range_analyze_would_refuse(self, tmp_path, capsys):
        # on the 4-ring |E| <= max|bias| + 2|J| = 12, and 1e9 * 12 > 1e8
        out = tmp_path / "over.json"
        assert main(["synth", *RING_FLAGS, "--restarts", "3",
                     "--tf-range", "1e8", "1e9", "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --tf-range") and "1e+08" in err
        assert list(tmp_path.iterdir()) == []

    def test_synth_below_the_read_out_bound_is_analyzable(self, tmp_path):
        # 8e6 * 12 = 9.6e7 stays under 1e8, so every controller synth
        # writes passes analyze's phase guard
        out = tmp_path / "wide.json"
        assert main(["synth", *RING_FLAGS, "--restarts", "2", "--seed", "1",
                     "--tf-range", "1", "8e6", "-o", str(out)]) == 0
        assert main(["analyze", str(out), "--records", str(tmp_path / "r.csv"),
                     "--summaries", str(tmp_path / "s.csv")]) == 0

    @pytest.mark.parametrize("argv", [
        ["synth", *RING_FLAGS], ["analyze", "absent.json"], ["verify"]])
    def test_threads_below_one_rejected_at_parse_time(self, capsys, argv):
        # --threads changes nothing, but a bad value still fails before any
        # work or file access
        assert main([*argv, "--threads", "0"]) == 1
        assert "--threads: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["synth", *RING_FLAGS], ["verify"]])
    @pytest.mark.parametrize("value, message", [("-1", "must be >= 0, got -1"),
                                                ("1.5", "not an integer")])
    def test_seed_checked_at_parse_time(self, tmp_path, monkeypatch, capsys, argv,
                                        value, message):
        # a bad seed fails before any work: nothing printed, no file written
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--seed", value]) == 1
        captured = capsys.readouterr()
        assert f"argument --seed: {message}" in captured.err
        assert captured.out == "" and not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag, value, message", [
        ("--systems-per-dim", "0", "must be >= 1"),
        ("--three-way-per-dim", "0", "must be >= 1"),
        ("--cross-count", "0", "must be >= 1"),
        ("--cross-count", "x", "not an integer"),
        ("--restarts", "0", "must be >= 1"),
        ("--n", "1", "must be >= 2")])
    def test_verify_counts_checked_at_parse_time(self, capsys, flag, value, message):
        assert main(["verify", flag, value]) == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: {message}" in err

    def test_verify_small_dimension_among_several_rejected(self, capsys):
        assert main(["verify", "--n", "2", "1", "3"]) == 1
        assert "argument --n: must be >= 2, got 1" in capsys.readouterr().err


class TestReadmeFlags:
    @staticmethod
    def sections():
        # each "### " section of the README, up to the next "## " or "### "
        text = README.read_text(encoding="utf-8")
        return dict(re.findall(r"^### (.+?)\n(.*?)(?=^#{2,3} |\Z)", text, re.M | re.S))

    @pytest.mark.parametrize("command", ["synth", "analyze", "verify"])
    def test_section_names_the_parser_options(self, command):
        sub, = [a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)]
        options = [a.option_strings for a in sub.choices[command]._actions
                   if a.option_strings and not isinstance(a, argparse._HelpAction)]
        sections = self.sections()
        section, = [body for title, body in sections.items()
                    if title.startswith(f"`spinsens {command}`")]
        named = set(FLAG.findall(section))
        # a stale flag in the section, then an option neither it nor the
        # shared section documents (-o stands for --output)
        known = {flag for strings in options for flag in strings}
        assert sorted(f for f in named if f.startswith("--") and f not in known) == []
        named |= set(FLAG.findall(sections["Threads, exit codes"]))
        assert [strings for strings in options if not named & set(strings)] == []


class TestReadmeQuickStart:
    def test_library_quick_start_runs(self, capsys):
        text = README.read_text(encoding="utf-8")
        section = text.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
        block, = re.findall(r"```python\n(.*?)```", section, re.S)
        exec(compile(block, "README quick start", "exec"), {})
        out = capsys.readouterr().out
        assert re.fullmatch(r"error \S+  sensitivity \S+  factored \S+\n", out), out


class TestReadmeInputKeys:
    @pytest.mark.parametrize("lead, kinds, optional", [
        ("The spec file holds the keys", SPEC_KINDS, ["j"]),
        ("Each controller row holds the keys", ROW_KINDS, ["seed"])],
        ids=["spec", "row"])
    def test_key_list_is_the_reader_declaration(self, lead, kinds, optional):
        # the keys the README lists, with their kinds, in declaration order
        text = " ".join(README.read_text(encoding="utf-8").split())
        listing = text.split(lead, 1)[1].split(";", 1)[0]
        keys = re.findall(r"`(\w+)` \(([^,)]+)(, optional)?\)", listing)
        assert [(key, kind) for key, kind, _ in keys] == list(kinds.items())
        assert [key for key, _, opt in keys if opt] == optional


class TestAnalyzeInputs:
    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["analyze", str(tmp_path / "absent.json")]) == 3

    def test_unparseable_json_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        (tmp_path / "bad.spec.json").write_text(
            '{"n": 2, "topology": "chain", "j": 1.0, "in": 1, "out": 2}')
        # JSON text is UTF-8, so bytes that do not decode are not JSON either
        for data in (b"[{", b"\xff\xfe[]"):
            bad.write_bytes(data)
            assert main(["analyze", str(bad)]) == 3
            assert "corrupt" in capsys.readouterr().err

    def test_synth_spec_not_json_is_io_error(self, tmp_path, capsys):
        # the network sidecar, which synth writes next to its controllers
        rows = tmp_path / "rows.json"
        rows.write_text('[{"index": 0, "tf": 1.0, "biases": [0, 0], "fidelity": 0.5}]')
        for data in (b"n = 4", b"\xff{}"):
            (tmp_path / "rows.spec.json").write_bytes(data)
            assert main(["analyze", str(rows), "--records", str(tmp_path / "r.csv"),
                         "--summaries", str(tmp_path / "s.csv")]) == 3
            assert "corrupt" in capsys.readouterr().err
            assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.json",
                                                                  "rows.spec.json"]

    def test_row_missing_key_is_validation_error(self, tmp_path):
        bad = tmp_path / "rows.json"
        bad.write_text('[{"index": 0, "tf": 1.0}]')
        (tmp_path / "rows.spec.json").write_text(
            '{"n": 2, "topology": "chain", "j": 1.0, "in": 1, "out": 2}')
        assert main(["analyze", str(bad)]) == 1

    @pytest.mark.parametrize("doc", [
        "5", '{"n": [2], "topology": "chain", "j": 1.0, "in": 1, "out": 2}',
        *NONFINITE_SPECS])
    def test_malformed_spec_sidecar_is_validation_error(self, tmp_path, capsys, doc):
        rows = tmp_path / "rows.json"
        rows.write_text('[{"index": 0, "tf": 1.0, "biases": [0, 0], "fidelity": 0.5}]')
        (tmp_path / "rows.spec.json").write_text(doc)
        assert main(["analyze", str(rows)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        if doc in NONFINITE_SPECS:
            assert "coupling" in err

    @pytest.mark.parametrize("doc", [
        "[5]", '[{"index": 0, "tf": [1.0], "biases": [0, 0], "fidelity": 0.5}]',
        '[{"index": null, "tf": 1.0, "biases": [0, 0], "fidelity": 0.5}]',
        # index 0.9 and seed true, with the fidelity the row's working point gives
        '[{"index": 0.9, "seed": true, "tf": 1.0, "biases": [0, 0], '
        '"fidelity": 0.7080734182735712}]',
        *NONFINITE_ROWS, *NONFINITE_TIMES])
    def test_malformed_row_is_validation_error(self, tmp_path, capsys, doc):
        rows = tmp_path / "rows.json"
        rows.write_text(doc)
        (tmp_path / "rows.spec.json").write_text(
            '{"n": 2, "topology": "chain", "j": 1.0, "in": 1, "out": 2}')
        assert main(["analyze", str(rows)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        if doc in NONFINITE_ROWS:
            assert "biases" in err
        if doc in NONFINITE_TIMES:
            assert "read-out time" in err

    GOOD_ROW = '{"index": 7, "tf": 1.0, "biases": [0, 0], "fidelity": 0.7080734182735712}'

    def analyze_rows(self, tmp_path, rows):
        # analyze a 2-chain ensemble of the given JSON rows; returns the
        # exit code and stderr
        path = tmp_path / "rows.json"
        path.write_text("[" + ", ".join(rows) + "]")
        (tmp_path / "rows.spec.json").write_text(
            '{"n": 2, "topology": "chain", "j": 1.0, "in": 1, "out": 2}')
        return main(["analyze", str(path), "--records", str(tmp_path / "r.csv"),
                     "--summaries", str(tmp_path / "s.csv")])

    @pytest.mark.parametrize("row, message", [
        ('{"index": 0, "tf": 1.0, "biases": [0, 0, 0], "fidelity": 0.5}',
         "error: controller row 1: expected 2 biases, got shape (3,)"),
        ('{"index": 0, "tf": -1, "biases": [0, 0], "fidelity": 0.5}',
         "error: controller row 1: read-out time must be positive"),
        ('{"index": 0, "seeds": 1, "tf": 1.0, "biases": [0, 0], "fidelity": 0.5}',
         "error: controller row 1 has unknown keys ['seeds']"),
        ('{"index": 0, "tf": 1' + "0" * 400 + ', "biases": [0, 0], "fidelity": 0.5}',
         "error: controller row 1 field 'tf' has the wrong type")])
    def test_bad_row_named_in_error(self, tmp_path, capsys, row, message):
        assert self.analyze_rows(tmp_path, [self.GOOD_ROW, row]) == 1
        assert capsys.readouterr().err.startswith(message)
        assert not (tmp_path / "r.csv").exists()

    def test_repeated_index_rejected_naming_both_rows(self, tmp_path, capsys):
        other = self.GOOD_ROW.replace('"index": 7', '"index": 8')
        assert self.analyze_rows(tmp_path, [self.GOOD_ROW, other, other]) == 1
        assert capsys.readouterr().err == "error: controller rows 1 and 2 share index 8\n"
        assert not (tmp_path / "r.csv").exists()
        assert self.analyze_rows(tmp_path, [self.GOOD_ROW, other]) == 0

    def test_stored_fidelity_mismatch_is_validation_error(self, tmp_path, capsys):
        # the two-spin chain at t_f = 1 transfers sin^2(1) = 0.708, not 0.5
        rows = tmp_path / "rows.json"
        rows.write_text('[{"index": 3, "tf": 1.0, "biases": [0, 0], "fidelity": 0.5}]')
        (tmp_path / "rows.spec.json").write_text(
            '{"n": 2, "topology": "chain", "j": 1.0, "in": 1, "out": 2}')
        assert main(["analyze", str(rows), "--records", str(tmp_path / "r.csv"),
                     "--summaries", str(tmp_path / "s.csv")]) == 1
        err = capsys.readouterr().err
        assert "controller 3" in err and "0.5" in err
        assert repr(math.sin(1.0) ** 2)[:8] in err
        assert not (tmp_path / "r.csv").exists()

    def test_huge_read_out_time_is_validation_error(self, tmp_path, capsys):
        # finite and self-consistent, but exp(-iEt) at t_f = 1e300 keeps no
        # correct digit; the stored fidelity matches, so only the guard trips
        spec = NetworkSpec(num_spins=2, topology="chain", input_spin=1, output_spin=2)
        stored = transfer_fidelity(spec, np.zeros(2), 1e300)
        rows = tmp_path / "rows.json"
        rows.write_text(f'[{{"index": 4, "tf": 1e300, "biases": [0, 0], '
                        f'"fidelity": {stored!r}}}]')
        (tmp_path / "rows.spec.json").write_text(spec.to_json())
        assert main(["analyze", str(rows), "--records", str(tmp_path / "r.csv"),
                     "--summaries", str(tmp_path / "s.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "controller 4" in err and "tf" in err
        assert not (tmp_path / "r.csv").exists()

    def test_first_huge_read_out_time_in_input_order_named(self, tmp_path, capsys):
        # the 2nd and 4th rows are past the bound; the one pass over the
        # ensemble names the first of them in input order, not the lowest
        # index, and no table is written
        spec = NetworkSpec(num_spins=2, topology="chain", input_spin=1, output_spin=2)
        ensemble = [Controller(biases=np.zeros(2), t_f=t_f,
                               fidelity=min(1.0, transfer_fidelity(spec, np.zeros(2), t_f)),
                               spec=spec, seed=0, index=index)
                    for index, t_f in ((7, 1.0), (2, 2e8), (5, 1.3), (0, 3e8))]
        with pytest.raises(ValueError, match=r"^controller 2: tf 200000000\.0 "):
            analyze(ensemble)
        rows = tmp_path / "rows.json"
        rows.write_text(controllers_to_json(ensemble))
        (tmp_path / "rows.spec.json").write_text(spec.to_json())
        assert main(["analyze", str(rows), "--records", str(tmp_path / "r.csv"),
                     "--summaries", str(tmp_path / "s.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: controller 2: tf 200000000.0 ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.json", "rows.spec.json"]

    def test_empty_ensemble_is_validation_error(self, tmp_path):
        empty = tmp_path / "none.json"
        empty.write_text("[]")
        (tmp_path / "none.spec.json").write_text(
            '{"n": 2, "topology": "chain", "j": 1.0, "in": 1, "out": 2}')
        assert main(["analyze", str(empty)]) == 1


class TestSynthOutputs:
    def test_writes_ensemble_sidecar_and_manifest(self, tmp_path):
        out = run_synth(tmp_path, "a", threads=1)
        sidecar = out.with_name("controllers.spec.json")
        manifest_path = out.with_name("controllers.manifest.json")
        assert out.exists() and sidecar.exists() and manifest_path.exists()
        rows = json.loads(out.read_text())
        assert rows and {"index", "seed", "tf", "biases", "fidelity"} <= set(rows[0])
        # deduplication can only shrink the ensemble below the restart count
        assert len(rows) <= 6
        manifest = json.loads(manifest_path.read_text())
        assert manifest["command"] == "synth"
        assert manifest["outputs"][str(out)] == sha256_of(out)
        assert manifest["config_hash"] == config_hash(manifest["config"])
        counts = manifest["counts"]
        assert counts["duplicates_dropped"] == 6 - len(rows)
        assert set(counts["status"]) <= {"converged", "maxiter"}
        assert sum(counts["status"].values()) == len(rows)
        errors = [1.0 - row["fidelity"] for row in rows]
        assert counts["best_error"] == errors[0] == min(errors)
        assert counts["median_error"] == float(np.median(errors))

    def test_manifest_config_pinned(self, tmp_path, monkeypatch):
        # the config at the CI argv, keys in the order the manifest writes
        # them, and its hash: either changing changes the manifest bytes
        monkeypatch.chdir(tmp_path)
        assert main(["synth", *RING_FLAGS, "--restarts", "8", "--seed", "3",
                     "-o", "c.json"]) == 0
        manifest = json.loads((tmp_path / "c.manifest.json").read_text())
        expected = {"spec": {"n": 4, "topology": "ring", "j": 1.0, "in": 1, "out": 2},
                    "restarts": 8, "t_f_range": [1.0, 50.0], "bias_range": [0.0, 10.0],
                    "tolerance": 1e-08, "seed": 3}
        assert json.dumps(manifest["config"]) == json.dumps(expected)
        assert manifest["config_hash"] == (
            "4ce3c251dde7255f3c66c74481656c7c7d9293badc360b697e73c8f97e4b38c8")

    def test_manifest_counts_dropped_duplicates(self, tmp_path):
        # restarts in a 1e-9 bias box and a narrow read-out window often
        # end on the same point
        out = tmp_path / "controllers.json"
        assert main(["synth", "--n", "2", "--topology", "chain", "--in", "1",
                     "--out", "2", "--bias-range", "0", "1e-9", "--tf-range",
                     "1.5", "1.6", "--restarts", "8", "--seed", "1",
                     "-o", str(out)]) == 0
        kept = len(json.loads(out.read_text()))
        counts = json.loads(out.with_name("controllers.manifest.json").read_text())["counts"]
        assert sum(counts["status"].values()) == kept
        assert counts["duplicates_dropped"] == 8 - kept > 0

    def test_fidelity_sorted_descending(self, tmp_path):
        out = run_synth(tmp_path, "b", threads=1)
        fids = [row["fidelity"] for row in json.loads(out.read_text())]
        assert fids == sorted(fids, reverse=True)


class TestAnalyzeOutputs:
    def test_headers_and_row_count(self, tmp_path):
        out = run_synth(tmp_path, "c", threads=1)
        records, summaries = run_analyze(out, threads=1)
        rec_lines = records.read_text().splitlines()
        sum_lines = summaries.read_text().splitlines()
        assert rec_lines[0] == ",".join(RECORD_COLUMNS)
        assert sum_lines[0] == ",".join(SUMMARY_COLUMNS)
        n_controllers = len(json.loads(out.read_text()))
        assert len(rec_lines) == 1 + 8 * n_controllers
        assert len(sum_lines) == 1 + 8

    def test_sidecar_spec_found_by_default(self, tmp_path):
        out = run_synth(tmp_path, "d", threads=1)
        records, _ = run_analyze(out, threads=1)
        assert records.exists()

    def test_manifest_references_inputs(self, tmp_path):
        out = run_synth(tmp_path, "e", threads=1)
        records, summaries = run_analyze(out, threads=1)
        manifest = json.loads(records.with_name("records.manifest.json").read_text())
        assert manifest["inputs"][str(out)] == sha256_of(out)
        assert manifest["outputs"][str(records)] == sha256_of(records)
        assert manifest["outputs"][str(summaries)] == sha256_of(summaries)

    def test_manifest_digest_is_of_the_bytes_analyzed(self, tmp_path, monkeypatch):
        # the controllers file is rewritten right after analyze reads it; the
        # manifest must carry the digest of the bytes analyzed, not of a
        # second read. No synth manifest, so the rewrite passes the check.
        out = run_synth(tmp_path, "g", threads=1)
        out.with_name("controllers.manifest.json").unlink()
        analyzed = out.read_bytes()

        def rewrite_after(read):
            def patched(path, *args, **kwargs):
                result = read(path, *args, **kwargs)
                if path == out:
                    monkeypatch.undo()  # rewrite once, then read plainly
                    out.write_bytes(analyzed + b"\n")
                return result
            return patched

        monkeypatch.setattr(Path, "read_bytes", rewrite_after(Path.read_bytes))
        monkeypatch.setattr(Path, "read_text", rewrite_after(Path.read_text))
        records, _ = run_analyze(out, threads=1)
        manifest = json.loads(records.with_name("records.manifest.json").read_text())
        assert out.read_bytes() != analyzed
        assert manifest["inputs"][str(out)] == hashlib.sha256(analyzed).hexdigest()

    def test_manifest_digest_is_of_the_bytes_written(self, tmp_path, monkeypatch, capsys):
        # synth's controllers file is rewritten right after synth writes it;
        # the manifest must carry the digest of the bytes synth produced,
        # not of a read-back, so analyze rejects the rewritten file
        out = tmp_path / "w" / "controllers.json"
        write_bytes = Path.write_bytes

        def rewrite_after(path, data):
            written = write_bytes(path, data)
            if path == out:
                monkeypatch.undo()  # rewrite once, then write plainly
                out.write_bytes(data + b"\n")
            return written

        monkeypatch.setattr(Path, "write_bytes", rewrite_after)
        assert main(synth_argv(out, threads=None)) == 0
        assert out.read_bytes().endswith(b"]\n\n")
        code = main(["analyze", str(out), "--records", str(tmp_path / "r.csv"),
                     "--summaries", str(tmp_path / "s.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert str(out) in err and "controllers.manifest.json" in err
        assert not (tmp_path / "r.csv").exists()

    def test_output_digests_match_files_in_new_directories(self, tmp_path):
        # every output lands in a directory that does not exist yet
        out = tmp_path / "a" / "b" / "c.json"
        records = tmp_path / "r" / "deep" / "r.csv"
        summaries = tmp_path / "s" / "s.csv"
        assert main(synth_argv(out, threads=None)) == 0
        assert main(["analyze", str(out), "--records", str(records),
                     "--summaries", str(summaries)]) == 0
        for manifest_path, names in ((out.with_name("c.manifest.json"),
                                      [out, out.with_name("c.spec.json")]),
                                     (records.with_name("r.manifest.json"),
                                      [records, summaries])):
            outputs = json.loads(manifest_path.read_text())["outputs"]
            assert list(outputs) == [str(name) for name in names]
            assert outputs == {str(name): sha256_of(name) for name in names}

    def test_manifest_counts_pst_and_zero_fidelity_records(self, tmp_path):
        # two-spin chain: F = sin^2 t, so t = pi/2 is perfect transfer and
        # t = pi transfers nothing (F = 1.5e-32, below the zero floor)
        controllers = tmp_path / "hand.json"
        controllers.write_text(
            '[{"index": 0, "seed": 0, "tf": 1.5707963267948966, '
            '"biases": [0, 0], "fidelity": 1},\n'
            f' {{"index": 1, "seed": 1, "tf": 1.0, "biases": [0, 0], '
            f'"fidelity": {math.sin(1.0) ** 2!r}}},\n'
            ' {"index": 2, "seed": 2, "tf": 3.141592653589793, '
            '"biases": [0, 0], "fidelity": 0}]\n')
        (tmp_path / "hand.spec.json").write_text(
            '{"n": 2, "topology": "chain", "j": 1.0, "in": 1, "out": 2}')
        records, _ = run_analyze(controllers, threads=1)
        manifest = json.loads(records.with_name("records.manifest.json").read_text())
        assert manifest["counts"] == {"pst_records": 3, "zero_fidelity_records": 3,
                                      "inputs_checked_against_manifest": 0}


class TestTableFormat:
    SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, -1e308,
               2.2250738585072014e-308, 1.0 / 3.0, np.float64(-2.5e-17),
               np.float64(math.nan), 3, np.int64(-4), True]

    @staticmethod
    def cell(value):
        # a flag or an index as a decimal integer, a float with 17 digits
        return str(int(value)) if isinstance(value, int) else f17(value)

    def rows(self, columns, ints, flags):
        # every special value once in every float column, next to integer
        # and flag cells of the types the records and summaries carry
        rows = []
        for i, value in enumerate(self.SPECIAL):
            row = {}
            for field, kind in columns.values():
                if kind is float:
                    row[field] = value
                elif kind is bool:
                    row[field] = flags[i % len(flags)]
                else:
                    row[field] = ints[i % len(ints)]
            rows.append(SimpleNamespace(**row))
        return rows

    @pytest.mark.parametrize("write, columns", [
        (write_records_csv, RECORD_COLUMNS), (write_summaries_csv, SUMMARY_COLUMNS)])
    def test_cells_render_as_f17_and_int(self, tmp_path, write, columns):
        rows = self.rows(columns, ints=[0, 7, np.int64(12), 123456789],
                         flags=[True, False, np.bool_(True), np.bool_(False)])
        write(tmp_path / "t.csv", rows)
        expected = [",".join(columns)] + [
            ",".join(self.cell(getattr(row, field)) for field, _ in columns.values())
            for row in rows]
        assert (tmp_path / "t.csv").read_bytes() == ("\n".join(expected) + "\n").encode()

    def test_special_floats_spelled_out(self, tmp_path):
        rows = self.rows(SUMMARY_COLUMNS, ints=[1], flags=[True])
        write_summaries_csv(tmp_path / "t.csv", rows)
        cells = [line.split(",")[2]
                 for line in (tmp_path / "t.csv").read_text().splitlines()[1:]]
        assert cells[:8] == ["nan", "inf", "-inf", "-0", "0", "4.9406564584124654e-324",
                             "1e+308", "-1e+308"]


class TestSynthManifestCheck:
    def test_untouched_round_trip_passes(self, tmp_path):
        records, _ = run_analyze(run_synth(tmp_path, "ok", threads=1), threads=1)
        assert records.exists()

    def test_edited_seed_digit_rejected(self, tmp_path, capsys):
        out = run_synth(tmp_path, "seed", threads=1)
        text = out.read_text()
        edited = re.sub(r'"seed": (\d)', lambda m: f'"seed": {(int(m[1]) + 1) % 10}',
                        text, count=1)
        assert edited != text
        out.write_text(edited)
        code = main(["analyze", str(out), "--records", str(tmp_path / "r.csv"),
                     "--summaries", str(tmp_path / "s.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert str(out) in err and "controllers.manifest.json" in err
        assert not (tmp_path / "r.csv").exists()

    def test_edited_spec_sidecar_rejected(self, tmp_path, capsys):
        out = run_synth(tmp_path, "spec", threads=1)
        sidecar = out.with_name("controllers.spec.json")
        sidecar.write_text(sidecar.read_text() + "\n")
        code = main(["analyze", str(out), "--records", str(tmp_path / "r.csv"),
                     "--summaries", str(tmp_path / "s.csv")])
        assert code == 1
        assert str(sidecar) in capsys.readouterr().err

    def test_both_inputs_checked_counted(self, tmp_path):
        records, _ = run_analyze(run_synth(tmp_path, "two", threads=1), threads=1)
        assert checked_count(records) == 2

    def test_spec_the_manifest_does_not_list_not_counted(self, tmp_path):
        out = run_synth(tmp_path, "one", threads=1)
        spec = tmp_path / "other.spec.json"
        spec.write_bytes(out.with_name("controllers.spec.json").read_bytes())
        records = tmp_path / "r.csv"
        assert main(["analyze", str(out), "--spec", str(spec), "--records", str(records),
                     "--summaries", str(tmp_path / "s.csv")]) == 0
        assert checked_count(records) == 1

    def test_no_manifest_nothing_counted(self, tmp_path):
        out = run_synth(tmp_path, "none", threads=1)
        out.with_name("controllers.manifest.json").unlink()
        records, _ = run_analyze(out, threads=1)
        assert checked_count(records) == 0

    @pytest.mark.parametrize("doc", [b"[{", b"[]", b'{"outputs": 5}', b"\xff{}"])
    def test_corrupt_manifest_is_io_error(self, tmp_path, capsys, doc):
        out = run_synth(tmp_path, "bad", threads=1)
        out.with_name("controllers.manifest.json").write_bytes(doc)
        assert main(["analyze", str(out), "--records", str(tmp_path / "r.csv"),
                     "--summaries", str(tmp_path / "s.csv")]) == 3
        assert "corrupt manifest" in capsys.readouterr().err


class TestAnalyzeOverwriteRefused:
    @pytest.fixture()
    def synth3(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["synth", "--n", "3", "--topology", "chain", "--in", "1",
                     "--out", "3", "--restarts", "2", "--seed", "1",
                     "-o", str(out)]) == 0
        capsys.readouterr()
        return out, {p: p.read_bytes() for p in tmp_path.iterdir()}

    def test_records_manifest_over_synth_manifest_rejected(self, tmp_path, capsys,
                                                           synth3):
        # --records under the controllers' stem: analyze's manifest would
        # replace synth's, and the digest check would have nothing to read
        out, before = synth3
        code = main(["analyze", str(out), "--records", str(tmp_path / "c.csv"),
                     "--summaries", str(tmp_path / "s.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert str(tmp_path / "c.csv") in err
        assert str(tmp_path / "c.manifest.json") in err
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("records, summaries", [
        ("r.csv", "c.json"), ("c.spec.json", "s.csv"), ("r.csv", "r.csv")])
    def test_output_over_input_or_output_rejected(self, tmp_path, capsys, synth3,
                                                  records, summaries):
        out, before = synth3
        code = main(["analyze", str(out), "--records", str(tmp_path / records),
                     "--summaries", str(tmp_path / summaries)])
        assert code == 1
        assert "would overwrite" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestDeterminism:
    def test_byte_identical_across_runs_and_threads(self, tmp_path):
        outs = [run_synth(tmp_path, name, threads=threads)
                for name, threads in (("r1", 1), ("r2", 1), ("r4", 4))]
        blobs = [o.read_bytes() for o in outs]
        assert blobs[0] == blobs[1] == blobs[2]

        tables = []
        for out, threads in zip(outs, (1, 4, 1)):
            records, summaries = run_analyze(out, threads=threads)
            tables.append((records.read_bytes(), summaries.read_bytes()))
        assert tables[0] == tables[1] == tables[2]

        # without --threads, in fresh interpreters whose string hashing is
        # seeded two ways
        for hash_seed in (0, 1):
            out = tmp_path / f"hash{hash_seed}" / "controllers.json"
            fresh("import spinsens.cli\n"
                  f"assert spinsens.cli.main({synth_argv(out, None)!r}) == 0\n"
                  f"assert spinsens.cli.main({analyze_argv(out, None)!r}) == 0",
                  hash_seed=hash_seed)
            assert out.read_bytes() == blobs[0]
            assert (out.with_name("records.csv").read_bytes(),
                    out.with_name("summaries.csv").read_bytes()) == tables[0]

    @pytest.mark.parametrize("ensemble, digests", [
        ("chain12", ("c13e229f0344db7af0e84c83c215aae97524f5a2a38112759a7534e7873f56b0",
                     "be777f6dba57e23408aee3205e6371cd3cde5f3ea4761f4cbac86bbc218ea467")),
        ("ring4", ("fe7f4de437dddf51ed94fe4ab9ba152008ce21f15eaaa1e0034ed86b60c54343",
                   "ce4ebd1313f2365fb30b1ba0196750fb97996cbfc13c07bf38952842c72b5d3d"))])
    def test_analyze_tables_bytes_unchanged(self, tmp_path, ensemble, digests):
        # SHA-256 of records.csv and summaries.csv as the one eigenbasis
        # contraction per controller wrote them; faster rewrites of the
        # records, the statistics or the table writer must keep every byte
        records, summaries = analyze(ANALYZE_PINS[ensemble]())
        written = (write_records_csv(tmp_path / "r.csv", records),
                   write_summaries_csv(tmp_path / "s.csv", summaries))
        assert written == digests
        assert (sha256_of(tmp_path / "r.csv"), sha256_of(tmp_path / "s.csv")) == digests

    @pytest.mark.parametrize("seed, digest", [
        (2024, "c164964b166e2c7b34df326fee79a9f017dbcd061bf04a56a7ebf271642331f8"),
        (5, "ab28e67f30b214736392560a2d00712b9efd765029b97c3cfba7a3cd92083bf7"),
        (77, "3a80c7bba75d4fc05e284353800e49ca08f649168c92f29513f24b4d9a6fa395")])
    def test_verify_stdout_unchanged(self, capsys, seed, digest):
        # SHA-256 of verify's report at the benchmark's sizes, as the oracles
        # on the in-repo Pade exponential printed it; moving a record rule or
        # an oracle between modules must keep every byte
        capsys.readouterr()
        assert main(["verify", "--threads", "2", "--seed", str(seed),
                     "--restarts", "40", "--systems-per-dim", "4",
                     "--three-way-per-dim", "12", "--cross-count", "25"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, out

    def test_manifests_identical_up_to_timestamp(self, tmp_path):
        m = []
        for name in ("t1", "t2"):
            out = run_synth(tmp_path, name, threads=1)
            doc = json.loads(out.with_name("controllers.manifest.json").read_text())
            doc.pop("created_utc")
            doc["outputs"] = sorted(doc["outputs"].values())
            m.append(doc)
        assert m[0] == m[1]


class TestPerfectTransferRows:
    def test_flag_and_vanishing_sensitivity(self, tmp_path):
        # hand-built analytic optimum: every row must carry the transfer
        # flag and a sensitivity at the noise floor
        controllers = tmp_path / "pst.json"
        controllers.write_text(
            '[{"index": 0, "seed": 0, "tf": 1.5707963267948966, '
            '"biases": [0, 0], "fidelity": 1}]\n')
        (tmp_path / "pst.spec.json").write_text(
            '{"n": 2, "topology": "chain", "j": 1.0, "in": 1, "out": 2}')
        records, _ = run_analyze(controllers, threads=1)
        lines = records.read_text().splitlines()
        assert len(lines) == 1 + 3
        cols = {name: i for i, name in enumerate(RECORD_COLUMNS)}
        for line in lines[1:]:
            parts = line.split(",")
            assert parts[cols["pst_flag"]] == "1"
            assert abs(float(parts[cols["abs_zeta"]])) <= 1e-8
            assert float(parts[cols["norm_Rs"]]) == pytest.approx(0.5, abs=1e-9)

    def test_nan_statistics_render(self, tmp_path):
        controllers = tmp_path / "pst.json"
        controllers.write_text(
            '[{"index": 0, "seed": 0, "tf": 1.5707963267948966, '
            '"biases": [0, 0], "fidelity": 1}]\n')
        (tmp_path / "pst.spec.json").write_text(
            '{"n": 2, "topology": "chain", "j": 1.0, "in": 1, "out": 2}')
        _, summaries = run_analyze(controllers, threads=1)
        body = summaries.read_text().splitlines()[1:]
        for line in body:
            assert math.isnan(float(line.split(",")[2]))


class TestPstTolerance:
    @staticmethod
    def two_spin_pst(tmp_path):
        controllers = tmp_path / "pst.json"
        controllers.write_text(
            '[{"index": 0, "seed": 0, "tf": 1.5707963267948966, '
            '"biases": [0, 0], "fidelity": 1}]\n')
        (tmp_path / "pst.spec.json").write_text(
            '{"n": 2, "topology": "chain", "j": 1.0, "in": 1, "out": 2}')
        return controllers

    def test_explicit_default_flags_perfect_transfer(self, tmp_path):
        controllers = self.two_spin_pst(tmp_path)
        records = tmp_path / "records.csv"
        assert main(["analyze", str(controllers), "--records", str(records),
                     "--summaries", str(tmp_path / "summaries.csv")]) == 0
        rows = records.read_text().splitlines()[1:]
        flag = list(RECORD_COLUMNS).index("pst_flag")
        assert len(rows) == 3
        assert all(row.split(",")[flag] == "1" for row in rows)
        manifest = json.loads(tmp_path.joinpath("records.manifest.json").read_text())
        assert manifest["config"]["pst_tol"] == 1e-12


class TestNearZeroFidelity:
    # a random 12-chain controller with F = 3.1e-9: the rounding in F and
    # |R_S| pushed cos phi to 1.0000000085912437, which used to abort analyze
    BIASES = (6.9743530246516201, 4.2576973443995403, 8.8568065964722908,
              1.4089658578466691, 3.9097544387691241, 9.8020506956545042,
              1.9569851559017826, 3.2369395794774078, 9.9365956471419175,
              8.888440310011589, 8.8465212683743175, 2.4882055069079656)

    def test_analyze_keeps_cosines_in_range(self, tmp_path):
        controllers = tmp_path / "chain12.json"
        biases = ", ".join(repr(b) for b in self.BIASES)
        controllers.write_text(
            f'[{{"index": 2, "seed": 2, "tf": 45.266065485182246, '
            f'"biases": [{biases}], "fidelity": 3.142084537000045e-09}}]\n')
        (tmp_path / "chain12.spec.json").write_text(
            '{"n": 12, "topology": "chain", "j": 1.0, "in": 1, "out": 12}')
        records, _ = run_analyze(controllers, threads=1)
        lines = records.read_text().splitlines()
        assert len(lines) == 1 + 23
        cols = {name: i for i, name in enumerate(RECORD_COLUMNS)}
        for line in lines[1:]:
            parts = line.split(",")
            assert 0.0 < float(parts[cols["F"]]) < 1e-8
            for name in ("cos_phi", "sin_phi", "cos_theta"):
                assert abs(float(parts[cols[name]])) <= 1.0


class TestVerifyCommand:
    SMALL = ["--n", "2", "3", "--systems-per-dim", "3", "--three-way-per-dim", "3",
             "--cross-count", "10", "--restarts", "2", "--seed", "5",
             "--threads", "2"]

    def test_small_suite_passes(self, capsys):
        assert main(["verify", *self.SMALL]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_reruns_print_identical_bytes(self, capsys):
        outs = []
        for _ in range(2):
            assert main(["verify", *self.SMALL]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_default_suite_passes_within_budget(self, capsys):
        start = time.monotonic()
        assert main(["verify"]) == 0
        assert time.monotonic() - start <= 300.0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "9 checks, 9 passed" in out

    def test_six_spins_get_three_way_instances(self, capsys):
        # three-way draws every requested dimension, 6 spins included
        assert main(["verify", "--n", "6", "--systems-per-dim", "1",
                     "--three-way-per-dim", "1", "--cross-count", "1",
                     "--restarts", "2", "--seed", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        checks = [line for line in lines if line[:4] in ("PASS", "WARN", "FAIL")]
        assert len(checks) == 9
        three_way, = [line for line in checks if "three-way-agreement" in line]
        assert three_way.split()[:3] == ["PASS", "three-way-agreement", "1"]
        assert "verify: 9 checks, 9 passed" in lines[-1]

    @pytest.mark.parametrize("target, factor, lower_bound_broken", [
        ("propagator_matrix", 1.0001, False),
        ("propagator_matrix", 0.9999, True),
        ("adjoint_sensitivity_operator", 0.99, False),
        ("adjoint_sensitivity_operator", 1.01, False)],
        ids=["phi-x1.0001", "phi-x0.9999", "k-x0.99", "k-x1.01"])
    def test_frame_defect_reported_as_failures(self, capsys, monkeypatch, target,
                                               factor, lower_bound_broken):
        # a reference propagator or sensitivity operator off by a constant
        # factor breaks the frame identities of the reference records and
        # pushes the cosines above 1 or below it; either way verify prints
        # every check and reports the defect on the theorem-1 and remark-1
        # lines, and on the remark-2 line when |R_S| falls below F/N
        from spinsens import verification
        exact = getattr(verification, target)

        def mutated(*args):
            if target == "propagator_matrix":
                return factor * exact(*args)
            # K scaled, |K| kept as the operator's norm comes back
            k_op, norm_k = exact(*args)
            return factor * k_op, norm_k

        monkeypatch.setattr(verification, target, mutated)
        assert main(["verify", *self.SMALL]) == 2
        lines = capsys.readouterr().out.splitlines()
        checks = [line for line in lines if line[:4] in ("PASS", "WARN", "FAIL")]
        assert len(checks) == 9
        assert lines[-1].startswith("verify: 9 checks")
        failed = {line.split()[1] for line in checks if line.startswith("FAIL")}
        assert {"theorem1-identity", "remark1-frame-norm"} <= failed
        remark2, = [line for line in checks if "remark2-projection-bounds" in line]
        assert (remark2.startswith("FAIL")
                and "lower bound broken" in remark2) == lower_bound_broken

    def test_shared_weights_defect_caught_by_three_way_alone(self, capsys, monkeypatch):
        # both routes, and synth, take their divided differences from
        # hadamard_core, so cross-formulation cannot see a defect there;
        # the Frechet derivative and finite differences can, and the
        # Frechet half alone is over its budget. At SMALL the three-way
        # instances (2 and 3 spins) have distinct eigenvalues, so a sinc
        # argument off by a factor 1.0001 reaches them
        checks = self.run_with_bent_sinc(monkeypatch, capsys, self.SMALL)
        three_way = checks["three-way-agreement"]
        assert three_way.startswith("FAIL")
        assert float(re.search(r"Frechet derivative at (\S+)", three_way).group(1)) > 1.0
        assert checks["cross-formulation"].startswith("PASS")

    def test_shared_weights_defect_reaches_six_spins(self, capsys, monkeypatch):
        # the same bent sinc with 6-spin instances only: three-way
        # agreement is the one check that fails, so its 6-spin instances
        # are compared with the oracles
        checks = self.run_with_bent_sinc(monkeypatch, capsys, [
            "--n", "6", "--systems-per-dim", "1", "--three-way-per-dim", "3",
            "--cross-count", "2", "--restarts", "2", "--seed", "5"])
        assert [name for name, line in checks.items() if line.startswith("FAIL")] == [
            "three-way-agreement"]
        assert checks["three-way-agreement"].split()[2] == "3"

    @staticmethod
    def run_with_bent_sinc(monkeypatch, capsys, argv):
        # verify with every hadamard_core's sinc argument scaled by 1.0001;
        # returns each check's report line by name
        from spinsens import sensitivity
        from test_analytics import TestHotPath

        def bent(lam, t_f):
            lam = np.asarray(lam, dtype=float)
            t_f = np.asarray(t_f, dtype=float)[..., None]
            half = np.exp(0.5j * t_f * lam)
            x = 1.0001 * 0.5 * t_f[..., None] * (lam[..., :, None] - lam[..., None, :])
            sinc = np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0)
            return half[..., :, None] * half[..., None, :] * sinc

        TestHotPath.patch_everywhere(monkeypatch, sensitivity.hadamard_core, bent)
        assert main(["verify", *argv]) == 2
        checks = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()
                  if line[:4] in ("PASS", "WARN", "FAIL")}
        assert len(checks) == 9
        return checks

    def test_published_norm_defect_caught_by_cross_formulation_alone(
            self, capsys, monkeypatch):
        # every published |K| scaled by 1 + 1e-6: sin phi takes the same
        # factor back out, so the published records keep theorem 1's
        # identity, and only the field-by-field comparison with the
        # reference records sees the defect; at the benchmark's sizes
        from spinsens import analytics
        exact = analytics.sensitivity_operator

        def scaled(transfer, structure):
            k_coeff, norm_k = exact(transfer, structure)
            return k_coeff, (1.0 + 1e-6) * norm_k
        monkeypatch.setattr(analytics, "sensitivity_operator", scaled)
        assert main(["verify", "--threads", "2", "--seed", "2024",
                     "--restarts", "40", "--systems-per-dim", "4",
                     "--three-way-per-dim", "12", "--cross-count", "25"]) == 2
        checks = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()
                  if line[:4] in ("PASS", "WARN", "FAIL")}
        assert len(checks) == 9
        assert [name for name, line in checks.items()
                if line.startswith("FAIL")] == ["cross-formulation"]
        gap = re.search(r"records at (\S+) of their budgets", checks["cross-formulation"])
        assert float(gap.group(1)) > 1.0

    def test_injected_convention_error_caught(self, capsys, monkeypatch):
        # the Hilbert-space reference propagates with exp(+iHt) instead of
        # exp(-iHt): on a real H the fidelity cannot see the flipped sign,
        # the propagated state can
        from spinsens import verification
        forward = verification._expm
        monkeypatch.setattr(verification, "_expm", lambda m: forward(m.conj()))
        assert main(["verify", *self.SMALL]) == 2
        out = capsys.readouterr().out
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(fails) == 1 and "cross-formulation" in fails[0]
        assert "(seed 5)" in out

    def test_dropped_squaring_caught_by_three_way_and_cross_formulation(
            self, capsys, monkeypatch):
        # the oracles' exponential, and the Hilbert propagation's, squared
        # once fewer than it halved: exp(A / 2) wherever A was halved
        import inspect

        from spinsens import sensitivity
        from test_analytics import TestHotPath

        source = inspect.getsource(sensitivity._expm)
        assert source.count("range(s)") == 1
        namespace = dict(vars(sensitivity))
        exec(source.replace("range(s)", "range(s - 1)"), namespace)
        TestHotPath.patch_everywhere(monkeypatch, sensitivity._expm, namespace["_expm"])
        assert main(["verify", *self.SMALL]) == 2
        fails = [line.split()[1] for line in capsys.readouterr().out.splitlines()
                 if line.startswith("FAIL")]
        assert fails == ["three-way-agreement", "cross-formulation"]

    def test_invariant_violation_exits_2_without_a_report(self, capsys, monkeypatch):
        # a negative imaginary-residue tolerance makes the first propagator
        # an invariant violation: exit 2, one stderr line and no table
        from spinsens import sensitivity
        monkeypatch.setattr(sensitivity, "IMAG_TOL", -1.0)
        assert main(["verify", "--n", "2", "3", "--systems-per-dim", "3",
                     "--three-way-per-dim", "3", "--cross-count", "10",
                     "--restarts", "2", "--seed", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "invariant violation: propagator has imaginary residue")
