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
                      synthesize_ensemble, transfer_fidelity)
from spinsens.cli import (RECORD_COLUMNS, SUMMARY_COLUMNS, build_parser,
                          config_hash, file_sha256, main, write_records_csv,
                          write_summaries_csv)
from spinsens.synthesis import f17
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


class TestAnalyzeInputs:
    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["analyze", str(tmp_path / "absent.json")]) == 3

    def test_unparseable_json_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[{")
        (tmp_path / "bad.spec.json").write_text(
            '{"n": 2, "topology": "chain", "j": 1.0, "in": 1, "out": 2}')
        assert main(["analyze", str(bad)]) == 3
        assert "corrupt" in capsys.readouterr().err

    def test_synth_spec_not_json_is_io_error(self, tmp_path, capsys):
        # the network sidecar, which synth writes next to its controllers
        rows = tmp_path / "rows.json"
        rows.write_text('[{"index": 0, "tf": 1.0, "biases": [0, 0], "fidelity": 0.5}]')
        (tmp_path / "rows.spec.json").write_text("n = 4")
        assert main(["analyze", str(rows), "--records", str(tmp_path / "r.csv"),
                     "--summaries", str(tmp_path / "s.csv")]) == 3
        assert "corrupt" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.json", "rows.spec.json"]

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
        assert manifest["outputs"][str(out)] == file_sha256(out)
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
        assert manifest["inputs"][str(out)] == file_sha256(out)
        assert manifest["outputs"][str(records)] == file_sha256(records)
        assert manifest["outputs"][str(summaries)] == file_sha256(summaries)

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

    @pytest.mark.parametrize("doc", ["[{", "[]", '{"outputs": 5}'])
    def test_corrupt_manifest_is_io_error(self, tmp_path, capsys, doc):
        out = run_synth(tmp_path, "bad", threads=1)
        out.with_name("controllers.manifest.json").write_text(doc)
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
        ("chain12", ("edbc6512ab23664d0ffaa247ef092f579d5e8d09f03087d41812900ef50899cd",
                     "8abfee00eefb5a72b77270fd3b4ada08c3fd5eceb656f2dbabde39551693f425")),
        ("ring4", ("a9b074f27e670882263dedc1b87c684b477acd8ad49cb2bf6d96640786fad0d8",
                   "f63881d04dd37aae063dd8d67401358867b0fc9cd161991e93cdca1389fb4d0e"))])
    def test_analyze_tables_bytes_unchanged(self, tmp_path, ensemble, digests):
        # SHA-256 of records.csv and summaries.csv as commit "One read-out
        # of the adjoint frame" wrote them; faster rewrites of the records,
        # the statistics or the table writer must keep every byte
        records, summaries = analyze(ANALYZE_PINS[ensemble]())
        write_records_csv(tmp_path / "r.csv", records)
        write_summaries_csv(tmp_path / "s.csv", summaries)
        assert (file_sha256(tmp_path / "r.csv"), file_sha256(tmp_path / "s.csv")) == digests

    @pytest.mark.parametrize("seed, digest", [
        (2024, "0bddc78a43b908853fc8bd6f6c840b48d0d45566c8ec718bfdf054166f0df235"),
        (5, "5dbb2f3684d2b6a088b6fb89627582f429bc3bb414956fb2663d318e1db0ba6b"),
        (77, "cdcea0f5c4b6187d40ec98e1d25a4d2ab83dc12a35bbea341067190750c7a46a")])
    def test_verify_stdout_unchanged(self, capsys, seed, digest):
        # SHA-256 of verify's report at the benchmark's sizes, as commit
        # "One way in for each setting" printed it; moving a record rule
        # or an oracle between modules must keep every byte
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

    def test_no_three_way_dimension_fails_three_way(self, capsys):
        # three-way runs on the requested dimensions <= 5 only; with none
        # it has no instance and fails rather than passing vacuously
        assert main(["verify", "--n", "6", "--systems-per-dim", "1",
                     "--three-way-per-dim", "1", "--cross-count", "1",
                     "--restarts", "2", "--seed", "5"]) == 2
        lines = capsys.readouterr().out.splitlines()
        checks = [line for line in lines if line[:4] in ("PASS", "WARN", "FAIL")]
        assert len(checks) == 9
        three_way, = [line for line in checks if "three-way-agreement" in line]
        assert three_way.startswith("FAIL") and three_way.endswith("0 instances")
        assert "verify: 9 checks" in lines[-1]

    def test_frame_defect_reported_as_failures(self, capsys, monkeypatch):
        # a reference propagator off by a factor 1.0001 breaks the frame
        # identities of the reference records; verify still prints every
        # check and reports the defect on the theorem-1 and remark-1 lines
        from spinsens import verification
        exact = verification.propagator_matrix
        monkeypatch.setattr(verification, "propagator_matrix",
                            lambda *args: 1.0001 * exact(*args))
        assert main(["verify", *self.SMALL]) == 2
        lines = capsys.readouterr().out.splitlines()
        checks = [line for line in lines if line[:4] in ("PASS", "WARN", "FAIL")]
        assert len(checks) == 9
        failed = {line.split()[1] for line in checks if line.startswith("FAIL")}
        assert {"theorem1-identity", "remark1-frame-norm"} <= failed

    def test_injected_convention_error_caught(self, capsys, monkeypatch):
        # the Hilbert-space reference propagates with exp(+iHt) instead of
        # exp(-iHt): on a real H the fidelity cannot see the flipped sign,
        # the propagated state can
        from spinsens import verification
        forward = verification.expm
        monkeypatch.setattr(verification, "expm", lambda m: forward(m.conj()))
        assert main(["verify", *self.SMALL]) == 2
        out = capsys.readouterr().out
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(fails) == 1 and "cross-formulation" in fails[0]
        assert "(seed 5)" in out
