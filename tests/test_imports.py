"""Import cost and the lazy package namespace.

``import spinsens.cli`` and ``spinsens analyze`` must load no scipy
module: only the optimizer in ``synthesis`` needs it. Synth, and the
necessity check of verify, load scipy's compiled L-BFGS-B step alone, not
the ``scipy.optimize`` package; verify's oracles take their exponentials
from numpy alone, so no command loads ``scipy.linalg``.
Every command runs serially, so nothing loads a thread or process pool.
Each probe runs in a fresh interpreter, so nothing imported by the test
session (scipy included) leaks into what it measures.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinsens
from spinsens import NetworkSpec, SynthesisConfig, controllers_to_json, synthesize_ensemble
from spinsens.synthesis import _lbfgsb_step

SRC = str(Path(spinsens.__file__).resolve().parents[1])

_SCIPY_LOADED = ("sorted(m for m in sys.modules "
                 "if m == 'scipy' or m.startswith('scipy.'))")
_CONCURRENT_LOADED = ("sorted(m for m in sys.modules "
                      "if m == 'concurrent' or m.startswith('concurrent.'))")
# the scipy packages that no command loads
_HEAVY = ("scipy.linalg", "scipy.optimize", "scipy.sparse")
_HEAVY_LOADED = f"[m for m in {_HEAVY!r} if m in sys.modules]"
# SHA-256 of controllers_to_json of the 40-restart 4-ring 1 -> 2 ensemble at
# seed 0, the pin of tests/test_synthesis.py and of CI
RING4_SHA256 = "2e15120998c6d849d4c80779d71b7410b6f6a4bb935239a3aee7fb123f823a52"
_RING4_DIGEST = ("import hashlib\n"
                 "from spinsens import NetworkSpec, SynthesisConfig, "
                 "controllers_to_json, synthesize_ensemble\n"
                 "spec = NetworkSpec(num_spins=4, topology='ring', input_spin=1, "
                 "output_spin=2)\n"
                 "ensemble = synthesize_ensemble(spec, SynthesisConfig(restarts=40, seed=0))\n"
                 "print(hashlib.sha256(controllers_to_json(ensemble).encode()).hexdigest())\n")


def fresh(body: str, hash_seed: int | None = None) -> str:
    """stdout of ``body`` run in a new interpreter that imports from SRC,
    with PYTHONHASHSEED set to ``hash_seed`` when one is given."""
    code = f"import sys\nsys.path.insert(0, {SRC!r})\n{body}"
    env = None if hash_seed is None else dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestImportCost:
    def test_cli_import_loads_no_scipy(self):
        out = fresh(f"import spinsens.cli\nprint({_SCIPY_LOADED})")
        assert out.strip() == "[]"

    def test_analyze_loads_no_scipy(self, tmp_path):
        spec = NetworkSpec(num_spins=2, topology="chain", input_spin=1, output_spin=2)
        ensemble = synthesize_ensemble(spec, SynthesisConfig(restarts=3, seed=5))
        controllers = tmp_path / "c.json"
        controllers.write_text(controllers_to_json(ensemble))
        (tmp_path / "c.spec.json").write_text(spec.to_json())
        argv = ["analyze", str(controllers), "--records", str(tmp_path / "r.csv"),
                "--summaries", str(tmp_path / "s.csv")]
        out = fresh("import spinsens.cli\n"
                    f"code = spinsens.cli.main({argv!r})\n"
                    f"print(code, {_SCIPY_LOADED})")
        assert out.strip().splitlines()[-1] == "0 []"
        assert len((tmp_path / "r.csv").read_text().splitlines()) == 1 + 3 * len(ensemble)

    def test_no_worker_pool_module_loads(self):
        # synthesis loads no scipy.optimize, whose __init__ imports the
        # concurrent.futures package, so no concurrent module loads at all
        out = fresh("import spinsens.cli\n"
                    f"print({_CONCURRENT_LOADED})\n"
                    "from spinsens import NetworkSpec, SynthesisConfig, synthesize_ensemble\n"
                    "spec = NetworkSpec(num_spins=2, topology='chain', input_spin=1, "
                    "output_spin=2)\n"
                    "print(len(synthesize_ensemble(spec, SynthesisConfig(restarts=3, seed=5))))\n"
                    f"print({_CONCURRENT_LOADED})")
        after_import, kept, after_synth = out.strip().splitlines()
        assert after_import == "[]"
        assert int(kept) >= 1
        assert after_synth == "[]"

    def test_synth_loads_no_scipy_package_beyond_the_kernel(self, tmp_path):
        # importing setulb through scipy.optimize loaded 321 scipy modules,
        # these three packages among them
        argv = ["synth", "--n", "4", "--topology", "ring", "--in", "1", "--out", "2",
                "--restarts", "4", "-o", str(tmp_path / "c.json")]
        out = fresh("import spinsens.cli\n"
                    f"code = spinsens.cli.main({argv!r})\n"
                    f"print(code, {_HEAVY_LOADED})")
        assert out.strip().splitlines()[-1] == "0 []"

    def test_verify_loads_no_linalg_optimize_or_sparse(self):
        argv = ["verify", "--n", "2", "3", "--systems-per-dim", "2",
                "--three-way-per-dim", "2", "--cross-count", "4", "--restarts", "40"]
        out = fresh("import spinsens.cli\n"
                    f"code = spinsens.cli.main({argv!r})\n"
                    f"print(code, {_HEAVY_LOADED})")
        assert out.strip().splitlines()[-1] == "0 []"

    def test_ensemble_bytes_whether_or_not_scipy_optimize_loaded_first(self):
        # scipy.optimize loaded first brings its own copy of the extension;
        # the kernel synthesis loads is the same routine and takes the same steps
        alone = fresh(_RING4_DIGEST + f"print({_HEAVY_LOADED})")
        after = fresh("import scipy.optimize\n" + _RING4_DIGEST + f"print({_HEAVY_LOADED})")
        assert alone.split() == [RING4_SHA256, "[]"]
        assert after.splitlines()[0] == RING4_SHA256
        assert "'scipy.optimize'" in after.splitlines()[1]

    def test_missing_kernel_names_directory_and_scipy_floor(self, tmp_path, monkeypatch):
        # a scipy tree without optimize/_lbfgsb; the cached loader is bypassed
        import scipy

        monkeypatch.setattr(scipy, "__file__", str(tmp_path / "scipy" / "__init__.py"))
        where = os.path.join(str(tmp_path / "scipy"), "optimize")
        with pytest.raises(ImportError) as info:
            _lbfgsb_step.__wrapped__()
        assert str(info.value) == (f"no L-BFGS-B extension _lbfgsb in {where}; "
                                   "synthesis needs scipy>=1.15")


class TestLazyNamespace:
    @pytest.mark.parametrize("name", sorted(set(spinsens.__all__) - {"__version__"}))
    def test_public_name_is_its_home_attribute(self, name):
        home = importlib.import_module(f"spinsens.{spinsens._HOME_OF[name]}")
        assert getattr(spinsens, name) is getattr(home, name)

    def test_dir_covers_all_and_every_submodule(self):
        files = {p.stem for p in Path(spinsens.__file__).parent.glob("*.py")}
        assert spinsens._SUBMODULES == files - {"__init__"}
        assert set(spinsens.__all__) | spinsens._SUBMODULES <= set(dir(spinsens))

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            spinsens.no_such_name  # noqa: B018

    @pytest.mark.parametrize("name", sorted(spinsens._SUBMODULES))
    def test_submodule_resolves_alone(self, name):
        # nothing has imported the submodule yet, so only __getattr__ can
        # find it
        out = fresh("import spinsens\n"
                    f"print('spinsens.{name}' in sys.modules)\n"
                    f"print(spinsens.{name}.__name__)")
        assert out.split() == ["False", f"spinsens.{name}"]

    def test_patch_and_restore_show_through(self, monkeypatch):
        original = spinsens.sensitivity.sensitivity_operator

        def replacement(*args, **kwargs):
            return original(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(spinsens.sensitivity, "sensitivity_operator", replacement)
            assert spinsens.sensitivity_operator is replacement
        assert spinsens.sensitivity_operator is original
        assert "sensitivity_operator" not in vars(spinsens)
