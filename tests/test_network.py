"""Hamiltonian construction, uncertainty structures, scaling, perturbation."""

import json
import math

import numpy as np
import pytest

from spinsens import (Controller, NetworkSpec, build_hamiltonian,
                      enumerate_structures, perturb, scaling_factor,
                      transfer_fidelity)
from spinsens.network import BIAS, COUPLING, _coupling_template


def make_controller(spec, biases, t_f=1.0):
    biases = np.asarray(biases, dtype=float)
    f = transfer_fidelity(spec, biases, t_f)
    return Controller(biases=biases, t_f=t_f, fidelity=min(1.0, max(0.0, f)),
                      spec=spec, seed=0, index=0)


class TestNetworkSpec:
    def test_valid_ring(self):
        spec = NetworkSpec(num_spins=5, topology="ring", input_spin=1, output_spin=3)
        assert spec.coupling == 1.0
        assert spec.coupling_pairs == ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5))

    def test_chain_pairs(self):
        spec = NetworkSpec(num_spins=4, topology="chain", input_spin=1, output_spin=4)
        assert spec.coupling_pairs == ((1, 2), (2, 3), (3, 4))

    def test_same_input_output_rejected(self):
        with pytest.raises(ValueError):
            NetworkSpec(num_spins=4, topology="chain", input_spin=2, output_spin=2)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            NetworkSpec(num_spins=1, topology="chain", input_spin=1, output_spin=1)

    def test_two_spin_ring_rejected(self):
        # closure would duplicate the only edge
        with pytest.raises(ValueError):
            NetworkSpec(num_spins=2, topology="ring", input_spin=1, output_spin=2)

    def test_nonpositive_coupling_rejected(self):
        with pytest.raises(ValueError):
            NetworkSpec(num_spins=3, topology="chain", input_spin=1,
                        output_spin=3, coupling=0.0)
        for j in (math.inf, math.nan):
            with pytest.raises(ValueError, match="coupling"):
                NetworkSpec(num_spins=3, topology="chain", input_spin=1,
                            output_spin=3, coupling=j)
        with pytest.raises(ValueError, match="coupling"):
            NetworkSpec.from_json(
                '{"n": 3, "topology": "chain", "j": Infinity, "in": 1, "out": 3}')

    def test_nonzero_kappa_rejected(self):
        # a ZZ term is not modelled; a document naming one is refused
        doc = '{"n": 3, "topology": "chain", "j": 1.0, "in": 1, "out": 3, "kappa": 0.1}'
        with pytest.raises(ValueError, match="kappa"):
            NetworkSpec.from_json(doc)

    def test_malformed_document_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            NetworkSpec.from_json("5")
        with pytest.raises(ValueError, match="wrong type"):
            NetworkSpec.from_json(
                '{"n": [4], "topology": "ring", "j": 1.0, "in": 1, "out": 2}')

    @pytest.mark.parametrize("key, value", [
        ("n", 4.7), ("n", 4.0), ("n", "4"), ("n", True), ("n", None),
        ("in", 1.9), ("in", "1"), ("in", True),
        ("out", "2"), ("out", 2.0), ("out", False),
        ("j", "1.0"), ("j", True), ("j", None)])
    def test_field_of_wrong_json_type_rejected_by_name(self, key, value):
        # an integral j is a JSON number too
        doc = {"n": 4, "topology": "ring", "j": 1, "in": 1, "out": 2}
        assert NetworkSpec.from_json(json.dumps(doc)).coupling == 1.0
        doc[key] = value
        with pytest.raises(ValueError, match=f"'{key}' has the wrong type"):
            NetworkSpec.from_json(json.dumps(doc))

    @pytest.mark.parametrize("field, value", [
        ("num_spins", 4.0), ("num_spins", True), ("input_spin", True),
        ("input_spin", 1.5), ("output_spin", 2.0), ("output_spin", "2")])
    def test_integer_field_of_wrong_type_rejected_by_name(self, field, value):
        fields = {"num_spins": 4, "topology": "ring", "input_spin": 1, "output_spin": 2}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            NetworkSpec(**{**fields, field: value})

    def test_numpy_integers_stored_as_ints(self):
        spec = NetworkSpec(num_spins=np.int64(4), topology="ring",
                           input_spin=np.int32(1), output_spin=np.int64(3))
        assert json.loads(spec.to_json()) == {"n": 4, "topology": "ring", "j": 1.0,
                                              "in": 1, "out": 3}
        assert type(spec.num_spins) is int

    def test_bad_topology_rejected(self):
        with pytest.raises(ValueError):
            NetworkSpec(num_spins=3, topology="star", input_spin=1, output_spin=2)

    def test_spin_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            NetworkSpec(num_spins=3, topology="chain", input_spin=0, output_spin=2)
        with pytest.raises(ValueError):
            NetworkSpec(num_spins=3, topology="chain", input_spin=1, output_spin=4)

    def test_json_round_trip(self):
        spec = NetworkSpec(num_spins=6, topology="ring", input_spin=2,
                           output_spin=5, coupling=1.5)
        again = NetworkSpec.from_json(spec.to_json())
        assert again == spec

    def test_json_field_names(self):
        spec = NetworkSpec(num_spins=3, topology="chain", input_spin=1, output_spin=3)
        doc = json.loads(spec.to_json())
        assert set(doc) >= {"n", "topology", "j", "in", "out"}
        assert doc["n"] == 3 and doc["in"] == 1 and doc["out"] == 3


class TestBuildHamiltonian:
    def test_three_ring_pattern(self):
        spec = NetworkSpec(num_spins=3, topology="ring", input_spin=1, output_spin=2)
        ham = build_hamiltonian(spec, np.zeros(3))
        want = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
        assert np.array_equal(ham, want)

    def test_four_chain_tridiagonal(self):
        spec = NetworkSpec(num_spins=4, topology="chain", input_spin=1, output_spin=4)
        ham = build_hamiltonian(spec, np.zeros(4))
        assert ham[0, 3] == 0.0 and ham[3, 0] == 0.0
        assert np.array_equal(np.diag(ham, 1), np.ones(3))

    def test_four_ring_spectrum(self):
        # circulant eigenvalues 2 cos(2 pi k / 4): {2, 0, 0, -2}
        spec = NetworkSpec(num_spins=4, topology="ring", input_spin=1, output_spin=2)
        ham = build_hamiltonian(spec, np.zeros(4))
        vals = np.sort(np.linalg.eigvalsh(ham))
        assert np.allclose(vals, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)

    def test_diagonal_is_biases(self):
        spec = NetworkSpec(num_spins=5, topology="chain", input_spin=1, output_spin=5)
        biases = np.array([0.3, -1.2, 4.0, 0.0, 2.5])
        ham = build_hamiltonian(spec, biases)
        assert np.array_equal(np.diag(ham), biases)

    def test_bitwise_symmetric(self, rng):
        spec = NetworkSpec(num_spins=6, topology="ring", input_spin=1, output_spin=4)
        ham = build_hamiltonian(spec, rng.uniform(-5, 5, 6))
        assert np.array_equal(ham, ham.T)

    def test_dimension_mismatch(self):
        spec = NetworkSpec(num_spins=4, topology="chain", input_spin=1, output_spin=4)
        with pytest.raises(ValueError):
            build_hamiltonian(spec, np.zeros(3))

    def test_matrix_read_only(self):
        spec = NetworkSpec(num_spins=3, topology="chain", input_spin=1, output_spin=3)
        ham = build_hamiltonian(spec, np.zeros(3))
        with pytest.raises(ValueError):
            ham[0, 0] = 1.0

    @staticmethod
    def _loop_construction(spec, biases):
        # the construction the cached coupling template replaced
        n = spec.num_spins
        h = np.zeros((n, n))
        for a, b in spec.coupling_pairs:
            h[a - 1, b - 1] = spec.coupling
            h[b - 1, a - 1] = spec.coupling
        h[np.diag_indices(n)] = biases
        return h

    @pytest.mark.parametrize("coupling", [0.5, 1.0, 3.7])
    @pytest.mark.parametrize("topology", ["chain", "ring"])
    def test_bitwise_equal_to_loop_construction(self, rng, topology, coupling):
        for n in range(2 if topology == "chain" else 3, 9):
            spec = NetworkSpec(num_spins=n, topology=topology, input_spin=1,
                               output_spin=n, coupling=coupling)
            biases = rng.uniform(-5, 5, n)
            biases[0] = -0.0
            got = build_hamiltonian(spec, biases)
            want = self._loop_construction(spec, biases)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_template_stays_read_only(self):
        spec = NetworkSpec(num_spins=4, topology="ring", input_spin=1, output_spin=3)
        build_hamiltonian(spec, np.arange(4.0))
        template = _coupling_template(spec)
        assert not template.flags.writeable
        with pytest.raises(ValueError):
            template[0, 0] = 1.0
        assert np.array_equal(np.diag(template), np.zeros(4))

    def test_calls_return_unaliased_matrices(self):
        spec = NetworkSpec(num_spins=5, topology="chain", input_spin=1, output_spin=5)
        first = build_hamiltonian(spec, np.ones(5))
        second = build_hamiltonian(spec, np.full(5, 2.0))
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, _coupling_template(spec))
        assert np.array_equal(np.diag(first), np.ones(5))
        assert np.array_equal(np.diag(second), np.full(5, 2.0))


class TestEnumerateStructures:
    def test_four_ring_count_and_closure_last(self):
        spec = NetworkSpec(num_spins=4, topology="ring", input_spin=1, output_spin=2)
        structures = enumerate_structures(spec)
        assert len(structures) == 8
        assert structures[-1].index == 8
        assert structures[-1].sites == (1, 4)
        assert structures[-1].kind == COUPLING

    def test_four_ring_structure_six(self):
        spec = NetworkSpec(num_spins=4, topology="ring", input_spin=1, output_spin=2)
        s6 = enumerate_structures(spec)[5]
        assert s6.index == 6
        want = np.zeros((4, 4))
        want[1, 2] = want[2, 1] = 1.0
        assert np.array_equal(s6.matrix, want)

    def test_bias_structures_first(self):
        spec = NetworkSpec(num_spins=3, topology="chain", input_spin=1, output_spin=3)
        structures = enumerate_structures(spec)
        assert len(structures) == 5
        for n, s in enumerate(structures[:3], start=1):
            assert s.kind == BIAS and s.index == n and s.sites == (n,)
            want = np.zeros((3, 3))
            want[n - 1, n - 1] = 1.0
            assert np.array_equal(s.matrix, want)
        for s in structures[3:]:
            assert s.kind == COUPLING

    def test_all_traceless(self):
        for topo, n in (("ring", 5), ("chain", 4)):
            spec = NetworkSpec(num_spins=n, topology=topo, input_spin=1, output_spin=2)
            for s in enumerate_structures(spec):
                if s.kind == COUPLING:
                    assert np.trace(s.matrix) == 0.0
                assert np.array_equal(s.matrix, s.matrix.T)
                assert set(np.unique(s.matrix)) <= {0.0, 1.0}


class TestScalingFactor:
    def test_coupling_is_unity(self):
        spec = NetworkSpec(num_spins=4, topology="ring", input_spin=1, output_spin=2)
        ctl = make_controller(spec, [1.0, 2.0, 3.0, 4.0])
        for s in enumerate_structures(spec):
            if s.kind == COUPLING:
                assert scaling_factor(s, ctl) == 1.0

    def test_bias_is_field_magnitude(self):
        spec = NetworkSpec(num_spins=5, topology="chain", input_spin=1, output_spin=5)
        biases = [0.0, -2.5, 1.0, 0.0, 330.0]
        ctl = make_controller(spec, biases)
        structures = enumerate_structures(spec)
        assert scaling_factor(structures[4], ctl) == 330.0
        assert scaling_factor(structures[1], ctl) == 2.5
        assert scaling_factor(structures[0], ctl) == 0.0


class TestPerturb:
    def test_zero_delta_identity(self):
        spec = NetworkSpec(num_spins=4, topology="ring", input_spin=1, output_spin=2)
        ctl = make_controller(spec, [1.0, 2.0, 3.0, 4.0])
        ham = build_hamiltonian(spec, ctl.biases)
        for s in enumerate_structures(spec):
            assert np.array_equal(perturb(ham, s, 0.0, ctl), ham)

    def test_bias_perturbation_scales_with_field(self):
        spec = NetworkSpec(num_spins=4, topology="chain", input_spin=1, output_spin=4)
        ctl = make_controller(spec, [0.0, 330.0, 0.0, 0.0])
        ham = build_hamiltonian(spec, ctl.biases)
        s2 = enumerate_structures(spec)[1]
        tilted = perturb(ham, s2, 0.01, ctl)
        assert tilted[1, 1] == pytest.approx(330.0 + 3.3, abs=1e-12)
        off = tilted - ham
        off[1, 1] = 0.0
        assert np.all(off == 0.0)

    def test_coupling_perturbation_additive(self):
        spec = NetworkSpec(num_spins=3, topology="chain", input_spin=1, output_spin=3)
        ctl = make_controller(spec, [5.0, 5.0, 5.0])
        ham = build_hamiltonian(spec, ctl.biases)
        s = enumerate_structures(spec)[3]  # coupling (1,2)
        tilted = perturb(ham, s, 0.01, ctl)
        assert tilted[0, 1] == pytest.approx(1.01, abs=1e-15)
        assert tilted[1, 0] == pytest.approx(1.01, abs=1e-15)

    def test_frobenius_norm_of_step(self, rng):
        spec = NetworkSpec(num_spins=5, topology="ring", input_spin=2, output_spin=4)
        ctl = make_controller(spec, rng.uniform(-3, 3, 5))
        ham = build_hamiltonian(spec, ctl.biases)
        for s in enumerate_structures(spec):
            delta = 0.37
            f_n = scaling_factor(s, ctl)
            step = perturb(ham, s, delta, ctl) - ham
            assert np.linalg.norm(step) == pytest.approx(
                abs(delta) * f_n * np.linalg.norm(s.matrix), abs=1e-12)
