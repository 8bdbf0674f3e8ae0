"""Property tests of the two JSON readers, ``NetworkSpec.from_json`` and
``controllers_from_json``: what the writers emit reads back field for
field and re-serializes to the same bytes, and a key outside the
declared ones, or a missing required key, is refused by name."""

import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinsens import Controller, NetworkSpec, controllers_from_json, controllers_to_json
from spinsens.network import SPEC_KINDS
from spinsens.synthesis import ROW_KINDS
from test_imports import fresh
from test_properties import EDGE_BIASES, networks

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
SPEC_REQUIRED = [key for key in SPEC_KINDS if key != "j"]
ROW_REQUIRED = [key for key in ROW_KINDS if key != "seed"]


@st.composite
def specs(draw):
    coupling = draw(st.floats(min_value=1e-6, max_value=1e6))
    return dataclasses.replace(draw(networks(8)), coupling=coupling)


@st.composite
def ensembles(draw):
    """A spec, controllers on it with distinct indices, and whether their
    rows carry a seed (without one, each reads back as seed -1)."""
    spec = draw(specs())
    n = spec.num_spins
    with_seed = draw(st.booleans())
    indices = draw(st.lists(st.integers(min_value=0, max_value=10 ** 6),
                            min_size=1, max_size=5, unique=True))
    finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
    controllers = [Controller(
        biases=np.array(draw(st.lists(finite, min_size=n, max_size=n))),
        t_f=draw(st.floats(min_value=1e-3, max_value=1e3)),
        fidelity=draw(st.floats(min_value=0.0, max_value=1.0)),
        spec=spec, index=index, status="loaded",
        seed=draw(st.integers(min_value=0, max_value=2 ** 31)) if with_seed else -1)
        for index in indices]
    return spec, controllers, with_seed


# the edge floats every test here tries whatever hypothesis draws (see
# test_properties): a spec whose coupling is the smallest subnormal, and
# controllers on it whose biases, t_f and fidelity take the edge values
EDGE_SPEC = NetworkSpec(num_spins=4, topology="chain", input_spin=1, output_spin=4,
                        coupling=5e-324)
EDGE_CONTROLLERS = [
    Controller(biases=EDGE_BIASES, t_f=1e3, fidelity=-0.0, spec=EDGE_SPEC,
               index=0, status="loaded", seed=0),
    Controller(biases=EDGE_BIASES[::-1], t_f=5e-324, fidelity=5e-324, spec=EDGE_SPEC,
               index=10 ** 6, status="loaded", seed=2 ** 31),
    Controller(biases=np.full(4, -0.0), t_f=1e-3, fidelity=1.0, spec=EDGE_SPEC,
               index=7, status="loaded", seed=1)]


# the row a test edits, taken modulo the rows of an ensemble (at most 5)
ROW_PICKS = st.integers(min_value=0, max_value=4)


def unknown_keys(kinds):
    return st.text(min_size=1, max_size=8).filter(lambda key: key not in kinds)


@PROPERTY
@given(specs())
@example(EDGE_SPEC)
@example(dataclasses.replace(EDGE_SPEC, coupling=1e3))
def test_spec_reads_back_and_reserializes(spec):
    text = spec.to_json()
    again = NetworkSpec.from_json(text)
    assert dataclasses.asdict(again) == dataclasses.asdict(spec)
    assert again.to_json() == text


@PROPERTY
@given(ensembles())
@example((EDGE_SPEC, EDGE_CONTROLLERS, True))
@example((EDGE_SPEC, [dataclasses.replace(c, seed=-1) for c in EDGE_CONTROLLERS], False))
def test_controllers_read_back_and_reserialize(case):
    spec, controllers, with_seed = case
    text = controllers_to_json(controllers)
    read = text if with_seed else text.replace('"seed": -1, ', "")
    loaded = controllers_from_json(read, spec)
    assert len(loaded) == len(controllers)
    for x, y in zip(controllers, loaded):
        assert np.array_equal(x.biases, y.biases)
        assert (x.t_f, x.fidelity, x.seed, x.index, x.spec, x.status) == (
            y.t_f, y.fidelity, y.seed, y.index, y.spec, y.status)
    assert controllers_to_json(loaded) == text


def test_negative_zero_reserializes():
    # JSON reads -0 as the integer 0, so the writer spells negative zero 0
    spec = NetworkSpec(num_spins=2, topology="chain", input_spin=1, output_spin=2)
    text = controllers_to_json([Controller(biases=np.array([0.0, -0.0]), t_f=1.0,
                                           fidelity=-0.0, spec=spec, seed=0, index=0)])
    assert '"biases": [0, 0], "fidelity": 0}' in text
    assert controllers_to_json(controllers_from_json(text, spec)) == text


@PROPERTY
@given(specs(), st.sets(unknown_keys(SPEC_KINDS), min_size=1, max_size=3))
@example(EDGE_SPEC, {"x"})
def test_spec_with_unknown_keys_refused_by_name(spec, extra):
    doc = json.loads(spec.to_json())
    doc.update(dict.fromkeys(extra, 0))
    with pytest.raises(ValueError) as info:
        NetworkSpec.from_json(json.dumps(doc))
    assert str(info.value) == f"network document has unknown keys {sorted(extra)}"


@PROPERTY
@given(ensembles(), unknown_keys(ROW_KINDS), ROW_PICKS)
@example((EDGE_SPEC, EDGE_CONTROLLERS, True), "x", 1)
def test_row_with_unknown_key_refused_by_name(case, extra, pick):
    spec, controllers, _ = case
    rows = json.loads(controllers_to_json(controllers))
    position = pick % len(rows)
    rows[position][extra] = 1
    with pytest.raises(ValueError) as info:
        controllers_from_json(json.dumps(rows), spec)
    assert str(info.value) == f"controller row {position} has unknown keys {[extra]}"


@PROPERTY
@given(specs(), st.sampled_from(SPEC_REQUIRED))
@example(EDGE_SPEC, "n")
def test_spec_missing_required_key_refused_by_name(spec, key):
    doc = json.loads(spec.to_json())
    del doc[key]
    with pytest.raises(ValueError) as info:
        NetworkSpec.from_json(json.dumps(doc))
    assert str(info.value) == f"network document is missing key {key!r}"


@PROPERTY
@given(ensembles(), st.sampled_from(ROW_REQUIRED), ROW_PICKS)
@example((EDGE_SPEC, EDGE_CONTROLLERS, True), "fidelity", 2)
def test_row_missing_required_key_refused_by_name(case, key, pick):
    spec, controllers, _ = case
    rows = json.loads(controllers_to_json(controllers))
    position = pick % len(rows)
    del rows[position][key]
    with pytest.raises(ValueError) as info:
        controllers_from_json(json.dumps(rows), spec)
    assert str(info.value) == f"controller row {position} is missing key {key!r}"


def test_first_missing_key_in_declaration_order_whatever_the_hash_seed():
    # every pair of required keys left out of each document; the message
    # names the pair's first key in declaration order, in fresh
    # interpreters whose string hashing is seeded differently
    spec = NetworkSpec(num_spins=2, topology="chain", input_spin=1, output_spin=2)
    row = json.loads(controllers_to_json([Controller(
        biases=np.zeros(2), t_f=1.0, fidelity=0.5, spec=spec, seed=0, index=0)]))[0]
    cases = []
    for reader, doc, required in (("spec", json.loads(spec.to_json()), SPEC_REQUIRED),
                                  ("row", row, ROW_REQUIRED)):
        for pair in itertools.combinations(required, 2):
            cases.append((reader, {k: v for k, v in doc.items() if k not in pair}))
    body = ("import json\n"
            "from spinsens import NetworkSpec, controllers_from_json\n"
            f"spec = NetworkSpec.from_json({spec.to_json()!r})\n"
            f"for reader, doc in {cases!r}:\n"
            "    try:\n"
            "        if reader == 'spec':\n"
            "            NetworkSpec.from_json(json.dumps(doc))\n"
            "        else:\n"
            "            controllers_from_json(json.dumps([doc]), spec)\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n")
    outputs = [fresh(body, hash_seed=seed) for seed in (0, 1)]
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines() == [
        f"network document is missing key {pair[0]!r}" for pair in
        itertools.combinations(SPEC_REQUIRED, 2)] + [
        f"controller row 0 is missing key {pair[0]!r}" for pair in
        itertools.combinations(ROW_REQUIRED, 2)]
