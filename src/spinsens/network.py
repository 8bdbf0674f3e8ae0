"""Single-excitation-subspace Hamiltonians for spin rings and chains.

A network of N spins with uniform coupling J, restricted to the subspace
with exactly one excited spin, is described by a real symmetric N x N
matrix: the couplings sit on the off-diagonal (nearest neighbours, plus
the (1, N) closure for a ring) and the static control biases Delta_n sit
on the diagonal. Parametric model error enters as a structured direction:
a single diagonal entry (bias uncertainty) or a symmetric off-diagonal
pair (coupling uncertainty). The kind alone sets the perturbation scale:
a bias direction scales with the local field strength, a coupling
direction has unit scale.

Spins are 1-indexed everywhere in this module's public interface.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .synthesis import Controller

TOPOLOGIES = ("ring", "chain")

BIAS = "bias"
COUPLING = "coupling"

_SPEC_KEYS = frozenset(("n", "topology", "j", "in", "out"))


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _json_field(value, key: str, kind: str, what: str):
    """``value`` of field ``key``, checked to be a JSON ``kind``: "integer" or
    "number" (an integer or a float); a bool is neither."""
    if isinstance(value, bool) or not isinstance(
            value, int if kind == "integer" else (int, float)):
        raise ValueError(f"{what} field {key!r} has the wrong type: must be a "
                         f"JSON {kind}, got {value!r}")
    return value


def _integer_fields(obj, *names: str) -> None:
    """Store the named fields of a frozen dataclass as plain ints; a bool or
    a value that is not an integer raises ValueError naming the field."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(obj, name, int(value))


@dataclass(frozen=True)
class NetworkSpec:
    """Static description of a spin network and its transfer task."""

    num_spins: int
    topology: str
    input_spin: int
    output_spin: int
    coupling: float = 1.0

    def __post_init__(self):
        _integer_fields(self, "num_spins", "input_spin", "output_spin")
        n = self.num_spins
        if n < 2:
            raise ValueError(f"need at least 2 spins, got {n}")
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"topology must be one of {TOPOLOGIES}, got {self.topology!r}")
        if self.topology == "ring" and n < 3:
            raise ValueError("a ring needs at least 3 spins; the (1, N) closure of a "
                             "2-ring would duplicate the (1, 2) edge")
        for name, spin in (("input_spin", self.input_spin), ("output_spin", self.output_spin)):
            if not 1 <= spin <= n:
                raise ValueError(f"{name} must be in 1..{n}, got {spin}")
        if self.input_spin == self.output_spin:
            raise ValueError("input and output spins must differ")
        if not 0 < self.coupling < np.inf:
            raise ValueError(f"coupling must be positive and finite, got {self.coupling}")

    @property
    def coupling_pairs(self) -> tuple[tuple[int, int], ...]:
        """Coupled spin pairs, 1-indexed: (k, k+1) ascending, ring closure (1, N) last."""
        pairs = [(k, k + 1) for k in range(1, self.num_spins)]
        if self.topology == "ring":
            pairs.append((1, self.num_spins))
        return tuple(pairs)

    def to_json(self) -> str:
        doc = {
            "n": self.num_spins,
            "topology": self.topology,
            "j": self.coupling,
            "in": self.input_spin,
            "out": self.output_spin,
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "NetworkSpec":
        """Parse a network document; unknown keys are rejected, not ignored,
        and ``n``, ``in``, ``out`` must be JSON integers, ``j`` a number."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("network document must be a JSON object")
        unknown = sorted(set(doc) - _SPEC_KEYS)
        if unknown:
            raise ValueError(f"network document has unknown keys {unknown}")
        what = "network document"
        try:
            return cls(
                num_spins=_json_field(doc["n"], "n", "integer", what),
                topology=doc["topology"],
                input_spin=_json_field(doc["in"], "in", "integer", what),
                output_spin=_json_field(doc["out"], "out", "integer", what),
                coupling=float(_json_field(doc.get("j", 1.0), "j", "number", what)),
            )
        except KeyError as exc:
            raise ValueError(f"network document is missing key {exc}") from exc
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"network document has a field of the wrong type: {exc}") from exc


@dataclass(frozen=True)
class UncertaintyStructure:
    """One direction of structured Hamiltonian uncertainty.

    ``sites`` holds the affected spin (bias kind) or spin pair (coupling
    kind), 1-indexed. The matrix is Hermitian with unit nonzero entries;
    the physical perturbation is ``delta * f * matrix`` where the scale f
    follows from ``kind`` (``scaling_factor``).
    """

    index: int
    kind: str
    sites: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        _readonly(self.matrix)


@lru_cache(maxsize=256)
def _coupling_template(spec: NetworkSpec) -> np.ndarray:
    # the off-diagonal part of every Hamiltonian of ``spec``, built once
    n, j = spec.num_spins, spec.coupling
    h = np.zeros((n, n))
    for a, b in spec.coupling_pairs:
        h[a - 1, b - 1] = j
        h[b - 1, a - 1] = j
    return _readonly(h)


def build_hamiltonian(spec: NetworkSpec, biases: np.ndarray) -> np.ndarray:
    """Assemble the controlled Hamiltonian for ``spec`` with the given bias diagonal.

    The result is a read-only copy of the network's cached coupling
    template with the biases written on its diagonal. The template's
    off-diagonal entries are assigned symmetrically, so the result is
    bitwise symmetric.
    """
    n = spec.num_spins
    biases = np.asarray(biases, dtype=float)
    if biases.shape != (n,):
        raise ValueError(f"expected {n} biases, got shape {biases.shape}")
    h = _coupling_template(spec).copy()
    h.flat[:: n + 1] = biases
    return _readonly(h)


def enumerate_structures(spec: NetworkSpec) -> list[UncertaintyStructure]:
    """All uncertainty directions for ``spec``, in canonical order.

    Indices 1..N are the bias sites; the couplings follow, (k, k+1)
    ascending and the ring closure (1, N) last.
    """
    n = spec.num_spins
    structures = []
    for site in range(1, n + 1):
        m = np.zeros((n, n))
        m[site - 1, site - 1] = 1.0
        structures.append(UncertaintyStructure(
            index=site, kind=BIAS, sites=(site,), matrix=m))
    for offset, (a, b) in enumerate(spec.coupling_pairs):
        m = np.zeros((n, n))
        m[a - 1, b - 1] = 1.0
        m[b - 1, a - 1] = 1.0
        structures.append(UncertaintyStructure(
            index=n + 1 + offset, kind=COUPLING, sites=(a, b), matrix=m))
    return structures


def scaling_factor(structure: UncertaintyStructure, controller: "Controller") -> float:
    """Perturbation scale f for one structure under one controller.

    Bias uncertainty scales with the magnitude of the local control
    field; coupling uncertainty is unit scale. A zero field gives f = 0,
    which downstream turns into an exactly vanishing sensitivity.
    """
    if structure.kind == BIAS:
        site = structure.sites[0]
        return abs(float(np.asarray(controller.biases)[site - 1]))
    return 1.0


def perturb(ham: np.ndarray, structure: UncertaintyStructure, delta: float,
            controller: "Controller") -> np.ndarray:
    """Hamiltonian displaced by ``delta`` along a scaled uncertainty direction."""
    n = ham.shape[0]
    if structure.matrix.shape != (n, n):
        raise ValueError(f"structure dimension {structure.matrix.shape} does not match "
                         f"Hamiltonian dimension {(n, n)}")
    f = scaling_factor(structure, controller)
    return _readonly(ham + delta * f * structure.matrix)
