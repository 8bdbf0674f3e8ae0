"""Static-bias controller synthesis by multistart fidelity maximization.

A controller is a vector of on-site biases plus a read-out time. Each
restart draws a random initial point and runs one bounded quasi-Newton
ascent (L-BFGS-B; Byrd, Lu, Nocedal & Zhu 1995) over the biases and the
read-out time together, inside the configured boxes. Fidelity and its
gradient come from the eigensystem of the N x N Hamiltonian (Najfeld &
Havel 1995): the gradient along bias n is the unit-scaled sensitivity of
that bias direction, computed from the same eigensystem and divided
differences as the records ``analyze`` writes, and the read-out time
entry is the derivative of the same phase sum. The adjoint-picture
reference route in ``verification`` serves as its test oracle.

Determinism is load-bearing: restarts get independent child seeds from a
master seed, every accept step requires strict improvement, and results
are ordered by a total sort key, so a fixed seed reproduces the ensemble
bitwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .network import NetworkSpec, _json_field, _number, _number_fields, _readonly
from .sensitivity import _eigensystem, hadamard_core

# How far a stored fidelity may stray from [0, 1], and from the fidelity
# its working point actually gives when an ensemble is read back.
FIDELITY_TOL = 1e-9

# Iteration cap of one restart's L-BFGS-B ascent.
MAXITER = 400

# Projected-gradient size at which a restart counts as converged.
TOLERANCE = 1e-8


@dataclass(frozen=True)
class Controller:
    """One synthesized working point: biases, read-out time, achieved fidelity."""

    biases: np.ndarray
    t_f: float
    fidelity: float
    spec: NetworkSpec
    seed: int
    index: int
    status: str = "converged"

    def __post_init__(self):
        _number_fields(self, "integer", "seed", "index")
        _number_fields(self, "number", "t_f", "fidelity")
        biases = np.asarray(self.biases, dtype=float).copy()
        object.__setattr__(self, "biases", _readonly(biases))
        if biases.shape != (self.spec.num_spins,):
            raise ValueError(
                f"expected {self.spec.num_spins} biases, got shape {biases.shape}")
        if not np.isfinite(biases).all():
            raise ValueError(f"biases must be finite, got {biases.tolist()}")
        if not 0 < self.t_f < np.inf:
            raise ValueError(f"read-out time must be positive and finite, got {self.t_f}")
        if not -FIDELITY_TOL <= self.fidelity <= 1.0 + FIDELITY_TOL:
            raise ValueError(f"fidelity {self.fidelity} outside [0, 1]")

    @property
    def error(self) -> float:
        return 1.0 - self.fidelity


@dataclass(frozen=True)
class SynthesisConfig:
    restarts: int = 100
    t_f_range: tuple[float, float] = (1.0, 50.0)
    bias_range: tuple[float, float] = (0.0, 10.0)
    seed: int = 0

    def __post_init__(self):
        _number_fields(self, "integer", "restarts", "seed")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("t_f_range", "bias_range"):
            lo, hi = (_number(end, "number", f"{name} end") for end in getattr(self, name))
            object.__setattr__(self, name, (lo, hi))
            if not np.isfinite(hi - lo):
                raise ValueError(f"{name} needs finite ends and a finite width, "
                                 f"got ({lo}, {hi})")
        if not self.t_f_range[0] < self.t_f_range[1]:
            raise ValueError(f"empty read-out range {self.t_f_range}")
        if not self.t_f_range[0] > 0:
            raise ValueError("read-out range must be positive")
        if not self.bias_range[0] < self.bias_range[1]:
            raise ValueError(f"empty bias range {self.bias_range}")


def transfer_fidelity(spec: NetworkSpec, biases: np.ndarray, t_f: float) -> float:
    """Fidelity |U_oi|^2 of the transfer for one working point."""
    e, _, w = _eigensystem(spec, biases)
    return abs(complex(w @ np.exp(-1j * e * t_f))) ** 2


def fidelity_objective(spec: NetworkSpec, biases: np.ndarray,
                       t_f: float) -> tuple[float, np.ndarray]:
    """Fidelity and its analytic gradient with respect to (biases, t_f).

    Component n < N of the gradient is 2 Re(conj(U_oi) dU_oi/dDelta_n) with
    dU_oi/dDelta_n = -i t_f sum_jk (V_oj V_nj) X_jk (V_nk V_ik), where X
    holds the divided differences of exp(-i E t_f) from the same
    ``hadamard_core`` the analysis uses. It equals the unit-scaled
    bias-direction sensitivity t_f * rf . K_n r0, which the property tests
    check against the adjoint-picture reference records. The last
    component is dF/dt_f = 2 Re(conj(U_oi) dU_oi/dt_f) with
    dU_oi/dt_f = -i sum_j w_j E_j exp(-i E_j t_f), from the same phases.
    """
    e, v, w = _eigensystem(spec, biases)
    phases = np.exp(-1j * e * t_f)
    amp = complex(w @ phases)
    x = hadamard_core(-e, t_f)
    left = v[spec.output_spin - 1] * v
    right = v * v[spec.input_spin - 1]
    d_amp = np.append(-1j * t_f * ((left @ x) * right).sum(axis=1),
                      -1j * ((w * e) @ phases))
    return abs(amp) ** 2, 2.0 * (amp.conjugate() * d_amp).real


def local_optimize(spec: NetworkSpec, initial_biases: np.ndarray,
                   initial_t_f: float, config: SynthesisConfig,
                   seed: int = 0, index: int = 0) -> Controller:
    """One bounded L-BFGS-B ascent over (biases, t_f) from one start.

    The result is accepted only when it strictly improves the start, so a
    point that is already stationary (a perfect-transfer controller in
    particular) comes back unchanged. The status is "converged" when the
    projected gradient over (biases, t_f) at the returned point is at most
    ``TOLERANCE`` or its error 1 - F is at most ``FIDELITY_TOL``, and
    "maxiter" otherwise. Since F <= 1 everywhere, a point of error within
    ``FIDELITY_TOL`` is a global maximum, even where rounding keeps its
    gradient above the tolerance.
    """
    # imported here so that analysis, which reads Controller, loads no scipy
    from scipy.optimize import minimize

    lo_b, hi_b = config.bias_range
    lo_t, hi_t = config.t_f_range
    x = np.append(np.asarray(initial_biases, dtype=float), float(initial_t_f))
    if not (np.all(x[:-1] >= lo_b) and np.all(x[:-1] <= hi_b)):
        raise ValueError("initial biases outside the configured bounds")
    if not lo_t <= x[-1] <= hi_t:
        raise ValueError("initial read-out time outside the configured bounds")

    # every (F, grad F) of the ascent, keyed by the point's bytes: the first
    # is the start, and the point returned was evaluated on the way. After
    # a line search stops abnormally, res.fun and res.jac belong to the
    # last point tried, not to res.x, so only the acceptance reads res.fun
    evaluated: dict[bytes, tuple[float, np.ndarray]] = {}
    bounds = [(lo_b, hi_b)] * spec.num_spins + [(lo_t, hi_t)]
    res = minimize(_negated, x, args=(spec, evaluated), jac=True,
                   method="L-BFGS-B", bounds=bounds,
                   options={"maxiter": MAXITER, "ftol": 1e-15,
                            "gtol": TOLERANCE / 10.0})
    start = next(iter(evaluated.values()))
    if -res.fun > start[0]:
        x = np.asarray(res.x, dtype=float)
        f_final, grad = evaluated[x.tobytes()]
    else:
        f_final, grad = start
    lo, hi = np.array(bounds).T
    converged = (_projected_norm(grad, x, lo, hi) <= TOLERANCE
                 or 1.0 - f_final <= FIDELITY_TOL)
    return Controller(biases=x[:-1], t_f=float(x[-1]), fidelity=min(1.0, f_final),
                      spec=spec, seed=seed, index=index,
                      status="converged" if converged else "maxiter")


def _negated(x: np.ndarray, spec: NetworkSpec,
             evaluated: dict[bytes, tuple[float, np.ndarray]]):
    f, g = fidelity_objective(spec, x[:-1], x[-1])
    evaluated[x.tobytes()] = (f, g)
    return -f, -g


def _projected_norm(grad: np.ndarray, x: np.ndarray, lo: np.ndarray,
                    hi: np.ndarray) -> float:
    g = grad.copy()
    g[(x <= lo) & (g < 0)] = 0.0
    g[(x >= hi) & (g > 0)] = 0.0
    return float(np.abs(g).max())


def synthesize_ensemble(spec: NetworkSpec, config: SynthesisConfig) -> list[Controller]:
    """Multistart synthesis: seeded restarts, dedupe, sort by fidelity.

    Ordering and content of the result depend only on the master seed.
    """
    children = np.random.SeedSequence(config.seed).spawn(config.restarts)
    lo_b, hi_b = config.bias_range
    lo_t, hi_t = config.t_f_range

    raw = []
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        d0 = rng.uniform(lo_b, hi_b, spec.num_spins)
        t0 = rng.uniform(lo_t, hi_t)
        raw.append(local_optimize(spec, d0, t0, config, seed=i, index=i))

    raw.sort(key=lambda c: (-c.fidelity, c.t_f, c.seed))
    kept: list[Controller] = []
    for cand in raw:
        dup = any(np.linalg.norm(cand.biases - k.biases) < 1e-6
                  and abs(cand.t_f - k.t_f) < 1e-6 for k in kept)
        if not dup:
            kept.append(cand)
    return [replace(c, index=i) for i, c in enumerate(kept)]


def f17(x: float) -> str:
    """Decimal rendering with 17 significant digits; round-trip exact."""
    return format(float(x), ".17g")


def controllers_to_json(controllers: list[Controller]) -> str:
    """Stable JSON array of controllers; floats carry 17 significant digits.

    Rendered by hand so the float format is under our control rather than
    the library's shortest-repr policy.
    """
    lines = ["["]
    last = len(controllers) - 1
    for i, c in enumerate(controllers):
        biases = ", ".join(f17(b) for b in c.biases)
        row = (f'  {{"index": {c.index}, "seed": {c.seed}, "tf": {f17(c.t_f)},'
               f' "biases": [{biases}], "fidelity": {f17(c.fidelity)}}}')
        lines.append(row + ("," if i < last else ""))
    lines.append("]")
    return "\n".join(lines) + "\n"


def controllers_from_json(text: str, spec: NetworkSpec) -> list[Controller]:
    """Parse a serialized ensemble back into Controller objects; ``index``
    and ``seed`` must be JSON integers, ``tf``, ``fidelity`` and ``biases``
    entries JSON numbers."""
    rows = json.loads(text)
    if not isinstance(rows, list):
        raise ValueError("controller file must hold a JSON array")
    out = []
    for position, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ValueError("controller row must be a JSON object, "
                             f"got {type(row).__name__}")
        what = f"controller row {position}"
        try:
            biases = row["biases"]
            if not isinstance(biases, list):
                raise ValueError(f"{what} field 'biases' has the wrong type: must be a "
                                 f"JSON array, got {biases!r}")
            out.append(Controller(
                biases=np.array([_json_field(b, "biases", "number", what)
                                 for b in biases], dtype=float),
                t_f=_json_field(row["tf"], "tf", "number", what),
                fidelity=_json_field(row["fidelity"], "fidelity", "number", what),
                spec=spec,
                seed=_json_field(row.get("seed", -1), "seed", "integer", what),
                index=_json_field(row["index"], "index", "integer", what),
                status="loaded"))
        except KeyError as exc:
            raise ValueError(f"controller row is missing key {exc}") from exc
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"controller row has a field of the wrong type: {exc}") from exc
    return out
