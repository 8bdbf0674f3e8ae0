"""Static-bias controller synthesis by multistart fidelity maximization.

A controller is a vector of on-site biases plus a read-out time. Each
restart draws a random initial point, runs projected quasi-Newton ascent
on the biases at fixed read-out time, then refines the read-out time by
golden-section search in a shrinking window, and alternates until the
projected gradient stalls. Fidelity and its bias gradient come from the
eigensystem of the N x N Hamiltonian (Najfeld & Havel 1995): the gradient
along bias n is the unit-scaled sensitivity of that bias direction,
computed from the same eigensystem and divided differences as the
records ``analyze`` writes. The adjoint-picture reference route in
``verification`` serves as its test oracle.

Determinism is load-bearing: restarts get independent child seeds from a
master seed, every accept step requires strict improvement, and results
are ordered by a total sort key, so a fixed seed reproduces the ensemble
bitwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .network import NetworkSpec, _readonly
from .sensitivity import _eigensystem, hadamard_core

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0

# How far a stored fidelity may stray from [0, 1], and from the fidelity
# its working point actually gives when an ensemble is read back.
FIDELITY_TOL = 1e-9


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
    tolerance: float = 1e-8
    seed: int = 0
    maxiter: int = 400
    max_rounds: int = 8

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if not self.t_f_range[0] < self.t_f_range[1]:
            raise ValueError(f"empty read-out range {self.t_f_range}")
        if not self.t_f_range[0] > 0:
            raise ValueError("read-out range must be positive")
        if not self.bias_range[0] < self.bias_range[1]:
            raise ValueError(f"empty bias range {self.bias_range}")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")


def _amplitude(e: np.ndarray, w: np.ndarray, t_f: float) -> complex:
    return complex(w @ np.exp(-1j * e * t_f))


def transfer_fidelity(spec: NetworkSpec, biases: np.ndarray, t_f: float) -> float:
    """Fidelity |U_oi|^2 of the transfer for one working point."""
    e, _, w = _eigensystem(spec, biases)
    return abs(_amplitude(e, w, t_f)) ** 2


def fidelity_objective(spec: NetworkSpec, biases: np.ndarray,
                       t_f: float) -> tuple[float, np.ndarray]:
    """Fidelity and its analytic gradient with respect to the biases.

    Component n of the gradient is 2 Re(conj(U_oi) dU_oi/dDelta_n) with
    dU_oi/dDelta_n = -i t_f sum_jk (V_oj V_nj) X_jk (V_nk V_ik), where X
    holds the divided differences of exp(-i E t_f) from the same
    ``hadamard_core`` the analysis uses. It equals the unit-scaled
    bias-direction sensitivity t_f * rf . K_n r0, which the property tests
    check against the adjoint-picture reference records.
    """
    e, v, w = _eigensystem(spec, biases)
    amp = _amplitude(e, w, t_f)
    x = hadamard_core(None, -e, t_f)
    left = v[spec.output_spin - 1] * v
    right = v * v[spec.input_spin - 1]
    d_amp = -1j * t_f * ((left @ x) * right).sum(axis=1)
    return abs(amp) ** 2, 2.0 * (amp.conjugate() * d_amp).real


def _golden_max(fn, lo: float, hi: float, tol: float = 1e-11,
                maxiter: int = 200) -> tuple[float, float]:
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(maxiter):
        if b - a <= tol:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    return (c, fc) if fc >= fd else (d, fd)


def local_optimize(spec: NetworkSpec, initial_biases: np.ndarray,
                   initial_t_f: float, config: SynthesisConfig,
                   seed: int = 0, index: int = 0) -> Controller:
    """Ascent from one starting point; accepts only strict improvements.

    A point that is already stationary (a perfect-transfer controller in
    particular) comes back unchanged.
    """
    # imported here so that analysis, which reads Controller, loads no scipy
    from scipy.optimize import minimize

    lo_b, hi_b = config.bias_range
    lo_t, hi_t = config.t_f_range
    delta = np.asarray(initial_biases, dtype=float).copy()
    t_f = float(initial_t_f)
    if not (np.all(delta >= lo_b) and np.all(delta <= hi_b)):
        raise ValueError("initial biases outside the configured bounds")
    if not lo_t <= t_f <= hi_t:
        raise ValueError("initial read-out time outside the configured bounds")

    f_best = transfer_fidelity(spec, delta, t_f)
    bounds = [(lo_b, hi_b)] * spec.num_spins
    window = (hi_t - lo_t) / 8.0
    status = "maxiter"
    for _ in range(config.max_rounds):
        res = minimize(
            lambda d, t=t_f: _negated(spec, d, t),
            delta, jac=True, method="L-BFGS-B", bounds=bounds,
            options={"maxiter": config.maxiter, "ftol": 1e-15,
                     "gtol": config.tolerance / 10.0})
        if -res.fun > f_best:
            delta = np.asarray(res.x, dtype=float)
            f_best = float(-res.fun)
        e, _, w = _eigensystem(spec, delta)
        t_new, f_new = _golden_max(
            lambda t: abs(_amplitude(e, w, t)) ** 2,
            max(lo_t, t_f - window), min(hi_t, t_f + window))
        moved_t = f_new > f_best
        if moved_t:
            t_f, f_best = float(t_new), float(f_new)
        window *= 0.5
        f_cur, grad = fidelity_objective(spec, delta, t_f)
        if _projected_norm(grad, delta, lo_b, hi_b) <= config.tolerance and not moved_t:
            status = "converged"
            break
    f_final = transfer_fidelity(spec, delta, t_f)
    return Controller(biases=delta, t_f=t_f, fidelity=min(1.0, f_final),
                      spec=spec, seed=seed, index=index, status=status)


def _negated(spec: NetworkSpec, biases: np.ndarray, t_f: float):
    f, g = fidelity_objective(spec, biases, t_f)
    return -f, -g


def _projected_norm(grad: np.ndarray, x: np.ndarray, lo: float, hi: float) -> float:
    g = grad.copy()
    g[(x <= lo) & (g < 0)] = 0.0
    g[(x >= hi) & (g > 0)] = 0.0
    return float(np.abs(g).max()) if g.size else 0.0


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
    """Parse a serialized ensemble back into Controller objects."""
    rows = json.loads(text)
    if not isinstance(rows, list):
        raise ValueError("controller file must hold a JSON array")
    out = []
    for row in rows:
        if not isinstance(row, dict):
            raise ValueError("controller row must be a JSON object, "
                             f"got {type(row).__name__}")
        try:
            out.append(Controller(
                biases=np.asarray(row["biases"], dtype=float),
                t_f=float(row["tf"]),
                fidelity=float(row["fidelity"]),
                spec=spec,
                seed=int(row.get("seed", -1)),
                index=int(row["index"]),
                status="loaded"))
        except KeyError as exc:
            raise ValueError(f"controller row is missing key {exc}") from exc
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"controller row has a field of the wrong type: {exc}") from exc
    return out
