"""Static-bias controller synthesis by multistart fidelity maximization.

A controller is a vector of on-site biases plus a read-out time. Each
restart draws a random initial point and runs one bounded quasi-Newton
ascent (L-BFGS-B; Byrd, Lu, Nocedal & Zhu 1995) over the biases and the
read-out time together, inside the configured boxes. The ascents are
independent, and L-BFGS-B asks for each evaluation by reverse
communication, so all restarts advance in lockstep: each round evaluates
the points every live restart asks for with one stacked ``eigh``, and
every restart takes the steps its own serial ascent would. Fidelity and its
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
import os
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .errors import InvariantViolation
from .network import NetworkSpec, _json_object, _number, _number_fields, _readonly
from .sensitivity import _eigensystem, hadamard_core

# How far a stored fidelity may stray from [0, 1], and from the fidelity
# its working point actually gives when an ensemble is read back.
FIDELITY_TOL = 1e-9

# The keys of a controller row, as written, and their JSON kinds; "seed" is optional.
ROW_KINDS = {"index": "integer", "seed": "integer", "tf": "number",
             "biases": "array of numbers", "fidelity": "number"}

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
                       t_f: float | np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
    """Fidelity and its analytic gradient with respect to (biases, t_f).

    Component n < N of the gradient is 2 Re(conj(U_oi) dU_oi/dDelta_n) with
    dU_oi/dDelta_n = -i t_f sum_jk (V_oj V_nj) X_jk (V_nk V_ik), where X
    holds the divided differences of exp(-i E t_f) from the same
    ``hadamard_core`` the analysis uses. It equals the unit-scaled
    bias-direction sensitivity t_f * rf . K_n r0, which the property tests
    check against the adjoint-picture reference records. The last
    component is dF/dt_f = 2 Re(conj(U_oi) dU_oi/dt_f) with
    dU_oi/dt_f = -i sum_j w_j E_j exp(-i E_j t_f), from the same phases.

    One working point (biases (N,), scalar t_f) gives F as a float and the
    gradient (N+1,). A stack of points (biases (..., N), t_f of shape
    (...)) gives F (...) and gradients (..., N+1) from one stacked
    ``eigh``; every row is bitwise the single-point result.
    """
    t_f = np.asarray(t_f, dtype=float)
    e, v, w = _eigensystem(spec, biases)
    phases = np.exp(-1j * e * t_f[..., None])
    amp = (w[..., None, :] @ phases[..., :, None])[..., 0, 0]
    # Python's complex abs per row: numpy's complex abs can differ in the last bit
    f = np.array([abs(complex(a)) ** 2 for a in amp.flat]).reshape(amp.shape)
    x = hadamard_core(-e, t_f)
    left = v[..., spec.output_spin - 1, None, :] * v
    right = v * v[..., spec.input_spin - 1, None, :]
    d_bias = -1j * t_f[..., None] * ((left @ x) * right).sum(axis=-1)
    d_time = -1j * ((w * e)[..., None, :] @ phases[..., :, None])[..., 0]
    d_amp = np.concatenate([d_bias, d_time], axis=-1)
    grad = 2.0 * (amp.conjugate()[..., None] * d_amp).real
    return (float(f) if f.ndim == 0 else f), grad


# L-BFGS-B settings of every restart, as scipy's minimize passes them for
# maxcor=10, maxls=20, ftol=1e-15, gtol=TOLERANCE/10 and its default maxfun;
# factr is ftol over the float64 eps, 2**-52
_M, _MAXLS, _MAXFUN = 10, 20, 15000
_FACTR = 1e-15 / 2.0 ** -52
_PGTOL = TOLERANCE / 10.0
# setulb's task codes: evaluate at x, new iterate, stop at the caller's request
_FG, _NEW_X, _STOP = 3, 1, 5
_STOP_MAXFUN, _STOP_MAXITER = 502, 504


@cache
def _lbfgsb_step():
    """scipy's compiled L-BFGS-B step ``setulb``, loaded once per process.

    ``from scipy.optimize._lbfgsb import setulb`` would first run the
    ``__init__`` of ``scipy.optimize``, which loads some 300 scipy modules
    (``scipy.linalg``, ``scipy.sparse`` and every solver) that synthesis
    never calls. So only the base ``scipy`` package is imported, which on
    Windows also registers scipy's bundled libraries, and the extension is
    loaded from its file in scipy's ``optimize/`` directory. It is not
    filed under ``scipy.optimize._lbfgsb`` (CPython files it under its bare
    name ``_lbfgsb`` alone), so a later ``import scipy.optimize`` loads its
    own copy of the same routine.
    """
    # imported here so that analysis, which reads Controller, loads no scipy
    from importlib.machinery import PathFinder
    from importlib.util import module_from_spec

    import scipy

    where = os.path.join(os.path.dirname(scipy.__file__), "optimize")
    spec = PathFinder.find_spec("_lbfgsb", [where])
    if spec is None:
        raise ImportError(f"no L-BFGS-B extension _lbfgsb in {where}; "
                          "synthesis needs scipy>=1.15")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.setulb


class _Ascent:
    """One restart's L-BFGS-B ascent, driven through the reverse-communication
    routine ``setulb`` by ``_ascend``.

    ``x`` is the current point, which ``setulb`` moves in place; ``f`` and
    ``g`` are the minimized -F and -grad F it reads. Of the evaluations
    (F, grad F), the ascent keeps three: the start's (``start_value``),
    the current iterate's (``iterate``, with ``iterate_value``), which
    ``local_optimize`` reads, and the one at the point evaluated last
    (``last_x``, with ``last``), which answers a repeated request. Once
    the ascent stops, ``stop`` frees the L-BFGS-B workspace.
    """

    def __init__(self, start: np.ndarray):
        n = start.size
        self.start = start.copy()
        self.x = start.copy()
        self.f = 0.0
        self.g = np.zeros(n)
        self.wa = np.zeros(2 * _M * n + 5 * n + 11 * _M * _M + 8 * _M)
        self.iwa = np.zeros(3 * n, dtype=np.int32)
        self.task = np.zeros(2, dtype=np.int32)
        self.ln_task = np.zeros(2, dtype=np.int32)
        self.lsave = np.zeros(4, dtype=np.int32)
        self.isave = np.zeros(44, dtype=np.int32)
        self.dsave = np.zeros(29)
        self.iterations = self.nfev = 0
        self.iterate = self.start
        self.start_value = self.iterate_value = self.last_x = self.last = None

    def record(self, f: float, grad: np.ndarray) -> None:
        """Store (F, grad F) at the current point, the new ``last``; the
        first point evaluated is the start."""
        self.last_x = self.x.copy()
        self.last = (f, grad)
        if self.nfev == 0:
            self.start_value = self.iterate_value = self.last
        self.nfev += 1

    def advance(self) -> None:
        """Take the current point as the iterate. ``setulb`` accepts a point
        only after evaluating it, so the point is the one evaluated last and
        its value is ``last``."""
        if self.x.tobytes() != self.last_x.tobytes():
            raise InvariantViolation("L-BFGS-B took an iterate it did not evaluate last")
        self.iterations += 1
        self.iterate_value = self.last
        self.iterate = self.x.copy()

    def stop(self) -> None:
        """Free the workspace of a finished ascent."""
        self.wa = self.iwa = None


def _bounds(spec: NetworkSpec, config: SynthesisConfig) -> tuple[np.ndarray, np.ndarray]:
    n = spec.num_spins
    return (np.append(np.full(n, config.bias_range[0]), config.t_f_range[0]),
            np.append(np.full(n, config.bias_range[1]), config.t_f_range[1]))


def _ascend(spec: NetworkSpec, starts: np.ndarray,
            config: SynthesisConfig) -> list[_Ascent]:
    """Bounded L-BFGS-B ascents over (biases, t_f) from each row of ``starts``,
    advanced in lockstep.

    Each round runs every live ascent until it asks for (F, grad F) at a
    new point or stops, then evaluates all the points asked for with one
    stacked ``fidelity_objective`` call. A restart's steps depend on its
    own evaluations alone, so each ascent is the one scipy's ``minimize``
    (method L-BFGS-B) takes with the same settings: the start is
    evaluated first, a request at the point evaluated last is answered
    from it, and an ascent stops after ``MAXITER`` iterations.
    """
    setulb = _lbfgsb_step()
    starts = np.asarray(starts, dtype=float)
    lo, hi = _bounds(spec, config)
    outside = ~((starts >= lo) & (starts <= hi))  # a nan start is outside too
    if outside[:, :-1].any():
        raise ValueError("initial biases outside the configured bounds")
    if outside[:, -1].any():
        raise ValueError("initial read-out time outside the configured bounds")
    both_bounded = np.full(starts.shape[1], 2, dtype=np.int32)

    def asks_again(a: _Ascent) -> bool:
        # True when the ascent asks for (F, grad F) at a point not evaluated
        # last; the points compare as lists, by value as np.array_equal does
        task = a.task.item(0)
        while True:
            if task == _FG:
                a.f, a.g = -a.last[0], -a.last[1]
            setulb(_M, a.x, lo, hi, both_bounded, a.f, a.g, _FACTR, _PGTOL, a.wa, a.iwa,
                   a.task, a.lsave, a.isave, a.dsave, _MAXLS, a.ln_task)
            task = a.task.item(0)
            if task == _FG:
                if a.x.tolist() != a.last_x.tolist():
                    return True
            elif task == _NEW_X:
                a.advance()
                if a.iterations >= MAXITER:
                    a.task[:] = _STOP, _STOP_MAXITER
                elif a.nfev > _MAXFUN:
                    a.task[:] = _STOP, _STOP_MAXFUN
            else:
                a.stop()
                return False

    ascents = [_Ascent(x) for x in starts]
    waiting = ascents
    while waiting:
        points = np.array([a.x for a in waiting])
        f, grad = fidelity_objective(spec, points[:, :-1], points[:, -1])
        for a, f_a, grad_a in zip(waiting, f.tolist(), grad):
            a.record(f_a, grad_a)
        waiting = [a for a in waiting if asks_again(a)]
    return ascents


def local_optimize(spec: NetworkSpec, ascent: _Ascent, config: SynthesisConfig,
                   seed: int = 0, index: int = 0) -> Controller:
    """The controller one finished L-BFGS-B ascent over (biases, t_f) gives.

    L-BFGS-B stops at its last iterate: after a line search that fails it
    restores that iterate (Byrd, Lu, Nocedal & Zhu 1995), so an ascent
    that ends anywhere else raises ``InvariantViolation``. The iterate is
    accepted only when the last fidelity the ascent evaluated strictly
    improves the start, so a point that is already stationary (a
    perfect-transfer controller in particular) comes back unchanged. The
    status is "converged" when the projected gradient over (biases, t_f)
    at the returned point is at most ``TOLERANCE`` or its error 1 - F is
    at most ``FIDELITY_TOL``, and "maxiter" otherwise. Since F <= 1
    everywhere, a point of error within ``FIDELITY_TOL`` is a global
    maximum, even where rounding keeps its gradient above the tolerance.
    Both read the values the ascent stored for the iterate or the start:
    no fidelity is computed here.
    """
    if ascent.x.tobytes() != ascent.iterate.tobytes():
        raise InvariantViolation("L-BFGS-B stopped away from its last iterate")
    # after a line search stops abnormally, ascent.f belongs to the last
    # point tried, not to ascent.x, so only the acceptance reads it
    if -ascent.f > ascent.start_value[0]:
        x, (f_final, grad) = ascent.iterate, ascent.iterate_value
    else:
        x, (f_final, grad) = ascent.start, ascent.start_value
    lo, hi = _bounds(spec, config)
    # the projected gradient: no entry that points out of the box
    outward = ((x <= lo) & (grad < 0)) | ((x >= hi) & (grad > 0))
    converged = (np.abs(np.where(outward, 0.0, grad)).max() <= TOLERANCE
                 or 1.0 - f_final <= FIDELITY_TOL)
    return Controller(biases=x[:-1], t_f=float(x[-1]), fidelity=min(1.0, f_final),
                      spec=spec, seed=seed, index=index,
                      status="converged" if converged else "maxiter")


def synthesize_ensemble(spec: NetworkSpec, config: SynthesisConfig) -> list[Controller]:
    """Multistart synthesis: seeded restarts, sort by fidelity, dedupe.

    Every restart's start is drawn from its own child seed, all restarts
    ascend together (``_ascend``), and ``local_optimize`` turns each
    finished ascent into its controller. Ordering and content of the
    result depend only on the master seed.
    """
    starts = []
    for child in np.random.SeedSequence(config.seed).spawn(config.restarts):
        rng = np.random.default_rng(child)
        d0 = rng.uniform(*config.bias_range, spec.num_spins)
        starts.append(np.append(d0, rng.uniform(*config.t_f_range)))
    raw = [local_optimize(spec, ascent, config, seed=i, index=i)
           for i, ascent in enumerate(_ascend(spec, np.array(starts), config))]

    raw.sort(key=lambda c: (-c.fidelity, c.t_f, c.seed))
    return [replace(c, index=i) for i, c in enumerate(_distinct(raw))]


def _distinct(controllers: list[Controller]) -> list[Controller]:
    """The controllers, in order, less each one that lies within 1e-6 of a
    controller kept before it, both in t_f and in the bias norm.

    A greedy walk over the kept list; t_f is compared first, so the bias
    norm is taken only for the pairs close in t_f.
    """
    kept: list[Controller] = []
    for c in controllers:
        if not any(abs(c.t_f - k.t_f) < 1e-6 and np.linalg.norm(c.biases - k.biases) < 1e-6
                   for k in kept):
            kept.append(c)
    return kept


def f17(x: float) -> str:
    """Decimal rendering with 17 significant digits; round-trip exact."""
    return format(float(x), ".17g")


def controllers_to_json(controllers: list[Controller]) -> str:
    """Stable JSON array of controllers; floats carry 17 significant digits.

    Rendered by hand so the float format is under our control rather than
    the library's shortest-repr policy. JSON reads -0 back as the integer
    0, so the biases and the fidelity are written with 0.0 added, which
    turns a negative zero into 0 and leaves every other value as it is
    (t_f is positive).
    """
    lines = ["["]
    last = len(controllers) - 1
    for i, c in enumerate(controllers):
        biases = ", ".join(f17(b + 0.0) for b in c.biases)
        row = (f'  {{"index": {c.index}, "seed": {c.seed}, "tf": {f17(c.t_f)},'
               f' "biases": [{biases}], "fidelity": {f17(c.fidelity + 0.0)}}}')
        lines.append(row + ("," if i < last else ""))
    lines.append("]")
    return "\n".join(lines) + "\n"


def controllers_from_json(text: str, spec: NetworkSpec) -> list[Controller]:
    """Parse a serialized ensemble back into Controller objects; each row
    holds the keys and kinds of ``ROW_KINDS``, and unknown keys are
    rejected. Every error names the row ("controller row N", counted
    from 0), and two rows with one index are rejected by name."""
    rows = json.loads(text)
    if not isinstance(rows, list):
        raise ValueError("controller file must hold a JSON array")
    out = []
    row_of_index: dict[int, int] = {}
    for position, row in enumerate(rows):
        what = f"controller row {position}"
        fields = _json_object(row, ROW_KINDS, what, optional=("seed",))
        try:
            controller = Controller(
                spec=spec, status="loaded", index=fields["index"], seed=fields.get("seed", -1),
                t_f=fields["tf"], biases=fields["biases"], fidelity=fields["fidelity"])
        except ValueError as exc:
            raise ValueError(f"{what}: {exc}") from exc
        first = row_of_index.setdefault(controller.index, position)
        if first != position:
            raise ValueError(f"controller rows {first} and {position} share "
                             f"index {controller.index}")
        out.append(controller)
    return out
