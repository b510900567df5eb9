"""Receding-horizon planner for the camera rig.

Each call minimizes the horizon cost over the stacked drone + lens input
sequence subject to the rig dynamics and the feasibility inequalities.
Inputs are normalized to [-1, 1] by their bounds.  A Levenberg-Marquardt
descent (:func:`box_gauss_newton`) holds that box and the state-box rows
that are linear in the inputs (position, velocity and lens) in every
model step, a quadratic program that starts from the rows the last one
held, in the last solve too; its Gauss-Newton model Hessian sums the
stage blocks of the merit over the forward sensitivities of the rollout.
The roll, pitch and yaw bounds and the collision and occlusion
inequalities enter through an augmented-Lagrangian penalty whose
multipliers are updated once per descent round and carried, shifted one
state, into the next solve.  Everything is deterministic for identical
arguments.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg.lapack
import scipy.optimize

from . import constraints as cons
from . import kinematics as kin
from . import objectives as obj
from .optics import CameraSensorSpec

#: Price per unit of the elastic variable of a start that leaves the linear
#: rows no feasible value: large, so that it finds the least violation.
_ELASTIC = 1e6
#: Ridge added to the model Hessian, relative to its largest diagonal
#: entry, so that its Cholesky factorization exists.
_DAMPING = 1e-10
#: Pixels per unit of penalized occlusion-separation residual: the gap,
#: scaled to O(1), lets the shared penalty weight condition all inequality
#: groups comparably.
_SEPARATION_SCALE = 100.0
#: A plan is feasible when no residual of its report falls below this.
FEASIBILITY_TOL = -1e-6
#: Share of ``SolverConfig.constraint_margin`` a plan may give up and still
#: end the augmented-Lagrangian rounds early.  Ending them as soon as the
#: report calls the plan feasible spends the whole margin: e4_collision's
#: closest approach then fell to 1.975 m in the acceptance runs, under the
#: 1.999 m that criterion 08 asks of its 2 m safety distance.
EARLY_EXIT_MARGIN_SHARE = 0.5
#: Each descent round stops at a projected gradient of this size
#: (``box_gauss_newton``'s ``gtol``), or at a relative decrease of 1e-7.
CONVERGENCE_TOL = 1e-5
#: Factor by which a round that does not end the solve stiffens the
#: penalty, and by which a warm-started solve relaxes it.
PENALTY_GROWTH = 10.0
#: A plan carries no multiplier of a state-box entry it holds by more than
#: this share of the entry's box width.
HELD_SHARE = 0.01
#: Four ulps of a merit of size 1: a step foreseeing a decrease below this
#: share of the merit ends the descent.
_ROUNDING = 4.0 * np.finfo(float).eps


@dataclass
class SolverConfig:
    """Tuning knobs of one planner instance."""

    horizon: int = 5
    dt: float = 0.2
    max_iterations: int = 150
    penalty_initial: float = 10.0
    outer_rounds: int = 4
    constraint_margin: float = 0.0

    def __post_init__(self) -> None:
        failed = [message for ok, message in (
            (self.horizon >= 1, "horizon must be >= 1"),
            (self.dt > 0.0, "dt must be positive"),
            (self.max_iterations >= 1, "max_iterations must be >= 1"),
            (self.outer_rounds >= 1, "outer_rounds must be >= 1"),
            (self.penalty_initial > 0.0, "penalty_initial must be positive"),
            (self.constraint_margin >= 0.0,
             "constraint_margin must be >= 0"))
            if not ok]
        if failed:
            raise ValueError("; ".join(failed))


@dataclass
class SolveStats:
    iterations: int = 0
    outer_rounds: int = 0
    converged: bool = False
    wall_time: float = 0.0


@dataclass(eq=False)
class Plan:
    """Result of one planning instance.

    ``inputs`` is the read-only (n, 9) input array and ``horizon`` is
    exactly ``kin.rollout(initial, inputs, dt)`` (single shooting).
    ``multipliers``/``penalty``/``held`` carry the augmented-Lagrangian
    state and the rows the last model steps held into the next solve, whose
    model steps start from those rows as they are."""

    inputs: np.ndarray
    horizon: kin.Horizon
    cost: obj.CostBreakdown
    residuals: np.ndarray
    feasible: bool
    stats: SolveStats
    records: list[cons.OcclusionRecord] = field(default_factory=list)
    multipliers: np.ndarray = field(default_factory=lambda: np.zeros(0))
    penalty: float = 0.0
    held: tuple = ((), ())


def _shift_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """Rows 1..n of ``rows``, the last one repeated where they run out."""
    return rows[np.minimum(np.arange(1, n + 1), len(rows) - 1)]


def shift_warm_start(prev: Plan | None, n_steps: int) -> np.ndarray:
    """Shift a previous plan's inputs one step, repeating the last one.

    Returns an (n_steps, 9) array in the solver's input layout; zeros
    without a previous plan."""
    if prev is None:
        return np.zeros((n_steps, 9))
    return _shift_rows(prev.inputs, n_steps)


class _Constants(NamedTuple):
    """What every solve reads of its configuration alone, read-only: the
    input scaling (``u = center + z half``) and the scaled box ``box``,
    [0, 0] on an input channel held at its bound (``~free``); the blocks
    of the sensitivities of states 1..N to ``z`` that no input moves,
    each derivative build filling in the rotation block, scaled by
    ``rotation_scale``; and of :func:`_linear_rows`, the (n, 12) mask
    ``linear`` of the entries of states 1..N it holds, the matrix ``a``, the
    rows' state bounds and both sides' box widths, the inputs' share at
    ``z = 0`` in each state (0 in the angles, which no row reads) and the
    start velocity's ``drift`` factor per state."""

    center: np.ndarray
    half: np.ndarray
    free: np.ndarray
    box: np.ndarray
    linear_sens: np.ndarray
    rotation_scale: np.ndarray
    linear: np.ndarray
    a: np.ndarray
    row_low: np.ndarray
    row_high: np.ndarray
    widths: np.ndarray
    share: np.ndarray
    drift: np.ndarray


@functools.lru_cache(maxsize=16)
def _planner_constants(n: int, dt: float, *bounds: bytes) -> _Constants:
    """The :class:`_Constants` of ``n`` stages of ``dt``, keyed by value:
    ``bounds`` holds the bytes of the input row's low and high bounds,
    then the state row's; equal configurations share one entry."""
    low, high, state_low, state_high = map(np.frombuffer, bounds)
    center, half = 0.5 * (low + high), 0.5 * (high - low)
    free = high - low > 1e-12
    box = np.tile(np.where(free, 1.0, 0.0), n)
    # d u / d z per input row
    scale = np.tile(np.where(free, half, 0.0), n).reshape(n, 9)
    sens = kin.linear_sensitivities(n, dt)[1:]
    linear_sens = sens * scale
    linear = np.tile(kin.LINEAR, (n, 1))
    linear[0, kin.POSITION] = False
    share = np.zeros((n, kin.STATE_SIZE))
    share[:, kin.LINEAR] = (sens[:, kin.LINEAR].reshape(-1, 9 * n)
                            @ np.tile(center, n)).reshape(n, -1)
    row_low, row_high = (np.broadcast_to(edge, linear.shape)[linear]
                         for edge in (state_low, state_high))
    width = np.where((row_high - row_low > 0.0)
                     & np.isfinite(row_high - row_low),
                     row_high - row_low, 1.0)
    a = linear_sens.reshape(linear.shape + (-1,))[linear] / width[:, None]
    built = _Constants(center, half, free, box, linear_sens,
                       scale[:, 3:6], linear, np.concatenate([a, -a]),
                       row_low, row_high, np.tile(width, 2),
                       share, dt * np.arange(1, n + 1)[:, None])
    for array in built:
        array.setflags(write=False)
    return built


class _PenaltyModel:
    """Fixed-order penalized inequality set for one solve instance: the
    :func:`cons.state_residuals` rows of states 1..N, flattened."""

    def __init__(self, cset: cons.ConstraintSet, preds, sizes, records,
                 spec: CameraSensorSpec, n_steps: int, margin: float):
        self.tracks = cons.ConstraintTracks(preds, sizes, cset, records,
                                            n_steps + 1)
        self.spec = spec
        self.margin = margin
        self.size = n_steps * self.tracks.width
        #: the entries of g_flat with no price and no multiplier: the box
        #: rows of the state entries linear in the inputs (_linear_rows)
        linear = np.zeros((n_steps, self.tracks.width), bool)
        linear[:, cons.BOX_LOW] = linear[:, cons.BOX_HIGH] = kin.LINEAR
        self.linear = linear.ravel()

    def penalty(self, horizon: kin.Horizon, lam: np.ndarray, rho: float,
                ) -> tuple[float, np.ndarray, obj.TermRows]:
        """Total AL penalty, its rows ``g_flat`` and a builder of its
        derivative row blocks of states 1..N.  The separation entries are
        ``gap / _SEPARATION_SCALE - margin``: the margin keeps the held gap
        strictly positive, which keeps the activation predicate firing at
        the next solve."""
        rows, derivatives = cons.state_residuals(
            horizon, 1, self.tracks, self.spec, margin=self.margin,
            separation_scale=_SEPARATION_SCALE)
        g_flat = rows.ravel()
        # augmented-Lagrangian term for inequalities g >= 0; its slope
        # w.r.t. g is -slack
        slack = self.update(lam, rho, g_flat)
        value = float((slack * slack - lam * lam).sum() / (2.0 * rho))
        slopes = slack.reshape(rows.shape)
        return value, g_flat, lambda: derivatives(-slopes,
                                                  rho * (slopes > 0.0))

    def update(self, lam, rho: float, g_flat: np.ndarray) -> np.ndarray:
        """``max(0, lam - rho g)``, 0 on the linear entries."""
        return np.where(self.linear, 0.0, np.maximum(0.0, lam - rho * g_flat))

    def feasible_with_margin(self, g_flat: np.ndarray) -> bool:
        """Whether the penalized rows ``g_flat`` of states 1..N hold every
        state-box entry to :data:`FEASIBILITY_TOL` and every margin-carrying
        entry (collision distance, separation gap) to
        ``-EARLY_EXIT_MARGIN_SHARE * margin``: the report then calls those
        states feasible, and the rest of the margin is still kept."""
        rows = g_flat.reshape(-1, self.tracks.width)
        return bool(np.all(rows[:, cons.BOX] >= FEASIBILITY_TOL)
                    and np.all(rows[:, cons.BOX.stop:]
                               >= -EARLY_EXIT_MARGIN_SHARE * self.margin))


def box_gauss_newton(fun, x0, bounds, constraints, maxiter: int = 100,
                     gtol: float = 1e-5, ftol: float = 1e-7, start=((), ()),
                     **unused) -> scipy.optimize.OptimizeResult:
    """Levenberg-Marquardt descent over the box ``bounds``, a ``(low,
    high)`` pair, and the rows ``a @ x <= b`` of ``constraints = (a, b)``,
    in the calling convention of a ``scipy.optimize.minimize`` method.

    ``fun(x)`` returns the value at ``x``, zero-argument builders of the
    gradient ``g`` and of a positive semidefinite Gauss-Newton matrix
    ``H`` there, and a record of ``x`` that the result hands back as
    ``point``.  From :func:`_project`'s point of ``x0``, each iteration
    minimizes the damped model ``g s + s (H + mu I) s / 2`` over the box
    and the rows (:func:`_model_step`), so every trial holds them, and
    evaluates the step once; ``mu`` starts at 0 and follows the ratio of
    actual to predicted decrease by Nielsen's rule (Moré, 1978; Nielsen,
    IMM-REP-1999-05), a non-finite trial rejected.  Stops with status 0
    when the projected gradient (the model step with ``H = I``) is
    ``<= gtol`` in every entry or an accepted step lowers the value by
    ``<= ftol`` of its size (both L-BFGS-B's tests) or the first step
    from ``x`` foresees a decrease below the value's rounding, 1 after
    ``maxiter`` trial steps, and 2 when the model step fails or no longer
    moves ``x``.

    A point's gradient is built only once the descent goes on from it (the
    start, or an accepted trial past the ``ftol`` test), and its Hessian
    only once a step is to be taken from it; the result's ``jac`` is None
    where the descent stopped without the gradient at ``x``.  The first
    projected gradient and trial step start from the row lists ``start``
    (rows of ``I``, ``-I``, ``a``); ``active`` is where the last ones ended.
    """
    (a, b), (low, high) = constraints, bounds
    x, b = _project(np.asarray(x0, float).clip(low, high), low, high, a, b)
    f, gradient, hessian, point = fun(x)
    g = h = None  # at x, each built when the descent first needs it
    held, active = start  # the last active sets, where the next QPs start
    nit, status = 0, 2
    mu, growth = 0.0, 2.0
    eye = np.eye(len(x))
    normals = np.concatenate([eye, -eye, a])
    unread = ~a.any(axis=0)
    while math.isfinite(f):
        if g is None:
            g = gradient()
        levels = np.concatenate([high - x, x - low, b - a @ x])
        # the box's projected gradient is the QP's where it holds the rows,
        # and on each variable that no row reads
        steepest = (-g).clip(low - x, high - x)
        try:
            if (np.abs(steepest[unread]).max(initial=0.0) <= gtol
                    and (a @ steepest > levels[2 * len(x):]).any()):
                steepest, held = _model_step(eye, g, normals, levels, held)
        except np.linalg.LinAlgError:
            break
        if np.abs(steepest).max() <= gtol:
            status = 0
            break
        if nit >= maxiter:
            status = 1
            break
        if h is None:
            h = hessian()
        nit += 1
        diagonal = max(float(h.diagonal().max()), 1e-300)
        try:
            step, active = _model_step(
                h + (_DAMPING * diagonal + mu) * eye, g, normals, levels,
                active)
        except np.linalg.LinAlgError:  # a model too ill-posed to solve
            break
        trial = (x + step).clip(low, high)
        step = trial - x
        if not step.any():
            break  # damped below round-off
        predicted = -(g @ step + 0.5 * step @ (h @ step))
        # the model's own step from x (no trial from x rejected yet, so
        # growth is 2) foresees a decrease below the value's rounding
        if growth == 2.0 and predicted <= _ROUNDING * max(abs(f), 1.0):
            status = 0
            break
        passed = fun(trial)
        f_trial = passed[0]
        ratio = (f - f_trial) / predicted if predicted > 0.0 else -1.0
        if not ratio > 1e-4:  # also a non-finite trial
            mu, growth = max(growth * mu, 1e-3 * diagonal), 2.0 * growth
            continue
        mu, growth = mu * max(1 / 3, 1 - (2 * ratio - 1) ** 3), 2.0
        if ratio < 0.25:  # a poor model starts the damping from 0
            mu = max(mu, 1e-3 * diagonal)
        previous = f
        x, (f, gradient, hessian, point), g, h = trial, passed, None, None
        # a small decrease counts where the model foresaw it
        if (ratio >= 0.25
                and previous - f <= ftol * max(abs(previous), abs(f), 1.0)):
            status = 0
            break
    return scipy.optimize.OptimizeResult(
        x=x, fun=f, jac=g, point=point, nit=nit, status=status,
        active=(held, active),
        success=status == 0, message=("converged", "iteration cap",
                                      "damped step no longer moves x")[status])


def _project(x, low, high, a, b):
    """The point of the box nearest ``x`` (in it) that holds ``a @ x <=
    b``, and ``b``; where the box holds no such point, ``b`` raised by the
    least uniform violation, one elastic variable ``t >= 0`` priced at
    :data:`_ELASTIC` (Kerrigan and Maciejowski, CDC 2000)."""
    if not np.any(a @ x > b):
        return x, b
    eye = np.eye(len(x))
    try:
        step = _model_step(eye, np.zeros(len(x)), np.concatenate(
            [eye, -eye, a]), np.concatenate([high - x, x - low, b - a @ x]))
        return (x + step[0]).clip(low, high), b
    except np.linalg.LinAlgError:
        pass  # no point of the box holds the rows: relax them
    eye = np.eye(len(x) + 1)
    try:
        step = _model_step(eye, np.r_[np.zeros(len(x)), _ELASTIC],
                           np.concatenate([eye, -eye, np.column_stack(
                               [a, -np.ones(len(b))])]), np.concatenate(
                               [high - x, [np.inf], x - low, [0.0],
                                b - a @ x]))[0]
        x = (x + step[:-1]).clip(low, high)
    except np.linalg.LinAlgError:
        pass  # x stays, the rows relaxed to its own violation
    return x, b + max(0.0, float((a @ x - b).max()))


def _model_step(h, g, normals, levels, start=()):
    """Minimizer of ``g s + s h s / 2`` over ``normals @ s <= levels``,
    whose first 2n rows are the box (``I``, then ``-I``), and the rows it
    holds: Goldfarb and Idnani's dual active-set method (1983), started
    from the held rows ``start`` less those that the rows before them span
    (a failed Schur pivot) or of negative multiplier, so from any start.  A
    bound the step holds itself is met exactly; a held row, and a bound met
    only through held rows, to rounding.  Raises
    ``np.linalg.LinAlgError`` where ``h`` does not factor, the rows hold
    no point, or the held set cycles."""
    n, lapack = len(g), scipy.linalg.lapack
    factor, info = lapack.dpotrf(h, lower=1)
    if info:
        raise np.linalg.LinAlgError("model not positive definite")
    inverse = lapack.dtrtri(factor, lower=1)[0]  # L^-1 of h = L L^T

    def face(q):
        # per column of q, the minimizer of q s + s h s / 2 with the held
        # rows at their levels (the first column) or at 0, and the rows'
        # multipliers, from the Schur complement y^T y, y = L^-1 rows^T
        w = inverse @ q
        while active:
            held, y = normals[active], inverse @ normals[active].T
            schur, info = lapack.dpotrf(y.T @ y, lower=1)
            if not info:
                break
            del active[info - 1]  # a row that the held rows before it span
        else:
            return -inverse.T @ w, np.zeros((0, q.shape[1]))
        targets = np.zeros((len(active), q.shape[1]))
        targets[:, 0] = levels[active]
        multipliers = lapack.dpotrs(schur, -targets - y.T @ w, lower=1)[0]
        s = -inverse.T @ (w + y @ multipliers)
        # w + y multipliers cancels to rounding of its largest entries:
        # one correction puts the held rows back on their targets
        miss = lapack.dpotrs(schur, held @ s - targets, lower=1)[0]
        return s - inverse.T @ (y @ miss), multipliers
    active, letting = list(start), [True]
    while any(letting):
        s, multipliers = face(g[:, None])
        letting = multipliers[:, 0] < 0.0
        active = [k for k, gone in zip(active, letting) if not gone]
    s = s[:, 0]
    for _ in range(4 * len(levels)):
        excess = normals @ s - levels
        excess[active] = 0.0
        k = int(excess.argmax())
        if not excess[k] > 1e-12:
            bounds = np.array([k for k in active if k < 2 * n], int)
            s[bounds % n] = np.where(bounds < n, 1.0, -1.0) * levels[bounds]
            return s, active
        weight = 0.0  # the multiplier of row k, as row k is taken on
        while True:
            both, multipliers = face(np.column_stack(
                [g + weight * normals[k], normals[k]]))
            s, ds = both.T
            values, rates = multipliers.T
            falling = rates < 0.0
            # the growth of the weight at which each held row's multiplier
            # reaches 0, then row k's own (full) where it is met
            reach = np.append(np.where(falling, values.clip(0.0), np.inf)
                              / np.where(falling, -rates, 1.0), np.inf)
            drop = int(reach.argmin())
            gain = -float(normals[k] @ ds)
            full = np.inf
            if gain > 1e-14 * float(normals[k] @ normals[k]):
                full = (float(normals[k] @ s) - levels[k]) / gain
            if reach[drop] == full == np.inf:
                raise np.linalg.LinAlgError("the rows hold no point")
            if full <= reach[drop]:
                s = s + full * ds
                active.append(k)
                break
            weight += reach[drop]
            del active[drop]
    raise np.linalg.LinAlgError("active set cycles")


def _linear_rows(initial: kin.CameraRig, constants: _Constants):
    """The box rows of the state entries linear in the scaled inputs ``z``
    (unpriced in the penalty) of states 1..N, but state 1's positions, ``p0
    + dt v0``, which no input moves: ``(a, b)`` holding ``a @ z <= b``, each
    scaled by its box width; the start's share of ``b`` alone is built here,
    the rest is the solve's :func:`_planner_constants`."""
    # the states at z = 0: the start's, drifting, plus the inputs' share
    state = initial.state_row() + constants.share
    state[:, kin.POSITION] += constants.drift * initial.drone.velocity
    state = state[constants.linear]
    return constants.a, np.concatenate([constants.row_high - state,
                                        state - constants.row_low]
                                       ) / constants.widths


def solve(initial: kin.CameraRig, preds: dict[str, obj.TargetPrediction],
          instr: obj.Instructions, cset: cons.ConstraintSet,
          cfg: SolverConfig, spec: CameraSensorSpec,
          warm: Plan | None = None,
          sizes: dict[str, tuple[float, float]] | None = None) -> Plan:
    """Plan the next ``cfg.horizon`` inputs from the given rig state.

    ``sizes`` (target id -> (height, width) in meters) enables occlusion
    handling when ``cset.occlusion_enabled``; the activation set is frozen
    from the initial state before descent starts.  A start outside the
    state box is planned from all the same; row 0 of the plan's residuals
    reports it, and the plan is infeasible.  Where the start leaves a
    position, velocity or lens row of states 1..N no feasible value, the
    descent holds those rows at their least uniform violation.
    """
    start_time = time.perf_counter()
    n = cfg.horizon
    dt = cfg.dt
    sizes = sizes or {}

    records: list[cons.OcclusionRecord] = []
    if cset.occlusion_enabled and sizes:
        records = cons.activate_occlusions(initial, preds, sizes, spec)

    constants = _planner_constants(n, dt, *(
        edge.tobytes() for edges in (cset.input_bounds, cset.state_bounds)
        for edge in edges))
    center, half, box = constants.center, constants.half, constants.box

    model = _PenaltyModel(cset, preds, sizes, records, spec, n,
                          cfg.constraint_margin)
    lam = np.zeros(model.size)
    rho = cfg.penalty_initial
    if warm is not None and warm.multipliers.size == model.size:
        # each state's multipliers move one state on with the inputs, the
        # last repeated: a multiplier copied in place pins the new state 1
        # to the old state 1's bound, and the rounds rarely run long enough
        # to unlearn it
        lam = _shift_rows(warm.multipliers.reshape(n, -1), n).ravel()
        # carry the penalty weight but let it relax one growth step per
        # solve, so a transient never ratchets the merit stiff for good
        rho = max(rho, warm.penalty / PENALTY_GROWTH)

    tracks = obj.HorizonTracks(preds, instr, n + 1)
    rows = _linear_rows(initial, constants)
    # the sensitivities of states 1..N to z: each derivative build writes
    # its rotation block into this one buffer, which the Hessian at the
    # build's point reads before the descent builds at another point
    sens = constants.linear_sens.copy()
    flat = sens.reshape(n, kin.STATE_SIZE, 9 * n)

    def merit(z_flat: np.ndarray):
        """One value pass at the scaled inputs ``z_flat``: the merit,
        builders of its gradient and Gauss-Newton matrix, which share one
        derivative build, and the pass's record (inputs, horizon, rows,
        cost breakdown), its inputs and rows read-only."""
        u = center + z_flat.reshape(n, 9) * half
        horizon = kin.rollout(initial, u, dt)
        breakdown, cost_rows = obj.evaluate_horizon_stacked(
            horizon, tracks, spec, instr)
        penalty, g_all, penalty_rows = model.penalty(horizon, lam, rho)
        u.setflags(write=False)
        g_all.setflags(write=False)

        @functools.cache
        def derivatives():
            # the rows of states 1..N; state 0 moves with no input
            gradient, stage = obj.contract_rows(
                cost_rows() + penalty_rows(), n)
            sens[:, kin.ROTATION, :, 3:6] = kin.rotation_sensitivities(
                horizon, dt) * constants.rotation_scale
            built = (obj.chain_through_dynamics(gradient, flat), stage)
            for array in built:
                array.setflags(write=False)
            return built

        def hessian() -> np.ndarray:
            # sum over states 1..N of S_k^T W_k S_k, the gradient's S_k
            stage = derivatives()[1]
            weighted = stage @ flat
            return flat.reshape(-1, 9 * n).T @ weighted.reshape(-1, 9 * n)
        return (breakdown.total + penalty,
                lambda: derivatives()[0], hessian,
                (u, horizon, g_all, breakdown))

    z = np.divide(shift_warm_start(warm, n) - center, half,
                  where=constants.free, out=np.zeros((n, 9))).ravel()
    held = warm.held if warm is not None else ((), ())
    stats = SolveStats()
    status = 1
    for outer in range(cfg.outer_rounds):
        stats.outer_rounds = outer + 1
        result = scipy.optimize.minimize(
            merit, z, method=box_gauss_newton, bounds=(-box, box),
            constraints=rows,
            options={"maxiter": cfg.max_iterations,
                     "gtol": CONVERGENCE_TOL, "ftol": 1e-7, "start": held})
        z, held = result.x, result.active
        stats.iterations += int(result.nit)
        status = int(result.status)

        # the last value pass at the point the round ended on
        u, horizon, g_all, breakdown = result.point
        lam = model.update(lam, rho, g_all)
        # the rounds end where every row holds, or where the report, taken
        # once states 1..N keep half the margin, calls the plan feasible
        residuals, violation = None, max(0.0, -float(g_all.min()))
        if violation <= 1e-7:
            break
        if model.feasible_with_margin(g_all):
            residuals = cons.evaluate_constraints(u, horizon, model.tracks,
                                                  cset, spec)
            if residuals.min() >= FEASIBILITY_TOL:
                break
        # each round is solved to its tolerance, so the multiplier update
        # alone closes the gap only linearly: a round that did not end the
        # solve stiffens the penalty too
        rho = min(rho * PENALTY_GROWTH, 1e8)

    # the report's cost is exact: the last value pass computed it beside
    # the descent merit's smoothed rotation norm
    if residuals is None:
        residuals = cons.evaluate_constraints(u, horizon, model.tracks, cset,
                                              spec)
    stats.converged = status == 0
    stats.wall_time = time.perf_counter() - start_time
    feasible = bool(residuals.min() >= FEASIBILITY_TOL)
    # complementary slackness: a state-box entry the plan holds strictly
    # carries no multiplier into the next solve
    lam.reshape(n, -1)[:, cons.BOX][g_all.reshape(n, -1)[:, cons.BOX] > (
        HELD_SHARE * model.tracks.box_widths)] = 0.0
    return Plan(inputs=u, horizon=horizon, cost=breakdown.exact,
                residuals=residuals, feasible=feasible, stats=stats,
                records=records, multipliers=lam, penalty=rho, held=held)
