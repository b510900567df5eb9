"""Receding-horizon planner for the camera rig.

Each call minimizes the horizon cost over the stacked drone + lens input
sequence subject to the rig dynamics and the feasibility inequalities.
Inputs are normalized to [-1, 1] by their bounds.  One Gauss-Newton SQP
descent (:func:`box_gauss_newton`) holds that box and every state row of
states 1..N (the state box, collision and occlusion separation),
linearized at each point it steps from, in every model step: a quadratic
program that starts from the rows the last one held, in the last solve
too, and whose Gauss-Newton model Hessian sums the stage blocks of the
cost over the forward sensitivities of the rollout.  Trials are judged by
Fletcher's exact l1 merit, its weight taken from the model steps'
multipliers.  Everything is deterministic for identical arguments.
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

#: Price per unit of the elastic variable of a point whose linearized rows
#: hold no step: large, so that it finds the least violation.
_ELASTIC = 1e6
#: Ridge added to the model Hessian, relative to its largest diagonal
#: entry, so that its Cholesky factorization exists.
_DAMPING = 1e-10
#: Pixels per unit of occlusion-separation row: the gap, scaled to O(1)
#: like the collision rows in meters and the box rows by their box widths.
_SEPARATION_SCALE = 100.0
#: A plan is feasible when no residual of its report falls below this.
FEASIBILITY_TOL = -1e-6
#: The descent stops at a projected gradient of this size
#: (``box_gauss_newton``'s ``gtol``), or at a relative decrease of 1e-7.
CONVERGENCE_TOL = 1e-5
#: The l1 merit's weight is at least this multiple of the largest
#: multiplier a model step gives a state row; a weight above every
#: multiplier makes each model step a descent direction of the merit.
MERIT_WEIGHT_SHARE = 2.0
#: Four ulps of a merit of size 1: a step foreseeing a decrease below this
#: share of the merit ends the descent.
_ROUNDING = 4.0 * np.finfo(float).eps


@dataclass
class SolverConfig:
    """Tuning knobs of one planner instance."""

    horizon: int = 5
    dt: float = 0.2
    max_iterations: int = 150
    constraint_margin: float = 0.0

    def __post_init__(self) -> None:
        failed = [message for ok, message in (
            (self.horizon >= 1, "horizon must be >= 1"),
            (self.dt > 0.0, "dt must be positive"),
            (self.max_iterations >= 1, "max_iterations must be >= 1"),
            (self.constraint_margin >= 0.0,
             "constraint_margin must be >= 0"))
            if not ok]
        if failed:
            raise ValueError("; ".join(failed))


@dataclass
class SolveStats:
    iterations: int = 0
    converged: bool = False
    wall_time: float = 0.0


@dataclass(eq=False)
class Plan:
    """Result of one planning instance.

    ``inputs`` is the read-only (n, 9) input array and ``horizon`` is
    exactly ``kin.rollout(initial, inputs, dt)`` (single shooting).
    ``held`` carries the rows the last model step held into the next
    solve, whose first model step starts from those rows as they are."""

    inputs: np.ndarray
    horizon: kin.Horizon
    cost: obj.CostBreakdown
    residuals: np.ndarray
    feasible: bool
    stats: SolveStats
    records: list[cons.OcclusionRecord] = field(default_factory=list)
    held: tuple = ()


def shift_warm_start(prev: Plan | None, n_steps: int) -> np.ndarray:
    """Shift a previous plan's inputs one step, repeating the last one.

    Returns an (n_steps, 9) array in the solver's input layout; zeros
    without a previous plan."""
    if prev is None:
        return np.zeros((n_steps, 9))
    rows = prev.inputs
    return rows[np.minimum(np.arange(1, n_steps + 1), len(rows) - 1)]


class _Constants(NamedTuple):
    """What every solve reads of its input bounds and stages alone,
    read-only: the input scaling (``u = center + z half``) and the scaled
    box ``box``, [0, 0] on an input channel held at its bound (``~free``);
    and the blocks of the sensitivities of states 1..N to ``z`` that no
    input moves, each derivative build filling in the rotation block,
    scaled by ``rotation_scale``."""

    center: np.ndarray
    half: np.ndarray
    free: np.ndarray
    box: np.ndarray
    linear_sens: np.ndarray
    rotation_scale: np.ndarray


@functools.lru_cache(maxsize=16)
def _planner_constants(n: int, dt: float, *bounds: bytes) -> _Constants:
    """The :class:`_Constants` of ``n`` stages of ``dt``, keyed by value:
    ``bounds`` holds the bytes of the input row's low and high bounds;
    equal configurations share one entry."""
    low, high = map(np.frombuffer, bounds)
    center, half = 0.5 * (low + high), 0.5 * (high - low)
    free = high - low > 1e-12
    box = np.tile(np.where(free, 1.0, 0.0), n)
    # d u / d z per input row
    scale = np.tile(np.where(free, half, 0.0), n).reshape(n, 9)
    built = _Constants(center, half, free, box,
                       kin.linear_sensitivities(n, dt)[1:] * scale,
                       scale[:, 3:6])
    for array in built:
        array.setflags(write=False)
    return built


def box_gauss_newton(fun, x0, bounds, maxiter: int = 100,
                     gtol: float = 1e-5, ftol: float = 1e-7, start=(),
                     **unused) -> scipy.optimize.OptimizeResult:
    """Levenberg-Marquardt SQP descent over the box ``bounds``, a ``(low,
    high)`` pair, and the rows ``c(x) >= 0``, in the calling convention of
    a ``scipy.optimize.minimize`` method.

    ``fun(x)`` returns the values ``[f, c]`` at ``x`` (a scalar ``f`` where
    there are no rows), zero-argument builders of their Jacobian ``[g; J]``
    (``g`` alone likewise) and of a positive semidefinite Gauss-Newton
    matrix ``H`` of ``f`` there, and a record of ``x`` that the result
    hands back as ``point``.  From ``x0`` clipped to the box, each
    iteration minimizes the damped model ``g s + s (H + mu I) s / 2`` over
    the box and ``c + J s >= 0`` (:func:`_model_step`), the rows raised by
    the least uniform violation a step can reach where they hold none
    (:func:`_elastic_step`), so a row linear in ``x`` that the start
    breaks holds from the first trial on where any step holds it, and
    evaluates the step once.  A trial is judged by Fletcher's exact l1
    merit ``f + nu sum max(0, -c)``, ``nu`` raised to
    :data:`MERIT_WEIGHT_SHARE` times each model step's largest multiplier
    of a row; ``mu`` starts at 0 and follows the ratio of the merit's
    actual to predicted decrease by Nielsen's rule (Moré, 1978; Nielsen,
    IMM-REP-1999-05), a non-finite trial rejected.  Stops with status 0
    when the box's projected gradient holds every row and is ``<= gtol`` in
    every entry, or an accepted step lowers the merit by ``<= ftol`` of its
    size (both L-BFGS-B's tests), or the first step from ``x`` foresees a
    decrease below the merit's rounding; 1 after ``maxiter`` trial steps,
    and 2 when the model step fails or no longer moves ``x``.

    A point's Jacobian is built only once the descent goes on from it (the
    start, or an accepted trial past the ``ftol`` test), and its Hessian
    only once a step is to be taken from it; the result's ``jac`` (``g``)
    is None where the descent stopped without it at ``x``.  The first
    model step starts from the rows ``start`` (rows of ``[I; -I; -J]``);
    ``active`` is where the last one ended.
    """
    low, high = bounds
    x = np.asarray(x0, float).clip(low, high)
    n = len(x)
    values, jacobian, hessian, point = fun(x)
    f, c = _split(values)
    g = h = None  # at x, each built when the descent first needs it
    active = list(start)  # the last active set, where the next QP starts
    nit, status = 0, 2
    mu, growth, nu = 0.0, 2.0, 0.0
    eye = np.eye(n)

    def model_step(model):
        # where the rows linearized at x hold no step, they are raised by
        # the least uniform violation that a step can reach
        try:
            return _model_step(model, g, normals, levels, active)
        except np.linalg.LinAlgError:
            if not c.size:
                raise
        reach = normals[2 * n:] @ _elastic_step(normals, levels)
        levels[2 * n:] += max(0.0, float((reach - levels[2 * n:]).max()))
        return _model_step(model, g, normals, levels, active)
    while math.isfinite(f) and np.isfinite(c).all():
        if g is None:
            g, jac = _split(np.atleast_2d(jacobian()))
            normals = np.concatenate([eye, -eye, -jac])
            levels = np.concatenate([high - x, x - low, c])
        steepest = (-g).clip(low - x, high - x)
        if (np.abs(steepest).max() <= gtol
                and not (normals[2 * n:] @ steepest > levels[2 * n:]).any()):
            status = 0
            break
        if nit >= maxiter:
            status = 1
            break
        if h is None:
            h = hessian()
        nit += 1
        diagonal = float(h.diagonal().max()) or 1.0  # 0: the cost is flat
        try:
            step, active, duals = model_step(
                h + (_DAMPING * diagonal + mu) * eye)
        except np.linalg.LinAlgError:  # a model too ill-posed to solve
            break
        nu = max(nu, MERIT_WEIGHT_SHARE * float(duals[
            np.array(active, int) >= 2 * n].max(initial=0.0)))
        trial = (x + step).clip(low, high)
        step = trial - x
        merit = f + nu * _violation(c)
        predicted = -(g @ step + 0.5 * step @ (h @ step)) + nu * (
            _violation(c) - _violation(c + jac @ step))
        # the model's own step from x (no trial from x rejected yet, so
        # growth is 2) foresees a decrease below the merit's rounding
        if growth == 2.0 and predicted <= _ROUNDING * max(abs(merit), 1.0):
            status = 0
            break
        if not step.any():
            break  # damped below round-off
        passed = fun(trial)
        f_trial, c_trial = _split(passed[0])
        merit_trial = f_trial + nu * _violation(c_trial)
        ratio = ((merit - merit_trial) / predicted if predicted > 0.0
                 else -1.0)
        if not ratio > 1e-4:  # also a non-finite trial
            mu, growth = max(growth * mu, 1e-3 * diagonal), 2.0 * growth
            continue
        mu, growth = mu * max(1 / 3, 1 - (2 * ratio - 1) ** 3), 2.0
        if ratio < 0.25:  # a poor model starts the damping from 0
            mu = max(mu, 1e-3 * diagonal)
        x, (_, jacobian, hessian, point), g, h = trial, passed, None, None
        f, c = f_trial, c_trial
        # a small decrease counts where the model foresaw it
        if (ratio >= 0.25 and merit - merit_trial
                <= ftol * max(abs(merit), abs(merit_trial), 1.0)):
            status = 0
            break
    return scipy.optimize.OptimizeResult(
        x=x, fun=f, jac=g, point=point, nit=nit, status=status,
        active=active,
        success=status == 0, message=("converged", "iteration cap",
                                      "damped step no longer moves x")[status])


def _split(stacked):
    """The first row of ``stacked`` (an ``f`` or a ``g``) and the rest."""
    stacked = np.atleast_1d(stacked)
    return stacked[0], stacked[1:]


def _violation(c: np.ndarray) -> float:
    """The l1 merit's price of the rows ``c >= 0``: ``sum max(0, -c)``."""
    return float(np.maximum(0.0, -c).sum())


def _elastic_step(normals, levels):
    """The least step ``s`` of the box (the first 2n rows) that holds the
    rows after it, ``normals @ s <= levels``, all relaxed by one elastic
    variable ``t >= 0`` priced at :data:`_ELASTIC` (Kerrigan and
    Maciejowski, CDC 2000): ``t`` is their least uniform violation.  Zero
    where the model step fails even so."""
    n = normals.shape[1]
    eye = np.eye(n + 1)
    try:
        return _model_step(eye, np.r_[np.zeros(n), _ELASTIC], np.concatenate(
            [eye, -eye, np.column_stack([normals[2 * n:],
                                         -np.ones(len(normals) - 2 * n)])]),
            np.concatenate([levels[:n], [np.inf], levels[n:2 * n], [0.0],
                            levels[2 * n:]]))[0][:-1]
    except np.linalg.LinAlgError:
        return np.zeros(n)


def _model_step(h, g, normals, levels, start=()):
    """Minimizer of ``g s + s h s / 2`` over ``normals @ s <= levels``,
    whose first 2n rows are the box (``I``, then ``-I``), the rows it holds
    and their multipliers: Goldfarb and Idnani's dual active-set method
    (1983), started from the held rows ``start`` less those past the rows,
    those that the rows before them span (a failed Schur pivot) and those
    of negative multiplier, so from any start.

    It works in ``t = L^T s``, ``h = L L^T``, where the model is ``|t +
    L^-1 g|^2 / 2`` and a row ``a`` is ``y = L^-1 a``.  The held rows'
    columns ``Y`` and the lower Cholesky factor ``R`` of ``Y^T Y`` are kept
    across the call: a row taken on in full appends one row to ``R`` (one
    ``dtrtrs``), and a row let go refactors ``R`` from ``Y``.  One
    correction puts the held rows on their levels at the end.  The steps'
    rounding grows with the multipliers: where the held rows span the row
    taken on (its pivot reads 0), the face is solved afresh, from ``R``
    refactored, before the next step or verdict (with n rows held, before
    the verdict alone), and after a row is let go.  A bound the step holds
    itself is met exactly; a held row, and a bound met only through held
    rows, to rounding.  Raises ``np.linalg.LinAlgError`` where ``h`` does
    not factor, the rows hold no point, or the held set cycles."""
    n, lapack = len(g), scipy.linalg.lapack
    factor, info = lapack.dpotrf(h, lower=1)
    if info:
        raise np.linalg.LinAlgError("model not positive definite")
    inverse = lapack.dtrtri(factor, lower=1)[0]  # L^-1 of h = L L^T
    c = inverse @ g

    def column(k):
        # y = L^-1 a of row k: a bound's is a column of L^-1, with its sign
        if k < n:
            return inverse[:, k]
        return -inverse[:, k - n] if k < 2 * n else inverse @ normals[k]

    def refactor():
        # R from the held columns, letting go of each row that the rows
        # before it span; whether any was let go
        spanned = False
        while active:
            held = ys[:, :len(active)]
            schur[:len(active), :len(active)], info = lapack.dpotrf(
                held.T @ held, lower=1)
            if not info:
                break
            spanned = True
            del active[info - 1]
            ys[:, info - 1:len(active)] = ys[:, info:len(active) + 1]
        return spanned

    def solved(b):
        # (Y^T Y)^-1 b through R
        return lapack.dpotrs(schur[:len(b), :len(b)], b, lower=1)[0]

    def face(q):
        # the minimizer of q t + |t|^2 / 2 with the held rows at their
        # levels, and their multipliers (into duals); q + Y multipliers
        # cancels to rounding of its largest entries: one correction puts
        # the rows back
        if not active:
            return -q
        held, targets = ys[:, :len(active)], levels[active]
        duals[:len(active)] = -solved(targets + held.T @ q)
        t = -(q + held @ duals[:len(active)])
        return t - held @ solved(held.T @ t - targets)

    active = [k for k in start if k < len(levels)]
    # the held rows' columns Y, R and the multipliers, in their first
    # len(active) columns (entries)
    ys = np.empty((n, max(n, len(active))))
    schur = np.zeros((ys.shape[1], ys.shape[1]))
    duals = np.zeros(ys.shape[1])
    ys[:, :len(active)] = inverse @ normals[active].T
    while True:
        refactor()
        t = face(c)
        kept = duals[:len(active)] >= 0.0
        if kept.all():
            break
        ys[:, :kept.sum()] = ys[:, :len(active)][:, kept]
        active = [k for k, keep in zip(active, kept) if keep]
    fresh = True  # R refactored from Y, and t solved from it
    for _ in range(4 * len(levels)):
        s = inverse.T @ t
        excess = normals @ s - levels
        excess[active] = 0.0
        k = int(excess.argmax())
        if not excess[k] > 1e-12:
            held = ys[:, :len(active)]
            if active and not fresh:
                t -= held @ solved(held.T @ t - levels[active])
            s = inverse.T @ t
            bounds = np.array([k for k in active if k < 2 * n], int)
            s[bounds % n] = np.where(bounds < n, 1.0, -1.0) * levels[bounds]
            return s, active, duals[:len(active)].copy()
        y, weight = column(k), 0.0  # weight: row k's multiplier
        threshold = 1e-14 * float(normals[k] @ normals[k])
        while True:
            m = len(active)
            held, values = ys[:, :m], duals[:m]
            p = held.T @ y
            rates = -solved(p) if m else p
            dt = -(y + held @ rates)  # t's rate as the weight grows
            # the growth of the weight at which each held row's multiplier
            # reaches 0, then row k's own (full) where it is met
            reach = np.full(m + 1, np.inf)
            np.divide(values.clip(0.0), -rates, out=reach[:m],
                      where=rates < 0.0)
            drop = int(reach.argmin())
            gain = -float(y @ dt)
            full = np.inf
            if m < n and gain > threshold:
                full = (float(y @ t) - levels[k]) / gain
            if full == np.inf and not fresh and (
                    m < n or reach[drop] == np.inf):
                # the held rows span row k: the steps' rounding may read it
                # as broken, or its multipliers' rates as falling, so solve
                # the face afresh and test row k again (with n rows held,
                # only before raising: every row is spanned, and the square
                # Schur complement solves no better afresh)
                refactor()
                t, fresh = face(c + weight * y), True
                if not weight and not (
                        normals[k] @ (inverse.T @ t) - levels[k] > 1e-12):
                    break
                continue
            if reach[drop] == full == np.inf:
                raise np.linalg.LinAlgError("the rows hold no point")
            fresh = False
            step = min(full, reach[drop])
            t = t + step * dt
            values += step * rates
            if full <= reach[drop]:
                if m:
                    schur[m, :m] = lapack.dtrtrs(schur[:m, :m], p,
                                                 lower=1)[0]
                schur[m, m] = math.sqrt(gain)
                ys[:, m], duals[m] = y, weight + full
                active.append(k)
                break
            weight += step
            del active[drop]
            ys[:, drop:m - 1] = ys[:, drop + 1:m]
            duals[drop:m - 1] = duals[drop + 1:m]
            # the direction of a row k that the held rows span is rounding
            if refactor() or full == np.inf:
                t, fresh = face(c + weight * y), True
    raise np.linalg.LinAlgError("active set cycles")


def _row_layout(limits: cons.ConstraintTracks, n: int, free: np.ndarray,
                ) -> tuple[np.ndarray, np.ndarray]:
    """The layout of the rows of states 1..N that the descent linearizes,
    column by column of :func:`cons.state_residuals` (the state box's ``x
    - lo``, then ``hi - x``, then the collision and separation columns):
    the scale of each column (1 / box width on the box, where that is
    finite and positive) and the (columns, n) mask of the entries kept:
    all but those no input moves, state 1's position and collision rows
    (``p0 + dt v0``) and the position, velocity or lens rows of an input
    channel held at its bound (``~free``), and the box rows of a bound
    that is not finite.  So a row's index is fixed by the horizon, the
    bounds and the targets alone."""
    widths = limits.box_widths
    scale = np.ones(limits.width)
    scale[cons.BOX] = 1.0 / np.where((widths > 0.0) & np.isfinite(widths),
                                     widths, 1.0)
    kept = np.ones((limits.width, n), bool)
    box = kept[cons.BOX].reshape(2, kin.STATE_SIZE, n)
    box[...] = np.isfinite(limits.bounds).reshape(2, -1, 1)
    # each linear entry is moved by one input channel alone
    box[:, ~np.r_[free[:3], free[:3], True, True, True, free[6:]]] = False
    box[:, kin.POSITION, 0] = False
    kept[limits.collision, 0] = False
    return scale, kept


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
    row of states 1..N no feasible value, the descent holds the rows at
    their least uniform violation.
    """
    start_time = time.perf_counter()
    n = cfg.horizon
    dt = cfg.dt
    sizes = sizes or {}

    records: list[cons.OcclusionRecord] = []
    if cset.occlusion_enabled and sizes:
        records = cons.activate_occlusions(initial, preds, sizes, spec)

    constants = _planner_constants(n, dt, *(
        edge.tobytes() for edge in cset.input_bounds))
    center, half, box = constants.center, constants.half, constants.box

    tracks = obj.HorizonTracks(preds, instr, n + 1)
    limits = cons.ConstraintTracks(preds, sizes, cset, records, n + 1)
    scale, kept = _row_layout(limits, n, constants.free)
    # the sensitivities of states 1..N to z: each derivative build writes
    # its rotation block into this one buffer, which the Hessian at the
    # build's point reads before the descent builds at another point
    sens = constants.linear_sens.copy()
    flat = sens.reshape(n, kin.STATE_SIZE, 9 * n)

    def merit(z_flat: np.ndarray):
        """One value pass at the scaled inputs ``z_flat``: the cost and the
        state rows, builders of their Jacobian and of the cost's
        Gauss-Newton matrix, which share one derivative build, and the
        pass's record (inputs, horizon, cost breakdown), its inputs
        read-only."""
        u = center + z_flat.reshape(n, 9) * half
        horizon = kin.rollout(initial, u, dt)
        breakdown, cost_rows = obj.evaluate_horizon_stacked(
            horizon, tracks, spec, instr)
        residuals, derivatives = cons.state_residuals(
            horizon, 1, limits, spec, margin=cfg.constraint_margin,
            separation_scale=_SEPARATION_SCALE)
        u.setflags(write=False)

        @functools.cache
        def build():
            # the rows of states 1..N; state 0 moves with no input
            gradient, stage = obj.contract_rows(cost_rows(), n)
            sens[:, kin.ROTATION, :, 3:6] = kin.rotation_sensitivities(
                horizon, dt) * constants.rotation_scale
            d = derivatives()
            # a box row off the rotation is a unit row: a row of flat
            low = flat.copy()
            low[:, kin.ROTATION] = d[:, kin.ROTATION] @ flat
            by_state = np.concatenate(
                [low, 0.0 - low, d[:, kin.STATE_SIZE:] @ flat], axis=1)
            built = (np.concatenate([
                obj.chain_through_dynamics(gradient, flat)[None],
                (by_state * scale[:, None]).transpose(1, 0, 2)[kept]]),
                stage)
            for array in built:
                array.setflags(write=False)
            return built

        def hessian() -> np.ndarray:
            # sum over states 1..N of S_k^T W_k S_k, the gradient's S_k
            stage = build()[1]
            weighted = stage @ flat
            return flat.reshape(-1, 9 * n).T @ weighted.reshape(-1, 9 * n)
        return (np.concatenate([[breakdown.total],
                                (residuals * scale).T[kept]]),
                lambda: build()[0], hessian, (u, horizon, breakdown))

    z = np.divide(shift_warm_start(warm, n) - center, half,
                  where=constants.free, out=np.zeros((n, 9))).ravel()
    result = scipy.optimize.minimize(
        merit, z, method=box_gauss_newton, bounds=(-box, box),
        options={"maxiter": cfg.max_iterations, "gtol": CONVERGENCE_TOL,
                 "ftol": 1e-7,
                 "start": warm.held if warm is not None else ()})
    # the report's cost is exact: the last value pass computed it beside
    # the descent merit's smoothed rotation norm
    u, horizon, breakdown = result.point
    residuals = cons.evaluate_constraints(u, horizon, limits, cset, spec)
    stats = SolveStats(iterations=int(result.nit),
                       converged=result.status == 0,
                       wall_time=time.perf_counter() - start_time)
    return Plan(inputs=u, horizon=horizon, cost=breakdown.exact,
                residuals=residuals,
                feasible=bool(residuals.min() >= FEASIBILITY_TOL),
                stats=stats, records=records, held=tuple(result.active))
