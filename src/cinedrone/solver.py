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
    and 2 when the model step fails or no longer moves ``x``, ``mu`` grown
    past the largest float included.

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
            if math.isfinite(mu):
                continue
            break  # the damping overflowed: no step moves x
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
    (1983), started from the held rows ``start`` less those past the rows
    or past the n-th, those that the rows before them span and those of
    negative multiplier, so from any start.

    It works in ``t = L^T s``, ``h = L L^T``, where the model is ``|t +
    L^-1 g|^2 / 2`` and a row ``a`` is ``y = L^-1 a``.  The held rows'
    columns are kept as Goldfarb and Idnani keep them, as a QR factor ``Y
    = Q_1 R``, so ``Y^T Y``, whose condition is the square of ``Y``'s, is
    never formed.  The start factors its rows at once (``dgeqrf``); a row
    whose pivot ``R_ii^2`` is at most ``1e-14 |a|^2`` is spanned by those
    before it, the test a row taken on meets too.  A row taken on splits
    ``y = Q_1 p + w``, ``w`` orthogonal to the held columns: the held
    multipliers move at the rates ``-R^-1 p`` and ``t`` along ``-w``, at
    the pivot ``|w|^2``, and a full step appends ``w / |w|`` to ``Q_1`` and
    ``(p, |w|)`` to ``R``, then one refinement puts the held rows back on
    their levels.  A row let go is cut from the factor by Givens rotations.
    A bound the step holds itself is met exactly; a held row, and a bound
    met only through held rows, to rounding.  Raises
    ``np.linalg.LinAlgError`` where ``h`` does not factor, the rows hold no
    point, or the held set cycles."""
    n, lapack = len(g), scipy.linalg.lapack
    factor, info = lapack.dpotrf(h, lower=1)
    if info:
        raise np.linalg.LinAlgError("model not positive definite")

    def lower(b, trans=0):
        # L^-1 b, or L^-T b, of h = L L^T
        return lapack.dtrtrs(factor, b, lower=1, trans=trans)[0]

    def triangular(b, trans=0):
        # R^-1 b, or R^-T b
        if not len(b):
            return b
        return lapack.dtrtrs(r[:len(b), :len(b)], b, trans=trans)[0]

    c = lower(g)
    active = [k for k in start if k < len(levels)][:n]
    # the held rows' columns Y = Q_1 R and their multipliers, in the first
    # len(active) columns (entries); only R's upper triangle is read
    ys, q, r = (np.empty((n, n), order="F") for _ in range(3))
    duals, goals = np.zeros(n), np.empty(n)  # goals: the held rows' levels
    t = -c
    while active:
        m = len(active)
        rows = normals[active]
        ys[:, :m] = lower(rows.T)
        qr, tau = lapack.dgeqrf(ys[:, :m], lwork=32 * n)[:2]
        spanned = (1e14 * np.square(qr.diagonal())
                   <= np.square(rows).sum(1)).nonzero()[0]
        if spanned.size:  # let go of the first spanned row
            kept = np.arange(m) != spanned[0]
        else:  # the face, t = Q_1 R^-T levels - (c - Q_1 Q_1^T c)
            r[:m, :m], q[:, :m] = qr[:m], lapack.dorgqr(qr, tau)[0]
            goals[:m] = levels[active]
            z = triangular(goals[:m], trans=1)
            w = q[:, :m].T @ t - z
            t, duals[:m] = t - q[:, :m] @ w, triangular(w)
            # once more: t's part in the held columns' span cancels
            t -= q[:, :m] @ (q[:, :m].T @ t - z)
            kept = duals[:m] >= 0.0  # let go of negative multipliers
            if kept.all():
                break
        active = [k for k, keep in zip(active, kept) if keep]
        t = -c
    for _ in range(4 * len(levels)):
        s = lower(t, trans=1)
        excess = normals @ s - levels
        excess[active] = 0.0
        k = int(excess.argmax())
        if not excess[k] > 1e-12:
            bounds = np.array([k for k in active if k < 2 * n], int)
            s[bounds % n] = np.where(bounds < n, 1.0, -1.0) * levels[bounds]
            return s, active, duals[:len(active)].copy()
        y, weight = lower(normals[k]), 0.0  # weight: row k's multiplier
        threshold = 1e-14 * float(normals[k] @ normals[k])
        while True:
            m = len(active)
            held, values = q[:, :m], duals[:m]
            # y = Q_1 p + w, w orthogonal to the held columns; where that
            # cancels 99% of |y|^2 and more, orthogonalized once more
            # (Daniel, Gragg, Kaufman and Stewart, 1976).  w combines y
            # with the held columns alone, so an entry that none of them
            # moves stays exactly 0, as a reflection would not keep it
            p = held.T @ y
            w = y - held @ p
            gain = float(w @ w)
            if gain < 1e-2 * float(y @ y):
                again = held.T @ w
                w -= held @ again
                p += again
                gain = float(w @ w)
            rates = -triangular(p)
            # the growth of the weight at which each held row's multiplier
            # reaches 0, then row k's own (full) where it is met
            reach = np.empty(m + 1)
            reach.fill(np.inf)
            np.divide(np.maximum(values, 0.0), -rates, out=reach[:m],
                      where=rates < 0.0)
            drop = int(reach.argmin())
            full = np.inf
            if m < n and gain > threshold:
                full = (float(y @ t) - levels[k]) / gain
            if reach[drop] == full == np.inf:
                raise np.linalg.LinAlgError("the rows hold no point")
            step = min(full, reach[drop])
            t = t - step * w  # t's rate as the weight grows is -w
            values += step * rates
            if full <= reach[drop]:
                r[:m, m], r[m, m] = p, math.sqrt(gain)
                q[:, m], ys[:, m], duals[m] = w / r[m, m], y, weight + full
                goals[m] = levels[k]
                active.append(k)
                # one refinement puts the held rows back on their levels
                t -= q[:, :m + 1] @ triangular(
                    ys[:, :m + 1].T @ t - goals[:m + 1], trans=1)
                break
            weight += step
            del active[drop]
            ys[:, drop:m - 1] = ys[:, drop + 1:m]
            duals[drop:m - 1] = duals[drop + 1:m]
            goals[drop:m - 1] = goals[drop + 1:m]
            # Givens rotations restore R's triangle, combining held columns
            # alone (a square Q_1 is taken for a full Q, its R handed back
            # with a zero row)
            held, kept = scipy.linalg.qr_delete(
                held, r[:m, :m], drop, which="col", check_finite=False)
            q[:, :m - 1], r[:m - 1, :m - 1] = held[:, :m - 1], kept[:m - 1]
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
