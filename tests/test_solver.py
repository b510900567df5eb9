"""Planner behavior: trivial objectives, grid-search oracles, warm starts
and feasibility handling."""

import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from cinedrone import constraints as cons
from cinedrone import kinematics as kin
from cinedrone import objectives as obj
from cinedrone import solver as sol
from cinedrone.config import scenario_from_dict
from cinedrone.kinematics import (CameraRig, DroneState, rollout,
                                  rotation_from_rpy)
from cinedrone.optics import CameraSensorSpec, IntrinsicState
from cinedrone.scene import STATE_COLUMNS, run_closed_loop
from test_kinematics import step_rig_oracle
from test_objectives import mm_depth_of_field, stacked_cost

SPEC = CameraSensorSpec.from_sensor_size(960, 540, 23.76, 13.365, 480, 270)
SCENARIOS = Path(__file__).parent.parent / "src/cinedrone/scenarios"


def make_rig(p=(0, 0, 1), f=35.0, focus=10.0, a=2.0):
    return CameraRig(drone=DroneState(position=np.array(p, float),
                                      velocity=np.zeros(3),
                                      orientation=np.eye(3)),
                     intrinsics=IntrinsicState(f, focus, a))


def focal_grid_optimum(f0, f_star, weight, v_max, dt, n, resolution):
    """Exhaustive search over the discretized focal-rate grid.

    The cost is additive along the focal trajectory, so the full grid
    of rate sequences is enumerated exactly by dynamic programming over
    reachable focal values; the minimum equals brute force over the
    (2 v_max / resolution + 1)^n sequences.
    """
    rates = np.round(np.arange(-v_max, v_max + resolution / 2.0,
                               resolution), 10)
    states = {round(f0, 9): 0.0}
    for _ in range(n):
        new: dict = {}
        for f, cost in states.items():
            stage = cost + weight * (f - f_star) ** 2
            for rate in rates:
                f_next = round(f + dt * rate, 9)
                if f_next not in new or stage < new[f_next]:
                    new[f_next] = stage
        states = new
    return min(cost + weight * (f - f_star) ** 2
               for f, cost in states.items())


def brute_force_focal(f0, f_star, weight, v_max, dt, n, resolution):
    """Literal enumeration of every rate sequence (coarse grids only)."""
    rates = np.round(np.arange(-v_max, v_max + resolution / 2.0,
                               resolution), 10)
    grids = np.meshgrid(*([rates] * n), indexing="ij")
    seq = np.stack([g.ravel() for g in grids], axis=1)
    trajectory = f0 + dt * np.cumsum(seq, axis=1)
    full = np.hstack([np.full((len(seq), 1), f0), trajectory])
    costs = weight * np.sum((full - f_star) ** 2, axis=1)
    return float(costs.min())


class TestTrivialObjectives:
    def test_zero_weights_zero_inputs(self):
        cfg = sol.SolverConfig(horizon=5, dt=0.2)
        plan = sol.solve(make_rig(), {}, obj.Instructions(),
                         cons.ConstraintSet.default(), cfg, SPEC)
        assert np.max(np.abs(plan.inputs)) < 1e-9
        assert plan.cost.total == 0.0
        assert plan.feasible

    def test_optimum_at_start(self):
        # rig already satisfies the only set-point: cost stays ~0 and the
        # returned inputs are negligible
        preds = {"t": obj.TargetPrediction(
            positions=np.tile([11.0, 0.0, 1.0], (6, 1)),
            rotations=np.tile(np.eye(3), (6, 1, 1)))}
        instr = obj.Instructions(composition=(
            obj.CompositionTarget("t", "center", (480.0, 270.0),
                                  (1.0, 1.0)),))
        cfg = sol.SolverConfig(horizon=5, dt=0.2)
        plan = sol.solve(make_rig(), preds, instr,
                         cons.ConstraintSet.default(), cfg, SPEC)
        assert plan.cost.total < 1e-6
        assert np.max(np.abs(plan.inputs)) < 1e-3


class TestGridOracle:
    def test_dp_matches_brute_force_on_coarse_grid(self):
        dp = focal_grid_optimum(35.0, 50.0, 1.0, 7.0, 0.2, 5, 1.0)
        brute = brute_force_focal(35.0, 50.0, 1.0, 7.0, 0.2, 5, 1.0)
        assert dp == pytest.approx(brute, rel=1e-12)

    def test_focal_regulation_matches_grid(self):
        instr = obj.Instructions(focal=obj.FocalTarget(
            obj.FocalSchedule.constant(50.0), weight=1.0))
        cfg = sol.SolverConfig(horizon=5, dt=0.2)
        plan = sol.solve(make_rig(f=35.0), {}, instr,
                         cons.ConstraintSet.default(), cfg, SPEC)
        assert plan.inputs[:, 6] == pytest.approx([7.0] * 5, abs=1e-6)
        assert plan.horizon.lens[-1, 0] == pytest.approx(42.0, abs=1e-6)
        best = focal_grid_optimum(35.0, 50.0, 1.0, 7.0, 0.2, 5, 0.1)
        assert plan.cost.total <= best * 1.01

    def test_two_channel_problem_matches_grid(self):
        # focal regulation plus distance regulation through x acceleration;
        # the channels are decoupled so per-channel exhaustive optima add
        preds = {"t": obj.TargetPrediction(
            positions=np.tile([10.0, 0.0, 1.0], (6, 1)),
            rotations=np.tile(np.eye(3), (6, 1, 1)))}
        instr = obj.Instructions(
            poses=(obj.PoseTarget("t", distance=8.0, w_distance=1.0),),
            focal=obj.FocalTarget(obj.FocalSchedule.constant(42.0),
                                  weight=1.0))
        cfg = sol.SolverConfig(horizon=5, dt=0.2, max_iterations=300)
        plan = sol.solve(make_rig(p=(0, 0, 1), f=35.0), preds, instr,
                         cons.ConstraintSet.default(), cfg, SPEC)

        # brute-force both channels at 0.1-of-range resolution
        best_focal = focal_grid_optimum(35.0, 42.0, 1.0, 7.0, 0.2, 5, 1.4)
        rates = np.round(np.arange(-1.0, 1.0 + 0.1, 0.2), 10)
        grids = np.meshgrid(*([rates] * 5), indexing="ij")
        seq = np.stack([g.ravel() for g in grids], axis=1)
        vel = np.cumsum(seq, axis=1) * 0.2
        vel_full = np.hstack([np.zeros((len(seq), 1)), vel])
        pos = np.cumsum(vel_full[:, :-1], axis=1) * 0.2
        pos_full = np.hstack([np.zeros((len(seq), 1)), pos])
        dist = np.abs(10.0 - pos_full) - 8.0
        best_dist = float(np.min(np.sum(dist * dist, axis=1)))
        assert plan.cost.total <= (best_focal + best_dist) * 1.01

    def test_deterministic(self):
        instr = obj.Instructions(focal=obj.FocalTarget(
            obj.FocalSchedule.constant(50.0), weight=1.0))
        cfg = sol.SolverConfig(horizon=5, dt=0.2)
        plans = [sol.solve(make_rig(), {}, instr,
                           cons.ConstraintSet.default(), cfg, SPEC)
                 for _ in range(2)]
        assert np.array_equal(plans[0].inputs, plans[1].inputs)
        assert plans[0].cost.total == plans[1].cost.total


class TestWarmStart:
    def test_shift_definition(self):
        cfg = sol.SolverConfig(horizon=3, dt=0.2)
        instr = obj.Instructions(focal=obj.FocalTarget(
            obj.FocalSchedule.constant(50.0), weight=1.0))
        plan = sol.solve(make_rig(), {}, instr,
                         cons.ConstraintSet.default(), cfg, SPEC)
        guess = sol.shift_warm_start(plan, 3)
        rows = plan.inputs
        assert np.allclose(guess[0], rows[1])
        assert np.allclose(guess[1], rows[2])
        assert np.allclose(guess[2], rows[2])

    def test_constant_plan_shifts_to_itself(self):
        cfg = sol.SolverConfig(horizon=4, dt=0.2)
        plan = sol.solve(make_rig(), {}, obj.Instructions(),
                         cons.ConstraintSet.default(), cfg, SPEC)
        guess = sol.shift_warm_start(plan, 4)
        assert np.allclose(guess, 0.0)

    def test_no_previous_plan_gives_zeros(self):
        assert np.array_equal(sol.shift_warm_start(None, 5),
                              np.zeros((5, 9)))


class TestPlanContract:
    def test_single_shooting_consistency(self):
        preds = {"t": obj.TargetPrediction(
            positions=np.tile([12.0, 1.0, 1.0], (6, 1)),
            rotations=np.tile(np.eye(3), (6, 1, 1)))}
        instr = obj.Instructions(composition=(
            obj.CompositionTarget("t", "center", (400.0, 250.0),
                                  (1.0, 1.0)),))
        cfg = sol.SolverConfig(horizon=5, dt=0.2)
        rig = make_rig()
        plan = sol.solve(rig, preds, instr, cons.ConstraintSet.default(),
                         cfg, SPEC)
        assert plan.inputs.shape == (5, 9)
        assert not plan.inputs.flags.writeable
        for k in range(5):
            expected = step_rig_oracle(plan.horizon.rig(k),
                                       plan.inputs[k], 0.2)
            actual = plan.horizon.rig(k + 1)
            assert np.array_equal(expected.drone.position,
                                  actual.drone.position)
            assert np.array_equal(expected.drone.velocity,
                                  actual.drone.velocity)
            assert np.array_equal(expected.drone.orientation,
                                  actual.drone.orientation)
            assert expected.intrinsics == actual.intrinsics

    @pytest.mark.parametrize("name", sorted(
        path.stem for path in SCENARIOS.glob("*.json")))
    def test_reported_cost_is_the_exact_cost(self, monkeypatch, name):
        # the report takes its cost from the last value pass; it is the
        # exact cost of the plan's horizon, to the bit
        raw = json.loads((SCENARIOS / f"{name}.json").read_text())
        raw["control"]["duration"] = raw["control"]["period"]
        solves = []
        solve = sol.solve

        def recorded(*args, **kwargs):
            plan = solve(*args, **kwargs)
            solves.append((args, plan))
            return plan
        monkeypatch.setattr(sol, "solve", recorded)
        run_closed_loop(scenario_from_dict(raw), 0)
        [((_, preds, instr, _, cfg, spec), plan)] = solves
        exact = obj.evaluate_horizon(
            plan.horizon, obj.HorizonTracks(preds, instr, cfg.horizon + 1),
            spec, instr)
        for term in ("dof", "image", "pose", "focal"):
            assert np.array_equal(getattr(plan.cost, term),
                                  getattr(exact, term))
        assert plan.cost.exact_pose is None

    def test_feasible_plan_residuals(self):
        cfg = sol.SolverConfig(horizon=5, dt=0.2)
        plan = sol.solve(make_rig(), {}, obj.Instructions(),
                         cons.ConstraintSet.default(), cfg, SPEC)
        assert plan.feasible
        assert plan.residuals.min() >= -1e-6

    def test_infeasible_start_reported(self):
        # a start outside the state box is planned from, and its plan's
        # report says so at row 0; with no cost, the model step that
        # holds the rows' least violation is damped on a scale its
        # Cholesky factors carry, with no overflow
        cfg = sol.SolverConfig(horizon=5, dt=0.2)
        bad = CameraRig(drone=DroneState(position=np.array([100.0, 0, 0]),
                                         velocity=np.zeros(3),
                                         orientation=np.eye(3)),
                        intrinsics=IntrinsicState(35.0, 10.0, 2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = sol.solve(bad, {}, obj.Instructions(),
                             cons.ConstraintSet.default(), cfg, SPEC)
        # the input rows come first, then one row per state 0..N
        states = plan.residuals[18 * cfg.horizon:].reshape(cfg.horizon + 1,
                                                           -1)
        assert not plan.feasible
        assert states[0].min() < sol.FEASIBILITY_TOL

    def test_descent_against_cold_start_cost(self):
        # the returned plan can never be worse than the zero-input guess
        preds = {"t": obj.TargetPrediction(
            positions=np.tile([12.0, 1.0, 1.0], (6, 1)),
            rotations=np.tile(np.eye(3), (6, 1, 1)))}
        instr = obj.Instructions(composition=(
            obj.CompositionTarget("t", "center", (400.0, 250.0),
                                  (1.0, 1.0)),))
        cfg = sol.SolverConfig(horizon=5, dt=0.2)
        rig = make_rig()
        zero_rollout = rollout(rig, np.zeros((5, 9)), 0.2)
        cold = stacked_cost(zero_rollout, preds, SPEC, instr,
                            smooth=True)[0].total
        plan = sol.solve(rig, preds, instr, cons.ConstraintSet.default(),
                         cfg, SPEC)
        assert plan.cost.total <= cold

    def test_pinned_input_channel(self):
        # a zero-width aperture-rate interval holds that input at 0.0
        preds = {"t": obj.TargetPrediction(
            positions=np.tile([12.0, 1.0, 1.0], (6, 1)),
            rotations=np.tile(np.eye(3), (6, 1, 1)))}
        instr = obj.Instructions(
            dof=obj.DofTarget(near=6.0, far=14.0, w_near=1.0, w_far=1.0),
            composition=(obj.CompositionTarget("t", "center", (400.0, 250.0),
                                               (1.0, 1.0)),))
        base = cons.ConstraintSet.default()
        low, high = base.intr_input_low.copy(), base.intr_input_high.copy()
        low[2] = high[2] = 0.0
        cset = cons.ConstraintSet(**{**base.__dict__, "intr_input_low": low,
                                     "intr_input_high": high})
        cfg = sol.SolverConfig(horizon=5, dt=0.2)
        plans = [sol.solve(make_rig(), preds, instr, cset, cfg, SPEC)
                 for _ in range(2)]
        plan = plans[0]
        assert np.all(plan.inputs[:, 8] == 0.0)
        assert np.any(plan.inputs[:, 7] != 0.0)
        assert plan.feasible
        assert np.array_equal(plan.inputs, plans[1].inputs)
        assert np.array_equal(plan.horizon.rotations,
                              plans[1].horizon.rotations)
        assert np.array_equal(plan.horizon.lens, plans[1].horizon.lens)
        assert plan.cost.total == plans[1].cost.total
        assert np.array_equal(plan.residuals, plans[1].residuals)
        assert plan.held == plans[1].held

    def test_collision_constraint_enforced(self):
        preds = {"t": obj.TargetPrediction(
            positions=np.tile([3.0, 0.0, 1.0], (6, 1)),
            rotations=np.tile(np.eye(3), (6, 1, 1)))}
        instr = obj.Instructions(
            poses=(obj.PoseTarget("t", distance=0.5, w_distance=100.0),),)
        base = cons.ConstraintSet.default()
        cset = cons.ConstraintSet(**{**base.__dict__,
                                     "safety_distance": 2.0})
        cfg = sol.SolverConfig(horizon=5, dt=0.2)
        plan = sol.solve(make_rig(), preds, instr, cset, cfg, SPEC)
        for position in plan.horizon.positions:
            dist = np.linalg.norm(position - np.array([3.0, 0.0, 1.0]))
            assert dist >= 2.0 - 1e-3


def side_by_side_problem():
    """Two targets side by side ahead of the rig, kept apart in the image
    by one active occlusion record, under a collision safety distance."""
    preds = {tid: obj.TargetPrediction(
        positions=np.tile([10.0, y, 1.0], (9, 1)),
        rotations=np.tile(np.eye(3), (9, 1, 1)))
        for tid, y in (("a", 1.0), ("b", -1.0))}
    sizes = {"a": (2.0, 0.5), "b": (2.0, 0.5)}
    instr = obj.Instructions(
        composition=(obj.CompositionTarget("a", "center", (120.0, 120.0),
                                           (1.0, 1.0)),),
        poses=(obj.PoseTarget("b", distance=1.0, w_distance=50.0),),
        focal=obj.FocalTarget(obj.FocalSchedule.constant(60.0), 1.0))
    base = cons.ConstraintSet.default()
    cset = cons.ConstraintSet(**{**base.__dict__, "safety_distance": 2.0,
                                 "occlusion_enabled": True})
    return make_rig(), preds, sizes, instr, cset


def box_columns(entries):
    """The columns of both state-box halves of a constraint row that bound
    the state-row entries ``entries``."""
    return [*np.r_[cons.BOX_LOW][entries], *np.r_[cons.BOX_HIGH][entries]]


#: Columns per state of side_by_side_problem (two collision targets, one
#: occlusion record), by group.
PENALTY_GROUPS = {
    "none": [],
    "position box": box_columns(kin.POSITION),
    "velocity box": box_columns(kin.VELOCITY),
    "lens box": box_columns(kin.LENS),
    "roll, pitch and yaw box": box_columns(kin.ROTATION),
    "collision": [cons.BOX.stop, cons.BOX.stop + 1],
    "separation": [cons.BOX.stop + 2],
    "all": list(range(cons.BOX.stop + 3)),
}


def priced_rows(d, slopes, weights, columns):
    """Row blocks (:data:`objectives.Rows`) of the rows the l1 merit prices
    among the row ``columns``, from their derivatives ``d`` by state
    (``constraints.state_residuals``) and per-entry ``slopes`` and
    ``weights`` (states, row width): a box entry's ``x - lo`` and ``hi -
    x`` share one row, of slope ``s_lo - s_hi`` and weight ``w_lo +
    w_hi``."""
    low, high = cons.BOX_LOW, cons.BOX_HIGH
    slopes = np.column_stack([slopes[:, low] - slopes[:, high],
                              slopes[:, cons.BOX.stop:]])
    weights = np.column_stack([weights[:, low] + weights[:, high],
                               weights[:, cons.BOX.stop:]])
    rows = sorted({column - kin.STATE_SIZE if column >= cons.BOX.stop
                   else column % kin.STATE_SIZE for column in columns})
    if not rows:
        return []
    return [(d[:, rows].transpose(1, 0, 2), slopes[:, rows].T,
             weights[:, rows].T)]


class TestStackedHorizon:
    def test_solve_builds_rig_objects_only_at_the_boundary(self,
                                                           monkeypatch):
        rig, preds, sizes, instr, cset = side_by_side_problem()
        cfg = sol.SolverConfig(horizon=8, dt=0.2, constraint_margin=0.15)
        counts = {}

        def count_calls(owner, attr, name):
            original = getattr(owner, attr)
            counts[name] = 0

            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, attr, counted)

        for cls in (CameraRig, DroneState, IntrinsicState):
            count_calls(cls, "__init__", cls.__name__)
        count_calls(obj, "evaluate_horizon_stacked", "evaluations")
        plan = sol.solve(rig, preds, instr, cset, cfg, SPEC, sizes=sizes)
        evaluations = counts.pop("evaluations")
        assert len(plan.records) == 1
        # the descent evaluates its start and each trial at most once, and
        # at least one trial is taken
        assert 1 < evaluations <= 1 + plan.stats.iterations
        # the plan carries the stacked arrays: no rig objects at all
        assert counts == {"CameraRig": 0, "DroneState": 0,
                          "IntrinsicState": 0}

    def test_one_evaluation_per_distinct_point(self, monkeypatch):
        rig, preds, sizes, instr, cset = side_by_side_problem()
        cfg = sol.SolverConfig(horizon=5, dt=0.2, constraint_margin=0.15)
        counts = {"evaluations": 0, "value passes": 0, "descents": 0}
        evaluate = obj.evaluate_horizon_stacked
        minimize = scipy.optimize.minimize

        def counted_evaluate(*args, **kwargs):
            counts["evaluations"] += 1
            return evaluate(*args, **kwargs)

        def counted_minimize(fun, *args, **kwargs):
            passes = []

            def merit(x):
                counts["value passes"] += 1
                passed = fun(x)
                passes.append((x.copy(), passed))

                def latest(build):
                    # derivatives are asked of the pass just made, so they
                    # build on its evaluation
                    def call():
                        assert passes[-1][1] is passed
                        return build()
                    return call
                return (passed[0], latest(passed[1]), latest(passed[2]),
                        passed[3])
            result = minimize(merit, *args, **kwargs)
            counts["descents"] += 1
            # the descent hands back the record of the point it ended on
            assert any(record is result.point and np.array_equal(x, result.x)
                       for x, (_, _, _, record) in passes)
            return result
        monkeypatch.setattr(obj, "evaluate_horizon_stacked",
                            counted_evaluate)
        monkeypatch.setattr(scipy.optimize, "minimize", counted_minimize)
        plan = sol.solve(rig, preds, instr, cset, cfg, SPEC, sizes=sizes)
        # one per value pass: the report reads the descent's last point,
        # with no pass of its own
        assert counts["descents"] == 1
        assert counts["evaluations"] == counts["value passes"]

    def test_penalty_rows_are_report_rows(self, monkeypatch):
        # every row the l1 merit prices and the model step linearizes is a
        # row of the report's state rows of states 1..N, column by column
        # over the states: the box entries scaled by their box widths, the
        # collision and separation entries less the margin, the gap scaled;
        # state 1's position and collision entries, which no input moves,
        # and the box entries of a bound that is not finite are left out
        rig, preds, sizes, instr, cset = side_by_side_problem()
        high = cset.velocity_high.copy()
        high[2] = np.inf
        cset = cons.ConstraintSet(**{**cset.__dict__, "velocity_high": high})
        records = cons.activate_occlusions(rig, preds, sizes, SPEC)
        n, margin = 5, 0.15
        cfg = sol.SolverConfig(horizon=n, dt=0.2, constraint_margin=margin)
        z = np.random.default_rng(2).uniform(-0.5, 0.5, 9 * n)
        passes = capture_descent(monkeypatch, lambda fun, kwargs, x0, _: [
            fun(x) for x in (x0, z)])
        sol.solve(rig, preds, instr, cset, cfg, SPEC, sizes=sizes)
        tracks = cons.ConstraintTracks(preds, sizes, cset, records, n + 1)
        low, high = cset.state_bounds
        width = np.where(np.isfinite(high - low), high - low, 1.0)
        for values, _, _, (u, horizon, _) in passes[0]:
            report = cons.evaluate_constraints(u, horizon, tracks, cset, SPEC)
            # layout per state: 24 box, 2 collision, 1 separation entries
            states = report[18 * n:].reshape(n + 1, 27)[1:]
            want = []
            for column in range(27):
                entry = column % kin.STATE_SIZE
                bound = (low, high)[column // kin.STATE_SIZE][entry] if (
                    column < cons.BOX.stop) else 0.0
                for k in range(n):
                    if not np.isfinite(bound) or k == 0 and (
                            column in box_columns(kin.POSITION)
                            or column in (24, 25)):
                        continue
                    want.append(states[k, column] / width[entry]
                                if column < cons.BOX.stop
                                else states[k, column] - margin
                                if column < 26
                                else states[k, column]
                                / sol._SEPARATION_SCALE - margin)
            assert values[0] == obj.evaluate_horizon_stacked(
                horizon, obj.HorizonTracks(preds, instr, n + 1), SPEC,
                instr)[0].total
            assert len(values) - 1 == 24 * n - 6 - n + 2 * (n - 1) + n
            assert np.allclose(values[1:], want, rtol=0.0, atol=1e-12)
        # the separation derivatives are built only when asked for, and
        # building them changes no row
        builds = []
        chain = cons.camera_point_derivatives
        monkeypatch.setattr(cons, "camera_point_derivatives", lambda *args: (
            builds.append(None), chain(*args))[1])
        rows, derivatives = cons.state_residuals(horizon, 0, tracks, SPEC)
        before = rows.copy()
        assert builds == []
        derivatives()
        assert len(builds) == 1
        assert np.array_equal(rows, before)
        assert np.array_equal(report[18 * n:], rows.ravel())

    @pytest.mark.parametrize("group", sorted(PENALTY_GROUPS))
    def test_zero_slope_skips_bit_identical(self, group):
        # a group's derivative rows with zero slopes and weights, beside the
        # cost's rows, change no bit of the contracted gradients and stage
        # blocks: a row of exact zeros may be left out
        rig, preds, sizes, instr, cset = side_by_side_problem()
        records = cons.activate_occlusions(rig, preds, sizes, SPEC)
        n = 5
        tracks = cons.ConstraintTracks(preds, sizes, cset, records, n + 1)
        cost_tracks = obj.HorizonTracks(preds, instr, n + 1)
        zeros = np.zeros((n, tracks.width))
        rng = np.random.default_rng(6)
        for trial in range(10):
            horizon = rollout(rig, rng.uniform(-0.3, 0.3, (n, 9)), 0.2)
            d = cons.state_residuals(
                horizon, 1, tracks, SPEC, margin=0.15,
                separation_scale=sol._SEPARATION_SCALE)[1]()
            cost_rows = obj.evaluate_horizon_stacked(horizon, cost_tracks,
                                                     SPEC, instr)[1]()
            zero_rows = priced_rows(d, zeros, zeros, PENALTY_GROUPS[group])
            got = obj.contract_rows(cost_rows + zero_rows, n)
            want = obj.contract_rows(cost_rows, n)
            for a, b in zip(got, want):  # the gradients, the stage blocks
                assert np.array_equal(a, b)
                assert np.array_equal(np.signbit(a), np.signbit(b))


def approach_problem(position=(0.5, 0.0, 1.0), velocity=(0.0, 0.0, 0.0),
                     focal=35.0):
    """A distance set-point 0.5 m from a target that a 2 m safety distance
    and a 0.25 m constraint margin keep the rig away from."""
    preds = {"t": obj.TargetPrediction(
        positions=np.tile([3.0, 0.0, 1.0], (6, 1)),
        rotations=np.tile(np.eye(3), (6, 1, 1)))}
    instr = obj.Instructions(
        poses=(obj.PoseTarget("t", distance=0.5, w_distance=0.3),))
    base = cons.ConstraintSet.default()
    cset = cons.ConstraintSet(**{**base.__dict__, "safety_distance": 2.0})
    rig = CameraRig(drone=DroneState(position=np.array(position, float),
                                     velocity=np.array(velocity, float),
                                     orientation=np.eye(3)),
                    intrinsics=IntrinsicState(focal, 10.0, 2.0))
    cfg = sol.SolverConfig(horizon=5, dt=0.2, constraint_margin=0.25)
    return rig, preds, instr, cset, cfg


def capture_descent(monkeypatch, evaluate):
    """Hook ``scipy.optimize.minimize`` so that ``evaluate(fun, kwargs,
    x0, minimize)`` runs at the start of every solve's descent, with the
    unhooked ``minimize``; returns the list of its results."""
    results = []
    minimize = scipy.optimize.minimize

    def hooked(fun, x0, **kwargs):
        results.append(evaluate(fun, kwargs, x0, minimize))
        return minimize(fun, x0, **kwargs)
    monkeypatch.setattr(scipy.optimize, "minimize", hooked)
    return results


def lbfgsb_oracle(minimize, fun, x0, evaluations):
    """L-BFGS-B as the planner ran it before, uncapped (1000
    iterations), on the value and gradient of the merit ``fun``, counting
    its evaluations (value calls) into ``evaluations``."""
    def counted(x):
        evaluations.append(None)
        return fun(x)[0]
    return minimize(
        counted, x0, jac=lambda x: fun(x)[1](), method="L-BFGS-B",
        bounds=[(-1.0, 1.0)] * len(x0),
        options={"maxiter": 1000, "maxls": 60, "maxcor": 20, "ftol": 1e-7,
                 "gtol": 1e-5})


def legacy_merit(fun, rig, cset, cfg, rho=10.0):
    """The planner's merit ``fun`` as it was handed to L-BFGS-B, which
    holds no rows: the cost and the rows as a quadratic penalty of weight
    ``rho`` (a first augmented-Lagrangian round, multipliers 0), and the
    lens trajectory clamped to a floor of 1e-3 with the shortfall
    penalized at 1e6, so that a trial stays in the lens domain."""
    n, dt = cfg.horizon, cfg.dt
    low, high = cset.input_bounds
    center, half = 0.5 * (low + high), 0.5 * (high - low)
    start = rig.intrinsics.as_array()

    def merit(z):
        rates = (center + z.reshape(n, 9) * half)[:, 6:9]
        lens = start + dt * np.cumsum(rates, axis=0)
        shortfall = np.maximum(0.0, 1e-3 - lens)
        clamped = z.reshape(n, 9).copy()
        if shortfall.any():
            rates = np.diff(np.vstack([start, np.maximum(lens, 1e-3)]),
                            axis=0) / dt
            clamped[:, 6:9] = np.divide(rates - center[6:9], half[6:9],
                                        out=np.zeros_like(rates),
                                        where=half[6:9] > 0.0)
        values, jacobian, hessian, point = fun(clamped.ravel())
        short = np.minimum(0.0, values[1:])
        floor = np.zeros((n, 9))
        floor[:, 6:9] = -2e6 * dt * half[6:9] * np.cumsum(
            shortfall[::-1], axis=0)[::-1]
        return (values[0] + 0.5 * rho * short @ short
                + 1e6 * np.sum(shortfall ** 2),
                lambda: (jacobian()[0] + rho * jacobian()[1:].T @ short
                         + floor.ravel()),
                hessian, point)
    return merit


def gauss_newton_problem():
    """``side_by_side_problem`` with every kind of squared term and the
    pseudo-Huber rotation term."""
    rig, preds, sizes, instr, cset = side_by_side_problem()
    instr = replace(
        instr, dof=obj.DofTarget(near=6.0, far=14.0, w_near=1.0, w_far=2.0),
        poses=(obj.PoseTarget("b", distance=1.0, w_distance=50.0,
                              rotation=rotation_from_rpy(0.1, -0.2, 0.3),
                              w_rotation=5.0),))
    cfg = sol.SolverConfig(horizon=5, dt=0.2, constraint_margin=0.15)
    return rig, preds, sizes, instr, cset, cfg


def cost_residuals(z, problem):
    """The planner's cost residuals at the scaled inputs ``z``, built from
    the optics: each squared term's residual times sqrt(2 w), and each
    state's rotation residual matrix T^T R - R* (flattened)."""
    rig, preds, _, instr, cset, cfg = problem
    low, high = cset.input_bounds
    u = 0.5 * (low + high) + z.reshape(-1, 9) * 0.5 * (high - low)
    horizon = rollout(rig, u, cfg.dt)
    dof, (ct,), (pose,) = instr.dof, instr.composition, instr.poses
    squares = []
    for k in range(len(horizon)):
        lens = horizon.lens[k]
        near, far = mm_depth_of_field(lens, SPEC)
        squares += [np.sqrt(2.0 * dof.w_near) * (near - dof.near),
                    np.sqrt(2.0 * dof.w_far) * (far - dof.far)]
        q = horizon.camera_rotations[k].T @ (
            preds[ct.target_id].positions[k] - horizon.positions[k])
        pixel = (SPEC.beta_x * lens[0] * q[0] / q[2] + SPEC.principal_u,
                 SPEC.beta_y * lens[0] * q[1] / q[2] + SPEC.principal_v)
        squares += [np.sqrt(2.0 * w) * (p - want) for w, p, want
                    in zip(ct.weight, pixel, ct.pixel)]
        offset = horizon.positions[k] - preds["b"].positions[k]
        squares.append(np.sqrt(2.0 * pose.w_distance)
                       * (np.linalg.norm(offset) - pose.distance))
        squares.append(np.sqrt(2.0 * instr.focal.weight)
                       * (lens[0] - instr.focal_value(k)))
    matrices = np.einsum("kji,kjl->kil", preds["b"].rotations[:len(horizon)],
                         horizon.rotations) - pose.rotation
    return np.array(squares), matrices.reshape(len(horizon), 9)


def central_jacobian(fun, z, h=1e-6):
    columns = []
    for i in range(z.size):
        up, down = z.copy(), z.copy()
        up[i] += h
        down[i] -= h
        columns.append((fun(up) - fun(down)) / (2.0 * h))
    return np.stack(columns, axis=-1)


class TestGaussNewton:
    def test_hessian_is_the_residual_gauss_newton_matrix(self, monkeypatch):
        problem = gauss_newton_problem()
        rig, preds, sizes, instr, cset, cfg = problem
        points = [None, np.random.default_rng(1).uniform(-0.4, 0.4, 45)]

        def at_points(fun, kwargs, x0, _):
            points[0] = x0.copy()
            return [(values, jacobian(), hessian())
                    for values, jacobian, hessian, _ in map(fun, points)]
        captured = capture_descent(monkeypatch, at_points)
        sol.solve(rig, preds, instr, cset, cfg, SPEC, sizes=sizes)
        eps = obj.ROTATION_NORM_EPS
        w_rot = instr.poses[0].w_rotation
        for z, (values, jac, hess) in zip(points, captured[0]):
            squares, matrices = cost_residuals(z, problem)
            roots = np.sqrt(np.sum(matrices ** 2, axis=1) + eps ** 2)

            def cost_of(x):
                r2, m2 = cost_residuals(x, problem)
                return 0.5 * r2 @ r2 + w_rot * np.sum(np.sqrt(np.sum(
                    m2 ** 2, axis=1) + eps ** 2) - eps)
            # the reference is the planner's cost, and its gradient the
            # one chained through the sensitivities; the Gauss-Newton
            # matrix is the cost's alone, the rows held in the model step
            assert values[0] == pytest.approx(cost_of(z), rel=1e-12)
            fd = central_jacobian(cost_of, z)
            assert np.linalg.norm(jac[0] - fd) <= 1e-6 * np.linalg.norm(fd)

            j_squares = central_jacobian(
                lambda x: cost_residuals(x, problem)[0], z)
            j_matrices = central_jacobian(
                lambda x: cost_residuals(x, problem)[1], z)
            want = j_squares.T @ j_squares
            for m, root, jac in zip(matrices, roots, j_matrices):
                huber = w_rot * (np.eye(9) / root
                                 - np.outer(m, m) / root ** 3)
                want += jac.T @ huber @ jac
            assert np.allclose(hess, hess.T, rtol=0.0, atol=1e-9 * np.abs(
                hess).max())
            assert np.linalg.norm(hess - want) <= 1e-5 * np.linalg.norm(want)

    def test_one_chain_rule_per_merit_call(self, monkeypatch):
        # a value call takes its step exponentials from one batch pass, in
        # the rollout, and builds no sensitivities; the gradient at its
        # point builds the input-dependent ones once, and the Hessian
        # there reuses them; the input-independent ones are read once per
        # solve, before any call, from their memo
        rig, preds, sizes, instr, cset, cfg = gauss_newton_problem()
        counts = {"so3_exp_and_right_jacobian_batch": 0,
                  "rotation_sensitivities": 0, "linear_sensitivities": 0}
        for module in (kin, obj, sol, cons):
            for name in counts:
                if hasattr(module, name):
                    def counted(*args, _name=name,
                                _original=getattr(module, name)):
                        counts[_name] += 1
                        return _original(*args)
                    monkeypatch.setattr(module, name, counted)
        z = np.random.default_rng(3).uniform(-0.4, 0.4, 45)

        def at_point(fun, kwargs, x0, _):
            stages, passed = [], []
            for call in (lambda: passed.extend(fun(z)),
                         lambda: passed[1](), lambda: passed[2]()):
                before = dict(counts)
                call()
                stages.append({name: counts[name] - before[name]
                               for name in counts})
            return stages
        captured = capture_descent(monkeypatch, at_point)
        sol.solve(rig, preds, instr, cset, cfg, SPEC, sizes=sizes)
        value, gradient, hessian = captured[0]
        assert value == {"so3_exp_and_right_jacobian_batch": 1,
                         "rotation_sensitivities": 0,
                         "linear_sensitivities": 0}
        assert gradient == {"so3_exp_and_right_jacobian_batch": 0,
                            "rotation_sensitivities": 1,
                            "linear_sensitivities": 0}
        assert hessian == {"so3_exp_and_right_jacobian_batch": 0,
                           "rotation_sensitivities": 0,
                           "linear_sensitivities": 0}

    def test_sensitivities_built_where_the_descent_goes_on(self,
                                                          monkeypatch):
        # per solve, the input-dependent sensitivities are built once at
        # each point where the descent asks for the Jacobian: its start and
        # each trial it goes on from, never at a trial it left for another
        rig, preds, sizes, instr, cset = side_by_side_problem()
        cfg = sol.SolverConfig(horizon=5, dt=0.2, constraint_margin=0.15)
        builds, logs = [], []
        rotation_sensitivities = kin.rotation_sensitivities
        minimize = scipy.optimize.minimize

        def counted(*args):
            builds.append(None)
            return rotation_sensitivities(*args)

        def logged_minimize(fun, x0, **kwargs):
            logs.append([])
            return minimize(logged_descent(fun, logs[-1]), x0, **kwargs)
        monkeypatch.setattr(kin, "rotation_sensitivities", counted)
        monkeypatch.setattr(scipy.optimize, "minimize", logged_minimize)
        plan = None
        for _ in range(2):  # a cold solve, then one warm-started from it
            builds.clear()
            logs.clear()
            plan = sol.solve(rig, preds, instr, cset, cfg, SPEC, warm=plan,
                             sizes=sizes)
            [log] = logs
            latest, built = None, []
            for call, x, _ in log:
                if call == "fun":
                    latest = x
                elif call == "jac":
                    assert np.array_equal(x, latest)
                    built.append(x)
            assert len(builds) == len(built) > 1
            assert len(builds) < sum(call == "fun" for call, _, _ in log)

    @pytest.mark.parametrize("name", ["side by side", "e4_occlusion"])
    def test_hessian_read_before_the_next_build(self, monkeypatch, name):
        # every derivative build writes its rotation block into the solve's
        # one sensitivity buffer, so a point's Hessian must be read before
        # the descent builds at another point: it is, on every solve of a
        # cold and a warm solve and of 3 s of the occlusion shot
        events, minimize = [], scipy.optimize.minimize

        def recorded_minimize(fun, x0, **kwargs):
            def merit(x):
                value, gradient, hessian, point = fun(x)
                at = len(events)
                events.append(("fun", at))

                def recorded(kind, build):
                    def call():
                        events.append((kind, at))
                        return build()
                    return call
                return (value, recorded("jac", gradient),
                        recorded("hess", hessian), point)
            return minimize(merit, x0, **kwargs)
        monkeypatch.setattr(scipy.optimize, "minimize", recorded_minimize)
        if name == "side by side":
            rig, preds, instr, cset, cfg, _, kwargs = fixed_problems()[name]
            plan = None
            for _ in range(2):
                plan = sol.solve(rig, preds, instr, cset, cfg, SPEC,
                                 warm=plan, **kwargs)
        else:
            raw = json.loads((SCENARIOS / f"{name}.json").read_text())
            raw["control"]["duration"] = 3.0
            assert run_closed_loop(scenario_from_dict(raw), 0).status == (
                "completed")
        built, last = set(), None
        for kind, at in events:
            if kind != "fun" and at not in built:  # the point's one build
                built.add(at)
                last = at
            if kind == "hess":
                assert last == at
        assert sum(kind == "hess" for kind, _ in events) > 10

    def test_no_worse_than_uncapped_lbfgsb(self, monkeypatch):
        """At least 5x fewer merit evaluations than uncapped L-BFGS-B on
        each fixed problem.  L-BFGS-B holds no rows, so it runs on
        :func:`legacy_merit`, the planner's former formulation, its rows
        priced by a quadratic penalty."""
        # a bound-constrained quadratic takes L-BFGS-B two evaluations, so
        # the evaluation counts compare over the whole set; L-BFGS-B, which
        # holds no rows, runs on the merit as the planner handed it over
        mine, theirs = 0, 0
        for name, problem in fixed_problems().items():
            def both(fun, kwargs, x0, minimize):
                counted = []

                def merit(x):
                    counted.append(None)
                    return fun(x)
                ours = minimize(merit, x0, **kwargs)
                oracle_counted = []
                oracle = lbfgsb_oracle(minimize, legacy_merit(
                    fun, problem[0], *problem[3:5]), x0, oracle_counted)
                held = fun(oracle.x)[0][1:].min(initial=0.0) >= 0.0
                return (ours, len(counted), oracle, len(oracle_counted),
                        held)
            with monkeypatch.context() as patch:
                captured = capture_descent(patch, both)
                sol.solve(*problem[:-1], **problem[-1])
            ours, count, oracle, oracle_count, held = captured[0]
            # the penalty lets L-BFGS-B's point break a row where the
            # planner's holds it: only a point that holds every row is
            # compared
            assert (oracle.fun >= ours.fun - 1e-9 * abs(ours.fun)
                    or not held), name
            mine += count
            theirs += oracle_count
        assert 5 * mine <= theirs

    def test_capped_round_is_not_converged(self, monkeypatch):
        rig, preds, instr, cset, cfg, _, kwargs = fixed_problems()[
            "side by side"]
        statuses = []
        minimize = scipy.optimize.minimize

        def recorded(*args, **kwargs):
            result = minimize(*args, **kwargs)
            statuses.append(result.status)
            return result
        monkeypatch.setattr(scipy.optimize, "minimize", recorded)
        plans = [sol.solve(rig, preds, instr, cset,
                           replace(cfg, max_iterations=cap), SPEC, **kwargs)
                 for cap in (2, 100)]
        assert statuses[0] == 1
        assert not plans[0].stats.converged
        assert statuses[-1] == 0 and plans[1].stats.converged


def test_row_jacobian_matches_central_differences(monkeypatch):
    # the Jacobian (rows x 9N) of the box, collision and separation rows
    # the descent linearizes, from their derivatives by
    # state chained through the sensitivities, against central differences
    # of constraints.state_residuals through kinematics.rollout, on seeded
    # random instances as criterion 03 does: the worst relative error
    # measured is 1.0e-8, so the bound is ten times that
    rng = np.random.default_rng(31)
    base = cons.ConstraintSet.default()
    cset = cons.ConstraintSet(**{**base.__dict__, "safety_distance": 2.0,
                                 "occlusion_enabled": True})
    sizes = {"a": (2.0, 0.5), "b": (2.0, 0.5)}
    low, high = cset.input_bounds
    center, half = 0.5 * (low + high), 0.5 * (high - low)
    worst, separated = 0.0, 0
    for trial in range(20):
        n = 2 + trial % 5
        rig = CameraRig(
            drone=DroneState(position=rng.uniform(-0.5, 0.5, 3),
                             velocity=rng.uniform(-1.0, 1.0, 3),
                             orientation=rotation_from_rpy(
                                 *rng.uniform(-0.2, 0.2, 3))),
            intrinsics=IntrinsicState(rng.uniform(20.0, 80.0),
                                      rng.uniform(6.0, 15.0),
                                      rng.uniform(2.0, 10.0)))
        preds = {tid: obj.TargetPrediction(
            positions=np.array([10.0, y, 1.0]) + np.cumsum(
                rng.uniform(-0.2, 0.2, (n + 1, 3)), axis=0),
            rotations=np.tile(np.eye(3), (n + 1, 1, 1)),
            anchors={"center": rng.uniform(-0.2, 0.2, 3)})
            for tid, y in (("a", 1.0), ("b", -1.0))}
        cfg = sol.SolverConfig(horizon=n, dt=0.2, constraint_margin=0.15)
        z = rng.uniform(-0.5, 0.5, 9 * n)
        with monkeypatch.context() as patch:
            captured = capture_descent(patch, lambda fun, *_: [
                (values, jacobian()) for values, jacobian, _, _ in [fun(z)]])
            sol.solve(rig, preds, obj.Instructions(), cset, cfg, SPEC,
                      sizes=sizes)
        [[(values, jac)]] = captured
        records = cons.activate_occlusions(rig, preds, sizes, SPEC)
        separated += bool(records)
        tracks = cons.ConstraintTracks(preds, sizes, cset, records, n + 1)
        scale, kept = sol._row_layout(tracks, n, np.ones(9, bool))

        def rows_at(x):
            horizon = rollout(rig, center + x.reshape(n, 9) * half, cfg.dt)
            rows = cons.state_residuals(
                horizon, 1, tracks, SPEC, margin=cfg.constraint_margin,
                separation_scale=sol._SEPARATION_SCALE)[0]
            return (rows * scale).T[kept]
        assert np.array_equal(values[1:], rows_at(z))
        fd = central_jacobian(rows_at, z)
        assert jac[1:].shape == fd.shape == (len(values) - 1, 9 * n)
        worst = max(worst, np.linalg.norm(jac[1:] - fd)
                    / np.linalg.norm(fd))
    assert separated >= 10
    assert worst <= 1e-7


def no_rows(n):
    """The empty row set ``(a, b)`` of ``n`` variables: the box alone."""
    return np.zeros((0, n)), np.zeros(0)


def model_step(h, g, lower, upper, a, b):
    """``solver._model_step``'s step over the box and the rows."""
    eye = np.eye(len(g))
    return sol._model_step(h, g, np.concatenate([eye, -eye, a]),
                           np.concatenate([upper, -lower, b]))[0]


def box_qp(seed, n):
    """Seeded positive definite ``h``, gradient ``g`` and a box around 0."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return (a @ a.T + 1e-3 * np.eye(n), 10.0 * rng.standard_normal(n),
            -rng.uniform(0.0, 2.0, n), rng.uniform(0.0, 2.0, n))


def bvls_minimum(h, g, lower, upper):
    """Minimizer of ``g s + s h s / 2`` over the box, as the bounded least
    squares ``|L^T s + L^-1 g|^2 / 2`` with ``h = L L^T`` (scipy's BVLS)."""
    factor = np.linalg.cholesky(h)
    rhs = -scipy.linalg.solve_triangular(factor, g, lower=True)
    return scipy.optimize.lsq_linear(factor.T, rhs, bounds=(lower, upper),
                                     method="bvls", tol=1e-15).x


def logged_descent(fun, log):
    """The merit ``fun`` with every value pass and every call of the
    gradient and Hessian builders it returns appended to ``log`` as
    ``(name, x, result)``, in call order: ``"fun"``, ``"jac"`` and
    ``"hess"``, each with the point of its pass."""
    def merit(x):
        at = x.copy()
        value, gradient, hessian, point = fun(x)
        log.append(("fun", at, value))

        def logged(name, build):
            def call():
                result = build()
                log.append((name, at, result))
                return result
            return call
        return value, logged("jac", gradient), logged("hess", hessian), point
    return merit


def replay_descent(log, ftol=1e-7):
    """Walk the log of one ``box_gauss_newton`` call and judge each trial
    by the descent's acceptance rule, from its value and the gradient and
    Hessian logged at the point it was taken from.  Asserts that every
    ``jac`` and ``hess`` call is at the descent's current point.  Returns
    that point at the end, the rejected trials, the accepted ones, and
    whether the ``ftol`` test ended the descent at the last accepted
    trial."""
    (name, current, f), *calls = log
    assert name == "fun" and np.ndim(f) == 0
    g = h = None
    rejected, accepted, ftol_end = [], [], False
    for name, x, result in calls:
        if name == "jac":
            assert np.array_equal(x, current), name
            g = result
            continue
        if name == "hess":
            assert np.array_equal(x, current), name
            h = result
            continue
        # a step is taken only with the gradient and Hessian at hand
        assert g is not None and h is not None
        step = x - current
        predicted = -(g @ step + 0.5 * step @ (h @ step))
        ratio = (f - result) / predicted if predicted > 0.0 else -1.0
        if not ratio > 1e-4:
            rejected.append(x)
            continue
        accepted.append(x)
        ftol_end = bool(ratio >= 0.25 and f - result
                        <= ftol * max(abs(f), abs(result), 1.0))
        current, f, g, h = x, result, None, None
    return current, rejected, accepted, ftol_end


class TestBoxGaussNewton:
    @staticmethod
    def descend(fun, jac, hess, x0, low, high, **options):
        """``box_gauss_newton`` from ``x0`` with every point it values and
        every point it builds the gradient at recorded."""
        values, gradients = [], []

        def recorded(x):
            values.append(x.copy())

            def gradient():
                gradients.append(x.copy())
                return jac(x)
            return fun(x), gradient, lambda: hess(x), x.copy()
        result = sol.box_gauss_newton(recorded, np.asarray(x0, float),
                                      (low, high), **options)
        # the result hands back the record of its x
        assert np.array_equal(result.point, result.x)
        return result, values, gradients

    @staticmethod
    def quadratic(seed, n=6):
        """``(x - c) A (x - c) / 2`` with ``c`` partly outside ``[-1, 1]``."""
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        a = a @ a.T + 0.1 * np.eye(n)
        c = rng.uniform(-2.0, 2.0, n)
        return (lambda x: 0.5 * (x - c) @ a @ (x - c),
                lambda x: a @ (x - c), lambda x: a, a, c)

    def test_line_search_meets_its_blocking_bound_exactly(self):
        # the projected Newton steps that the model step replaced once
        # stopped 41% above this box minimum, an entry left one ulp inside
        # its bound; the QP holds each bound exactly
        h, g, lower, upper = box_qp(134, 10)
        step = model_step(h, g, lower, upper, *no_rows(10))
        want = bvls_minimum(h, g, lower, upper)
        assert np.all((lower <= step) & (step <= upper))
        value = g @ step + 0.5 * step @ (h @ step)
        assert value == pytest.approx(g @ want + 0.5 * want @ (h @ want),
                                      rel=1e-12)

    def test_bound_constrained_quadratic_ends_at_its_box_minimum(self):
        fun, jac, hess, a, c = self.quadratic(3)
        low, high = -np.ones(6), np.ones(6)
        assert np.any((c < low) | (c > high))
        want = bvls_minimum(a, -a @ c, low, high)
        result, _, _ = self.descend(fun, jac, hess, np.zeros(6), low, high)
        assert result.status == 0 and result.success
        assert np.allclose(result.x, want, rtol=0.0, atol=1e-9)
        assert result.fun == fun(result.x)

    def test_finite_only_at_the_start_ends_without_moving(self):
        quadratic, jac, hess, _, _ = self.quadratic(4)
        x0 = np.random.default_rng(5).uniform(-0.8, 0.8, 6)

        def fun(x):
            return quadratic(x) if np.array_equal(x, x0) else np.inf
        result, values, gradients = self.descend(
            fun, jac, hess, x0, -np.ones(6), np.ones(6))
        assert result.status == 2 and not result.success
        assert np.array_equal(result.x, x0) and result.fun == quadratic(x0)
        # every trial was evaluated, found non-finite and rejected: the
        # gradient is never taken away from the start
        trials = values[1:]
        assert trials and all(not np.array_equal(x, x0) for x in trials)
        assert all(np.array_equal(x, x0) for x in gradients)

    @staticmethod
    def rosenbrock():
        """Rosenbrock's function as the least squares of (10 (y - x^2),
        1 - x), its Gauss-Newton matrix, start and box."""
        def residuals(x):
            return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

        def jacobian(x):
            return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])
        return (lambda x: 0.5 * residuals(x) @ residuals(x),
                lambda x: jacobian(x).T @ residuals(x),
                lambda x: jacobian(x).T @ jacobian(x),
                [-1.2, 1.0], -2.0 * np.ones(2), 2.0 * np.ones(2))

    def test_iteration_cap_is_status_1(self):
        problem = self.rosenbrock()
        capped, _, _ = self.descend(*problem, maxiter=1)
        assert capped.status == 1 and capped.nit == 1
        assert not capped.success
        solved, _, _ = self.descend(*problem)
        assert solved.status == 0 and solved.nit > 1
        assert np.allclose(solved.x, 1.0, rtol=0.0, atol=1e-4)

    def test_derivatives_only_where_the_descent_goes_on(self):
        fun, jac, hess, _, _ = self.quadratic(3)
        problems = {"Rosenbrock": self.rosenbrock(),
                    "box quadratic": (fun, jac, hess, np.zeros(6),
                                      -np.ones(6), np.ones(6))}
        ftol_ends = 0
        for name, (fun, jac, hess, x0, low, high) in problems.items():
            log = []
            def merit(x):
                return fun(x), lambda: jac(x), lambda: hess(x), x.copy()
            result = sol.box_gauss_newton(
                logged_descent(merit, log), np.asarray(x0, float),
                (low, high))
            assert result.status == 0, name
            end, rejected, accepted, ftol_end = replay_descent(log)
            assert np.array_equal(result.x, end), name
            assert accepted, name
            if name == "Rosenbrock":
                assert rejected
            jac_points = [x for call, x, _ in log if call == "jac"]
            hess_points = [x for call, x, _ in log if call == "hess"]
            for trial in rejected:
                assert not any(np.array_equal(trial, x)
                               for x in jac_points), name
            assert not any(np.array_equal(result.x, x)
                           for x in hess_points), name
            if ftol_end:
                ftol_ends += 1
                assert not any(np.array_equal(result.x, x)
                               for x in jac_points), name
                assert result.jac is None
            else:
                assert np.array_equal(result.jac, jac(result.x))
        # the descent ends on the ftol test at least once here
        assert ftol_ends > 0


def fixed_problems():
    """Solve arguments of this file's fixed problems, by name."""
    default = cons.ConstraintSet.default()
    cfg = sol.SolverConfig(horizon=5, dt=0.2)
    ahead = {"t": obj.TargetPrediction(
        positions=np.tile([12.0, 1.0, 1.0], (6, 1)),
        rotations=np.tile(np.eye(3), (6, 1, 1)))}
    composition = obj.Instructions(composition=(
        obj.CompositionTarget("t", "center", (400.0, 250.0), (1.0, 1.0)),))
    focal = obj.Instructions(focal=obj.FocalTarget(
        obj.FocalSchedule.constant(50.0), weight=1.0))
    low, high = default.intr_input_low.copy(), default.intr_input_high.copy()
    low[2] = high[2] = 0.0
    pinned = cons.ConstraintSet(**{**default.__dict__, "intr_input_low": low,
                                   "intr_input_high": high})
    near = {"t": obj.TargetPrediction(
        positions=np.tile([3.0, 0.0, 1.0], (6, 1)),
        rotations=np.tile(np.eye(3), (6, 1, 1)))}
    rig, preds, sizes, instr, cset = side_by_side_problem()
    return {
        "focal": (make_rig(f=35.0), {}, focal, default, cfg, SPEC, {}),
        "two channels": (
            make_rig(f=35.0), {"t": obj.TargetPrediction(
                positions=np.tile([10.0, 0.0, 1.0], (6, 1)),
                rotations=np.tile(np.eye(3), (6, 1, 1)))},
            obj.Instructions(
                poses=(obj.PoseTarget("t", distance=8.0, w_distance=1.0),),
                focal=obj.FocalTarget(obj.FocalSchedule.constant(42.0),
                                      weight=1.0)),
            default, replace(cfg, max_iterations=300), SPEC,
            {}),
        "composition": (make_rig(), ahead, composition, default, cfg, SPEC,
                        {}),
        "pinned": (make_rig(), ahead, replace(composition, dof=obj.DofTarget(
            near=6.0, far=14.0, w_near=1.0, w_far=1.0)), pinned, cfg, SPEC,
            {}),
        "collision": (make_rig(), near, obj.Instructions(
            poses=(obj.PoseTarget("t", distance=0.5, w_distance=100.0),)),
            cons.ConstraintSet(**{**default.__dict__,
                                  "safety_distance": 2.0}), cfg, SPEC, {}),
        "side by side": (rig, preds, instr, cset, replace(
            cfg, constraint_margin=0.15), SPEC, {"sizes": sizes}),
        "approach": (*approach_problem()[:4], approach_problem()[4], SPEC,
                     {}),
    }


def linear_qp(seed, n=12, m=10):
    """Seeded positive definite ``h``, gradient ``g``, a box around 0 and
    ``m`` linear rows ``a s <= b`` that ``s = 0`` holds."""
    h, g, lower, upper = box_qp(seed, n)
    rng = np.random.default_rng(1000 + seed)
    return h, g, lower, upper, rng.standard_normal((m, n)), rng.uniform(
        0.1, 1.0, m)


def slsqp_minimum(h, g, lower, upper, a, b, x0=None):
    """SLSQP's minimizer of ``g s + s h s / 2`` over the box and rows."""
    return scipy.optimize.minimize(
        lambda s: g @ s + 0.5 * s @ (h @ s), np.zeros(len(g)) if x0 is None
        else x0, jac=lambda s: g + h @ s, method="SLSQP",
        bounds=list(zip(lower, upper)), constraints=[{
            "type": "ineq", "fun": lambda s: b - a @ s,
            "jac": lambda s: -a}],
        options={"ftol": 1e-15, "maxiter": 1000}).x


class TestModelStep:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_slsqp_with_linear_rows(self, seed):
        h, g, lower, upper, a, b = linear_qp(seed)
        step = model_step(h, g, lower, upper, a, b)
        want = slsqp_minimum(h, g, lower, upper, a, b)

        def model(s):
            return g @ s + 0.5 * s @ (h @ s)
        assert model(step) == pytest.approx(model(want), rel=1e-9)
        assert np.all((lower <= step) & (step <= upper))
        assert np.all(a @ step - b <= 1e-12)
        # the rows bind here: the box alone gives another minimizer
        box = bvls_minimum(h, g, lower, upper)
        assert np.any(a @ box > b)

    def test_bounds_held_exactly_far_outside(self):
        # a gradient that puts the unconstrained minimizer 1e8 out of the
        # box: each bound the step holds is met to the bit
        h, g, lower, upper, a, b = linear_qp(3)
        step = model_step(h, 1e8 * g, lower, upper, a, b)
        held = (step == lower) | (step == upper)
        assert held.sum() >= 3
        assert np.all((lower <= step) & (step <= upper))
        assert np.all(a @ step - b <= 1e-12)

    def test_a_bound_held_through_a_row_is_met_to_rounding(self):
        # linear_qp(75) with the row e0 + e1 at the level u0 + u1, far
        # outside: every bound the step holds is met to the bit, and
        # bound 1, which the step meets only through that row and bound 0,
        # to rounding alone: it may land an ulp off
        h, g, lower, upper, a, b = linear_qp(75)
        n = len(g)
        row = np.zeros(n)
        row[:2] = 1.0
        eye = np.eye(n)
        normals = np.concatenate([eye, -eye, a, row[None]])
        levels = np.concatenate([upper, -lower, b, [upper[0] + upper[1]]])
        step, active, _ = sol._model_step(h, 1e8 * g, normals, levels)
        held = np.array([k for k in active if k < 2 * n])
        assert len(normals) - 1 in active and 0 in held and 1 not in held
        assert np.array_equal(step[held % n], np.where(
            held < n, upper[held % n], lower[held % n]))
        assert abs(step[1] - upper[1]) <= 2.0 * np.finfo(float).eps * abs(
            upper[1])
        assert np.all(normals[2 * n:] @ step - levels[2 * n:] <= 1e-12)

    def test_identity_model_is_the_box_projection(self):
        # with h = I and no binding row, the step is the box's projected
        # gradient (x - g).clip(low, high) - x
        rng = np.random.default_rng(4)
        x = rng.uniform(-1.0, 1.0, 9)
        x[[1, 5]] = [-1.0, 1.0]
        g = rng.standard_normal(9)
        step = model_step(np.eye(9), g, -1.0 - x, 1.0 - x, *no_rows(9))
        assert np.allclose(step, (x - g).clip(-1.0, 1.0) - x, rtol=0.0,
                           atol=1e-15)

    @staticmethod
    def warm_starts(seed, n=12, m=10):
        """The rows ``normals @ s <= levels`` of ``linear_qp(seed)`` with
        row 0 of ``a`` laid out twice, and the starts to try, by name."""
        h, g, lower, upper, a, b = linear_qp(seed, n, m)
        eye = np.eye(n)
        normals = np.concatenate([eye, -eye, a, a[:1]])
        levels = np.concatenate([upper, -lower, b, b[:1]])
        cold, active, _ = sol._model_step(h, g, normals, levels)
        rng = np.random.default_rng(2000 + seed)
        starts = {
            "garbage": rng.choice(len(levels), 8, replace=False).tolist(),
            "duplicate": [2 * n, 2 * n + m],
            "spanned": list(range(n)) + [2 * n],
            "cold": active}
        return (h, g, lower, upper, normals, levels), cold, starts

    @pytest.mark.parametrize("start", ["garbage", "duplicate", "spanned",
                                       "cold"])
    @pytest.mark.parametrize("seed", range(12))
    def test_any_start_gives_the_cold_step(self, seed, start):
        # a start of rows far from binding, of a row and its duplicate, of
        # a row with the bounds that span it, or of the cold answer's own
        # held rows ends at the cold step's model value, holding every
        # bound and row, and raises nothing
        (h, g, lower, upper, normals, levels), cold, starts = (
            self.warm_starts(seed))
        step, _, _ = sol._model_step(h, g, normals, levels, starts[start])

        def model(s):
            return g @ s + 0.5 * s @ (h @ s)
        assert model(step) == pytest.approx(model(cold), rel=1e-12)
        assert np.all((lower <= step) & (step <= upper))
        assert np.all(normals[2 * len(g):] @ step - levels[2 * len(g):]
                      <= 1e-12)

    def test_dependent_start_rows_are_let_go(self):
        # of a row and its duplicate, and of a row and the bounds that span
        # it, the row that the held rows before it span is not held
        (h, g, _, _, normals, levels), _, starts = self.warm_starts(0)
        for name in ("duplicate", "spanned"):
            start = starts[name]
            _, active, _ = sol._model_step(h, g, normals, levels, start)
            assert not set(start) <= set(active)

    @pytest.mark.parametrize("seed", range(12))
    def test_multipliers_close_the_optimality_conditions(self, seed):
        # the multipliers of the held rows, from any start, are those of
        # the minimizer's Karush-Kuhn-Tucker conditions: nonnegative, and
        # g + h s + rows^T multipliers = 0
        (h, g, _, _, normals, levels), _, starts = self.warm_starts(seed)
        for start in starts.values():
            step, active, multipliers = sol._model_step(h, g, normals,
                                                        levels, start)
            assert len(multipliers) == len(active)
            assert np.all(multipliers >= -1e-12)
            assert np.allclose(g + h @ step + normals[active].T @ multipliers,
                               0.0, rtol=0.0, atol=1e-9 * np.abs(g).max())


@st.composite
def convex_qps(draw):
    """A seeded strictly convex QP over the box and general rows, as
    ``(h, g, lower, upper, normals, levels)`` with the rows ``normals @ s
    <= levels`` laid out ``[I; -I; a]``, and a start: none, the cold
    answer's held rows, rows at random (some past the rows), a pair of
    bounds with a row they span, or the bounds the gradient pushes away
    from (negative multipliers).  ``a`` may repeat a row and may hold the
    row ``s_i + s_j <= u_i + u_j``, which the bounds i and j span."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, m = draw(st.integers(2, 9)), draw(st.integers(0, 6))
    root = rng.standard_normal((n, n))
    h = root @ root.T + 0.1 * np.eye(n)
    g = 10.0 * rng.standard_normal(n)
    lower, upper = -rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, n)
    a, b = rng.standard_normal((m, n)), rng.uniform(0.1, 1.0, m)
    if m and draw(st.booleans()):
        a, b = np.concatenate([a, a[:1]]), np.concatenate([b, b[:1]])
    i, j = rng.choice(n, 2, replace=False)
    spanned = draw(st.booleans())
    if spanned:
        pair = np.zeros(n)
        pair[[i, j]] = 1.0
        a = np.concatenate([a, pair[None]])
        b = np.concatenate([b, [upper[i] + upper[j]]])
    eye = np.eye(n)
    normals = np.concatenate([eye, -eye, a])
    levels = np.concatenate([upper, -lower, b])
    kind = draw(st.sampled_from(["cold", "warm", "random", "spanned",
                                 "opposite"]))
    start = {"cold": [], "warm": None,
             "random": rng.choice(len(levels) + 3, min(n, len(levels)),
                                  replace=False).tolist(),
             "spanned": [i, j] + ([len(levels) - 1] if spanned else []),
             "opposite": np.flatnonzero(g > 0.0).tolist()}[kind]
    if start is None:
        start = sol._model_step(h, g, normals, levels)[1]
    return h, g, lower, upper, normals, levels, start


class TestModelStepOracle:
    """``_model_step`` against the Karush-Kuhn-Tucker conditions of its
    QP and against SLSQP, from any start."""

    @settings(max_examples=80, deadline=None)
    @given(qp=convex_qps())
    def test_step_is_the_kkt_point(self, qp):
        h, g, lower, upper, normals, levels, start = qp
        n = len(g)
        step, active, multipliers = sol._model_step(h, g, normals, levels,
                                                    start)
        scale = max(1.0, float(np.abs(g).max()))
        slack = levels - normals @ step
        assert slack.min() >= -1e-9
        assert len(set(active)) == len(active) == len(multipliers)
        assert np.all(multipliers >= -1e-9 * scale)
        assert np.all(np.abs(multipliers * slack[active]) <= 1e-9 * scale)
        assert np.all(np.abs(g + h @ step + normals[active].T @ multipliers)
                      <= 1e-9 * scale)
        held = np.array([k for k in active if k < 2 * n], int)
        assert np.array_equal(step[held % n], np.where(
            held < n, upper[held % n], lower[held % n]))
        # SLSQP stops where the model's decrease reaches its rounding,
        # some 1e-7 off in s: its answer is polished on the rows it meets,
        # the minimizer with those rows as equalities
        rough = slsqp_minimum(h, g, lower, upper, normals[2 * n:],
                              levels[2 * n:])
        met = normals[levels - normals @ rough <= 1e-7]
        kkt = np.block([[h, met.T], [met, np.zeros((len(met), len(met)))]])
        want = np.linalg.lstsq(kkt, np.concatenate(
            [-g, levels[levels - normals @ rough <= 1e-7]]), rcond=None)[0][:n]
        assert np.abs(rough - want).max() <= 1e-5
        assert np.abs(step - want).max() <= 1e-7 * max(
            1.0, float(np.abs(want).max()))

    def test_a_spanned_row_broken_by_rounding_is_held(self):
        # a model step of the e4_collision planner (seed 0), cut to the 12
        # variables and the one collision row that still show the fault:
        # from the collision row and a low bound, nine more bounds are
        # taken on, multipliers up to 2e7; then the low bound of variable
        # 1 (row 13), which the held rows span, reads as broken by 7e-10
        # through the steps' rounding, at a pivot of -2e-14.  Solved
        # afresh, it holds: the step must not raise, and holds every row
        h = np.zeros((12, 12))
        h[np.tril_indices(12)] = [
            13978.28156236635, -0.0008071565052391483, 27956.582188499135,
            10196.5340642036, -0.0006413095474272675, 7657.905820985176,
            -0.0006413095474272675, 20393.08207112665, -0.0005097358890316265,
            15315.822090091997, -0.4831001164060281, -0.5080572135359165,
            -0.37996216756917, -0.4218610327766415, 527.1882507442195,
            6651.271941925788, -0.0004754625896260542, 5119.277522949413,
            -0.0003781622306359855, -0.27682421873518104, 3587.2831313817064,
            -0.0004754625896260542, 13302.552989640702, -0.0003781622306359855,
            10238.562054240007, -0.3230002538665095, -0.0002808618716459168,
            7174.57114624798, 3594.8380721914737, -0.00030961563163089587,
            2825.0633785940686, -0.00024658857214337196, -0.1736862700384115,
            2055.288684996663, -0.00018356151265584803, 1285.5140188079256,
            -0.00030961563163089587, 7189.681067713101, -0.00024658857214337196,
            5650.130625575858, -0.2121365336160133, -0.00018356151265584803,
            4110.580183438617, -0.0001205344531683241, 2571.0297687100415,
            -0.34729740966409745, -0.7351138832983881, -0.27783792773127797,
            -0.5880911066387104, 7.348418294417012, -0.2083784457984585,
            -0.44106832997903284, -0.13891896386563898, -0.2940455533193552,
            1.336066692323786, 1289.3482445046293, -0.0001437684842020004,
            1031.4785956037035, -0.00011501478736160032, -0.07054831236623758,
            773.6089467027776, -8.626109052120024e-05, 515.7392978018518,
            -5.750739368080016e-05, -0.06945948193281949, 257.86967630959424,
            -0.0001437684842020004, 2578.698247910327, -0.00011501478736160032,
            2062.958598328262, -0.0897742307113696, -8.626109052120024e-05,
            1547.2189487461965, -5.750739368080016e-05, 1031.479299164131,
            -0.1470227766596776, -2.875369684040008e-05, 515.7396769907338]
        h += np.tril(h, -1).T
        g = np.array([
            -11.357971232364093, -16.352226694982143, -8.932516295555512,
            -12.869122520124229, 7.9996465075832965, -6.507061358815358,
            -9.386018307254972, -4.081606425341166, -5.902914049674877,
            -33.26034972003139, -1.6561512773639184, -2.419808794452475])
        collision = np.array([
            0.002660809344675768, 0.0034265074993581773, 0.0021286474757406144,
            0.0027412059994865417, -0.0, 0.0015964856068054608,
            0.002055904499614906, 0.0010643237378703072, 0.0013706029997432709,
            0.0624939770345873, 0.0005321618689351536, 0.0006853014998716354])
        levels = np.array([
            1.0000000000019833, 0.9997088384718518, 1.0000000000792446,
            0.9997398218939686, 1.2109833677791964, 0.9999999930210698,
            0.9997637984923056, 1.0192305995290931, 1.0241437940028675, 1.0,
            1.0, 1.0, 0.9999999999980168, 1.0002911615281482,
            0.9999999999207555, 1.0002601781060314, 0.7890166322208036,
            1.0000000069789303, 1.0002362015076944, 0.980769400470907,
            0.9758562059971325, 1.0, 1.0, 1.0, -0.08070456491428653])
        eye = np.eye(12)
        normals = np.concatenate([eye, -eye, collision[None]])
        step, active, multipliers = sol._model_step(h, g, normals, levels,
                                                    (24, 21))
        assert 13 not in active and 24 in active
        assert np.all(normals @ step - levels <= 1e-12)
        assert multipliers.max() > 1e7 and np.all(multipliers >= 0.0)
        assert np.allclose(g + h @ step + normals[active].T @ multipliers,
                           0.0, rtol=0.0, atol=1e-9 * multipliers.max())


class TestProjection:
    """The descent from a start that breaks rows linear in ``x``: its first
    model step restores them where a point of the box holds them, and
    holds their least uniform violation where none does."""

    @staticmethod
    def rows(seed, n=8, m=6, offset=0.3):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, n))
        return a, offset + a @ rng.uniform(-0.5, 0.5, n)

    @staticmethod
    def descend(h, g, a, b, x0):
        """``box_gauss_newton`` from ``x0`` on ``g x + x h x / 2`` under
        the rows ``c = b - a x >= 0`` and the box [-1, 1]; returns its
        result and every point it valued."""
        trials = []

        def fun(x):
            trials.append(x.copy())
            return (np.r_[g @ x + 0.5 * x @ (h @ x), b - a @ x],
                    lambda: np.vstack([g + h @ x, -a]), lambda: h, x.copy())
        ones = np.ones(len(x0))
        return sol.box_gauss_newton(fun, x0, (-ones, ones)), trials

    @pytest.mark.parametrize("seed", range(6))
    def test_nearest_point_where_the_rows_hold_one(self, seed):
        # the descent of |x - x0|^2 / 2 ends at the point of the box nearest
        # x0 that holds the rows, and every trial holds them
        a, b = self.rows(seed)
        x = np.random.default_rng(50 + seed).uniform(-1.0, 1.0, 8)
        low, high = -np.ones(8), np.ones(8)
        assert np.any(a @ x > b)
        result, trials = self.descend(np.eye(8), -x, a, b, x)
        assert result.status == 0
        assert all(np.all(a @ point <= b + 1e-12) for point in trials[1:])
        want = x + slsqp_minimum(np.eye(8), np.zeros(8), low - x, high - x,
                                 a, b - a @ x)
        assert np.allclose(result.x, want, rtol=0.0, atol=1e-7)

    @pytest.mark.parametrize("seed", range(6))
    def test_elastic_start_holds_the_least_violation(self, seed):
        # rows that no point of the box holds: the descent of |x - x0|^2 / 2
        # ends at the point nearest x0 that holds all of them relaxed by
        # their least uniform violation, an LP's optimum
        a, b = self.rows(seed, offset=-2.5)
        x = np.random.default_rng(60 + seed).uniform(-1.0, 1.0, 8)
        low, high = -np.ones(8), np.ones(8)
        least = scipy.optimize.linprog(
            np.r_[np.zeros(8), 1.0], A_ub=np.column_stack([a, -np.ones(6)]),
            b_ub=b, bounds=[(-1.0, 1.0)] * 8 + [(0.0, None)],
            method="highs").fun
        assert least > 0.1
        result, _ = self.descend(np.eye(8), -x, a, b, x)
        point = result.x
        assert (a @ point - b).max() == pytest.approx(least, rel=1e-9)
        assert np.all((low <= point) & (point <= high))
        want = x + slsqp_minimum(np.eye(8), np.zeros(8), low - x, high - x,
                                 a, b + least - a @ x)
        assert np.allclose(point, want, rtol=0.0, atol=1e-6)

    def test_descent_holds_the_rows(self):
        # a quadratic whose box minimum breaks the rows, from a start that
        # breaks them too: every trial after the start holds the rows, and
        # the descent ends at the QP's minimum
        h, g, _, _, a, b = linear_qp(7, n=6, m=4)
        x0 = np.full(6, 0.9)
        assert np.any(a @ x0 > b)
        result, trials = self.descend(h, g, a, b, x0)
        assert result.status == 0 and len(trials) >= 2
        assert all(np.all(a @ x <= b + 1e-12) for x in trials[1:])
        ones = np.ones(6)
        want = slsqp_minimum(h, g, -ones, ones, a, b)
        assert result.fun == pytest.approx(g @ want + 0.5 * want @ (h @ want),
                                           rel=1e-9)


def yaw_problem(start, yaw):
    """A rig at yaw ``start`` asked to turn to ``yaw`` about z, under the
    stock +-0.25 rad attitude bounds."""
    rig = CameraRig(drone=DroneState(position=np.array([0.0, 0.0, 1.0]),
                                     velocity=np.zeros(3),
                                     orientation=rotation_from_rpy(
                                         0.0, 0.0, start)),
                    intrinsics=IntrinsicState(35.0, 10.0, 2.0))
    instr = obj.Instructions(poses=(obj.PoseTarget(
        "t", distance=10.0, w_distance=0.0,
        rotation=rotation_from_rpy(0.0, 0.0, yaw), w_rotation=5000.0),))
    preds = {"t": obj.TargetPrediction(
        positions=np.tile([10.0, 0.0, 1.0], (6, 1)),
        rotations=np.tile(np.eye(3), (6, 1, 1)))}
    return (rig, preds, instr, cons.ConstraintSet.default(),
            sol.SolverConfig(horizon=5, dt=0.2), SPEC)


def test_attitude_rows_hold_where_the_rig_is_asked_past_them():
    # a rig at yaw 0.2 asked to turn to 1.0 rad under the 0.25 rad bound:
    # the model step holds the yaw row, and the plan stops at the bound;
    # the next solve, asked back to 0, leaves it
    first = sol.solve(*yaw_problem(0.2, 1.0))
    yaw_high = cons.BOX_HIGH.start + kin.ROTATION.stop - 1
    rows = first.residuals[18 * 5:].reshape(6, -1)[1:]
    assert first.feasible and first.stats.converged
    assert rows[:, yaw_high].min() == pytest.approx(0.0, abs=1e-6)
    second = sol.solve(*yaw_problem(0.0, 0.0), warm=first)
    rows = second.residuals[18 * 5:].reshape(6, -1)[1:]
    assert second.feasible and rows[:, yaw_high].min() > 0.2


def test_rows_of_a_pinned_channel_stay_out_of_the_model_step():
    # the aperture rate held at 0 and a start 0.1 under the aperture's
    # bound: no input moves the aperture rows, so they are no rows of the
    # model step and relax no other row; the yaw row still holds at its
    # bound where the rig is asked past it, and the report judges the
    # aperture
    rig, preds, instr, cset, cfg, spec = yaw_problem(0.2, 1.0)
    low, high = cset.intr_input_low.copy(), cset.intr_input_high.copy()
    low[2] = high[2] = 0.0
    cset = cons.ConstraintSet(**{**cset.__dict__, "intr_input_low": low,
                                 "intr_input_high": high})
    rig = replace(rig, intrinsics=replace(rig.intrinsics, aperture=1.1))
    plan = sol.solve(rig, preds, instr, cset, cfg, spec)
    rows = plan.residuals[18 * 5:].reshape(6, -1)[1:]
    assert plan.stats.converged and not plan.feasible
    assert rows[:, cons.BOX_HIGH.start + kin.ROTATION.stop - 1].min() == (
        pytest.approx(0.0, abs=1e-6))
    assert rows[:, kin.LENS.stop - 1] == pytest.approx(-0.1, abs=1e-12)


@pytest.mark.parametrize("x, residual", [(0.9, 0.1), (1.1, -0.1)])
def test_rows_no_input_moves_stay_out_of_the_model_step(monkeypatch, x,
                                                         residual):
    # state 1, p0 + dt v0, is 0.15 m into the 0.25 m margin (at 0.9 m) or
    # 0.1 m inside the 2 m safety distance (at 1.1 m) whatever the inputs:
    # its collision row is no row of the merit nor of the model step, so
    # the descent converges, and the plan's report, which carries no
    # margin, still judges it
    rig, preds, instr, cset, cfg = approach_problem(position=(x, 0.0, 1.0))
    passes = capture_descent(monkeypatch, lambda fun, kwargs, x0, _: (
        fun(x0)[0]))
    plan = sol.solve(rig, preds, instr, cset, cfg, SPEC)
    # the box rows but state 1's positions, and one collision row per
    # state but 1
    n = cfg.horizon
    assert len(passes[0]) - 1 == 24 * n - 6 + n - 1
    assert plan.stats.converged
    collision = plan.residuals[18 * cfg.horizon:].reshape(
        cfg.horizon + 1, -1)[1:, cons.BOX.stop]
    assert collision[0] == pytest.approx(residual, abs=1e-12)
    assert plan.feasible == (residual > 0.0)


@pytest.mark.parametrize("start", [
    {"focal": 14.9},  # the lens 0.1 mm under its box
    # inside the safety distance, leaving it
    {"position": (1.05, 0.0, 1.0), "velocity": (-1.0, 0.0, 0.0)},
], ids=["lens box", "safety distance"])
def test_start_violation_is_reported(start):
    # a start that breaks its own bounds is planned from all the same, and
    # the plan's report calls the plan infeasible at its row 0
    rig, preds, instr, cset, cfg = approach_problem(**start)
    plan = sol.solve(rig, preds, instr, cset, cfg, SPEC)
    states = plan.residuals[18 * cfg.horizon:].reshape(cfg.horizon + 1, -1)
    assert states[0].min() < sol.FEASIBILITY_TOL
    assert not plan.feasible


def test_start_breaking_a_velocity_row_is_restored(monkeypatch):
    # a start at -1.1 m/s under a 1 m/s velocity bound: state 1 breaks its
    # row at the zero inputs the descent starts from, and any acceleration
    # above 0.5 m/s^2 holds it, so every trial after the first holds every
    # velocity row of states 1..N to rounding
    rig, preds, instr, cset, cfg = approach_problem(velocity=(-1.1, 0.0, 0.0))
    cset = cons.ConstraintSet(**{**cset.__dict__,
                                 "velocity_low": np.full(3, -1.0),
                                 "velocity_high": np.full(3, 1.0)})
    velocities = []

    def at_every_pass(fun, kwargs, x0, minimize):
        def merit(x):
            passed = fun(x)
            velocities.append(passed[3][1].velocities[1:])
            return passed
        return minimize(merit, x0, **kwargs)
    captured = capture_descent(monkeypatch, at_every_pass)
    plan = sol.solve(rig, preds, instr, cset, cfg, SPEC)
    assert velocities[0].min() < -1.05
    assert len(velocities) >= 2
    assert all(np.abs(v).max() <= 1.0 + 1e-12 for v in velocities[1:])
    assert captured[0].status == 0 and plan.stats.converged
    # state 0 alone breaks a row of the plan's report
    states = plan.residuals[18 * cfg.horizon:].reshape(cfg.horizon + 1, -1)
    assert states[0].min() < sol.FEASIBILITY_TOL
    assert states[1:].min() >= sol.FEASIBILITY_TOL


@pytest.mark.parametrize("key", ["rpy", "velocity"])
def test_an_infinite_state_bound_bounds_nothing(key):
    # a [-inf, inf] bound leaves its rows out of the model step: 2 s of
    # rule_of_thirds, whose bounds never bind, converge at every step and
    # end at the shipped file's cost
    raw = json.loads((SCENARIOS / "rule_of_thirds.json").read_text())
    raw["control"]["duration"] = 2.0
    shipped = run_closed_loop(scenario_from_dict(raw), 0)
    raw["constraints"][key] = [-math.inf, math.inf]
    log = run_closed_loop(scenario_from_dict(raw), 0)
    assert log.status == "completed"
    assert log.column("solver_converged").all()
    assert log.column("cost_now")[-1] == shipped.column("cost_now")[-1]


def test_the_report_is_taken_once(monkeypatch):
    # a solve takes its plan's report once, at the descent's last point:
    # one pass of the state rows from state 0 in all
    starts = []
    state_residuals = cons.state_residuals

    def counted(horizon, start, *args, **kwargs):
        starts.append(start)
        return state_residuals(horizon, start, *args, **kwargs)
    monkeypatch.setattr(cons, "state_residuals", counted)
    plan = sol.solve(*approach_problem(), SPEC)
    assert plan.feasible and starts.count(0) == 1
    assert starts.count(1) > 1


#: The state-row entries linear in the inputs: all but roll/pitch/yaw.
LINEAR = np.delete(np.arange(kin.STATE_SIZE), kin.ROTATION)


@pytest.mark.parametrize("name", sorted(
    path.stem for path in SCENARIOS.glob("*.json")))
def test_executed_linear_states_stay_in_their_box(name):
    # the first 8 s of seeds 0 and 1: every executed position, velocity
    # and lens state holds its bounds to rounding
    raw = json.loads((SCENARIOS / f"{name}.json").read_text())
    raw["control"]["duration"] = min(raw["control"]["duration"], 8.0)
    config = scenario_from_dict(raw)
    low, high = config.constraints.state_bounds
    low, high = low[LINEAR], high[LINEAR]
    for seed in range(2):
        log = run_closed_loop(config, seed)
        assert log.status == "completed"
        state = np.column_stack([log.column(STATE_COLUMNS[c])
                                 for c in LINEAR])
        assert np.all(np.maximum(low - state, state - high)
                      <= 1e-12 * (high - low))


@pytest.mark.parametrize("name, duration", [("rule_of_thirds", 12.0),
                                            ("e4_occlusion", 3.0)])
def test_model_steps_start_where_the_last_ones_ended(monkeypatch, name,
                                                     duration):
    # each trial step's model step starts from the rows the last one held:
    # in its descent, or in the last solve, as they are
    raw = json.loads((SCENARIOS / f"{name}.json").read_text())
    raw["control"]["duration"] = duration
    solves, descents, steps = [], [], []
    solve, descent, model_step = (sol.solve, sol.box_gauss_newton,
                                  sol._model_step)

    def recorded_step(h, g, normals, levels, start=()):
        step, active, multipliers = model_step(h, g, normals, levels, start)
        if g[:-1].any():  # not an elastic step's QP
            steps.append((list(start), list(active)))
        return step, active, multipliers

    def recorded_descent(*args, start, **kwargs):
        steps.clear()
        result = descent(*args, start=start, **kwargs)
        descents.append((start, result.active, list(steps)))
        return result

    def recorded_solve(*args, **kwargs):
        descents.clear()
        plan = solve(*args, **kwargs)
        solves.append((plan, list(descents)))
        return plan
    monkeypatch.setattr(sol, "_model_step", recorded_step)
    monkeypatch.setattr(sol, "box_gauss_newton", recorded_descent)
    monkeypatch.setattr(sol, "solve", recorded_solve)
    assert run_closed_loop(scenario_from_dict(raw), 0).status == "completed"
    last, warm = (), 0
    for index, (plan, [(start, active, calls)]) in enumerate(solves):
        assert list(start) == list(last)
        # where each call starts: where the last ended
        ends = [list(start)]
        for begin, end in calls:
            assert begin == ends[-1]
            ends.append(end)
        assert list(active) == ends[-1]
        # so a first call starts empty only where the last held no row
        warm += bool(index and len(ends) > 1 and ends[0])
        last = plan.held
        assert list(last) == list(active)
    # the trial steps start warm after the first solve
    assert warm > 0
