"""Cost terms against hand-computed values, plus the gradient oracle."""

import math
from dataclasses import replace

import numpy as np
import pytest

from cinedrone import objectives as obj
from cinedrone.kinematics import (BODY_TO_CAMERA, CameraRig, DroneState,
                                  rollout, rotation_from_rpy)
from cinedrone.optics import CameraSensorSpec, IntrinsicState
from gradient_oracle import HorizonGradients
from test_kinematics import input_sensitivities

SPEC = CameraSensorSpec.from_sensor_size(960, 540, 23.76, 13.365, 480, 270)


def make_rig(p=(0, 0, 0), rpy=(0, 0, 0), f=35.0, focus=10.0, a=1.2):
    return CameraRig(drone=DroneState(position=np.array(p, float),
                                      velocity=np.zeros(3),
                                      orientation=rotation_from_rpy(*rpy)),
                     intrinsics=IntrinsicState(f, focus, a))


def stacked_cost(horizon, preds, spec, instr, smooth=False,
                 with_grads=False):
    """The cost breakdown of a horizon and, with ``with_grads``, the
    per-state gradients and stage blocks of its states 1..N, through the
    planner's evaluation; the breakdown is the exact one a plan reports
    unless ``smooth``, which keeps the rotation norm's kink rounded off,
    as the descent does (the rows always are)."""
    breakdown, rows = obj.evaluate_horizon_stacked(
        horizon, obj.HorizonTracks(preds, instr, len(horizon)), spec, instr)
    return (breakdown if smooth else breakdown.exact,
            obj.contract_rows(rows(), len(horizon) - 1) if with_grads
            else None)


def input_gradient(grads, horizon, dt):
    """The gradient per input of a rollout's state gradients, as the
    planner chains it through the dynamics."""
    return obj.chain_through_dynamics(
        grads[0], input_sensitivities(horizon, dt)[1:])


def rig_terms(rig, preds, instr):
    """The cost breakdown of ``rig`` alone, as a one-state horizon."""
    return stacked_cost(rollout(rig, np.zeros((0, 9)), 0.2), preds, SPEC,
                        instr)[0]


def mm_depth_of_field(lens, spec):
    """Near and far limits (m) of one lens state (focal mm, focus m,
    aperture), with the hyperfocal distance taken in the lens convention's
    millimeters: an oracle of the planner's metre-form thin lens, written
    apart from it."""
    f, focus, aperture = lens
    h = (f * f / (aperture * spec.circle_of_confusion) + f) / 1000.0
    f_m = f / 1000.0
    numer = focus * (h - f_m)
    near = numer / (h + focus - 2.0 * f_m)
    return near, math.inf if focus >= h else numer / (h - focus)


def static_pred(position, rotation=None, n=6, anchors=None):
    rot = np.eye(3) if rotation is None else rotation
    return obj.TargetPrediction(
        positions=np.tile(np.asarray(position, float), (n, 1)),
        rotations=np.tile(rot, (n, 1, 1)),
        anchors=anchors or {})


class TestDofCost:
    def test_zero_at_setpoints(self):
        near, far = mm_depth_of_field((35.0, 10.0, 1.2), SPEC)
        instr = obj.Instructions(dof=obj.DofTarget(
            near=near, far=far, w_near=10.0, w_far=10.0))
        assert rig_terms(make_rig(), {}, instr).dof[0] == pytest.approx(
            0.0, abs=1e-18)

    def test_near_error_squared(self):
        near, _ = mm_depth_of_field((35.0, 10.0, 1.2), SPEC)
        instr = obj.Instructions(dof=obj.DofTarget(near=near + 1.0,
                                                   w_near=10.0))
        assert rig_terms(make_rig(), {}, instr).dof[0] == pytest.approx(
            10.0)

    def test_disabled_weights(self):
        instr = obj.Instructions(dof=obj.DofTarget(near=1.0, far=2.0,
                                                   w_near=0.0, w_far=0.0))
        assert rig_terms(make_rig(), {}, instr).dof[0] == 0.0

    def test_infinite_far_target_disables_far_term(self):
        instr = obj.Instructions(dof=obj.DofTarget(far=math.inf,
                                                   w_far=10.0))
        assert rig_terms(make_rig(), {}, instr).dof[0] == 0.0

    def test_unresolved_relative_raises(self):
        instr = obj.Instructions(dof=obj.DofTarget(
            near=obj.RelativeDistance("a", -3.0), w_near=1.0))
        with pytest.raises(ValueError):
            rig_terms(make_rig(), {}, instr)


class TestCompositionCost:
    def test_zero_at_target_pixel(self):
        # rig faces world +x; a point on the optical axis projects to the
        # principal point
        preds = {"t": static_pred([10.0, 0.0, 0.0])}
        instr = obj.Instructions(composition=(
            obj.CompositionTarget("t", "center", (480.0, 270.0),
                                  (1.0, 1.0)),))
        assert rig_terms(make_rig(), preds, instr).image[0] == pytest.approx(
            0.0, abs=1e-18)

    def test_ten_pixel_error(self):
        preds = {"t": static_pred([10.0, 0.0, 0.0])}
        instr = obj.Instructions(composition=(
            obj.CompositionTarget("t", "center", (490.0, 270.0),
                                  (1.0, 1.0)),))
        assert rig_terms(make_rig(), preds, instr).image[0] == pytest.approx(
            100.0)

    def test_sums_over_points(self):
        pred = static_pred([10.0, 0.0, 0.0],
                           anchors={"up": np.array([0.0, 0.0, 0.0])})
        instr = obj.Instructions(composition=(
            obj.CompositionTarget("t", "center", (490.0, 270.0),
                                  (1.0, 1.0)),
            obj.CompositionTarget("t", "up", (480.0, 280.0), (1.0, 1.0))))
        assert rig_terms(make_rig(), {"t": pred},
                         instr).image[0] == pytest.approx(200.0)

    def test_behind_camera_costs_a_finite_barrier(self):
        preds = {"t": static_pred([-5.0, 0.0, 0.0])}
        instr = obj.Instructions(composition=(
            obj.CompositionTarget("t", "center", (480.0, 270.0),
                                  (1.0, 1.0)),))
        cost = rig_terms(make_rig(), preds, instr).image[0]
        assert math.isfinite(cost) and cost > 1e4

    def test_per_axis_weights(self):
        preds = {"t": static_pred([10.0, 0.0, 0.0])}
        instr = obj.Instructions(composition=(
            obj.CompositionTarget("t", "center", (490.0, 260.0),
                                  (2.0, 0.5)),))
        assert rig_terms(make_rig(), preds, instr).image[0] == pytest.approx(
            2.0 * 100 + 0.5 * 100)


class TestPoseCost:
    def test_zero_at_setpoint(self):
        preds = {"t": static_pred([10.0, 0.0, 0.0])}
        instr = obj.Instructions(poses=(obj.PoseTarget(
            "t", distance=10.0, w_distance=1.0,
            rotation=np.eye(3), w_rotation=1.0),))
        assert rig_terms(make_rig(), preds, instr).pose[0] == pytest.approx(
            0.0, abs=1e-12)

    def test_half_turn_frobenius(self):
        # relative rotation is a half turn about z; its transpose differs
        # from the identity by diag(-2, -2, 0)
        preds = {"t": static_pred([10.0, 0.0, 0.0],
                                  rotation=rotation_from_rpy(0, 0, np.pi))}
        instr = obj.Instructions(poses=(obj.PoseTarget(
            "t", rotation=np.eye(3), w_rotation=1.0),))
        assert rig_terms(make_rig(), preds, instr).pose[0] == pytest.approx(
            math.sqrt(8.0))

    def test_distance_error(self):
        preds = {"t": static_pred([10.0, 0.0, 0.0])}
        instr = obj.Instructions(poses=(obj.PoseTarget(
            "t", distance=8.0, w_distance=10.0),))
        assert rig_terms(make_rig(), preds, instr).pose[0] == pytest.approx(
            40.0)

    def test_distance_is_frame_invariant(self):
        # rotating the whole world leaves the camera-target distance alone
        world = rotation_from_rpy(0.3, -0.2, 1.1)
        preds_a = {"t": static_pred([10.0, 2.0, 1.0])}
        preds_b = {"t": static_pred(world @ np.array([10.0, 2.0, 1.0]))}
        instr = obj.Instructions(poses=(obj.PoseTarget(
            "t", distance=7.0, w_distance=3.0),))
        rig_a = make_rig()
        rig_b = CameraRig(drone=DroneState(
            position=world @ rig_a.drone.position, velocity=np.zeros(3),
            orientation=world @ rig_a.drone.orientation),
            intrinsics=rig_a.intrinsics)
        assert rig_terms(rig_a, preds_a, instr).pose[0] == pytest.approx(
            rig_terms(rig_b, preds_b, instr).pose[0], rel=1e-12)


class TestFocalCost:
    def test_zero_at_target(self):
        instr = obj.Instructions(focal=obj.FocalTarget(
            obj.FocalSchedule.constant(35.0), weight=1.0))
        assert rig_terms(make_rig(), {}, instr).focal[0] == 0.0

    def test_squared_error(self):
        instr = obj.Instructions(focal=obj.FocalTarget(
            obj.FocalSchedule.constant(40.0), weight=1.0))
        assert rig_terms(make_rig(), {}, instr).focal[0] == pytest.approx(
            25.0)

    def test_disabled(self):
        instr = obj.Instructions()
        assert rig_terms(make_rig(), {}, instr).focal[0] == 0.0


class TestResolve:
    def test_relative_near_resolution(self):
        instr = obj.Instructions(dof=obj.DofTarget(
            near=obj.RelativeDistance("a", -3.0), w_near=1.0))
        resolved = instr.resolve(0.0, 0.2, 5, {"a": 10.0})
        assert resolved.dof.near == pytest.approx(7.0)

    def test_focal_schedule_sampling(self):
        schedule = obj.FocalSchedule(times=(0.0, 10.0), values=(35.0, 45.0))
        instr = obj.Instructions(focal=obj.FocalTarget(schedule, 1.0))
        resolved = instr.resolve(2.0, 1.0, 3)
        assert resolved.focal_steps == pytest.approx((37.0, 38.0, 39.0,
                                                      40.0))
        assert resolved.focal_value(2) == pytest.approx(39.0)

    def test_missing_distance_raises(self):
        instr = obj.Instructions(dof=obj.DofTarget(
            near=obj.RelativeDistance("ghost", -3.0), w_near=1.0))
        with pytest.raises(KeyError):
            instr.resolve(0.0, 0.2, 5, {})

    def test_focal_steps_bit_identical_to_one_call_per_step(self):
        # one np.interp over the step times against the former call per
        # step at t0 + k dt, on random ramps, times and periods
        rng = np.random.default_rng(6)
        for _ in range(2000):
            knots = int(rng.integers(1, 5))
            times = tuple(np.cumsum(rng.uniform(0.1, 5.0, knots)).tolist())
            values = tuple(rng.uniform(15.0, 500.0, knots).tolist())
            t0, dt = rng.uniform(-1.0, 25.0), rng.uniform(0.01, 1.0)
            n = int(rng.integers(0, 12))
            instr = obj.Instructions(focal=obj.FocalTarget(
                obj.FocalSchedule(times, values), 1.0))
            want = tuple(float(np.interp(t0 + k * dt, times, values))
                         for k in range(n + 1))
            assert instr.resolve(t0, dt, n).focal_steps == want

    def test_nothing_to_resolve_is_itself(self):
        instr = obj.Instructions(dof=obj.DofTarget(near=4.0, w_near=1.0))
        assert instr.resolve(1.0, 0.2, 5) is instr


def random_instance(rng, n=4):
    rig = CameraRig(
        drone=DroneState(position=rng.uniform(-2, 2, 3),
                         velocity=rng.uniform(-1, 1, 3),
                         orientation=rotation_from_rpy(
                             *rng.uniform(-0.2, 0.2, 3))),
        intrinsics=IntrinsicState(rng.uniform(20, 100), rng.uniform(6, 15),
                                  rng.uniform(2, 10)))
    m = n + 1
    pred = obj.TargetPrediction(
        positions=np.cumsum(rng.uniform(-0.2, 0.2, (m, 3)), axis=0)
        + np.array([12.0, 0.0, 1.0]),
        rotations=np.stack([rotation_from_rpy(*rng.uniform(-0.3, 0.3, 3))
                            for _ in range(m)]),
        anchors={"top": np.array([0.0, 0.0, 0.8])})
    instr = obj.Instructions(
        dof=obj.DofTarget(near=rng.uniform(5, 9), far=rng.uniform(12, 25),
                          w_near=rng.uniform(0.5, 5),
                          w_far=rng.uniform(0.5, 5)),
        composition=(
            obj.CompositionTarget("t", "top", (400.0, 200.0),
                                  (rng.uniform(0.2, 2),
                                   rng.uniform(0.2, 2))),
            obj.CompositionTarget("t", "center", (500.0, 300.0),
                                  (rng.uniform(0.2, 2),
                                   rng.uniform(0.2, 2)))),
        poses=(obj.PoseTarget("t", distance=rng.uniform(8, 14),
                              w_distance=rng.uniform(0.5, 5),
                              rotation=rotation_from_rpy(
                                  *rng.uniform(-0.4, 0.4, 3)),
                              w_rotation=rng.uniform(0.5, 5)),),
        focal=obj.FocalTarget(obj.FocalSchedule.constant(
            rng.uniform(30, 90)), weight=rng.uniform(0.2, 2)))
    u = rng.uniform(-1, 1, (n, 9))
    u[:, 6] *= 5
    return rig, {"t": pred}, instr, u


class TestHorizon:
    def test_all_setpoints_met_gives_zero(self):
        preds = {"t": static_pred([10.0, 0.0, 0.0])}
        instr = obj.Instructions(composition=(
            obj.CompositionTarget("t", "center", (480.0, 270.0),
                                  (1.0, 1.0)),))
        horizon = rollout(make_rig(), np.zeros((3, 9)), 0.2)
        assert stacked_cost(horizon, preds, SPEC,
                            instr)[0].total == pytest.approx(0.0, abs=1e-18)

    def test_single_state_focal_only(self):
        instr = obj.Instructions(focal=obj.FocalTarget(
            obj.FocalSchedule.constant(40.0), weight=1.0))
        breakdown, _ = stacked_cost(
            rollout(make_rig(f=35.0), np.zeros((0, 9)), 0.2), {}, SPEC, instr)
        assert breakdown.total == pytest.approx(25.0)

    def test_decomposition_is_exact(self):
        rng = np.random.default_rng(3)
        rig, preds, instr, u = random_instance(rng)
        horizon = rollout(rig, u, 0.2)
        breakdown, _ = stacked_cost(horizon, preds, SPEC, instr,
                                    smooth=True)
        recomputed = (breakdown.dof + breakdown.image + breakdown.pose
                      + breakdown.focal)
        assert np.allclose(breakdown.step_totals, recomputed, atol=1e-12)
        assert breakdown.total == pytest.approx(
            float(np.sum(recomputed)), abs=1e-12)
        assert np.all(breakdown.step_totals >= 0.0)

    def test_matches_per_step_functions(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            rig, preds, instr, u = random_instance(rng)
            horizon = rollout(rig, u, 0.2)
            breakdown, _ = stacked_cost(horizon, preds, SPEC, instr)
            for k in range(len(horizon)):
                # state k alone, against the predictions at step k
                at_k = rig_terms(horizon.rig(k), {
                    tid: obj.TargetPrediction(pred.positions[k:k + 1],
                                              pred.rotations[k:k + 1],
                                              pred.anchors)
                    for tid, pred in preds.items()}, instr)
                assert breakdown.image[k] == pytest.approx(
                    at_k.image[0], abs=1e-9, rel=1e-9)
                assert breakdown.pose[k] == pytest.approx(
                    at_k.pose[0], abs=1e-9, rel=1e-9)
                assert breakdown.dof[k] == pytest.approx(
                    at_k.dof[0], abs=1e-9, rel=1e-9)
                assert breakdown.focal[k] == pytest.approx(
                    at_k.focal[0], abs=1e-9)


def camera_point_derivatives_matmul(cam_rotations, rel, g_q):
    """The position and rotation terms as computed before
    :func:`obj.camera_point_derivatives`, the rotation term as a product:
    the oracle of their bits."""
    return (-np.einsum("kij,...kj->...ki", cam_rotations, g_q),
            np.einsum("...i,...j->...ij", rel, g_q) @ BODY_TO_CAMERA.T)


def hat(w):
    return np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]],
                     [-w[1], w[0], 0.0]])


def test_horizon_gradients_add_builds_one_row_per_residual():
    # the oracle's accumulator; d's rotation entries are <G, R hat(e_i)>,
    # the derivative of a function with matrix gradient G under R exp(d^)
    rng = np.random.default_rng(4)
    n = 5
    rotations = np.stack([rotation_from_rpy(*rng.uniform(-1.0, 1.0, 3))
                          for _ in range(n)])
    grads = HorizonGradients(rotations)
    want_gradient, want_curvature = np.zeros((n, 12)), np.zeros((n, 12, 12))
    states = slice(1, None)
    residuals = [
        {"position": rng.standard_normal((n - 1, 3)),
         "rotation": rng.standard_normal((n - 1, 3, 3)),
         "intrinsics": rng.standard_normal(n - 1)},
        {"position": rng.standard_normal((n - 1, 3)),
         "intrinsics": rng.standard_normal((n - 1, 3))},
        {"rotation": rng.standard_normal((n - 1, 3, 3))}]
    for index, pieces in enumerate(residuals):
        slope = rng.standard_normal(n - 1)
        weight = None if index == 2 else rng.uniform(0.5, 2.0, n - 1)
        grads.add(slope, weight, states=states, **pieces)
        d = np.zeros((n - 1, 12))
        d[:, 0:3] = pieces.get("position", 0.0)
        if "rotation" in pieces:
            for i in range(3):
                d[:, 6 + i] = np.einsum(
                    "kab,kab->k", pieces["rotation"],
                    rotations[1:] @ hat(np.eye(3)[i]))
        lens = pieces.get("intrinsics", np.zeros(n - 1))
        if lens.ndim == 1:
            d[:, 9] = lens
        else:
            d[:, 9:12] = lens
        want_gradient[1:] += slope[:, None] * d
        if weight is not None:
            want_curvature[1:] += weight[:, None, None] * np.einsum(
                "ki,kj->kij", d, d)
    assert np.allclose(grads.gradient, want_gradient, rtol=1e-13,
                       atol=1e-13)
    assert np.allclose(grads.curvature, want_curvature, rtol=1e-13,
                       atol=1e-13)
    # state 0 is outside ``states``, and the last residual has no weight
    assert not grads.gradient[0].any() and not grads.curvature[0].any()
    before = grads.curvature.copy()
    grads.add(np.ones(n), rotation=rng.standard_normal((n, 3, 3)))
    assert np.array_equal(grads.curvature, before)


class TestGradient:
    def test_rotation_terms_bit_identical_in_the_gradient(self, monkeypatch):
        rng = np.random.default_rng(31)
        for trial in range(40):
            rig, preds, instr, u = random_instance(rng, n=1 + trial % 6)
            if trial % 2:
                # a zero weight zeroes a column of the point gradients
                instr = replace(instr, composition=tuple(
                    replace(ct, weight=(0.0, ct.weight[1]))
                    for ct in instr.composition))
            horizon = rollout(rig, u, 0.2)
            results = []
            for chain in (obj.camera_point_derivatives,
                          camera_point_derivatives_matmul):
                monkeypatch.setattr(obj, "camera_point_derivatives", chain)
                _, grads = stacked_cost(horizon, preds, SPEC, instr,
                                        smooth=True, with_grads=True)
                results.append(grads)
            got, want = results
            for a, b in zip(got, want):  # the gradients, the stage blocks
                assert np.array_equal(a, b)
                assert np.array_equal(np.signbit(a), np.signbit(b))
            # the two forms differ at most in the signs of zeros
            rel = rng.standard_normal((2, 4, 3))
            g_q = rng.standard_normal((2, 4, 3))
            g_q[rng.random(g_q.shape) < 0.3] = 0.0
            cam = np.stack([rotation_from_rpy(*angles)
                            for angles in rng.uniform(-1.0, 1.0, (4, 3))])
            for got, want in zip(
                    obj.camera_point_derivatives(cam, rel, g_q),
                    camera_point_derivatives_matmul(cam, rel, g_q)):
                assert np.array_equal(got, want)

    def test_separation_position_terms_bit_identical(self):
        # the separation rows' position terms as they were summed before
        # they came from the shared chain rule: the right and left boxes'
        # "kij,tkj->tki" products subtracted from 0.0, against the helper's
        # negated "kij,...kj->...ki" products added to it
        rng = np.random.default_rng(32)
        for _ in range(2000):
            n = int(rng.integers(1, 7))
            cam = np.stack([rotation_from_rpy(*angles)
                            for angles in rng.uniform(-3.0, 3.0, (n, 3))])
            g_q = rng.standard_normal((2, n, 3)) * 10.0 ** rng.uniform(
                -3.0, 3.0, (2, n, 1))
            g_q[rng.random(g_q.shape) < 0.2] = 0.0
            terms = np.einsum("kij,tkj->tki", cam, g_q)
            pos = obj.camera_point_derivatives(cam, g_q, g_q)[0]
            assert np.array_equal(-terms, pos)
            got, want = 0.0 + pos[0] + pos[1], 0.0 - terms[0] - terms[1]
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_zero_weights_zero_gradient(self):
        rig = make_rig()
        u = np.random.default_rng(0).uniform(-1, 1, (4, 9))
        horizon = rollout(rig, u, 0.2)
        _, grads = stacked_cost(horizon, {}, SPEC, obj.Instructions(),
                                smooth=True, with_grads=True)
        grad = input_gradient(grads, horizon, 0.2)
        assert np.all(grad == 0.0)

    def test_single_step_focal_chain(self):
        # J = w (f0 + dt v_f - f*)^2 so dJ/dv_f = 2 w dt (f1 - f*)
        dt, w, fstar = 0.2, 3.0, 50.0
        u = np.zeros((1, 9))
        u[0, 6] = 4.0
        horizon = rollout(make_rig(f=35.0), u, dt)
        instr = obj.Instructions(focal=obj.FocalTarget(
            obj.FocalSchedule.constant(fstar), weight=w))
        _, grads = stacked_cost(horizon, {}, SPEC, instr, smooth=True,
                                with_grads=True)
        grad = input_gradient(grads, horizon, dt)
        f1 = horizon.lens[1, 0]
        assert grad[6] == pytest.approx(2.0 * w * dt * (f1 - fstar))

    def test_matches_central_differences(self):
        rng = np.random.default_rng(7)
        dt = 0.2
        for _ in range(25):
            rig, preds, instr, u = random_instance(rng)
            horizon = rollout(rig, u, dt)
            _, grads = stacked_cost(horizon, preds, SPEC, instr,
                                    smooth=True, with_grads=True)
            grad = input_gradient(grads, horizon, dt)

            def total(flat):
                ro = rollout(rig, flat.reshape(-1, 9), dt)
                return stacked_cost(ro, preds, SPEC, instr,
                                    smooth=True)[0].total

            flat = u.ravel()
            fd = np.zeros_like(grad)
            h = 1e-6
            for i in range(flat.size):
                up, down = flat.copy(), flat.copy()
                up[i] += h
                down[i] -= h
                fd[i] = (total(up) - total(down)) / (2.0 * h)
            assert np.linalg.norm(grad - fd) <= 1e-4 * max(
                np.linalg.norm(fd), 1e-9)
