"""Bounding boxes, occlusion activation and the stacked residual vector."""

import numpy as np
import pytest
import scipy.linalg

from cinedrone import constraints as cons
from cinedrone import objectives as obj
from cinedrone.kinematics import (BODY_TO_CAMERA, ROTATION, CameraRig,
                                  DroneState, Horizon, hat_batch, rollout,
                                  rotation_from_rpy, tangent_gradients)
from cinedrone.optics import CameraSensorSpec, IntrinsicState
from test_kinematics import so3_exp

SPEC = CameraSensorSpec.from_sensor_size(960, 540, 23.76, 13.365, 480, 270)


def make_rig(p=(0, 0, 0), rpy=(0, 0, 0), f=35.0):
    return CameraRig(drone=DroneState(position=np.array(p, float),
                                      velocity=np.zeros(3),
                                      orientation=rotation_from_rpy(*rpy)),
                     intrinsics=IntrinsicState(f, 10.0, 2.0))


def pred_at(position, n=1):
    return obj.TargetPrediction(
        positions=np.tile(np.asarray(position, float), (n, 1)),
        rotations=np.tile(np.eye(3), (n, 1, 1)))


class TestBoundingBox:
    def test_degenerate_box(self):
        box = cons.box_from_center(make_rig(), np.array([10.0, 0.0, 0.0]),
                                   height=0.0, width=0.0, spec=SPEC)
        assert box.x_lt == box.x_rb == pytest.approx(480.0)
        assert box.y_lt == box.y_rb == pytest.approx(270.0)

    def test_extents_scale_with_focal_over_depth(self):
        # half extents are (beta f s/2) / depth = 1414.14 * (s/2) / 10
        box = cons.box_from_center(make_rig(), np.array([10.0, 0.0, 0.0]),
                                   height=2.0, width=1.0, spec=SPEC)
        assert box.x_lt == pytest.approx(480 - 70.707, abs=1e-2)
        assert box.x_rb == pytest.approx(480 + 70.707, abs=1e-2)
        assert box.y_lt == pytest.approx(270 - 141.414, abs=1e-2)
        assert box.y_rb == pytest.approx(270 + 141.414, abs=1e-2)

    def test_doubling_depth_halves_box(self):
        near = cons.box_from_center(make_rig(), np.array([10.0, 0.0, 0.0]),
                                    2.0, 1.0, SPEC)
        far = cons.box_from_center(make_rig(), np.array([20.0, 0.0, 0.0]),
                                   2.0, 1.0, SPEC)
        assert (far.x_rb - far.x_lt) == pytest.approx(
            (near.x_rb - near.x_lt) / 2.0)

    def test_behind_camera(self):
        for depth in (-10.0, 0.0):
            assert cons.box_from_center(make_rig(), np.array([depth, 0.0,
                                                              0.0]),
                                        2.0, 1.0, SPEC) is None


class TestOcclusionActivation:
    def test_active_when_vertically_conflicting_and_separated(self):
        first = cons.PixelBox(100, 100, 200, 200)
        second = cons.PixelBox(250, 120, 350, 220)
        assert cons.occlusion_activation(first, second)

    def test_inactive_when_vertically_disjoint(self):
        first = cons.PixelBox(100, 100, 200, 200)
        second = cons.PixelBox(250, 300, 350, 400)
        assert not cons.occlusion_activation(first, second)

    def test_inactive_when_horizontally_interleaved(self):
        first = cons.PixelBox(100, 100, 200, 200)
        second = cons.PixelBox(150, 120, 350, 220)
        assert not cons.occlusion_activation(first, second)

    def test_activate_occlusions_orders_pairs(self):
        # one target left of the other in the image, both vertically tall
        rig = make_rig()
        preds = {"a": pred_at([10.0, 1.0, 0.0]),
                 "b": pred_at([10.0, -1.0, 0.0])}
        sizes = {"a": (2.0, 0.5), "b": (2.0, 0.5)}
        records = cons.activate_occlusions(rig, preds, sizes, SPEC)
        assert len(records) == 1
        # camera x is world -y: target "a" (y=+1) appears left
        assert records[0].left_id == "a" and records[0].right_id == "b"


class TestConstraintSet:
    def test_bounds_are_read_only_copies(self):
        # nothing that a solve or a memo has read can change under it:
        # every bound array refuses writes, and the caller's arrays are not
        # the set's own
        low = np.full(3, -30.0)
        cset = cons.ConstraintSet(**{**cons.ConstraintSet.default().__dict__,
                                     "position_low": low})
        low[0] = 5.0
        assert cset.position_low[0] == -30.0
        names = [f"{group}_{side}" for group in (
            "drone_input", "intr_input", "position", "velocity", "rpy",
            "intr") for side in ("low", "high")]
        for name in names:
            with pytest.raises(ValueError, match="read-only"):
                getattr(cset, name)[0] = 0.0


class TestResiduals:
    def test_interior_point_all_positive(self):
        cset = cons.ConstraintSet.default()
        u = np.zeros((1, 9))
        residuals = cons.evaluate_constraints(
            u, rollout(make_rig(p=(0, 0, 1)), u, 0.2),
            cons.ConstraintTracks({}, {}, cset, [], 2), cset, SPEC)
        assert np.all(residuals > 0.0)

    def test_collision_violation(self):
        cset = cons.ConstraintSet.default()
        cset = cons.ConstraintSet(**{**cset.__dict__,
                                     "safety_distance": 2.0})
        preds = {"t": pred_at([1.5, 0, 0], n=1)}
        u = np.zeros((0, 9))
        residuals = cons.evaluate_constraints(
            u, rollout(make_rig(), u, 0.2),
            cons.ConstraintTracks(preds, {"t": (1.0, 1.0)}, cset, [], 1),
            cset, SPEC)
        assert residuals.min() == pytest.approx(-0.5)

    def test_input_exactly_at_bound(self):
        cset = cons.ConstraintSet.default()
        u = np.zeros(9)
        u[6] = 7.0
        residuals = cons.input_bound_residuals(u, cset)
        # focal-rate upper residual is exactly 0, lower equals the width
        assert residuals.min() == 0.0
        assert residuals[9 + 6] == 0.0
        assert residuals[6] == pytest.approx(14.0)

    def test_bound_residual_symmetry(self):
        cset = cons.ConstraintSet.default()
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = rng.uniform(cset.drone_input_low, cset.drone_input_high)
            i = rng.integers(0, 6)
            u[i] = cset.drone_input_high[i]
            residuals = cons.input_bound_residuals(
                np.concatenate([u, np.zeros(3)]), cset)
            width = (cset.drone_input_high[i] - cset.drone_input_low[i])
            assert residuals[9 + i] == 0.0
            assert residuals[i] == pytest.approx(width)

    def test_occlusion_residual_in_stack(self):
        cset = cons.ConstraintSet.default()
        preds = {"a": pred_at([10.0, 1.0, 0.0]),
                 "b": pred_at([10.0, -1.0, 0.0])}
        sizes = {"a": (2.0, 0.5), "b": (2.0, 0.5)}
        record = cons.OcclusionRecord("a", "b")
        u = np.zeros((0, 9))
        horizon = rollout(make_rig(), u, 0.2)
        tracks = cons.ConstraintTracks(preds, sizes, cset, [record],
                                       len(horizon))
        residuals = cons.evaluate_constraints(u, horizon, tracks, cset, SPEC)
        track = tracks.separations[0]
        gap = cons.separation_pieces(horizon, 0, track, SPEC)[0][0]
        assert residuals[-1] == pytest.approx(gap)
        assert gap > 0.0


def separation_per_box(horizon, start, preds, sizes, record):
    """The per-box loop the stacked separation replaced: the oracle of its
    bits."""
    positions = horizon.positions[start:]
    cam_rotations = horizon.rotations[start:] @ BODY_TO_CAMERA
    f_mm = horizon.lens[start:, 0]
    n = len(positions)
    steps = slice(start, start + n)
    residual = np.zeros(n)
    d_pos = np.zeros((n, 3))
    d_rot = np.zeros((n, 3, 3))
    d_f = np.zeros(n)
    for tid, sign in ((record.right_id, -1.0), (record.left_id, +1.0)):
        outer_sign = 1.0 if sign < 0.0 else -1.0
        width = sizes[tid][1]
        pred = preds[tid]
        centers = pred.positions[steps] + np.einsum(
            "kij,j->ki", pred.rotations[steps], pred.anchors["center"])
        rel = centers - positions
        q = np.einsum("kji,kj->ki", cam_rotations, rel)
        qz = np.maximum(q[:, 2], 1e-6)
        bxf = SPEC.beta_x * f_mm
        u_num = bxf * q[:, 0] + SPEC.skew * q[:, 1]
        u = u_num / qz + SPEC.principal_u
        half_w = bxf * (width / 2.0) / qz
        residual += outer_sign * (u + sign * half_w)
        g_q = np.empty((n, 3))
        g_q[:, 0] = bxf / qz
        g_q[:, 1] = SPEC.skew / qz
        g_q[:, 2] = -(u_num + sign * bxf * (width / 2.0)) / (qz * qz)
        g_q *= outer_sign
        d_pos -= np.einsum("kij,kj->ki", cam_rotations, g_q)
        d_rot += np.einsum("ki,kj->kij", rel, g_q) @ BODY_TO_CAMERA.T
        d_f += outer_sign * (SPEC.beta_x * q[:, 0]
                             + sign * SPEC.beta_x * (width / 2.0)) / qz
    return residual, d_pos, d_rot, d_f


class TestSeparationGradient:
    def test_stacked_boxes_bit_identical_to_per_box_loop(self):
        rng = np.random.default_rng(8)
        cset = cons.ConstraintSet.default()
        for trial in range(30):
            n = 1 + trial % 6
            u = rng.uniform(-1.0, 1.0, (n, 9))
            horizon = rollout(make_rig(p=rng.uniform(-1, 1, 3),
                                       rpy=rng.uniform(-0.3, 0.3, 3),
                                       f=rng.uniform(20, 120)), u, 0.2)
            preds = {tid: obj.TargetPrediction(
                positions=base + rng.uniform(-1, 1, (n + 2, 3)),
                rotations=np.array([so3_exp(rng.uniform(-0.5, 0.5, 3))
                                    for _ in range(n + 2)]),
                anchors={"center": rng.uniform(-0.3, 0.3, 3)})
                for tid, base in (("a", [10.0, 2.0, 1.0]),
                                  ("b", [3.0, -2.0, 1.2]))}
            sizes = {"a": (1.5, rng.uniform(0.2, 1.0)),
                     "b": (2.0, rng.uniform(0.2, 1.0))}
            record = cons.OcclusionRecord(*rng.permutation(["a", "b"]))
            track = cons.ConstraintTracks(preds, sizes, cset, [record],
                                          n + 1).separations[0]
            for start in (0, 1):
                gap, pieces = cons.separation_pieces(horizon, start, track,
                                                     SPEC)
                reference = separation_per_box(horizon, start, preds, sizes,
                                               record)
                for got, want in zip((gap, *pieces()), reference):
                    assert np.array_equal(got, want)
                    assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        sizes = {"a": (1.5, 0.6), "b": (2.0, 0.8)}
        record = cons.OcclusionRecord("a", "b")
        h = 1e-6
        n = 3
        for trial in range(20):
            start = trial % 2
            rotations = np.array([rotation_from_rpy(*rng.uniform(-0.3, 0.3,
                                                                  3))
                                  for _ in range(n)])
            positions = rng.uniform(-1, 1, (n, 3))
            focal = rng.uniform(20, 120, n)
            preds = {}
            for tid, base in (("a", [10.0, 2.0, 1.0]),
                              ("b", [8.0, -2.0, 1.2])):
                steps = np.arange(n + 1)[:, None]
                preds[tid] = obj.TargetPrediction(
                    positions=base + rng.uniform(-1, 1, 3)
                    + 0.3 * steps * rng.uniform(-1, 1, 3),
                    rotations=np.array([so3_exp(rng.uniform(-0.5, 0.5, 3))
                                        for _ in range(n + 1)]),
                    anchors={"center": rng.uniform(-0.3, 0.3, 3)})

            def pieces(p, rot, f):
                # states before ``start`` are never read
                lens = np.column_stack([f, np.full(n, 8.0), np.full(n, 4.0)])
                horizon = Horizon(np.vstack([np.zeros((start, 3)), p]),
                                  np.zeros((start + n, 3)),
                                  np.vstack([np.zeros((start, 3, 3)), rot]),
                                  np.vstack([np.zeros((start, 3)), lens]),
                                  np.zeros((start + n - 1, 3, 3)))
                track = cons.ConstraintTracks(
                    preds, sizes, cons.ConstraintSet.default(), [record],
                    start + n).separations[0]
                return cons.separation_pieces(horizon, start, track, SPEC)

            def residual(p, rot, f):
                return pieces(p, rot, f)[0]

            d_pos, d_rot, d_f = pieces(positions, rotations, focal)[1]()
            for k in range(n):
                for i in range(3):
                    dp = np.zeros((n, 3))
                    dp[k, i] = h
                    fd = (residual(positions + dp, rotations, focal)
                          - residual(positions - dp, rotations, focal)
                          ) / (2 * h)
                    assert d_pos[k, i] == pytest.approx(fd[k], rel=1e-4,
                                                        abs=1e-6)
                    turned = [rotations.copy(), rotations.copy()]
                    turned[0][k] = rotations[k] @ so3_exp(dp[k])
                    turned[1][k] = rotations[k] @ so3_exp(-dp[k])
                    fd_rot = (residual(positions, turned[0], focal)
                              - residual(positions, turned[1], focal)
                              ) / (2 * h)
                    analytic = float(np.sum(d_rot[k] * (
                        rotations[k] @ hat_batch(np.eye(3))[i])))
                    assert analytic == pytest.approx(fd_rot[k], rel=1e-4,
                                                     abs=1e-6)
                df = np.zeros(n)
                df[k] = h
                fd_f = (residual(positions, rotations, focal + df)
                        - residual(positions, rotations, focal - df)
                        ) / (2 * h)
                assert d_f[k] == pytest.approx(fd_f[k], rel=1e-4, abs=1e-6)


def moved_state(horizon, k, direction, h):
    """``horizon`` with state ``k`` moved by ``h`` along one of its 12
    derivative directions: position, velocity, the rotation ``R exp(h
    e_i^)`` and lens."""
    arrays = [horizon.positions.copy(), horizon.velocities.copy(),
              horizon.rotations.copy(), horizon.lens.copy()]
    group, i = divmod(direction, 3)
    if group == 2:
        arrays[2][k] = horizon.rotations[k] @ so3_exp(h * np.eye(3)[i])
    else:
        arrays[(0, 1, None, 3)[group]][k, i] += h
    return Horizon(*arrays, horizon.jacobians)


class TestStateResidualDerivatives:
    def test_each_row_matches_central_differences(self):
        # two targets side by side ahead of the rig, kept apart by one
        # active record, under a collision safety distance: every group of
        # a row, 24 box, 2 collision and 1 separation entries
        sizes = {"a": (2.0, 0.5), "b": (2.0, 0.5)}
        cset = cons.ConstraintSet(**{**cons.ConstraintSet.default().__dict__,
                                     "safety_distance": 2.0})
        record = cons.OcclusionRecord("a", "b")
        rng = np.random.default_rng(19)
        n, h = 4, 1e-6
        for trial in range(6):
            preds = {tid: obj.TargetPrediction(
                positions=np.array([10.0, y, 1.0]) + rng.uniform(
                    -0.5, 0.5, (n + 1, 3)),
                rotations=np.array([so3_exp(rng.uniform(-0.3, 0.3, 3))
                                    for _ in range(n + 1)]),
                anchors={"center": rng.uniform(-0.2, 0.2, 3)})
                for tid, y in (("a", 1.0), ("b", -1.0))}
            tracks = cons.ConstraintTracks(preds, sizes, cset, [record],
                                           n + 1)
            horizon = rollout(make_rig(p=rng.uniform(-1, 1, 3),
                                       rpy=rng.uniform(-0.3, 0.3, 3),
                                       f=rng.uniform(20, 120)),
                              rng.uniform(-1.0, 1.0, (n, 9)), 0.2)
            # the report's rows, and the model step's with a margin and the
            # separation rescaled
            start, options = [(0, {}), (1, {"margin": 0.15,
                                            "separation_scale": 100.0})][
                trial % 2]
            rows, derivatives = cons.state_residuals(horizon, start,
                                                     tracks, SPEC, **options)
            assert rows.shape == (n + 1 - start, 27)
            d = derivatives()
            # by state: the 12 box entries, 2 collision and 1 separation
            assert d.shape == (len(rows), 15, 12)
            for k in range(len(rows)):
                fd = np.stack([(cons.state_residuals(
                    moved_state(horizon, start + k, j, h), start, tracks,
                    SPEC, **options)[0][k] - cons.state_residuals(
                    moved_state(horizon, start + k, j, -h), start, tracks,
                    SPEC, **options)[0][k]) / (2.0 * h)
                    for j in range(12)], axis=1)
                for column in range(rows.shape[1]):
                    if column >= cons.BOX.stop:
                        want = d[k, 12 + column - cons.BOX.stop]
                    elif column in np.r_[cons.BOX_LOW]:
                        want = d[k, column]
                    else:
                        want = -d[k, column - cons.BOX_HIGH.start]
                    assert np.abs(want).max() > 0.0, column
                    assert np.allclose(want, fd[column], rtol=1e-5,
                                       atol=1e-6), column


def test_rpy_derivative_matches_central_differences():
    # roll, pitch and yaw as the state rows extract them, moved by R exp(d^)
    # along each body axis
    rng = np.random.default_rng(12)
    n = 16
    rotations = np.stack([rotation_from_rpy(
        rng.uniform(-3.0, 3.0), rng.uniform(-1.2, 1.2),
        rng.uniform(-3.0, 3.0)) for _ in range(n)])

    def angles(rots):
        horizon = Horizon(positions=np.zeros((n, 3)),
                          velocities=np.zeros((n, 3)), rotations=rots,
                          lens=np.ones((n, 3)),
                          jacobians=np.zeros((n - 1, 3, 3)))
        return horizon.state_rows()[:, ROTATION]
    h = 1e-6
    for axis, d_angle in enumerate(cons._rpy_derivative(rotations)):
        got = tangent_gradients(rotations, d_angle)
        for i in range(3):
            step = scipy.linalg.expm(h * hat_batch(np.eye(3)[i:i + 1])[0])
            fd = (angles(rotations @ step) - angles(rotations @ step.T))[
                :, axis] / (2.0 * h)
            assert np.allclose(got[:, i], fd, rtol=1e-6, atol=1e-7)
