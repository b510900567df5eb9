"""Depth extraction, world-frame measurement, Kalman filtering and
orientation construction."""

import numpy as np
import pytest

from cinedrone import estimation as est
from cinedrone.kinematics import (BODY_TO_CAMERA, CameraRig, DroneState,
                                  rotation_from_rpy)
from cinedrone.optics import CameraSensorSpec, IntrinsicState

SPEC = CameraSensorSpec.from_sensor_size(960, 540, 23.76, 13.365, 480, 270)


def rig_with_camera_matrix(cam_rotation, position=(0, 0, 0)):
    """Build a rig whose optical axes equal the given matrix."""
    body = np.asarray(cam_rotation) @ BODY_TO_CAMERA.T
    return CameraRig(drone=DroneState(position=np.array(position, float),
                                      velocity=np.zeros(3),
                                      orientation=body),
                     intrinsics=IntrinsicState(35.0, 10.0, 2.0))


def detection(pixel, depth, rows=3, cols=3):
    patch = np.full((rows, cols), float(depth))
    return est.Detection(pixel=np.asarray(pixel, float), depth_patch=patch)


def robust_depth_per_row(patch):
    """Robust depth as computed row by row before it became one masked
    reduction: the oracle of its bits."""
    patch = np.asarray(patch, dtype=float)
    if patch.size == 0:
        raise est.NoValidDepthError("empty depth patch")
    valid = np.isfinite(patch) & (patch > 0.0)
    row_mins = []
    for row, row_valid in zip(np.atleast_2d(patch), np.atleast_2d(valid)):
        if np.any(row_valid):
            row_mins.append(np.min(row[row_valid]))
    if not row_mins:
        raise est.NoValidDepthError("no valid entries in depth patch")
    return float(np.median(row_mins))


def spoiled_patch(rng, shape):
    """Depths with NaN, +-inf, zero and negative entries strewn in, and
    now and then a row with no valid entry."""
    patch = rng.uniform(0.5, 40.0, shape)
    spoil = rng.random(shape)
    for value, share in ((np.nan, 0.1), (np.inf, 0.2), (-np.inf, 0.3),
                         (0.0, 0.4), (-3.0, 0.5)):
        patch[(spoil >= share - 0.1) & (spoil < share)] = value
    if patch.ndim == 2 and rng.random() < 0.5:
        patch[rng.integers(len(patch))] = rng.choice(
            [np.nan, np.inf, -np.inf, 0.0, -1.0], patch.shape[1])
    return patch


class TestRobustDepth:
    def test_bit_identical_to_per_row_minima(self):
        rng = np.random.default_rng(11)
        shapes = ([(int(rng.integers(1, 13)), int(rng.integers(1, 9)))
                   for _ in range(300)]
                  + [(k,) for k in range(1, 9)]
                  + [(1, k) for k in range(1, 9)])
        checked = 0
        for shape in shapes:
            patch = spoiled_patch(rng, shape)
            try:
                want = robust_depth_per_row(patch)
            except est.NoValidDepthError as error:
                with pytest.raises(est.NoValidDepthError, match=str(error)):
                    est.robust_depth(patch)
                continue
            got = est.robust_depth(patch)
            assert got == want and type(got) is float
            checked += 1
        assert checked > 250
        # the rule that a 1-D patch is one row, and both error cases
        row = np.array([np.nan, 4.0, -2.0, 3.0, np.inf])
        assert est.robust_depth(row) == est.robust_depth(row[None]) == 3.0
        with pytest.raises(est.NoValidDepthError, match="empty"):
            est.robust_depth(np.zeros((2, 0)))
        with pytest.raises(est.NoValidDepthError, match="no valid"):
            est.robust_depth(np.array([[np.nan, -np.inf], [0.0, np.inf]]))

    def test_median_of_row_minima(self):
        assert est.robust_depth(np.array([[5, 9], [7, 8], [6, 10]])) == 6.0

    def test_constant_patch(self):
        assert est.robust_depth(np.full((4, 7), 3.5)) == 3.5

    def test_even_row_count_averages(self):
        assert est.robust_depth(np.array([[5, 9], [7, 8]])) == 6.0

    def test_invalid_entries_excluded(self):
        patch = np.array([[np.nan, 5.0], [-1.0, 7.0], [0.0, 6.0]])
        assert est.robust_depth(patch) == 6.0

    def test_all_invalid_raises(self):
        with pytest.raises(est.NoValidDepthError):
            est.robust_depth(np.full((2, 2), -1.0))
        with pytest.raises(est.NoValidDepthError):
            est.robust_depth(np.zeros((0, 3)))

    def test_background_row_corruption(self):
        # corrupting 40% of rows with far background leaves the median
        rng = np.random.default_rng(0)
        patch = 5.0 + rng.normal(0.0, 0.01, (10, 6))
        clean = est.robust_depth(patch)
        corrupted = patch.copy()
        corrupted[:4] = 120.0
        assert est.robust_depth(corrupted) == pytest.approx(clean,
                                                            abs=0.05)


class TestWorldMeasurement:
    def test_principal_point_axis(self):
        rig = rig_with_camera_matrix(np.eye(3))
        measured = est.measure_world_position(detection([480, 270], 10.0),
                                              rig, SPEC)
        assert np.allclose(measured, [0, 0, 10], atol=1e-9)

    def test_translation_offset(self):
        rig = rig_with_camera_matrix(np.eye(3), position=(1, 1, 1))
        measured = est.measure_world_position(detection([480, 270], 10.0),
                                              rig, SPEC)
        assert np.allclose(measured, [1, 1, 11], atol=1e-9)

    def test_rotation_about_optical_axis(self):
        # a quarter turn about z leaves the optical-axis point unmoved
        cam = rotation_from_rpy(0.0, 0.0, np.pi / 2) @ np.eye(3)
        rig = rig_with_camera_matrix(cam, position=(1, 1, 1))
        measured = est.measure_world_position(detection([480, 270], 10.0),
                                              rig, SPEC)
        assert np.allclose(measured, [1, 1, 11], atol=1e-9)


def kf_update_with_h(track, measurement, meas_sigma):
    """The Joseph-form update written with the measurement matrix ``h``
    and noise ``r``: the oracle of :func:`est.kf_update`'s slices."""
    measurement = np.asarray(measurement, dtype=float)
    h = np.zeros((3, 6))
    h[:, :3] = np.eye(3)
    r = np.eye(3) * meas_sigma ** 2
    cov = track.covariance
    innovation_cov = h @ cov @ h.T + r
    gain = cov @ h.T @ np.linalg.inv(innovation_cov)
    state = np.concatenate([track.position, track.velocity])
    state = state + gain @ (measurement - track.position)
    joseph = np.eye(6) - gain @ h
    cov = joseph @ cov @ joseph.T + gain @ r @ gain.T
    return est.TargetTrack(position=state[:3], velocity=state[3:],
                           covariance=0.5 * (cov + cov.T))


class TestKalman:
    def test_predict_keeps_position_with_zero_velocity(self):
        track = est.initialize_track(np.array([1.0, 2.0, 3.0]), 0.04, 2.0)
        out = est.kf_predict(track, 0.2, 0.5)
        assert np.allclose(out.position, [1, 2, 3])
        assert np.trace(out.covariance) > np.trace(track.covariance)

    def test_predict_moves_with_velocity(self):
        track = est.TargetTrack(position=np.zeros(3),
                                velocity=np.array([1.0, 0, 0]),
                                covariance=np.eye(6))
        out = est.kf_predict(track, 0.2, 0.5)
        assert np.allclose(out.position, [0.2, 0, 0])

    def test_zero_covariance_prior_ignores_measurement(self):
        track = est.TargetTrack(position=np.zeros(3), velocity=np.zeros(3),
                                covariance=np.zeros((6, 6)))
        out = est.kf_update(track, np.array([5.0, 5.0, 5.0]), 0.1)
        assert np.allclose(out.position, 0.0)

    def test_uninformative_prior_trusts_measurement(self):
        track = est.TargetTrack(position=np.zeros(3), velocity=np.zeros(3),
                                covariance=np.eye(6) * 1e9)
        out = est.kf_update(track, np.array([5.0, -2.0, 1.0]), 0.1)
        assert np.allclose(out.position, [5.0, -2.0, 1.0], atol=1e-6)

    def test_converges_on_stationary_target(self):
        rng = np.random.default_rng(42)
        truth = np.array([1.0, 2.0, 3.0])
        sigma = 0.04
        track = est.initialize_track(truth + rng.normal(0, sigma, 3),
                                     sigma, 2.0)
        n = 200
        for _ in range(n):
            track = est.kf_predict(track, 0.2, accel_sigma=0.0)
            track = est.kf_update(track, truth + rng.normal(0, sigma, 3),
                                  sigma)
        assert np.linalg.norm(track.position - truth) < 3 * sigma / np.sqrt(n)
        assert np.linalg.norm(track.velocity) < 0.01

    def test_update_bit_identical_to_measurement_matrix_form(self):
        # filter runs as the loop makes them, and tracks with random
        # symmetric positive definite covariances
        rng = np.random.default_rng(19)
        tracks = []
        for _ in range(20):
            sigma = rng.uniform(0.01, 0.5)
            track = est.initialize_track(rng.normal(0, 5, 3), sigma, 2.0)
            for _ in range(50):
                track = est.kf_predict(track, rng.uniform(0.05, 0.3),
                                       accel_sigma=rng.uniform(0.0, 2.0))
                tracks.append((track, rng.normal(0, 5, 3), sigma))
                track = est.kf_update(track, *tracks[-1][1:])
        for _ in range(1000):
            a = rng.normal(0, rng.uniform(0.01, 10.0), (6, 6))
            tracks.append((est.TargetTrack(
                position=rng.normal(0, 5, 3), velocity=rng.normal(0, 1, 3),
                covariance=a @ a.T),
                rng.normal(0, 5, 3), rng.uniform(0.01, 0.5)))
        for track, measurement, sigma in tracks:
            got = est.kf_update(track, measurement, sigma)
            want = kf_update_with_h(track, measurement, sigma)
            for name in ("position", "velocity", "covariance"):
                a, b = getattr(got, name), getattr(want, name)
                assert np.array_equal(a, b), name
                assert np.array_equal(np.signbit(a), np.signbit(b)), name

    def test_covariance_stays_spd(self):
        rng = np.random.default_rng(1)
        track = est.initialize_track(np.zeros(3), 0.04, 2.0)
        for _ in range(500):
            track = est.kf_predict(track, 0.2, accel_sigma=0.5)
            if rng.random() < 0.7:
                track = est.kf_update(track, rng.normal(0, 1, 3), 0.04)
            eigenvalues = np.linalg.eigvalsh(track.covariance)
            assert eigenvalues.min() > 0.0


class TestHorizonPrediction:
    def test_static_target(self):
        track = est.initialize_track(np.array([1.0, 0, 0]), 0.04, 2.0)
        orientation = rotation_from_rpy(0.1, -0.2, 0.3)
        pred = est.predict_horizon(track, 5, 0.2, orientation)
        assert len(pred) == 6
        assert np.allclose(pred.positions, [1, 0, 0])
        # the orientation is held over the horizon
        assert np.array_equal(pred.rotations,
                              np.broadcast_to(orientation, (6, 3, 3)))

    def test_constant_velocity_sequence(self):
        track = est.TargetTrack(position=np.zeros(3),
                                velocity=np.array([1.0, 0, 0]),
                                covariance=np.eye(6))
        pred = est.predict_horizon(track, 5, 0.2, np.eye(3))
        assert np.allclose(pred.positions[:, 0], [0, 0.2, 0.4, 0.6, 0.8,
                                                  1.0])

    def test_first_entry_is_current_estimate(self):
        track = est.initialize_track(np.array([3.0, 2.0, 1.0]), 0.04, 2.0)
        pred = est.predict_horizon(track, 3, 0.5, np.eye(3))
        assert np.array_equal(pred.positions[0], track.position)


class TestOrientationFromVelocity:
    def test_forward_motion(self):
        rot = est.orientation_from_velocity(np.array([1.0, 0, 0]),
                                            np.eye(3))
        assert np.allclose(rot, np.eye(3), atol=1e-12)
        assert np.linalg.det(rot) == pytest.approx(1.0)

    def test_slow_target_falls_back(self):
        fallback = rotation_from_rpy(0, 0, 1.0)
        rot = est.orientation_from_velocity(np.zeros(3), fallback)
        assert np.allclose(rot, fallback)

    def test_vertical_velocity_falls_back(self):
        fallback = rotation_from_rpy(0, 0, 1.0)
        rot = est.orientation_from_velocity(np.array([0, 0, -5.0]),
                                            fallback)
        assert np.allclose(rot, fallback)

    def test_cross_is_numpys_bit_for_bit(self):
        rng = np.random.default_rng(28)
        for a, b in rng.normal(0.0, 3.0, (10_000, 2, 3)):
            assert np.array_equal(est._cross(a, b), np.cross(a, b))

    @pytest.mark.parametrize("velocity", [(0.05, 0.0, 0.02),
                                          (0.0, 0.0, -5.0),
                                          (2e-9, 0.0, -1.0)],
                             ids=["slow", "vertical", "near vertical"])
    def test_fallbacks_as_with_numpys_cross(self, velocity):
        # both fallbacks, as the function built on np.cross returned them
        velocity, fallback = np.array(velocity), rotation_from_rpy(
            0.1, -0.2, 1.0)
        forward = velocity / np.linalg.norm(velocity)
        speed_falls_back = np.linalg.norm(velocity) < est.SPEED_THRESHOLD
        assert speed_falls_back or np.linalg.norm(
            np.cross(forward, [0.0, 0.0, -1.0])) < 1e-8
        rot = est.orientation_from_velocity(velocity, fallback)
        assert np.array_equal(rot, fallback) and rot is not fallback

    def test_always_proper_rotation(self):
        rng = np.random.default_rng(9)
        for _ in range(2000):
            v = rng.normal(0, 3, 3)
            rot = est.orientation_from_velocity(v, np.eye(3))
            assert np.linalg.norm(rot.T @ rot - np.eye(3)) < 1e-9
            assert np.linalg.det(rot) > 0.0
