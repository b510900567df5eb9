"""Rig dynamics, SO(3) integration and command interpolation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cinedrone import kinematics as kin
from cinedrone.kinematics import (CameraRig, DroneState, euler_angles,
                                  hat_batch, interpolate_commands, rollout,
                                  rotation_from_rpy,
                                  so3_exp_and_right_jacobian_batch)
from cinedrone.optics import IntrinsicState


def so3_exp(w):
    """Rodrigues closed form of the rotation exponential: the one row of
    :func:`so3_exp_and_right_jacobian_batch`."""
    return so3_exp_and_right_jacobian_batch(
        np.asarray(w, dtype=float)[None, :])[0][0]


def so3_log(rotation):
    """Rotation vector (axis * angle) of a rotation matrix."""
    trace = float(np.trace(rotation))
    cos_theta = min(1.0, max(-1.0, 0.5 * (trace - 1.0)))
    theta = math.acos(cos_theta)
    residue = np.array([rotation[2, 1] - rotation[1, 2],
                        rotation[0, 2] - rotation[2, 0],
                        rotation[1, 0] - rotation[0, 1]])
    if theta < 1e-8:
        return residue * 0.5  # first-order: R ~ I + w^
    if theta > math.pi - 1e-6:
        # the antisymmetric part degenerates near pi; recover the axis
        # from the dominant column of R + I, sign from the residue
        m = rotation + np.eye(3)
        i = int(np.argmax(np.diag(m)))
        axis = m[:, i] / np.linalg.norm(m[:, i])
        if residue @ axis < 0.0:
            axis = -axis
        return axis * theta
    return theta / (2.0 * math.sin(theta)) * residue


def input_sensitivities(horizon, dt):
    """Forward sensitivities of the states 0..N of a ``rollout(initial, u,
    dt)`` to its N flattened input rows, (N+1, 12, 9 N), put together from
    the two blocks the planner builds: the oracle the finite differences
    and the gradient checks read."""
    n = len(horizon) - 1
    sens = kin.linear_sensitivities(n, dt).copy()
    sens[1:, 6:9, :, 3:6] = kin.rotation_sensitivities(horizon, dt)
    return sens.reshape(n + 1, 12, 9 * n)


def lerp_clipped(a, b, frac):
    """One set-point position as the interpolation computed it row by row:
    the oracle of its bits."""
    value = (1.0 - frac) * np.asarray(a) + frac * np.asarray(b)
    return np.clip(value, np.minimum(a, b), np.maximum(a, b))


def hat_assigned(w):
    """Skew matrices as built before :func:`hat_batch` became one product:
    the oracle of their values."""
    out = np.zeros((len(w), 3, 3))
    out[:, 0, 1] = -w[:, 2]
    out[:, 0, 2] = w[:, 1]
    out[:, 1, 0] = w[:, 2]
    out[:, 1, 2] = -w[:, 0]
    out[:, 2, 0] = -w[:, 1]
    out[:, 2, 1] = w[:, 0]
    return out


def so3_exp_batch(w):
    """The step exponentials as computed before they shared a pass
    with the Jacobians: the oracle of their bits."""
    theta = np.linalg.norm(w, axis=1)
    k = hat_assigned(w)
    k2 = k @ k
    small = theta < 1e-8
    safe = np.where(small, 1.0, theta)
    a = np.where(small, 1.0, np.sin(safe) / safe)
    b = np.where(small, 0.5, (1.0 - np.cos(safe)) / (safe * safe))
    return np.eye(3) + a[:, None, None] * k + b[:, None, None] * k2


def so3_right_jacobian_batch(w):
    """The step right Jacobians as computed before they shared a pass
    with the exponentials: the oracle of their bits."""
    theta = np.linalg.norm(w, axis=1)
    k = hat_assigned(w)
    k2 = k @ k
    small = theta < 1e-6
    safe = np.where(small, 1.0, theta)
    t2 = safe * safe
    a = np.where(small, 0.5, (1.0 - np.cos(safe)) / t2)
    b = np.where(small, 1.0 / 6.0, (safe - np.sin(safe)) / (t2 * safe))
    return np.eye(3) - a[:, None, None] * k + b[:, None, None] * k2


def rotate(rotation, exp):
    """One rotation step with the drift check per state, as the rollout
    and the step functions took it before the check was stacked."""
    rotation = rotation @ exp
    drift = (rotation.T @ rotation - np.eye(3)).ravel()
    if math.sqrt(drift.dot(drift)) > kin._REORTHONORMALIZE_TOL:
        rotation = kin.project_to_so3(rotation)
    return rotation


def rotations_step_loop(initial, u, dt):
    """The rollout's rotations chained by :func:`rotate`, state by state:
    the oracle of their bits.  Also returns the states it projected back
    onto SO(3)."""
    rotations = np.empty((len(u) + 1, 3, 3))
    rotations[0] = initial.drone.orientation
    projected = []
    exps = so3_exp_and_right_jacobian_batch(dt * u[:, 3:6])[0]
    for k, exp in enumerate(exps):
        rotations[k + 1] = rotate(rotations[k], exp)
        if not np.array_equal(rotations[k + 1], rotations[k] @ exp):
            projected.append(k + 1)
    return rotations, projected


def step_rig_oracle(rig, row, dt):
    """One control period under the 9-entry input row, state by state:
    position with the pre-update velocity, then velocity, orientation and
    lens.  The oracle of the rollout's bits."""
    state, lens = rig.drone, rig.intrinsics
    return CameraRig(
        drone=DroneState(
            position=state.position + dt * state.velocity,
            velocity=state.velocity + dt * row[0:3],
            orientation=kin._chain(state.orientation,
                                   so3_exp(dt * row[3:6])[None])[1]),
        intrinsics=IntrinsicState(
            focal_length=lens.focal_length + dt * row[6],
            focus_distance=lens.focus_distance + dt * row[7],
            aperture=lens.aperture + dt * row[8]))


def rotation_vector_stacks(seed, count=300):
    """Stacks of rotation vectors with angles from 1e-9.5 to 1 rad,
    angles straddling the 1e-8 and 1e-6 rad series branches, zero rows
    and -0.0 entries."""
    rng = np.random.default_rng(seed)
    edges = np.array([1e-8, 1e-6])[:, None] * (
        1.0 + np.array([-4e-16, -2e-16, 0.0, 2e-16, 4e-16]))
    for trial in range(count):
        n = 1 + trial % 9
        axes = rng.standard_normal((n, 3))
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        theta = 10.0 ** rng.uniform(-9.5, 0.0, n)
        if trial % 3 == 0:
            theta[: min(n, 3)] = rng.choice(edges.ravel(), min(n, 3))
        w = axes * theta[:, None]
        w[rng.random(n) < 0.15] = 0.0
        w[rng.random((n, 3)) < 0.15] = -0.0
        yield w


def assert_same_bits(got, want):
    # array_equal takes -0.0 == 0.0; signbit tells them apart
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def drone(p=(0, 0, 0), v=(0, 0, 0), rot=None):
    return DroneState(position=np.array(p, dtype=float),
                      velocity=np.array(v, dtype=float),
                      orientation=np.eye(3) if rot is None else rot)


def advance(start, a=(0, 0, 0), w=(0, 0, 0), rates=(0, 0, 0), dt=0.2):
    """``start`` one control period on: a one-row rollout."""
    row = np.concatenate([a, w, rates]).astype(float)
    return rollout(start, row[None], dt).rig(1)


class TestTranslation:
    def test_drift(self):
        out = advance(rig(v=(1, 0, 0))).drone
        assert np.allclose(out.position, [0.2, 0, 0])
        assert np.allclose(out.velocity, [1, 0, 0])

    def test_position_uses_pre_update_velocity(self):
        out = advance(rig(), a=(1, 0, 0)).drone
        assert np.allclose(out.position, [0, 0, 0])
        assert np.allclose(out.velocity, [0.2, 0, 0])

    def test_fixed_point(self):
        out = advance(rig()).drone
        assert np.allclose(out.position, 0) and np.allclose(out.velocity, 0)

    def test_semigroup_without_acceleration(self):
        state = rig(p=(1, 2, 3), v=(0.5, -1, 2))
        twice = advance(advance(state, dt=0.1), dt=0.1)
        once = advance(state, dt=0.2)
        assert np.allclose(twice.drone.position, once.drone.position,
                           atol=1e-15)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            advance(rig(), dt=0.0)


class TestRotation:
    def test_batch_exp_agrees_with_scalar(self, monkeypatch):
        # the rollout chains the exponentials of its one batch pass and
        # keeps that pass's Jacobians, and so3_exp is one row of it
        seen = []
        original = kin.so3_exp_and_right_jacobian_batch

        def recorded(w):
            seen.append(original(w))
            return seen[-1]
        monkeypatch.setattr(kin, "so3_exp_and_right_jacobian_batch",
                            recorded)
        rng = np.random.default_rng(5)
        for trial in range(200):
            u = rng.uniform(-1.0, 1.0, (1 + trial % 9, 9))
            u[:, 3:6] *= 10.0 ** rng.uniform(-9.0, 0.5, (len(u), 1))
            start = rig(rot=rotation_from_rpy(*rng.uniform(-0.3, 0.3, 3)))
            seen.clear()
            horizon = rollout(start, u, 0.2)
            (exps, jacobians), = seen
            assert_same_bits(horizon.jacobians, jacobians)
            assert_same_bits(horizon.rotations, kin._chain(
                start.drone.orientation, exps))
            for k, exp in enumerate(exps):
                assert_same_bits(so3_exp(0.2 * u[k, 3:6]), exp)

    def test_shared_pass_bit_identical_to_separate_ones(self):
        for w in rotation_vector_stacks(8):
            exps, jacobians = so3_exp_and_right_jacobian_batch(w)
            assert_same_bits(exps, so3_exp_batch(w))
            assert_same_bits(jacobians, so3_right_jacobian_batch(w))

    def test_hat_product_bit_identical_where_used(self):
        for w in rotation_vector_stacks(9):
            # the values alone: a zero entry's sign may differ
            assert np.array_equal(hat_batch(w), hat_assigned(w))
            for row in w:
                assert_same_bits(so3_exp(row), so3_exp_batch(row[None])[0])

    def test_quarter_turn_about_z(self):
        out = advance(rig(), w=(0, 0, np.pi / 2), dt=1.0).drone
        assert np.allclose(out.orientation,
                           [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-12)

    def test_zero_rate_is_identity(self):
        rot = rotation_from_rpy(0.1, -0.2, 0.3)
        out = advance(rig(rot=rot), dt=0.5).drone
        assert np.allclose(out.orientation, rot, atol=1e-15)

    def test_one_parameter_subgroup(self):
        theta = 0.7
        twice = advance(advance(rig(), w=(0, 0, theta), dt=1.0),
                        w=(0, 0, theta), dt=1.0)
        once = advance(rig(), w=(0, 0, 2 * theta), dt=1.0)
        assert np.allclose(twice.drone.orientation, once.drone.orientation,
                           atol=1e-12)

    def test_long_rollout_stays_on_manifold(self):
        rng = np.random.default_rng(11)
        state = rig()
        # 100 000 steps, rolled out 100 at a time
        u = np.zeros((100, 9))
        for _ in range(1000):
            u[:, 3:6] = rng.uniform(-0.25, 0.25, (100, 3))
            rot = rollout(state, u, 0.2).rotations[-1]
            state = rig(rot=rot)
        assert np.linalg.norm(rot.T @ rot - np.eye(3)) < 1e-6
        assert np.linalg.det(rot) > 0.0

    def test_invalid_orientation_rejected(self):
        with pytest.raises(ValueError):
            DroneState(position=np.zeros(3), velocity=np.zeros(3),
                       orientation=np.eye(3) * 2.0)


class TestIntrinsicsStep:
    def test_focal_rate(self):
        out = advance(rig(), rates=(7.0, 0.0, 0.0)).intrinsics
        assert out.focal_length == pytest.approx(36.4)

    def test_zero_rates(self):
        start = rig()
        out = advance(start).intrinsics
        assert out == start.intrinsics

    def test_focus_rate(self):
        out = advance(rig(focus=4.0), rates=(0.0, 15.0, 0.0)).intrinsics
        assert out.focus_distance == pytest.approx(7.0)

    def test_no_clamping_here(self):
        # bounds are the constraint module's job; the step must not clip
        out = advance(rig(f=16.0), rates=(-7.0, 0.0, 0.0)).intrinsics
        assert out.focal_length == pytest.approx(14.6)


def rig(p=(0, 0, 0), v=(0, 0, 0), rot=None, f=35.0, focus=10.0, a=2.0):
    return CameraRig(drone=drone(p, v, rot),
                     intrinsics=IntrinsicState(f, focus, a))


class TestInterpolation:
    def test_single_substep_returns_endpoint(self):
        start, end = rig(), rig(p=(1, 0, 0), f=40.0)
        points = interpolate_commands(start, end, 1)
        assert points.shape == (1, 3)
        assert_same_bits(points[0], end.drone.position)

    def test_identical_endpoints(self):
        start = rig(p=(1, 2, 3))
        end = rig(p=(1, 2, 3))
        points = interpolate_commands(start, end, 3)
        for p in points:
            assert np.allclose(p, [1, 2, 3])

    @settings(max_examples=100, deadline=None)
    @given(start=st.floats(-100, 100), end=st.floats(-100, 100),
           m=st.integers(1, 9))
    def test_no_overshoot(self, start, end, m):
        a = rig(p=(start, 0, 0), f=35.0)
        b = rig(p=(end, 0, 0), f=35.0)
        lo, hi = min(start, end), max(start, end)
        for point in interpolate_commands(a, b, m):
            assert lo <= point[0] <= hi

    @settings(max_examples=200, deadline=None)
    @given(ends=st.lists(st.floats(-100, 100), min_size=6, max_size=6),
           m=st.integers(1, 9))
    def test_bit_identical_to_per_row_lerp(self, ends, m):
        a, b = rig(p=ends[:3]), rig(p=ends[3:])
        points = interpolate_commands(a, b, m)
        assert points.shape == (m, 3)
        for i, point in enumerate(points[:-1], 1):
            assert_same_bits(point, lerp_clipped(a.drone.position,
                                                 b.drone.position, i / m))
        assert_same_bits(points[-1], b.drone.position)

    def test_endpoint_exact(self):
        start, end = rig(v=(0.1, 0.2, 0.3)), rig(p=(0.7, 0.1, -0.2))
        points = interpolate_commands(start, end, 5)
        assert_same_bits(points[-1], end.drone.position)

    def test_rejects_no_substeps(self):
        with pytest.raises(ValueError, match="substeps"):
            interpolate_commands(rig(), rig(), 0)


class TestRollout:
    def test_chain_matches_individual_steps(self):
        u = np.tile([0.5, 0, 0, 0, 0, 0.1, 1.0, -0.5, 0.2], (4, 1))
        start = rig()
        horizon = rollout(start, u, 0.2)
        assert len(horizon) == 5
        for k in range(4):
            expected = step_rig_oracle(horizon.rig(k), u[k], 0.2)
            actual = horizon.rig(k + 1)
            assert np.allclose(expected.drone.position,
                               actual.drone.position)
            assert np.allclose(expected.drone.orientation,
                               actual.drone.orientation)
            assert expected.intrinsics == actual.intrinsics

    def test_bit_identical_to_stepping(self):
        rng = np.random.default_rng(11)
        start = rig(v=(0.3, -0.2, 0.1), rot=rotation_from_rpy(0.1, -0.2, 1.0))
        u = rng.uniform(-1.0, 1.0, (6, 9))  # keeps every lens value > 0
        horizon = rollout(start, u, 0.2)
        stepped = start
        for k, row in enumerate(u, 1):
            stepped = step_rig_oracle(stepped, row, 0.2)
            assert np.array_equal(stepped.drone.position,
                                  horizon.positions[k])
            assert np.array_equal(stepped.drone.velocity,
                                  horizon.velocities[k])
            assert np.array_equal(stepped.drone.orientation,
                                  horizon.rotations[k])
            assert np.array_equal(stepped.intrinsics.as_array(),
                                  horizon.lens[k])

    def test_reorthonormalized_start_bit_identical_to_stepping(self):
        rng = np.random.default_rng(4)
        rot = rotation_from_rpy(0.2, -0.1, 0.7)
        off = rot + 1e-11 * rng.standard_normal((3, 3))
        start = rig(v=(0.1, 0.0, -0.2), rot=off)
        u = rng.uniform(-1.0, 1.0, (5, 9))
        horizon = rollout(start, u, 0.2)
        # the first step inherits the drift and is projected back
        first = off @ so3_exp(0.2 * u[0, 3:6])
        assert np.linalg.norm(first.T @ first - np.eye(3)) > 1e-12
        assert not np.array_equal(horizon.rotations[1], first)
        stepped = start
        for k, row in enumerate(u, 1):
            stepped = step_rig_oracle(stepped, row, 0.2)
            assert np.array_equal(stepped.drone.orientation,
                                  horizon.rotations[k])
            assert np.array_equal(stepped.drone.position,
                                  horizon.positions[k])


    def test_stacked_drift_check_bit_identical_to_step_loop(self):
        rng = np.random.default_rng(12)
        for trial in range(200):
            n = 1 + trial % 12
            rot = rotation_from_rpy(*rng.uniform(-0.3, 0.3, 3))
            if trial % 2:
                rot = rot + 1e-11 * rng.standard_normal((3, 3))
            start = rig(v=rng.uniform(-1, 1, 3), rot=rot)
            u = rng.uniform(-1.0, 1.0, (n, 9))
            want, _ = rotations_step_loop(start, u, 0.2)
            assert_same_bits(rollout(start, u, 0.2).rotations, want)
            stepped = step_rig_oracle(start, u[0], 0.2)
            assert_same_bits(stepped.drone.orientation, want[1])

    def test_mid_chain_projection_bit_identical_to_step_loop(self):
        # a start just inside the drift tolerance: round-off carries some
        # later state across it, which is projected, and the chain goes on
        # from the projected state
        rng = np.random.default_rng(3)
        rot = rotation_from_rpy(0.2, -0.1, 0.7)
        offset = rng.standard_normal((3, 3))
        gram = rot.T @ offset + offset.T @ rot
        scale = kin._REORTHONORMALIZE_TOL / np.linalg.norm(gram)
        u = rng.uniform(-1.0, 1.0, (16, 9))
        mid_chain = 0
        for shrink in np.linspace(0.998, 1.0, 21):
            start = rig(rot=rot + shrink * scale * offset)
            want, projected = rotations_step_loop(start, u, 0.2)
            mid_chain += bool(projected) and projected[0] > 1
            assert_same_bits(rollout(start, u, 0.2).rotations, want)
        assert mid_chain > 0


class TestSensitivities:
    def test_match_finite_differences(self):
        rng = np.random.default_rng(17)
        start = rig(v=(0.3, -0.2, 0.1), rot=rotation_from_rpy(0.1, 0.2, 0.3))
        dt, h = 0.2, 1e-6
        for n in (1, 4):
            u = rng.uniform(-1.0, 1.0, (n, 9))
            horizon = rollout(start, u, dt)
            sens = input_sensitivities(horizon, dt)
            assert sens.shape == (n + 1, 12, 9 * n)
            for i in range(9 * n):
                moved = []
                for step in (h, -h):
                    flat = u.ravel().copy()
                    flat[i] += step
                    moved.append(rollout(start, flat.reshape(n, 9), dt))
                for k in range(n + 1):
                    turn = [so3_log(horizon.rotations[k].T @ m.rotations[k])
                            for m in moved]
                    fd = np.concatenate([
                        moved[0].positions[k] - moved[1].positions[k],
                        moved[0].velocities[k] - moved[1].velocities[k],
                        turn[0] - turn[1],
                        moved[0].lens[k] - moved[1].lens[k]]) / (2.0 * h)
                    assert np.allclose(sens[k, :, i], fd, rtol=0.0,
                                       atol=1e-8)


    def test_rotation_rows_of_states_one_on_bit_identical(self):
        # the rows of states 1..N alone, against the former build of all
        # N + 1 states with state 0's rows sliced off
        rng = np.random.default_rng(18)
        for _ in range(2000):
            n, dt = int(rng.integers(1, 8)), rng.uniform(0.05, 0.5)
            start = rig(v=rng.uniform(-1.0, 1.0, 3), rot=rotation_from_rpy(
                *rng.uniform(-1.0, 1.0, 3)))
            horizon = rollout(start, rng.uniform(-1.0, 1.0, (n, 9)), dt)
            before = (np.arange(n)[None, :] < np.arange(n + 1)[:, None])[
                :, None, :, None]
            steps = dt * (horizon.rotations[1:] @ horizon.jacobians)
            want = (before * np.einsum("kba,jbc->kajc", horizon.rotations,
                                       steps))[1:]
            got = kin.rotation_sensitivities(horizon, dt)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


class TestEulerHelpers:
    @settings(max_examples=150, deadline=None)
    @given(roll=st.floats(-1.4, 1.4), pitch=st.floats(-1.4, 1.4),
           yaw=st.floats(-3.1, 3.1))
    def test_rpy_round_trip(self, roll, pitch, yaw):
        rot = rotation_from_rpy(roll, pitch, yaw)
        back = euler_angles(rot[None])[0]
        assert np.allclose(back, [roll, pitch, yaw], atol=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(x=st.floats(-3, 3), y=st.floats(-3, 3), z=st.floats(-3, 3))
    def test_exp_log_round_trip(self, x, y, z):
        w = np.array([x, y, z])
        norm = np.linalg.norm(w)
        if norm > np.pi - 1e-3:  # stay off the branch cut
            w = w / norm * (np.pi - 1e-3)
        assert np.allclose(so3_log(so3_exp(w)), w, atol=1e-8)
