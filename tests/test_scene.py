"""Scripted world, synthetic detector and the closed loop."""

import json
from pathlib import Path

import numpy as np
import pytest

from cinedrone import estimation as est
from cinedrone import kinematics as kin
from cinedrone import scene
from cinedrone import solver as sol
from cinedrone.config import scenario_from_dict
from cinedrone.kinematics import CameraRig, DroneState, rotation_from_rpy
from cinedrone.optics import CameraSensorSpec, IntrinsicState

SPEC = CameraSensorSpec.from_sensor_size(960, 540, 23.76, 13.365, 480, 270)
SCENARIOS = Path(__file__).parent.parent / "src/cinedrone/scenarios"


def person_meta(height=1.7):
    return est.TargetMeta(nature="person", height=height, width=0.5,
                          preliminary_rotation=rotation_from_rpy(
                              0, 0, np.pi))


def make_target(waypoints, times=None, **kwargs):
    waypoints = np.asarray(waypoints, dtype=float)
    times = np.arange(len(waypoints), dtype=float) if times is None \
        else np.asarray(times, dtype=float)
    return scene.ScriptedTarget(target_id="t", meta=person_meta(),
                                times=times, waypoints=waypoints, **kwargs)


def make_rig(p=(0, 0, 1.2)):
    return CameraRig(drone=DroneState(position=np.array(p, float),
                                      velocity=np.zeros(3),
                                      orientation=np.eye(3)),
                     intrinsics=IntrinsicState(35.0, 8.0, 2.0))


class TestTargetScript:
    def test_clamps_before_start(self):
        target = make_target([[0, 0, 0], [10, 0, 0]], times=[1.0, 2.0])
        position, rotation = scene.target_pose_at(target, 0.0)
        assert np.allclose(position, [0, 0, 0])
        # stationary outside the script span: preliminary orientation
        assert np.allclose(rotation, person_meta().preliminary_rotation)

    def test_linear_midpoint(self):
        target = make_target([[0, 0, 0], [10, 0, 0]], times=[0.0, 10.0])
        position, rotation = scene.target_pose_at(target, 5.0)
        assert np.allclose(position, [5, 0, 0])
        # moving along +x: orientation faces +x
        assert np.allclose(rotation, np.eye(3), atol=1e-12)

    def test_single_waypoint_constant(self):
        target = make_target([[3, 2, 1]])
        for t in (0.0, 5.0, 100.0):
            position, _ = scene.target_pose_at(target, t)
            assert np.allclose(position, [3, 2, 1])

    def test_cubic_passes_waypoints(self):
        target = make_target([[0, 0, 0], [4, 2, 0], [8, 0, 0]],
                             times=[0.0, 2.0, 4.0], interpolation="cubic")
        for t, expected in ((0.0, [0, 0, 0]), (2.0, [4, 2, 0]),
                            (4.0, [8, 0, 0])):
            position, _ = scene.target_pose_at(target, t)
            assert np.allclose(position, expected, atol=1e-12)

    def test_rejects_unsorted_times(self):
        with pytest.raises(ValueError):
            make_target([[0, 0, 0], [1, 0, 0]], times=[1.0, 0.5])

    @pytest.mark.parametrize("interpolation", ["linear", "cubic"])
    @pytest.mark.parametrize("count", [1, 2, 5, 8])
    def test_bit_identical_to_per_call_tangents(self, interpolation, count):
        rng = np.random.default_rng(count)
        for _ in range(5):
            times = rng.uniform(-3.0, 3.0) + np.cumsum(
                rng.uniform(0.2, 2.0, count))
            target = make_target(rng.uniform(-5.0, 5.0, (count, 3)),
                                 times=times, interpolation=interpolation)
            between = times[:-1] + rng.uniform(0.0, 1.0, (4, count - 1)) \
                * np.diff(times)
            for t in (times[0] - 1.0, *times, *between.ravel(),
                      times[-1] + 1.0):
                position, rotation = scene.target_pose_at(target, float(t))
                want = target_pose_per_call(target, float(t))
                assert np.array_equal(position, want[0])
                assert np.array_equal(rotation, want[1])


def script_tangent_per_call(target, t):
    times, pts = target.times, target.waypoints
    if len(times) < 2 or t <= times[0] or t >= times[-1]:
        return np.zeros(3)
    i = int(np.searchsorted(times, t, side="right") - 1)
    i = min(i, len(times) - 2)
    if target.interpolation == "linear":
        return (pts[i + 1] - pts[i]) / (times[i + 1] - times[i])
    return hermite_per_call(target, t, i, derivative=True)


def hermite_tangents_per_call(target):
    times, pts = target.times, target.waypoints
    n = len(times)
    tangents = np.zeros_like(pts)
    for i in range(n):
        lo = max(i - 1, 0)
        hi = min(i + 1, n - 1)
        tangents[i] = (pts[hi] - pts[lo]) / (times[hi] - times[lo])
    return tangents


def hermite_per_call(target, t, segment, derivative=False):
    times, pts = target.times, target.waypoints
    tangents = hermite_tangents_per_call(target)
    t0, t1 = times[segment], times[segment + 1]
    h = t1 - t0
    s = (t - t0) / h
    p0, p1 = pts[segment], pts[segment + 1]
    m0, m1 = tangents[segment] * h, tangents[segment + 1] * h
    if derivative:
        ds = np.array([6 * s * s - 6 * s, 3 * s * s - 4 * s + 1,
                       -6 * s * s + 6 * s, 3 * s * s - 2 * s])
        return (ds[0] * p0 + ds[1] * m0 + ds[2] * p1 + ds[3] * m1) / h
    basis = np.array([2 * s ** 3 - 3 * s ** 2 + 1, s ** 3 - 2 * s ** 2 + s,
                      -2 * s ** 3 + 3 * s ** 2, s ** 3 - s ** 2])
    return basis[0] * p0 + basis[1] * m0 + basis[2] * p1 + basis[3] * m1


def target_pose_per_call(target, t):
    """A scripted pose as sampled before scripts kept their tangents, with
    the tangents rebuilt and the segment looked up on every call: the
    oracle of the bits of :func:`scene.target_pose_at`."""
    times, pts = target.times, target.waypoints
    if t <= times[0]:
        position = pts[0].copy()
    elif t >= times[-1]:
        position = pts[-1].copy()
    elif target.interpolation == "linear":
        position = np.array([np.interp(t, times, pts[:, i])
                             for i in range(3)])
    else:
        i = int(np.searchsorted(times, t, side="right") - 1)
        position = hermite_per_call(target, t, min(i, len(times) - 2))
    rotation = est.orientation_from_velocity(
        script_tangent_per_call(target, t), target.meta.preliminary_rotation)
    return position, rotation


def detect(target, rng, sensor=scene.SensorModel(), obstacles=()):
    """The detector on ``make_rig()`` at time 0, over the ground-truth
    poses of ``target`` and ``obstacles`` then."""
    poses = {scripted.target_id: scene.target_pose_at(scripted, 0.0)
             for scripted in (target, *obstacles)}
    return scene.synthesize_detection(make_rig(), target, poses, sensor,
                                      SPEC, rng, obstacles)


class TestSyntheticDetector:
    def test_behind_camera_gives_nothing(self):
        target = make_target([[-5, 0, 0.85]])
        assert detect(target, np.random.default_rng(0)) is None

    def test_noise_free_round_trip(self):
        target = make_target([[8, 0, 0.85]])
        det = detect(target, np.random.default_rng(0))
        assert det is not None
        measured = est.measure_world_position(det, make_rig(), SPEC)
        # person reference point is the top of the head
        assert np.allclose(measured, [8, 0, 1.7], atol=1e-9)

    def test_occluding_obstacle_hides_target(self):
        target = make_target([[8, 0, 0.85]])
        blocker = scene.ScriptedTarget(
            target_id="wall", meta=est.TargetMeta(
                nature="obstacle", height=5.0, width=5.0,
                preliminary_rotation=np.eye(3)),
            times=np.array([0.0]), waypoints=np.array([[4.0, 0.0, 1.0]]),
            is_obstacle=True)
        assert detect(target, np.random.default_rng(0),
                      obstacles=[blocker]) is None

    def test_dropout(self):
        target = make_target([[8, 0, 0.85]])
        assert detect(target, np.random.default_rng(0),
                      scene.SensorModel(dropout=1.0)) is None

    def test_out_of_frame_gives_nothing(self):
        target = make_target([[8, 8, 0.85]])  # far off to the side
        assert detect(target, np.random.default_rng(0)) is None


def equilibrium_scenario():
    """rule_of_thirds geometry started exactly at its optimum."""
    raw = json.loads((SCENARIOS / "rule_of_thirds.json").read_text())
    beta_f = (960.0 / 23.76) * 35.0
    depth = beta_f * 0.85 / 180.0
    z_d = 1.7 - 90.0 * depth / beta_f
    near_star = depth - 3.0
    focus = 4.5
    f_m = 0.035
    h = (focus * near_star - 2.0 * near_star * f_m + focus * f_m) \
        / (focus - near_star)
    aperture = 35.0 ** 2 / (0.03 * (h * 1000.0 - 35.0))
    raw["initial_rig"] = {
        "position": [8.0 - depth, 0.0, z_d], "rpy": [0.0, 0.0, 0.0],
        "focal_mm": 35.0, "focus_m": focus, "aperture": aperture,
    }
    raw["sensor"]["depth_sigma"] = 0.0
    raw["control"]["duration"] = 9.0
    return scenario_from_dict(raw)


def test_pruning_nothing_keeps_the_instructions():
    instr = scenario_from_dict(json.loads(
        (SCENARIOS / "rule_of_thirds.json").read_text())).active_instructions(
            0.0)
    assert scene._prune_instructions(instr, {"actor"}) is instr
    pruned = scene._prune_instructions(instr, set())
    assert pruned.dof.near is None and not pruned.composition
    assert not pruned.poses and pruned.focal is instr.focal


class TestClosedLoop:
    def test_zero_duration_gives_empty_log(self):
        raw = json.loads((SCENARIOS / "rule_of_thirds.json").read_text())
        raw["control"]["duration"] = 0.0
        log = scene.run_closed_loop(scenario_from_dict(raw), seed=0)
        assert log.rows == []
        assert log.status == "completed"

    def test_equilibrium_stays_put(self):
        config = equilibrium_scenario()
        log = scene.run_closed_loop(config, seed=0)
        start = np.array(config.initial_rig.position)
        drift = np.max(np.abs(np.stack([
            log.column("drone_px") - start[0],
            log.column("drone_py") - start[1],
            log.column("drone_pz") - start[2]])))
        assert drift < 0.05
        pixel_err = np.hypot(log.column("actor_head_u") - 480.0,
                             log.column("actor_head_v") - 180.0)
        assert pixel_err.max() < 1.5

    def test_rig_trajectory_satisfies_dynamics(self):
        config = equilibrium_scenario()
        log = scene.run_closed_loop(config, seed=0)
        dt = config.control.period
        for k in range(len(log.rows) - 1):
            p = np.array([log.rows[k][log.columns.index(c)]
                          for c in ("drone_px", "drone_py", "drone_pz")])
            v = np.array([log.rows[k][log.columns.index(c)]
                          for c in ("drone_vx", "drone_vy", "drone_vz")])
            a = np.array([log.rows[k][log.columns.index(c)]
                          for c in ("input_ax", "input_ay", "input_az")])
            p_next = np.array([log.rows[k + 1][log.columns.index(c)]
                               for c in ("drone_px", "drone_py",
                                         "drone_pz")])
            v_next = np.array([log.rows[k + 1][log.columns.index(c)]
                               for c in ("drone_vx", "drone_vy",
                                         "drone_vz")])
            assert np.allclose(p_next, p + dt * v, atol=1e-12)
            assert np.allclose(v_next, v + dt * a, atol=1e-12)
            f = log.rows[k][log.columns.index("focal_mm")]
            vf = log.rows[k][log.columns.index("input_vf")]
            f_next = log.rows[k + 1][log.columns.index("focal_mm")]
            assert f_next == pytest.approx(f + dt * vf, abs=1e-12)

    def test_time_advances_with_step(self):
        raw = json.loads((SCENARIOS / "rule_of_thirds.json").read_text())
        raw["control"]["period"] = 0.2
        raw["control"]["substeps"] = 5
        raw["control"]["duration"] = 1.6
        log = scene.run_closed_loop(scenario_from_dict(raw), seed=0)
        steps = log.column("step")
        assert np.array_equal(steps, np.arange(8))
        assert np.array_equal(log.column("time"), steps * 0.2)
        assert log.column("time")[7] == pytest.approx(1.4)

    def test_collision_event_aborts(self):
        raw = json.loads((SCENARIOS / "e4_collision.json").read_text())
        raw["constraints"]["safety_distance"] = 0.0
        raw["initial_rig"]["position_jitter"] = [0.0, 0.0, 0.0]
        log = scene.run_closed_loop(scenario_from_dict(raw), seed=0)
        assert log.status == "collision"
        assert log.meta["collision"]["obstacle"] == "cactus"
        assert log.meta["collision"]["distance"] < 0.5

    def test_logged_state_is_the_rig_state_row(self, monkeypatch):
        # the 12 state columns of each logged step are its rig's state
        # row, and from step 1 on row 1 of the last plan's state rows, bit
        # for bit, under the names of the state row's entries
        assert [scene.STATE_COLUMNS[entries] for entries in (
            kin.POSITION, kin.VELOCITY, kin.ROTATION, kin.LENS)] == [
            ("drone_px", "drone_py", "drone_pz"),
            ("drone_vx", "drone_vy", "drone_vz"), ("roll", "pitch", "yaw"),
            ("focal_mm", "focus_m", "aperture")]
        raw = json.loads((SCENARIOS / "e4_occlusion.json").read_text())
        raw["control"]["duration"] = 8 * raw["control"]["period"]
        solves = []
        solve = sol.solve

        def recorded(rig, *args, **kwargs):
            plan = solve(rig, *args, **kwargs)
            solves.append((rig, plan))
            return plan
        monkeypatch.setattr(sol, "solve", recorded)
        log = scene.run_closed_loop(scenario_from_dict(raw), 0)
        logged = np.column_stack([log.column(c)
                                  for c in scene.STATE_COLUMNS])
        assert len(logged) == len(solves) == 8
        for k, (rig, _) in enumerate(solves):
            assert logged[k].tobytes() == rig.state_row().tobytes()
            if k:
                executed = solves[k - 1][1].horizon.state_rows()[1]
                assert logged[k].tobytes() == executed.tobytes()

    def test_one_ground_truth_pose_per_target_per_step(self, monkeypatch):
        # each step evaluates every target's pose at its time once: the
        # detector and the obstacles' forecast at k = 0 read the loop's
        # ground truth; the forecast's later stages and the collision
        # check's substeps are evaluated at their own times
        raw = json.loads((SCENARIOS / "e4_occlusion.json").read_text())
        raw["control"]["duration"] = 4 * raw["control"]["period"]
        config = scenario_from_dict(raw)
        calls = []
        pose = scene.target_pose_at

        def counted(target, t):
            calls.append(target.target_id)
            return pose(target, t)
        monkeypatch.setattr(scene, "target_pose_at", counted)
        log = scene.run_closed_loop(config, 0)
        obstacles = [t for t in config.targets if t.is_obstacle]
        assert obstacles and log.status == "completed"
        assert len(calls) == len(log.rows) * (
            len(config.targets) + len(obstacles) * (
                config.solver.horizon + config.control.substeps))

    def test_determinism_bitwise(self, tmp_path):
        raw = json.loads((SCENARIOS / "rule_of_thirds.json").read_text())
        raw["control"]["duration"] = 1.5
        raw["sensor"]["depth_sigma"] = 0.04
        config = scenario_from_dict(raw)
        paths = []
        for i in range(2):
            log = scene.run_closed_loop(config, seed=7)
            path = tmp_path / f"run{i}.csv"
            log.to_csv(path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

