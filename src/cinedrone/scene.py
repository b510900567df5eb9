"""Deterministic kinematic world and the sense-estimate-plan-act loop.

Targets follow scripted waypoint trajectories; a synthetic RGB-D-style
detector replaces a learned one, producing bounding boxes, representative
pixels and noisy depth patches from ground-truth geometry.  Each control
period the rig takes on the plan's state 1 exactly; the straight-line
set-point positions between the two states are read only by the obstacle
contact check.  Identical scenario + seed reproduce a bit-identical log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

import logging

from . import constraints as cons
from . import estimation as est
from . import objectives as obj
from . import solver as sol
from .kinematics import CameraRig, interpolate_commands, rig_camera_points
from .optics import CameraSensorSpec, depth_of_field, pixel_coordinates
from .runlog import RunLog

if TYPE_CHECKING:  # pragma: no cover
    from .config import ScenarioConfig

logger = logging.getLogger(__name__)

_MAX_PATCH_ROWS = 12
_MAX_PATCH_COLS = 6
#: CSV columns of the rig's state row (:meth:`CameraRig.state_row`)
STATE_COLUMNS = ("drone_px", "drone_py", "drone_pz",
                 "drone_vx", "drone_vy", "drone_vz",
                 "roll", "pitch", "yaw", "focal_mm", "focus_m", "aperture")
#: CSV columns of a filmed target's estimate, after its id: position,
#: velocity and covariance trace (NaN before its first detection)
_ESTIMATE_COLUMNS = ("est_x", "est_y", "est_z", "est_vx", "est_vy", "est_vz",
                     "cov_trace")
#: CSV columns of the executed input row, in the solver's layout
_INPUT_COLUMNS = ("input_ax", "input_ay", "input_az",
                  "input_wx", "input_wy", "input_wz",
                  "input_vf", "input_vF", "input_vA")


@dataclass(eq=False)
class ScriptedTarget:
    """A scene actor or obstacle on a time-stamped waypoint script.

    ``points`` are named body-frame offsets from the target center used as
    composition anchors.  ``tangents``, built with the script, are the
    central-difference velocities at the waypoints: the cubic segments'
    Hermite tangents.
    """

    target_id: str
    meta: est.TargetMeta
    times: np.ndarray
    waypoints: np.ndarray
    interpolation: str = "linear"
    is_obstacle: bool = False
    points: dict[str, np.ndarray] = field(default_factory=dict)
    tangents: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.waypoints = np.asarray(self.waypoints, dtype=float)
        if self.times.ndim != 1 or len(self.times) != len(self.waypoints):
            raise ValueError("waypoint times/positions length mismatch")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("waypoint times must be strictly increasing")
        if self.interpolation not in ("linear", "cubic"):
            raise ValueError(f"unknown interpolation {self.interpolation!r}")
        self.points = {name: np.asarray(off, dtype=float)
                       for name, off in self.points.items()}
        knots = np.arange(len(self.times))
        low = np.maximum(knots - 1, 0)
        high = np.minimum(knots + 1, len(knots) - 1)
        # a single waypoint has no segment, so no tangent of it is read
        self.tangents = np.zeros_like(self.waypoints) if len(knots) < 2 \
            else (self.waypoints[high] - self.waypoints[low]) \
            / (self.times[high] - self.times[low])[:, None]


@dataclass(frozen=True)
class SensorModel:
    """Noise/dropout description of the synthetic RGB-D detector."""

    depth_sigma: float = 0.0
    dropout: float = 0.0
    pixel_jitter: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.dropout <= 1.0:
            raise ValueError("dropout must be a probability")
        if self.depth_sigma < 0.0 or self.pixel_jitter < 0.0:
            raise ValueError("noise sigmas must be >= 0")


def _hermite(target: ScriptedTarget, t: float,
             segment: int) -> tuple[np.ndarray, np.ndarray]:
    """Position and time derivative of the cubic Hermite segment."""
    times, pts, tangents = target.times, target.waypoints, target.tangents
    t0, t1 = times[segment], times[segment + 1]
    h = t1 - t0
    s = (t - t0) / h
    p0, p1 = pts[segment], pts[segment + 1]
    m0, m1 = tangents[segment] * h, tangents[segment + 1] * h
    basis = np.array([2 * s ** 3 - 3 * s ** 2 + 1, s ** 3 - 2 * s ** 2 + s,
                      -2 * s ** 3 + 3 * s ** 2, s ** 3 - s ** 2])
    ds = np.array([6 * s * s - 6 * s, 3 * s * s - 4 * s + 1,
                   -6 * s * s + 6 * s, 3 * s * s - 2 * s])
    return (basis[0] * p0 + basis[1] * m0 + basis[2] * p1 + basis[3] * m1,
            (ds[0] * p0 + ds[1] * m0 + ds[2] * p1 + ds[3] * m1) / h)


def target_pose_at(target: ScriptedTarget,
                   t: float) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth (position, rotation) of a scripted target, clamped to
    the script span; orientation follows the motion direction when moving."""
    times, pts = target.times, target.waypoints
    if t <= times[0] or t >= times[-1]:
        position = (pts[0] if t <= times[0] else pts[-1]).copy()
        tangent = np.zeros(3)
    else:
        i = min(int(np.searchsorted(times, t, side="right") - 1),
                len(times) - 2)
        if target.interpolation == "linear":
            position = np.array([np.interp(t, times, pts[:, j])
                                 for j in range(3)])
            tangent = (pts[i + 1] - pts[i]) / (times[i + 1] - times[i])
        else:
            position, tangent = _hermite(target, t, i)
    rotation = est.orientation_from_velocity(
        tangent, target.meta.preliminary_rotation)
    return position, rotation


def synthesize_detection(rig: CameraRig, target: ScriptedTarget,
                         poses: dict[str, tuple[np.ndarray, np.ndarray]],
                         sensor: SensorModel, spec: CameraSensorSpec,
                         rng: np.random.Generator,
                         obstacles: list[ScriptedTarget] = (),
                         ) -> est.Detection | None:
    """Detector stand-in over the ground-truth ``poses`` at the detection
    time (target id -> :func:`target_pose_at` pose).

    Returns nothing when the target is behind the camera, out of frame,
    occluded by a closer obstacle box, or dropped out; otherwise a detection
    with a jittered representative pixel and a noisy depth patch sized by
    the projected box.
    """
    center, rotation = poses[target.target_id]
    reference = center + rotation @ est.reference_offset(target.meta)
    q, q_center = rig_camera_points(rig, np.array([reference, center]))
    if q[2] <= 0.0:
        return None
    f_mm = rig.intrinsics.focal_length
    pixel_true = np.array(pixel_coordinates(q, q[2], f_mm, spec)[2:])
    if not (0.0 <= pixel_true[0] <= spec.image_width
            and 0.0 <= pixel_true[1] <= spec.image_height):
        return None
    box = cons.pixel_box(q_center, f_mm, target.meta.height,
                         target.meta.width, spec)
    if box is None:
        return None
    for obstacle in obstacles:
        oq = rig_camera_points(rig, poses[obstacle.target_id][0][None])[0]
        if oq[2] <= 0.0 or oq[2] >= q[2]:
            continue
        if cons.pixel_box(oq, f_mm, obstacle.meta.height, obstacle.meta.width,
                          spec).contains(pixel_true):
            return None
    if sensor.dropout > 0.0 and rng.random() < sensor.dropout:
        return None
    pixel = pixel_true.copy()
    if sensor.pixel_jitter > 0.0:
        pixel = pixel + rng.normal(0.0, sensor.pixel_jitter, 2)
    rows = min(max(round(box.y_rb - box.y_lt), 1), _MAX_PATCH_ROWS)
    cols = min(max(round(box.x_rb - box.x_lt), 1), _MAX_PATCH_COLS)
    patch = np.full((rows, cols), q[2])
    if sensor.depth_sigma > 0.0:
        patch = patch + rng.normal(0.0, sensor.depth_sigma, (rows, cols))
    patch = np.maximum(patch, 1e-3)
    return est.Detection(pixel=pixel, depth_patch=patch)


def _prune_instructions(instr: obj.Instructions,
                        available: set[str]) -> obj.Instructions:
    """Drop set-points that reference targets we have no estimate for;
    ``instr`` itself where none does."""
    dof = instr.dof
    near, far = (None if isinstance(limit, obj.RelativeDistance)
                 and limit.target_id not in available else limit
                 for limit in (dof.near, dof.far))
    if (near is dof.near and far is dof.far
            and all(c.target_id in available for c in instr.composition)
            and all(p.target_id in available for p in instr.poses)):
        return instr
    return replace(
        instr,
        dof=replace(dof, near=near, far=far),
        composition=tuple(c for c in instr.composition
                          if c.target_id in available),
        poses=tuple(p for p in instr.poses if p.target_id in available),
    )


def _anchor_map(target: ScriptedTarget) -> dict[str, np.ndarray]:
    """Composition anchors re-based from the target center to the tracked
    reference point."""
    ref = est.reference_offset(target.meta)
    anchors = {name: off - ref for name, off in target.points.items()}
    anchors["center"] = -ref
    return anchors


def _log_columns(config: "ScenarioConfig") -> list[str]:
    columns = ["step", "time", *STATE_COLUMNS, *_INPUT_COLUMNS,
               "cost_now", "cost_plan", "cost_dof", "cost_im", "cost_pose",
               "cost_focal",
               "solver_iterations", "solver_converged", "plan_feasible",
               "plan_min_residual",
               "dn_actual", "df_actual", "dn_target", "df_target",
               "f_target_mm", "collision_residual_min"]
    for target in config.targets:
        tid = target.target_id
        columns += [f"{tid}_gt_x", f"{tid}_gt_y", f"{tid}_gt_z",
                    f"{tid}_distance"]
        if not target.is_obstacle:
            columns += [f"{tid}_{name}" for name in _ESTIMATE_COLUMNS]
            columns.append(f"{tid}_detected")
    for tid, pid in config.composition_points():
        columns += [f"{tid}_{pid}_u", f"{tid}_{pid}_v",
                    f"{tid}_{pid}_u_des", f"{tid}_{pid}_v_des"]
    for target in config.targets:
        if not target.is_obstacle:
            continue
        for filmed in config.targets:
            if filmed.is_obstacle:
                continue
            columns.append(
                f"sep_{target.target_id}_{filmed.target_id}")
    return columns


def run_closed_loop(config: "ScenarioConfig", seed: int) -> RunLog:
    """Run one seeded scenario: sense, estimate, plan, interpolate, act.

    The loop stops early and marks the log when the rig comes within the
    contact radius of any obstacle (a collision event); otherwise it runs
    for the configured duration.  Identical config + seed give bit-identical
    logs.
    """
    rng = np.random.default_rng(seed)
    spec = config.camera
    cset = config.constraints
    scfg = config.solver
    sensor = config.sensor
    period = config.control.period
    n_steps = scfg.horizon

    targets = list(config.targets)
    filmed = [t for t in targets if not t.is_obstacle]
    obstacles = [t for t in targets if t.is_obstacle]
    sizes = {t.target_id: (t.meta.height, t.meta.width) for t in targets}
    anchors = {t.target_id: _anchor_map(t) for t in filmed}

    rig = config.build_initial_rig(rng)
    tracks: dict[str, est.TargetTrack] = {}
    prev_plan: sol.Plan | None = None
    over_budget = 0
    slowest = 0.0

    log = RunLog(columns=_log_columns(config), meta={
        "name": config.name,
        "seed": seed,
        "safety_distance": cset.safety_distance,
        "contact_radius": config.contact_radius,
        "period": period,
        "status": "completed",
    })

    n_periods = int(round(config.control.duration / period))
    for k0 in range(n_periods):
        t = k0 * period
        gt_poses = {tg.target_id: target_pose_at(tg, t) for tg in targets}

        detections: dict[str, est.Detection] = {}
        for target in filmed:
            det = synthesize_detection(rig, target, gt_poses, sensor, spec,
                                       rng, obstacles)
            if det is not None:
                detections[target.target_id] = det

        for target in filmed:
            tid = target.target_id
            track = tracks.get(tid)
            if track is not None:
                track = est.kf_predict(track, period,
                                       config.estimation.accel_sigma)
            if tid in detections:
                measured = est.measure_world_position(detections[tid], rig,
                                                      spec)
                if track is None:
                    track = est.initialize_track(
                        measured, config.estimation.meas_sigma,
                        config.estimation.velocity_sigma)
                else:
                    track = est.kf_update(track, measured,
                                          config.estimation.meas_sigma)
            if track is not None:
                tracks[tid] = track

        preds: dict[str, obj.TargetPrediction] = {}
        for target in filmed:
            track = tracks.get(target.target_id)
            if track is not None:
                preds[target.target_id] = est.predict_horizon(
                    track, n_steps, period, est.orientation_from_velocity(
                        track.velocity, target.meta.preliminary_rotation),
                    anchors[target.target_id])
        for obstacle in obstacles:
            future = [gt_poses[obstacle.target_id]] + [
                target_pose_at(obstacle, t + k * period)
                for k in range(1, n_steps + 1)]
            preds[obstacle.target_id] = obj.TargetPrediction(
                positions=np.array([p for p, _ in future]),
                rotations=np.array([r for _, r in future]))

        instr = _prune_instructions(config.active_instructions(t),
                                    set(preds))
        distances = {tid: float(np.linalg.norm(track.position
                                               - rig.drone.position))
                     for tid, track in tracks.items()}
        for obstacle in obstacles:
            distances[obstacle.target_id] = float(np.linalg.norm(
                gt_poses[obstacle.target_id][0] - rig.drone.position))
        resolved = instr.resolve(t, period, n_steps, distances)

        plan = sol.solve(rig, preds, resolved, cset, scfg, spec,
                         warm=prev_plan, sizes=sizes)
        prev_plan = plan
        if plan.stats.wall_time > period:
            over_budget += 1
            slowest = max(slowest, plan.stats.wall_time)

        executed = plan.horizon.rig(1)
        setpoints = interpolate_commands(rig, executed,
                                         config.control.substeps)
        collision = None
        for j, position in enumerate(setpoints):
            t_sub = t + (j + 1) * period / config.control.substeps
            for obstacle in obstacles:
                opos, _ = target_pose_at(obstacle, t_sub)
                gap = float(np.linalg.norm(position - opos))
                if gap < config.contact_radius:
                    collision = {"step": k0, "time": t_sub,
                                 "obstacle": obstacle.target_id,
                                 "distance": gap}
                    break
            if collision is not None:
                break

        log.append(_log_row(config, k0, t, rig, plan, resolved, tracks,
                            detections, gt_poses, spec, cset))
        if collision is not None:
            log.meta["status"] = "collision"
            log.meta["collision"] = collision
            break
        rig = executed
    if over_budget:
        logger.warning("%s seed %s: %d/%d solves exceeded the %.3gs control"
                       " period (worst %.3gs)", config.name, seed,
                       over_budget, n_periods, period, slowest)
    return log


def _log_row(config, k0, t, rig, plan, instr, tracks, detections, gt_poses,
             spec, cset) -> dict:
    nan = math.nan
    cost = plan.cost
    totals = cost.step_totals  # the sum CostBreakdown.total takes
    row = {
        "step": k0, "time": t,
        **dict(zip(STATE_COLUMNS, rig.state_row().tolist())),
        **dict(zip(_INPUT_COLUMNS, plan.inputs[0].tolist())),
        "cost_now": totals[0],
        "cost_plan": float(totals.sum()),
        "cost_dof": float(cost.dof.sum()),
        "cost_im": float(cost.image.sum()),
        "cost_pose": float(cost.pose.sum()),
        "cost_focal": float(cost.focal.sum()),
        "solver_iterations": plan.stats.iterations,
        "solver_converged": float(plan.stats.converged),
        "plan_feasible": float(plan.feasible),
        "plan_min_residual": float(plan.residuals.min())
        if plan.residuals.size else nan,
        "f_target_mm": instr.focal_value(0)
        if instr.focal.weight > 0.0 else nan,
    }

    dof = depth_of_field(rig.intrinsics, spec)
    row["dn_actual"] = dof.near_distance
    row["df_actual"] = dof.far_distance
    row["dn_target"] = instr.dof.near if isinstance(instr.dof.near,
                                                    (int, float)) else nan
    row["df_target"] = instr.dof.far if isinstance(instr.dof.far,
                                                   (int, float)) else nan

    collision_residuals = []
    for target in config.targets:
        tid = target.target_id
        position, rotation = gt_poses[tid]
        dist = float(np.linalg.norm(position - rig.drone.position))
        collision_residuals.append(dist - cset.safety_distance)
        row[f"{tid}_gt_x"], row[f"{tid}_gt_y"], row[f"{tid}_gt_z"] = position
        row[f"{tid}_distance"] = dist
        if target.is_obstacle:
            continue
        track = tracks.get(tid)
        row.update(zip((f"{tid}_{name}" for name in _ESTIMATE_COLUMNS),
                       (nan,) * len(_ESTIMATE_COLUMNS) if track is None
                       else (*track.position.tolist(),
                             *track.velocity.tolist(),
                             track.covariance.trace())))
        row[f"{tid}_detected"] = float(tid in detections)
    row["collision_residual_min"] = min(collision_residuals) \
        if collision_residuals else nan

    desired = {(ct.target_id, ct.point_id): ct.pixel
               for ct in instr.composition}
    targets_by_id = {tg.target_id: tg for tg in config.targets}
    keys = config.composition_points()
    points = [gt_poses[tid][0] + gt_poses[tid][1] @ (
        targets_by_id[tid].points[pid] if pid != "center" else np.zeros(3))
        for tid, pid in keys]
    camera = rig_camera_points(rig, np.array(points).reshape(-1, 3))
    for (tid, pid), q in zip(keys, camera):
        row[f"{tid}_{pid}_u"], row[f"{tid}_{pid}_v"] = pixel_coordinates(
            q, q[2], rig.intrinsics.focal_length, spec)[2:] \
            if q[2] > 0.0 else (nan, nan)
        pix_des = desired.get((tid, pid))
        row[f"{tid}_{pid}_u_des"] = pix_des[0] if pix_des else nan
        row[f"{tid}_{pid}_v_des"] = pix_des[1] if pix_des else nan

    for obstacle in config.targets:
        if not obstacle.is_obstacle:
            continue
        obox = cons.box_from_center(rig, gt_poses[obstacle.target_id][0],
                                    obstacle.meta.height,
                                    obstacle.meta.width, spec)
        for filmed in config.targets:
            if filmed.is_obstacle:
                continue
            fbox = cons.box_from_center(rig, gt_poses[filmed.target_id][0],
                                        filmed.meta.height,
                                        filmed.meta.width, spec)
            row[f"sep_{obstacle.target_id}_{filmed.target_id}"] = float(
                obox is None or fbox is None or not obox.overlaps(fbox))
    return row
