"""Scenario configuration: JSON schema, validation and the sequencer.

A scenario bundles the camera constants, constraint set, solver tuning,
sensor model, target scripts and a list of instruction sequences.  Loading
is strict: every violation is collected with its field path and reported at
once.  ``to_dict`` emits the canonical form, so load(dump(config)) returns
an identical configuration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import objectives as obj
from .constraints import ConstraintSet
from .estimation import TargetMeta
from .kinematics import CameraRig, DroneState, rotation_from_rpy, \
    rpy_from_rotation
from .optics import CameraSensorSpec, IntrinsicState
from .scene import ScriptedTarget, SensorModel
from .solver import SolverConfig


class ScenarioParseError(ValueError):
    """The scenario file is not valid JSON."""


class ScenarioValidationError(ValueError):
    """One or more scenario fields are invalid; lists every violation."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("invalid scenario:\n  " + "\n  ".join(errors))


@dataclass(frozen=True)
class ControlConfig:
    """Loop timing: control period, low-level substeps, total duration."""

    period: float = 0.2
    substeps: int = 5
    duration: float = 10.0

    def __post_init__(self) -> None:
        failed = [message for ok, message in (
            (self.period > 0.0, "period must be positive"),
            (self.substeps >= 1, "substeps must be >= 1"),
            (self.duration >= 0.0, "duration must be >= 0")) if not ok]
        if failed:
            raise ValueError("; ".join(failed))


@dataclass(frozen=True)
class EstimationConfig:
    """Filter tuning: process/measurement noise and initial velocity
    uncertainty."""

    accel_sigma: float = 0.5
    meas_sigma: float = 0.04
    velocity_sigma: float = 2.0


@dataclass(frozen=True)
class RigInit:
    """Initial rig pose/lens state, with optional per-axis uniform position
    jitter (sampled per seed) for repetition studies."""

    position: tuple[float, float, float]
    rpy: tuple[float, float, float]
    focal_mm: float
    focus_m: float
    aperture: float
    velocity: tuple[float, float, float] = (0.0, 0.0, 0.0)
    position_jitter: tuple[float, float, float] = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Sequence:
    start: float
    instructions: obj.Instructions


@dataclass(eq=False)
class ScenarioConfig:
    name: str
    camera: CameraSensorSpec
    constraints: ConstraintSet
    solver: SolverConfig
    control: ControlConfig
    sensor: SensorModel
    estimation: EstimationConfig
    initial_rig: RigInit
    targets: list[ScriptedTarget]
    sequences: list[Sequence]
    seeds: list[int] = field(default_factory=lambda: [0])
    contact_radius: float = 0.5

    def active_instructions(self, t: float) -> obj.Instructions:
        """Instructions of the last sequence whose start is <= t
        (closed-open intervals)."""
        if t < 0.0:
            raise ValueError("time must be >= 0")
        current = self.sequences[0].instructions
        for seq in self.sequences:
            if seq.start <= t:
                current = seq.instructions
            else:
                break
        return current

    def composition_points(self) -> list[tuple[str, str]]:
        """Every (target, point) pair referenced by any sequence, in first-
        mention order."""
        seen: list[tuple[str, str]] = []
        for seq in self.sequences:
            for ct in seq.instructions.composition:
                key = (ct.target_id, ct.point_id)
                if key not in seen:
                    seen.append(key)
        return seen

    def build_initial_rig(self, rng: np.random.Generator) -> CameraRig:
        jitter = np.asarray(self.initial_rig.position_jitter, dtype=float)
        offset = rng.uniform(-1.0, 1.0, 3) * jitter
        return CameraRig(
            drone=DroneState(
                position=np.asarray(self.initial_rig.position) + offset,
                velocity=np.asarray(self.initial_rig.velocity, dtype=float),
                orientation=rotation_from_rpy(*self.initial_rig.rpy)),
            intrinsics=IntrinsicState(self.initial_rig.focal_mm,
                                      self.initial_rig.focus_m,
                                      self.initial_rig.aperture),
            time_index=0)

    def to_dict(self) -> dict:
        return _scenario_to_dict(self)


# ---------------------------------------------------------------------------
# parsing


class _Collector:
    """Accumulates validation failures with their field paths."""

    def __init__(self) -> None:
        self.errors: list[str] = []

    def add(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def guard(self, path: str, fn, *args, **kwargs):
        """Run a constructor, recording ValueError as a validation error."""
        try:
            return fn(*args, **kwargs)
        except (ValueError, TypeError, KeyError) as exc:
            self.add(path, str(exc))
            return None


def _bounds_pair(raw, size: int, path: str, errs: _Collector
                 ) -> tuple[np.ndarray, np.ndarray]:
    try:
        low, high = raw
        low = np.broadcast_to(np.asarray(low, dtype=float), size).copy()
        high = np.broadcast_to(np.asarray(high, dtype=float), size).copy()
        return low, high
    except (ValueError, TypeError):
        errs.add(path, f"expected [low, high] scalars or {size}-vectors")
        return np.zeros(size), np.zeros(size)


def _constraint_bounds(cset: ConstraintSet
                       ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """(low, high) of each bound of a constraint set, by scenario key."""
    return {"acceleration": (cset.drone_input_low[:3],
                             cset.drone_input_high[:3]),
            "angular_velocity": (cset.drone_input_low[3:],
                                 cset.drone_input_high[3:]),
            "lens_rates": (cset.intr_input_low, cset.intr_input_high),
            "position": (cset.position_low, cset.position_high),
            "velocity": (cset.velocity_low, cset.velocity_high),
            "rpy": (cset.rpy_low, cset.rpy_high),
            "lens_state": (cset.intr_low, cset.intr_high)}


def _parse_constraints(raw: dict, errs: _Collector) -> ConstraintSet | None:
    accel, omega, rates, position, velocity, rpy, lens = (
        _bounds_pair(raw.get(key, [low.tolist(), high.tolist()]), 3,
                     f"constraints.{key}", errs)
        for key, (low, high)
        in _constraint_bounds(ConstraintSet.default()).items())
    return errs.guard("constraints", ConstraintSet,
                      drone_input_low=np.concatenate([accel[0], omega[0]]),
                      drone_input_high=np.concatenate([accel[1], omega[1]]),
                      intr_input_low=rates[0], intr_input_high=rates[1],
                      position_low=position[0], position_high=position[1],
                      velocity_low=velocity[0], velocity_high=velocity[1],
                      rpy_low=rpy[0], rpy_high=rpy[1],
                      intr_low=lens[0], intr_high=lens[1],
                      safety_distance=raw.get("safety_distance", 0.0),
                      occlusion_enabled=raw.get("occlusion_enabled", False))


def _parse_dof_limit(raw, path: str, errs: _Collector, target_ids):
    if raw is None:
        return None
    if raw == "infinite":
        return math.inf
    if isinstance(raw, (int, float)):
        return float(raw)
    if isinstance(raw, dict):
        tid = raw.get("target")
        if tid not in target_ids:
            errs.add(path, f"unknown target id {tid!r}")
            return None
        return obj.RelativeDistance(target_id=tid,
                                    offset=float(raw.get("offset", 0.0)))
    errs.add(path, "expected number, 'infinite' or {target, offset}")
    return None


def _parse_instructions(raw: dict, path: str, errs: _Collector,
                        target_points: dict[str, set[str]]
                        ) -> obj.Instructions:
    target_ids = set(target_points)
    dof_raw = raw.get("dof", {})
    dof = errs.guard(f"{path}.dof", obj.DofTarget,
                     near=_parse_dof_limit(dof_raw.get("near"),
                                           f"{path}.dof.near", errs,
                                           target_ids),
                     far=_parse_dof_limit(dof_raw.get("far"),
                                          f"{path}.dof.far", errs,
                                          target_ids),
                     w_near=dof_raw.get("w_near", 0.0),
                     w_far=dof_raw.get("w_far", 0.0)) or obj.DofTarget()

    composition = []
    for i, entry in enumerate(raw.get("composition", [])):
        epath = f"{path}.composition[{i}]"
        tid = entry.get("target")
        pid = entry.get("point", "center")
        if tid not in target_ids:
            errs.add(epath, f"unknown target id {tid!r}")
            continue
        if pid != "center" and pid not in target_points[tid]:
            errs.add(epath, f"unknown point {pid!r} on target {tid!r}")
            continue
        weight = entry.get("weight", 1.0)
        if isinstance(weight, (int, float)):
            weight = (float(weight), float(weight))
        else:
            weight = (float(weight[0]), float(weight[1]))
        ct = errs.guard(epath, obj.CompositionTarget, target_id=tid,
                        point_id=pid,
                        pixel=tuple(float(v) for v in entry["pixel"]),
                        weight=weight)
        if ct is not None:
            composition.append(ct)

    poses = []
    for i, entry in enumerate(raw.get("pose", [])):
        epath = f"{path}.pose[{i}]"
        tid = entry.get("target")
        if tid not in target_ids:
            errs.add(epath, f"unknown target id {tid!r}")
            continue
        rotation = None
        if "rotation" in entry:
            rotation = np.asarray(entry["rotation"], dtype=float)
        elif "rotation_rpy" in entry:
            rotation = rotation_from_rpy(*entry["rotation_rpy"])
        distance = entry.get("distance")
        pt = errs.guard(epath, obj.PoseTarget, target_id=tid,
                        distance=None if distance is None
                        else float(distance),
                        w_distance=entry.get("w_distance", 0.0),
                        rotation=rotation,
                        w_rotation=entry.get("w_rotation", 0.0))
        if pt is not None:
            poses.append(pt)

    focal_raw = raw.get("focal", {})
    schedule = None
    if "schedule" in focal_raw:
        schedule = errs.guard(
            f"{path}.focal.schedule", obj.FocalSchedule,
            times=tuple(float(v) for v in focal_raw["schedule"]["times"]),
            values=tuple(float(v)
                         for v in focal_raw["schedule"]["values_mm"]))
    elif "ramp" in focal_raw:
        ramp = focal_raw["ramp"]
        schedule = errs.guard(
            f"{path}.focal.ramp", obj.FocalSchedule,
            times=(float(ramp["start"]), float(ramp["end"])),
            values=(float(ramp["from_mm"]), float(ramp["to_mm"])))
    elif "value_mm" in focal_raw:
        schedule = obj.FocalSchedule.constant(float(focal_raw["value_mm"]))
    focal = errs.guard(f"{path}.focal", obj.FocalTarget, schedule=schedule,
                       weight=focal_raw.get("weight", 0.0)) \
        or obj.FocalTarget()

    return obj.Instructions(dof=dof, composition=tuple(composition),
                            poses=tuple(poses), focal=focal)


def _parse_target(raw: dict, index: int, errs: _Collector
                  ) -> ScriptedTarget | None:
    path = f"targets[{index}]"
    tid = raw.get("id")
    if not tid:
        errs.add(path, "missing target id")
        return None
    rpy = raw.get("preliminary_rpy", [0.0, 0.0, 0.0])
    meta = errs.guard(f"{path}", TargetMeta,
                      nature=raw.get("nature", "object"),
                      height=raw.get("height", 1.0),
                      width=raw.get("width", 1.0),
                      preliminary_rotation=rotation_from_rpy(*rpy))
    if meta is None:
        return None
    waypoints = raw.get("waypoints", [])
    if not waypoints:
        errs.add(f"{path}.waypoints", "at least one waypoint is required")
        return None
    times = [w[0] for w in waypoints]
    positions = [w[1:4] for w in waypoints]
    return errs.guard(path, ScriptedTarget, target_id=tid, meta=meta,
                      times=times, waypoints=positions,
                      interpolation=raw.get("interpolation", "linear"),
                      is_obstacle=raw.get("is_obstacle", False),
                      points={name: np.asarray(off, dtype=float)
                              for name, off in
                              raw.get("points", {}).items()})


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    """Build and fully validate a scenario from plain data."""
    errs = _Collector()
    name = raw.get("name") or "scenario"

    camera_raw = raw.get("camera", {})
    if "beta_x" in camera_raw:
        camera = errs.guard("camera", CameraSensorSpec,
                            image_width=camera_raw.get("image_width", 0),
                            image_height=camera_raw.get("image_height", 0),
                            beta_x=camera_raw.get("beta_x", 0),
                            beta_y=camera_raw.get("beta_y", 0),
                            principal_u=camera_raw.get("principal_u", 0.0),
                            principal_v=camera_raw.get("principal_v", 0.0),
                            skew=camera_raw.get("skew", 0.0),
                            circle_of_confusion=camera_raw.get(
                                "circle_of_confusion_mm", 0.03))
    else:
        camera = errs.guard(
            "camera", CameraSensorSpec.from_sensor_size,
            image_width=camera_raw.get("image_width", 0),
            image_height=camera_raw.get("image_height", 0),
            sensor_width_mm=camera_raw.get("sensor_width_mm", 0),
            sensor_height_mm=camera_raw.get("sensor_height_mm", 0),
            principal_u=camera_raw.get("principal_u", 0.0),
            principal_v=camera_raw.get("principal_v", 0.0),
            skew=camera_raw.get("skew", 0.0),
            circle_of_confusion=camera_raw.get("circle_of_confusion_mm",
                                               0.03))

    control_raw = raw.get("control", {})
    period = control_raw.get("period", 0.2)
    control = errs.guard("control", ControlConfig, period=period,
                         substeps=int(control_raw.get("substeps", 5)),
                         duration=control_raw.get("duration", 10.0))

    solver_raw = dict(raw.get("solver", {}))
    solver = errs.guard("solver", SolverConfig,
                        horizon=int(solver_raw.get("horizon", 5)),
                        dt=period,
                        max_iterations=int(solver_raw.get(
                            "max_iterations", 150)),
                        convergence_tol=solver_raw.get("convergence_tol",
                                                       1e-5),
                        penalty_initial=solver_raw.get("penalty_initial",
                                                       10.0),
                        penalty_growth=solver_raw.get("penalty_growth",
                                                      10.0),
                        outer_rounds=int(solver_raw.get("outer_rounds", 4)),
                        constraint_margin=solver_raw.get(
                            "constraint_margin", 0.0))

    constraints = _parse_constraints(raw.get("constraints", {}), errs)

    sensor_raw = raw.get("sensor", {})
    sensor = errs.guard("sensor", SensorModel,
                        depth_sigma=sensor_raw.get("depth_sigma", 0.0),
                        dropout=sensor_raw.get("dropout", 0.0),
                        pixel_jitter=sensor_raw.get("pixel_jitter", 0.0)) \
        or SensorModel()

    est_raw = raw.get("estimation", {})
    estimation = EstimationConfig(
        accel_sigma=est_raw.get("accel_sigma", 0.5),
        meas_sigma=est_raw.get("meas_sigma", 0.04),
        velocity_sigma=est_raw.get("velocity_sigma", 2.0))

    rig_raw = raw.get("initial_rig", {})
    initial_rig = RigInit(
        position=tuple(rig_raw.get("position", (0.0, 0.0, 1.0))),
        rpy=tuple(rig_raw.get("rpy", (0.0, 0.0, 0.0))),
        focal_mm=rig_raw.get("focal_mm", 35.0),
        focus_m=rig_raw.get("focus_m", 10.0),
        aperture=rig_raw.get("aperture", 2.0),
        velocity=tuple(rig_raw.get("velocity", (0.0, 0.0, 0.0))),
        position_jitter=tuple(rig_raw.get("position_jitter",
                                          (0.0, 0.0, 0.0))))

    targets: list[ScriptedTarget] = []
    for i, entry in enumerate(raw.get("targets", [])):
        target = _parse_target(entry, i, errs)
        if target is not None:
            targets.append(target)
    if not targets:
        errs.add("targets", "at least one target is required")
    target_points = {t.target_id: set(t.points) for t in targets}
    if len(target_points) != len(targets):
        errs.add("targets", "duplicate target ids")

    sequences: list[Sequence] = []
    raw_sequences = raw.get("sequences", [])
    if not raw_sequences:
        errs.add("sequences", "at least one sequence is required")
    previous = -math.inf
    for i, entry in enumerate(raw_sequences):
        start = float(entry.get("start", 0.0))
        if i == 0 and start != 0.0:
            errs.add("sequences[0].start", "first sequence must start at 0")
        if start <= previous:
            errs.add(f"sequences[{i}].start",
                     f"start {start} is not strictly increasing")
        previous = start
        instructions = _parse_instructions(
            entry.get("instructions", {}), f"sequences[{i}].instructions",
            errs, target_points)
        sequences.append(Sequence(start=start, instructions=instructions))

    seeds = [int(s) for s in raw.get("seeds", [])]
    if not seeds:
        reps = int(raw.get("repetitions", 1))
        if reps < 1:
            errs.add("repetitions", "must be >= 1")
            reps = 1
        seeds = list(range(reps))

    if errs.errors:
        raise ScenarioValidationError(errs.errors)
    return ScenarioConfig(name=name, camera=camera, constraints=constraints,
                          solver=solver, control=control, sensor=sensor,
                          estimation=estimation, initial_rig=initial_rig,
                          targets=targets, sequences=sequences, seeds=seeds,
                          contact_radius=raw.get("contact_radius", 0.5))


def load_scenario(path: Path | str) -> ScenarioConfig:
    """Load and validate a scenario JSON file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"{path}: {exc}") from exc
    return scenario_from_dict(raw)


# ---------------------------------------------------------------------------
# canonical serialization


def _dof_limit_to_dict(limit):
    if limit is None:
        return None
    if isinstance(limit, obj.RelativeDistance):
        return {"target": limit.target_id, "offset": limit.offset}
    if math.isinf(limit):
        return "infinite"
    return float(limit)


def _instructions_to_dict(instr: obj.Instructions) -> dict:
    out: dict = {}
    dof = instr.dof
    if (dof.near is not None or dof.far is not None or dof.w_near
            or dof.w_far):
        out["dof"] = {"near": _dof_limit_to_dict(dof.near),
                      "far": _dof_limit_to_dict(dof.far),
                      "w_near": dof.w_near, "w_far": dof.w_far}
    if instr.composition:
        out["composition"] = [
            {"target": ct.target_id, "point": ct.point_id,
             "pixel": list(ct.pixel), "weight": list(ct.weight)}
            for ct in instr.composition]
    if instr.poses:
        out["pose"] = []
        for pt in instr.poses:
            entry: dict = {"target": pt.target_id,
                           "w_distance": pt.w_distance,
                           "w_rotation": pt.w_rotation}
            if pt.distance is not None:
                entry["distance"] = pt.distance
            if pt.rotation is not None:
                entry["rotation"] = [[float(v) for v in row]
                                     for row in pt.rotation]
            out["pose"].append(entry)
    if instr.focal.schedule is not None or instr.focal.weight:
        focal: dict = {"weight": instr.focal.weight}
        if instr.focal.schedule is not None:
            focal["schedule"] = {
                "times": list(instr.focal.schedule.times),
                "values_mm": list(instr.focal.schedule.values)}
        out["focal"] = focal
    return out


def _scenario_to_dict(config: ScenarioConfig) -> dict:
    camera = config.camera
    cset = config.constraints
    return {
        "name": config.name,
        "camera": {
            "image_width": camera.image_width,
            "image_height": camera.image_height,
            "beta_x": camera.beta_x,
            "beta_y": camera.beta_y,
            "principal_u": camera.principal_u,
            "principal_v": camera.principal_v,
            "skew": camera.skew,
            "circle_of_confusion_mm": camera.circle_of_confusion,
        },
        "control": {"period": config.control.period,
                    "substeps": config.control.substeps,
                    "duration": config.control.duration},
        "solver": {
            "horizon": config.solver.horizon,
            "max_iterations": config.solver.max_iterations,
            "convergence_tol": config.solver.convergence_tol,
            "penalty_initial": config.solver.penalty_initial,
            "penalty_growth": config.solver.penalty_growth,
            "outer_rounds": config.solver.outer_rounds,
            "constraint_margin": config.solver.constraint_margin,
        },
        "constraints": {
            **{key: [low.tolist(), high.tolist()]
               for key, (low, high) in _constraint_bounds(cset).items()},
            "safety_distance": cset.safety_distance,
            "occlusion_enabled": cset.occlusion_enabled,
        },
        "sensor": {"depth_sigma": config.sensor.depth_sigma,
                   "dropout": config.sensor.dropout,
                   "pixel_jitter": config.sensor.pixel_jitter},
        "estimation": {"accel_sigma": config.estimation.accel_sigma,
                       "meas_sigma": config.estimation.meas_sigma,
                       "velocity_sigma": config.estimation.velocity_sigma},
        "initial_rig": {
            "position": list(config.initial_rig.position),
            "rpy": list(config.initial_rig.rpy),
            "focal_mm": config.initial_rig.focal_mm,
            "focus_m": config.initial_rig.focus_m,
            "aperture": config.initial_rig.aperture,
            "velocity": list(config.initial_rig.velocity),
            "position_jitter": list(config.initial_rig.position_jitter),
        },
        "targets": [{
            "id": t.target_id,
            "nature": t.meta.nature,
            "height": t.meta.height,
            "width": t.meta.width,
            "preliminary_rpy": [float(v) for v in rpy_from_rotation(
                t.meta.preliminary_rotation)],
            "waypoints": [[float(t.times[i])] + t.waypoints[i].tolist()
                          for i in range(len(t.times))],
            "interpolation": t.interpolation,
            "is_obstacle": t.is_obstacle,
            "points": {name: off.tolist() for name, off in t.points.items()},
        } for t in config.targets],
        "sequences": [{"start": seq.start,
                       "instructions": _instructions_to_dict(
                           seq.instructions)}
                      for seq in config.sequences],
        "seeds": list(config.seeds),
        "contact_radius": config.contact_radius,
    }


def dump_scenario(config: ScenarioConfig, path: Path | str) -> None:
    """Write the canonical JSON form of a scenario."""
    Path(path).write_text(json.dumps(config.to_dict(), indent=2,
                                     sort_keys=True) + "\n")
