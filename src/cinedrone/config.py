"""Scenario configuration: JSON schema, validation and the sequencer.

A scenario bundles the camera constants, constraint set, solver tuning,
sensor model, target scripts and a list of instruction sequences.  Loading
is strict: every violation is collected with its field path and reported at
once.  A key the file omits takes the default its dataclass declares; a
key the parser does not read is an error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import objectives as obj
from .constraints import ConstraintSet
from .estimation import TargetMeta
from .kinematics import CameraRig, DroneState, rotation_from_rpy
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

    position: tuple[float, float, float] = (0.0, 0.0, 1.0)
    rpy: tuple[float, float, float] = (0.0, 0.0, 0.0)
    focal_mm: float = 35.0
    focus_m: float = 10.0
    aperture: float = 2.0
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
                                      self.initial_rig.aperture))


# ---------------------------------------------------------------------------
# parsing


class _Collector:
    """Accumulates validation failures with their field paths."""

    def __init__(self) -> None:
        self.errors: list[str] = []

    def add(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def guard(self, path: str, fn, *args, **kwargs):
        """Run ``fn``, recording a bad value or a missing key as a
        validation error at ``path``."""
        try:
            return fn(*args, **kwargs)
        except KeyError as exc:
            self.add(path, f"missing key {exc}")
        except (ValueError, TypeError) as exc:
            self.add(path, str(exc))
        return None


def _section(raw: dict, key: str, path: str, errs: _Collector):
    """``raw[key]``, an empty object when omitted; None, recorded as a
    validation error at ``path``, when it is not a JSON object."""
    value = raw.get(key, {})
    if isinstance(value, dict):
        return value
    errs.add(path, "expected a JSON object")
    return None


def _objects(raw: dict, key: str, path: str, errs: _Collector):
    """(index, entry) of the JSON objects in the list ``raw[key]``; every
    other entry is recorded as a validation error."""
    for i, entry in enumerate(raw.get(key, [])):
        if isinstance(entry, dict):
            yield i, entry
        else:
            errs.add(f"{path}[{i}]", "expected a JSON object")


def _known(raw, path: str, errs: _Collector, keys: str) -> None:
    """Record every key of the JSON object ``raw`` at ``path`` that is not
    one of the space-separated ``keys`` as a validation error."""
    for key in raw if isinstance(raw, dict) else ():
        if key not in keys.split():
            errs.add(f"{path}.{key}" if path else key, "unknown key")


def _given(raw: dict, *keys: str) -> dict:
    """The entries of ``raw`` under ``keys``: a key the file omits is left
    to its dataclass default."""
    return {key: raw[key] for key in keys if key in raw}


def _flat(cls, raw, path: str, errs: _Collector, **fixed):
    """``cls`` from the JSON object ``raw`` at ``path``, whose keys are the
    fields of ``cls`` other than the ``fixed`` ones: a key the file omits
    takes its field's default, ``int`` fields go through ``int`` and tuple
    fields through ``tuple``.  Nothing is built when ``raw`` is None or a
    fixed value is None; the keys are checked whenever ``raw`` is given."""
    if raw is None:
        return None
    kinds = {f.name: f.type for f in fields(cls) if f.name not in fixed}
    _known(raw, path, errs, " ".join(kinds))
    if any(value is None for value in fixed.values()):
        return None

    def cast(name: str):
        value = raw[name]
        if kinds[name] == "int":
            return int(value)
        return tuple(value) if kinds[name].startswith("tuple") else value
    return errs.guard(path, lambda: cls(**fixed, **{
        name: cast(name) for name in kinds if name in raw}))


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


def _parse_constraints(raw: dict, errs: _Collector) -> ConstraintSet | None:
    """Each bound the file gives, else the stock set's."""
    stock = ConstraintSet.default()
    _known(raw, "constraints", errs, "acceleration angular_velocity"
           " lens_rates position velocity rpy lens_state safety_distance"
           " occlusion_enabled")
    accel, omega, rates, position, velocity, rpy, lens = (
        _bounds_pair(raw.get(key, (low, high)), 3, f"constraints.{key}", errs)
        for key, low, high in (
            ("acceleration", stock.drone_input_low[:3],
             stock.drone_input_high[:3]),
            ("angular_velocity", stock.drone_input_low[3:],
             stock.drone_input_high[3:]),
            ("lens_rates", stock.intr_input_low, stock.intr_input_high),
            ("position", stock.position_low, stock.position_high),
            ("velocity", stock.velocity_low, stock.velocity_high),
            ("rpy", stock.rpy_low, stock.rpy_high),
            ("lens_state", stock.intr_low, stock.intr_high)))
    return errs.guard("constraints", ConstraintSet,
                      drone_input_low=np.concatenate([accel[0], omega[0]]),
                      drone_input_high=np.concatenate([accel[1], omega[1]]),
                      intr_input_low=rates[0], intr_input_high=rates[1],
                      position_low=position[0], position_high=position[1],
                      velocity_low=velocity[0], velocity_high=velocity[1],
                      rpy_low=rpy[0], rpy_high=rpy[1],
                      intr_low=lens[0], intr_high=lens[1],
                      **_given(raw, "safety_distance", "occlusion_enabled"))


def _parse_dof_limit(raw, path: str, errs: _Collector, target_ids):
    if raw is None:
        return None
    if raw == "infinite":
        return math.inf
    if isinstance(raw, (int, float)):
        return float(raw)
    if isinstance(raw, dict):
        _known(raw, path, errs, "target offset")
        tid = raw.get("target")
        if tid not in target_ids:
            errs.add(path, f"unknown target id {tid!r}")
            return None
        return obj.RelativeDistance(target_id=tid,
                                    offset=float(raw.get("offset", 0.0)))
    errs.add(path, "expected number, 'infinite' or {target, offset}")
    return None


def _pose_target(entry: dict, tid: str) -> obj.PoseTarget:
    given = _given(entry, "w_distance", "w_rotation")
    if entry.get("distance") is not None:
        given["distance"] = float(entry["distance"])
    if "rotation" in entry:
        given["rotation"] = np.asarray(entry["rotation"], dtype=float)
    elif "rotation_rpy" in entry:
        given["rotation"] = rotation_from_rpy(*entry["rotation_rpy"])
    return obj.PoseTarget(target_id=tid, **given)


def _parse_instructions(raw: dict, path: str, errs: _Collector,
                        target_points: dict[str, set[str]]
                        ) -> obj.Instructions:
    target_ids = set(target_points)
    _known(raw, path, errs, "dof composition pose focal")
    dof_raw = _section(raw, "dof", f"{path}.dof", errs)
    _known(dof_raw, f"{path}.dof", errs, "near far w_near w_far")
    dof = None if dof_raw is None else errs.guard(
        f"{path}.dof", lambda: obj.DofTarget(
            **{key: _parse_dof_limit(dof_raw[key], f"{path}.dof.{key}",
                                     errs, target_ids)
               for key in ("near", "far") if key in dof_raw},
            **_given(dof_raw, "w_near", "w_far")))

    composition = []
    for i, entry in _objects(raw, "composition", f"{path}.composition",
                             errs):
        epath = f"{path}.composition[{i}]"
        _known(entry, epath, errs, "target point pixel weight")
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
            weight = (weight, weight)
        ct = errs.guard(epath, lambda: obj.CompositionTarget(
            target_id=tid, point_id=pid,
            pixel=tuple(float(v) for v in entry["pixel"]),
            weight=(float(weight[0]), float(weight[1]))))
        if ct is not None:
            composition.append(ct)

    poses = []
    for i, entry in _objects(raw, "pose", f"{path}.pose", errs):
        epath = f"{path}.pose[{i}]"
        _known(entry, epath, errs, "target distance w_distance rotation"
               " rotation_rpy w_rotation")
        tid = entry.get("target")
        if tid not in target_ids:
            errs.add(epath, f"unknown target id {tid!r}")
            continue
        pt = errs.guard(epath, _pose_target, entry, tid)
        if pt is not None:
            poses.append(pt)

    focal_raw = _section(raw, "focal", f"{path}.focal", errs) or {}
    _known(focal_raw, f"{path}.focal", errs, "weight schedule ramp value_mm")
    focal = _given(focal_raw, "weight")
    if "schedule" in focal_raw:
        knots = focal_raw["schedule"]
        _known(knots, f"{path}.focal.schedule", errs, "times values_mm")
        focal["schedule"] = errs.guard(
            f"{path}.focal.schedule", lambda: obj.FocalSchedule(
                times=tuple(float(v) for v in knots["times"]),
                values=tuple(float(v) for v in knots["values_mm"])))
    elif "ramp" in focal_raw:
        ramp = focal_raw["ramp"]
        _known(ramp, f"{path}.focal.ramp", errs, "start end from_mm to_mm")
        focal["schedule"] = errs.guard(
            f"{path}.focal.ramp", lambda: obj.FocalSchedule(
                times=(float(ramp["start"]), float(ramp["end"])),
                values=(float(ramp["from_mm"]), float(ramp["to_mm"]))))
    elif "value_mm" in focal_raw:
        focal["schedule"] = errs.guard(
            f"{path}.focal.value_mm", lambda: obj.FocalSchedule.constant(
                float(focal_raw["value_mm"])))

    return obj.Instructions(
        dof=dof, composition=tuple(composition), poses=tuple(poses),
        focal=errs.guard(f"{path}.focal", obj.FocalTarget, **focal))


def _parse_target(raw: dict, index: int, errs: _Collector
                  ) -> ScriptedTarget | None:
    path = f"targets[{index}]"
    _known(raw, path, errs, "id nature height width preliminary_rpy points"
           " waypoints interpolation is_obstacle")
    tid = raw.get("id")
    if not tid:
        errs.add(path, "missing target id")
        return None
    meta = errs.guard(path, lambda: TargetMeta(
        nature=raw.get("nature", "object"), height=raw.get("height", 1.0),
        width=raw.get("width", 1.0),
        preliminary_rotation=rotation_from_rpy(
            *raw.get("preliminary_rpy", [0.0, 0.0, 0.0]))))
    if meta is None:
        return None
    if _section(raw, "points", f"{path}.points", errs) is None:
        return None
    waypoints = raw.get("waypoints", [])
    if not waypoints:
        errs.add(f"{path}.waypoints", "at least one waypoint is required")
        return None
    return errs.guard(path, lambda: ScriptedTarget(
        target_id=tid, meta=meta, times=[w[0] for w in waypoints],
        waypoints=[w[1:4] for w in waypoints],
        **_given(raw, "interpolation", "is_obstacle", "points")))


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    """Build and fully validate a scenario from plain data."""
    if not isinstance(raw, dict):
        raise ScenarioValidationError(["scenario: expected a JSON object"])
    errs = _Collector()
    name = raw.get("name") or "scenario"
    sections = {key: _section(raw, key, key, errs) for key in (
        "camera", "control", "solver", "constraints", "sensor",
        "estimation", "initial_rig")}
    _known(raw, "", errs, " ".join([*sections, "name targets sequences seeds"
                                    " repetitions contact_radius"]))

    camera_raw = sections["camera"]
    _known(camera_raw, "camera", errs, "image_width image_height"
           " sensor_width_mm sensor_height_mm principal_u principal_v skew"
           " circle_of_confusion_mm")
    camera = None if camera_raw is None else errs.guard(
        "camera", lambda: CameraSensorSpec.from_sensor_size(
            image_width=camera_raw.get("image_width", 0),
            image_height=camera_raw.get("image_height", 0),
            sensor_width_mm=camera_raw.get("sensor_width_mm", 0),
            sensor_height_mm=camera_raw.get("sensor_height_mm", 0),
            principal_u=camera_raw.get("principal_u", 0.0),
            principal_v=camera_raw.get("principal_v", 0.0),
            **{arg: camera_raw[key] for arg, key in (
                ("skew", "skew"),
                ("circle_of_confusion", "circle_of_confusion_mm"))
               if key in camera_raw}))
    control = _flat(ControlConfig, sections["control"], "control", errs)
    solver = _flat(SolverConfig, sections["solver"], "solver", errs,
                   dt=None if control is None else control.period)
    constraints = None if sections["constraints"] is None else \
        _parse_constraints(sections["constraints"], errs)
    sensor = _flat(SensorModel, sections["sensor"], "sensor", errs)
    estimation = _flat(EstimationConfig, sections["estimation"],
                       "estimation", errs)
    initial_rig = _flat(RigInit, sections["initial_rig"], "initial_rig", errs)

    targets: list[ScriptedTarget] = []
    for i, entry in _objects(raw, "targets", "targets", errs):
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
    for i, entry in _objects(raw, "sequences", "sequences", errs):
        _known(entry, f"sequences[{i}]", errs, "start instructions")
        start = errs.guard(f"sequences[{i}].start", float,
                           entry.get("start", 0.0))
        if start is not None:
            if i == 0 and start != 0.0:
                errs.add("sequences[0].start",
                         "first sequence must start at 0")
            if start <= previous:
                errs.add(f"sequences[{i}].start",
                         f"start {start} is not strictly increasing")
            previous = start
        ipath = f"sequences[{i}].instructions"
        instructions = _section(entry, "instructions", ipath, errs)
        if instructions is not None:
            instructions = _parse_instructions(instructions, ipath, errs,
                                               target_points)
        sequences.append(Sequence(start=start, instructions=instructions))

    seeds = errs.guard("seeds",
                       lambda: [int(s) for s in raw.get("seeds", [])])
    if not seeds:
        reps = errs.guard("repetitions", int, raw.get("repetitions", 1))
        if reps is not None and reps < 1:
            errs.add("repetitions", "must be >= 1")
        seeds = list(range(reps or 0))

    if errs.errors:
        raise ScenarioValidationError(errs.errors)
    return ScenarioConfig(name=name, camera=camera, constraints=constraints,
                          solver=solver, control=control, sensor=sensor,
                          estimation=estimation, initial_rig=initial_rig,
                          targets=targets, sequences=sequences, seeds=seeds,
                          **_given(raw, "contact_radius"))


def load_scenario(path: Path | str) -> ScenarioConfig:
    """Load and validate a scenario JSON file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"{path}: {exc}") from exc
    return scenario_from_dict(raw)
