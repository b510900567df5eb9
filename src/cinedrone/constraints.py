"""Feasibility inequalities for the planner: g(...) >= 0.

Covers input and state box bounds, the collision safety distance, and the
image-plane occlusion-separation constraints.  Occlusion constraints are
activated once per planning instance from the bounding-box configuration at
the solve time and held fixed across solver iterations, which keeps the
problem smooth instead of mixed-integer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kinematics import BODY_TO_CAMERA, CameraRig, Horizon
from .objectives import TargetPrediction
from .optics import BehindCameraError, CameraSensorSpec


@dataclass(frozen=True)
class PixelBox:
    """Axis-aligned image box, y down: left-top <= right-bottom."""

    x_lt: float
    y_lt: float
    x_rb: float
    y_rb: float

    def contains(self, pixel: np.ndarray) -> bool:
        return (self.x_lt <= pixel[0] <= self.x_rb
                and self.y_lt <= pixel[1] <= self.y_rb)


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Bounds and scene-safety parameters for one platform/scenario.

    Array bounds are ordered: drone input (accel xyz, angular velocity xyz),
    lens input (focal/focus/aperture rates), position, velocity, roll/pitch/
    yaw, lens state (focal mm, focus m, aperture).
    """

    drone_input_low: np.ndarray
    drone_input_high: np.ndarray
    intr_input_low: np.ndarray
    intr_input_high: np.ndarray
    position_low: np.ndarray
    position_high: np.ndarray
    velocity_low: np.ndarray
    velocity_high: np.ndarray
    rpy_low: np.ndarray
    rpy_high: np.ndarray
    intr_low: np.ndarray
    intr_high: np.ndarray
    safety_distance: float = 0.0
    occlusion_enabled: bool = False
    epsilon_slack: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("drone_input", "intr_input", "position", "velocity",
                     "rpy", "intr"):
            low = np.asarray(getattr(self, name + "_low"), dtype=float)
            high = np.asarray(getattr(self, name + "_high"), dtype=float)
            if low.shape != high.shape:
                raise ValueError(f"{name} bounds have mismatched shapes")
            if np.any(low > high):
                raise ValueError(f"{name} lower bound exceeds upper bound")
            object.__setattr__(self, name + "_low", low)
            object.__setattr__(self, name + "_high", high)
        if self.safety_distance < 0.0:
            raise ValueError("safety_distance must be >= 0")

    @property
    def input_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(low, high) of an input row: drone input, then lens input."""
        return (np.concatenate([self.drone_input_low, self.intr_input_low]),
                np.concatenate([self.drone_input_high,
                                self.intr_input_high]))

    @property
    def state_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(low, high) of a state row: position, velocity, roll/pitch/yaw,
        lens state."""
        return (np.concatenate([self.position_low, self.velocity_low,
                                self.rpy_low, self.intr_low]),
                np.concatenate([self.position_high, self.velocity_high,
                                self.rpy_high, self.intr_high]))

    @classmethod
    def default(cls) -> "ConstraintSet":
        """Stock simulation bounds: a gentle cinematography platform."""
        return cls(
            drone_input_low=np.array([-1.0] * 3 + [-0.25] * 3),
            drone_input_high=np.array([1.0] * 3 + [0.25] * 3),
            intr_input_low=np.array([-7.0, -15.0, -3.0]),
            intr_input_high=np.array([7.0, 15.0, 3.0]),
            position_low=np.full(3, -30.0),
            position_high=np.full(3, 30.0),
            velocity_low=np.full(3, -40.0),
            velocity_high=np.full(3, 40.0),
            rpy_low=np.full(3, -0.25),
            rpy_high=np.full(3, 0.25),
            intr_low=np.array([15.0, 4.0, 1.2]),
            intr_high=np.array([500.0, 2000.0, 22.0]),
        )


@dataclass(frozen=True)
class OcclusionRecord:
    """Frozen image-plane ordering of one target pair at solve time.

    While active, the planner must keep the right-hand box's left edge to
    the right of the left-hand box's right edge.
    """

    left_id: str
    right_id: str
    active: bool


def predict_bounding_box(rig: CameraRig, pred: TargetPrediction, step: int,
                         height: float, width: float,
                         spec: CameraSensorSpec) -> PixelBox:
    """:func:`box_from_center` at a predicted target center."""
    return box_from_center(rig, pred.point_position(step, "center"), height,
                           width, spec)


def box_from_center(rig: CameraRig, center: np.ndarray, height: float,
                    width: float, spec: CameraSensorSpec) -> PixelBox:
    """Project a world-vertical box around a center point to pixel corners.

    The half extents are applied in the image axes at the center's depth,
    so the box stays axis-aligned in the image.
    """
    q = rig.camera_frame(center)
    if q[2] <= 0.0:
        raise BehindCameraError(f"target center depth {q[2]:.4g}")
    f_mm = rig.intrinsics.focal_length
    u = (spec.beta_x * f_mm * q[0] + spec.skew * q[1]) / q[2] \
        + spec.principal_u
    v = spec.beta_y * f_mm * q[1] / q[2] + spec.principal_v
    half_w = spec.beta_x * f_mm * (width / 2.0) / q[2]
    half_h = spec.beta_y * f_mm * (height / 2.0) / q[2]
    return PixelBox(x_lt=u - half_w, y_lt=v - half_h,
                    x_rb=u + half_w, y_rb=v + half_h)


def boxes_vertically_overlap(box_a: PixelBox, box_b: PixelBox) -> bool:
    return box_a.y_lt < box_b.y_rb and box_b.y_lt < box_a.y_rb


def occlusion_activation(box_first: PixelBox, box_second: PixelBox,
                         first_id: str, second_id: str) -> OcclusionRecord:
    """Decide whether to keep the pair horizontally separated.

    Active exactly when the vertical pixel intervals overlap and the second
    box is strictly to the right of the first: two vertically conflicting
    targets that are still separated must not cross in the image.
    """
    active = (boxes_vertically_overlap(box_first, box_second)
              and box_second.x_lt > box_first.x_rb)
    return OcclusionRecord(left_id=first_id, right_id=second_id,
                           active=active)


def activate_occlusions(rig: CameraRig, preds: dict[str, TargetPrediction],
                        sizes: dict[str, tuple[float, float]],
                        spec: CameraSensorSpec) -> list[OcclusionRecord]:
    """Evaluate the activation predicate for every ordered visible pair."""
    boxes: dict[str, PixelBox] = {}
    for tid, pred in preds.items():
        if tid not in sizes:
            continue
        height, width = sizes[tid]
        try:
            boxes[tid] = predict_bounding_box(rig, pred, 0, height, width,
                                              spec)
        except BehindCameraError:
            continue
    records = []
    ids = sorted(boxes)
    for i, first in enumerate(ids):
        for second in ids[i + 1:]:
            for a, b in ((first, second), (second, first)):
                record = occlusion_activation(boxes[a], boxes[b], a, b)
                if record.active:
                    records.append(record)
    return records


def separation_pieces(horizon: Horizon, start: int,
                      preds: dict[str, TargetPrediction],
                      sizes: dict[str, tuple[float, float]],
                      record: OcclusionRecord, spec: CameraSensorSpec,
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                 np.ndarray]:
    """Signed pixel gap between the right box's left edge and the left
    box's right edge, feasible when >= 0, at horizon states ``start``..N.

    Returns (residuals, d/d position, d/d rotation, d/d focal) per state;
    the caller scales the gradient pieces by its penalty slopes.
    """
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
        bxf = spec.beta_x * f_mm
        u_num = bxf * q[:, 0] + spec.skew * q[:, 1]
        u = u_num / qz + spec.principal_u
        half_w = bxf * (width / 2.0) / qz
        residual += outer_sign * (u + sign * half_w)

        g_q = np.empty((n, 3))
        g_q[:, 0] = bxf / qz
        g_q[:, 1] = spec.skew / qz
        g_q[:, 2] = -(u_num + sign * bxf * (width / 2.0)) / (qz * qz)
        g_q *= outer_sign
        d_pos -= np.einsum("kij,kj->ki", cam_rotations, g_q)
        d_rot += np.einsum("ki,kj->kij", rel, g_q) @ BODY_TO_CAMERA.T
        d_f += outer_sign * (spec.beta_x * q[:, 0]
                             + sign * spec.beta_x * (width / 2.0)) / qz
    return residual, d_pos, d_rot, d_f


def input_bound_residuals(u: np.ndarray, cset: ConstraintSet) -> np.ndarray:
    """Input-box residuals ``u - lo, hi - u`` of input rows:
    (..., 9) -> (..., 18)."""
    low, high = cset.input_bounds
    return np.concatenate([u - low, high - u], axis=-1)


def state_bound_residuals(horizon: Horizon,
                          cset: ConstraintSet) -> np.ndarray:
    """State-box residuals ``x - lo, hi - x`` of every state: (n, 24)."""
    rotations = horizon.rotations
    rpy = np.stack([
        np.arctan2(rotations[:, 2, 1], rotations[:, 2, 2]),
        -np.arcsin(np.clip(rotations[:, 2, 0], -1.0, 1.0)),
        np.arctan2(rotations[:, 1, 0], rotations[:, 0, 0]),
    ], axis=1)
    state = np.hstack([horizon.positions, horizon.velocities, rpy,
                       horizon.lens])
    low, high = cset.state_bounds
    return np.hstack([state - low, high - state])


def _collision_ids(preds: dict[str, TargetPrediction],
                   cset: ConstraintSet) -> list[str]:
    return sorted(preds) if cset.safety_distance > 0.0 else []


def state_residual_width(preds: dict[str, TargetPrediction],
                         cset: ConstraintSet,
                         records: list[OcclusionRecord]) -> int:
    """Entries per state of :func:`state_residuals`."""
    return (2 * len(cset.state_bounds[0]) + len(_collision_ids(preds, cset))
            + sum(record.active for record in records))


def state_residuals(horizon: Horizon, start: int,
                    preds: dict[str, TargetPrediction],
                    sizes: dict[str, tuple[float, float]],
                    cset: ConstraintSet, records: list[OcclusionRecord],
                    spec: CameraSensorSpec, margin: float = 0.0):
    """Every state inequality g >= 0 of horizon states ``start``..N, one
    row per state in the layout the planner's penalty and
    :func:`evaluate_constraints` share: 24 :func:`state_bound_residuals`;
    when ``cset.safety_distance > 0``, distance - (safety distance +
    ``margin``) per target by sorted id; the :func:`separation_pieces`
    pixel gap per active record.

    Returns the rows, then the derivative pieces: ``(rig - target
    offsets, distances)`` per collision and the :func:`separation_pieces`
    gradients per separation entry.
    """
    positions = horizon.positions[start:]
    n = len(positions)
    columns = [state_bound_residuals(horizon, cset)[start:]]
    collisions = []
    for tid in _collision_ids(preds, cset):
        diff = positions - preds[tid].positions[start:start + n]
        dist = np.linalg.norm(diff, axis=1)
        columns.append((dist - (cset.safety_distance + margin))[:, None])
        collisions.append((diff, dist))
    separations = []
    for record in records:
        if not record.active:
            continue
        res, *pieces = separation_pieces(horizon, start, preds, sizes,
                                         record, spec)
        columns.append(res[:, None])
        separations.append(pieces)
    return np.hstack(columns), collisions, separations


def evaluate_constraints(u: np.ndarray, horizon: Horizon,
                         preds: dict[str, TargetPrediction],
                         sizes: dict[str, tuple[float, float]],
                         cset: ConstraintSet,
                         records: list[OcclusionRecord],
                         spec: CameraSensorSpec) -> np.ndarray:
    """Stack every inequality residual of a plan; feasible when all are
    >= 0.

    Order: the 18 :func:`input_bound_residuals` of each (n, 9) input row,
    then the :func:`state_residuals` row of every state 0..N.
    """
    states, _, _ = state_residuals(horizon, 0, preds, sizes, cset, records,
                                   spec)
    return np.concatenate([input_bound_residuals(u, cset).ravel(),
                           states.ravel()])
