"""Feasibility inequalities for the planner: g(...) >= 0.

Covers input and state box bounds, the collision safety distance, and the
image-plane occlusion-separation constraints.  Occlusion constraints are
activated once per planning instance from the bounding-box configuration at
the solve time and held fixed across solver iterations, which keeps the
problem smooth instead of mixed-integer.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .kinematics import (LENS, POSITION, ROTATION, STATE_SIZE, CameraRig,
                         Horizon, _readonly, rig_camera_points,
                         tangent_gradients)
from .objectives import TargetPrediction, camera_point_derivatives
from .optics import CameraSensorSpec, camera_points, pixel_coordinates

#: The column groups of a constraint row (:func:`state_residuals`): the
#: state box's ``x - lo``, then its ``hi - x``, each over a state row; then
#: the collision and separation columns, as many as
#: :class:`ConstraintTracks` holds.
BOX_LOW = slice(0, STATE_SIZE)
BOX_HIGH = slice(STATE_SIZE, 2 * STATE_SIZE)
BOX = slice(0, BOX_HIGH.stop)


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

    def overlaps(self, other: "PixelBox", horizontally: bool = True) -> bool:
        """Whether the open vertical pixel intervals of the two boxes
        overlap and, with ``horizontally``, their horizontal ones too."""
        return (self.y_lt < other.y_rb and other.y_lt < self.y_rb
                and (not horizontally or (self.x_lt < other.x_rb
                                          and other.x_lt < self.x_rb)))


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

    def __post_init__(self) -> None:
        # read-only copies: nothing a solve or a memo read can change
        for name in ("drone_input", "intr_input", "position", "velocity",
                     "rpy", "intr"):
            low = _readonly(getattr(self, name + "_low"))
            high = _readonly(getattr(self, name + "_high"))
            if low.shape != high.shape:
                raise ValueError(f"{name} bounds have mismatched shapes")
            if np.any(low > high):
                raise ValueError(f"{name} lower bound exceeds upper bound")
            object.__setattr__(self, name + "_low", low)
            object.__setattr__(self, name + "_high", high)
        if self.safety_distance < 0.0:
            raise ValueError("safety_distance must be >= 0")
        if np.any(self.intr_low <= 0.0):
            raise ValueError("intr lower bound must be positive")

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

    The planner must keep the right-hand box's left edge to the right of
    the left-hand box's right edge.
    """

    left_id: str
    right_id: str


def box_from_center(rig: CameraRig, center: np.ndarray, height: float,
                    width: float, spec: CameraSensorSpec) -> PixelBox | None:
    """Project a world-vertical box around a center point to pixel
    corners; None when the center is not in front of the camera."""
    return pixel_box(rig_camera_points(rig, center[None])[0],
                     rig.intrinsics.focal_length, height, width, spec)


def pixel_box(q: np.ndarray, f_mm: float, height: float, width: float,
              spec: CameraSensorSpec) -> PixelBox | None:
    """:func:`box_from_center` from the center's camera-frame point ``q``.

    The half extents are applied in the image axes at the center's depth,
    so the box stays axis-aligned in the image.
    """
    if q[2] <= 0.0:
        return None
    bxf, _, u, v = pixel_coordinates(q, q[2], f_mm, spec)
    half_w = _half_extent(bxf, width / 2.0, q[2])
    half_h = _half_extent(spec.beta_y * f_mm, height / 2.0, q[2])
    return PixelBox(x_lt=u - half_w, y_lt=v - half_h,
                    x_rb=u + half_w, y_rb=v + half_h)


def _half_extent(bf: np.ndarray, half: np.ndarray,
                 depth: np.ndarray) -> np.ndarray:
    """Pixels from a box's center to its edge, ``half`` meters out at
    ``depth``; ``bf`` is the pixel scale times the focal length."""
    return bf * half / depth


def occlusion_activation(box_first: PixelBox, box_second: PixelBox) -> bool:
    """Decide whether to keep the pair horizontally separated.

    Active exactly when the vertical pixel intervals overlap and the second
    box is strictly to the right of the first: two vertically conflicting
    targets that are still separated must not cross in the image.
    """
    return (box_first.overlaps(box_second, horizontally=False)
            and box_second.x_lt > box_first.x_rb)


def activate_occlusions(rig: CameraRig, preds: dict[str, TargetPrediction],
                        sizes: dict[str, tuple[float, float]],
                        spec: CameraSensorSpec) -> list[OcclusionRecord]:
    """A record of every ordered visible pair that the activation
    predicate keeps separated."""
    boxes = {tid: box_from_center(rig, pred.anchor_track("center", 1)[0],
                                  *sizes[tid], spec)
             for tid, pred in preds.items() if tid in sizes}
    records = []
    ids = sorted(tid for tid, box in boxes.items() if box is not None)
    for i, first in enumerate(ids):
        for second in ids[i + 1:]:
            for a, b in ((first, second), (second, first)):
                if occlusion_activation(boxes[a], boxes[b]):
                    records.append(OcclusionRecord(left_id=a, right_id=b))
    return records


#: Leading axis of :func:`separation_pieces`: the right box, then the left
#: one, each added in that order as a loop over them would; per box, the
#: sign of its half width in the edge it gives and of that edge in the gap.
_EDGE_SIGNS, _GAP_SIGNS = np.array([[-1.0], [1.0]]), np.array([[1.0], [-1.0]])
_EDGE_SIGNS.setflags(write=False)
_GAP_SIGNS.setflags(write=False)


def separation_pieces(horizon: Horizon, start: int,
                      track: tuple[np.ndarray, np.ndarray],
                      spec: CameraSensorSpec,
                      ) -> tuple[np.ndarray, Callable[[], tuple[
                          np.ndarray, np.ndarray, np.ndarray]]]:
    """Signed pixel gap between the right box's left edge and the left
    box's right edge, feasible when >= 0, at horizon states ``start``..N;
    ``track`` is the record's entry in :attr:`ConstraintTracks.separations`.

    Returns the residuals per state and a callable that builds their
    derivatives (d/d position, d/d rotation matrix, d/d focal) from the
    projections the residuals took.
    """
    centers, half = track
    positions = horizon.positions[start:]
    cam_rotations = horizon.camera_rotations[start:]
    f_mm = horizon.lens[start:, 0]
    n = len(positions)
    edge_signs, gap_signs = _EDGE_SIGNS, _GAP_SIGNS
    rel, q = camera_points(cam_rotations, positions, centers[:, start:])
    qz = np.maximum(q[:, :, 2], 1e-6)
    bxf, u_num, u, _ = pixel_coordinates(q, qz, f_mm, spec, vertical=False)
    edges = gap_signs * (u + edge_signs * _half_extent(bxf, half, qz))
    # from an explicit 0.0, as a sum into zeros would give signed zeros
    gap = 0.0 + edges[0] + edges[1]

    def pieces() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # (sign * a) * b == sign * (a * b) exactly for a sign of +-1
        bxf_half = bxf * half
        g_q = np.empty((2, n, 3))
        g_q[:, :, 0] = bxf / qz
        g_q[:, :, 1] = spec.skew / qz
        g_q[:, :, 2] = -(u_num + edge_signs * bxf_half) / (qz * qz)
        g_q *= gap_signs[:, :, None]
        pos_terms, rot_terms = camera_point_derivatives(cam_rotations, rel,
                                                        g_q)
        f_terms = gap_signs * (spec.beta_x * q[:, :, 0]
                               + edge_signs * spec.beta_x * half) / qz
        return (0.0 + pos_terms[0] + pos_terms[1],
                0.0 + rot_terms[0] + rot_terms[1],
                0.0 + f_terms[0] + f_terms[1])
    return gap, pieces


def input_bound_residuals(u: np.ndarray, cset: ConstraintSet) -> np.ndarray:
    """Input-box residuals ``u - lo, hi - u`` of input rows:
    (..., 9) -> (..., 18)."""
    low, high = cset.input_bounds
    return np.concatenate([u - low, high - u], axis=-1)


class ConstraintTracks:
    """Per-solve data of :func:`state_residuals` over states 0..N: state
    bounds and each :data:`BOX` column's box width; collision target
    positions (m, N+1, 3); per record, its right, then left box's centers
    (2, N+1, 3) and half widths (2, 1); a row's width and column groups."""

    __slots__ = ("bounds", "box_widths", "safety_distance", "collisions",
                 "separations", "collision", "separation", "width")

    def __init__(self, preds: dict[str, TargetPrediction],
                 sizes: dict[str, tuple[float, float]],
                 cset: ConstraintSet, records: list[OcclusionRecord],
                 n: int):
        low, high = self.bounds = cset.state_bounds
        self.box_widths = np.concatenate([high - low, high - low])
        self.safety_distance = cset.safety_distance
        ids = sorted(preds) if cset.safety_distance > 0.0 else []
        self.collisions = np.array([preds[tid].positions[:n]
                                    for tid in ids]).reshape(len(ids), n, 3)
        self.separations = []
        for record in records:
            pair = (record.right_id, record.left_id)
            centers = np.stack([preds[tid].anchor_track("center", n)
                                for tid in pair])
            half = np.array([[sizes[tid][1]] for tid in pair]) / 2.0
            self.separations.append((centers, half))
        self.collision = slice(BOX.stop, BOX.stop + len(ids))
        self.width = self.collision.stop + len(records)
        self.separation = slice(self.collision.stop, self.width)


def _rpy_derivative(rotations: np.ndarray) -> np.ndarray:
    """d(roll, pitch, yaw)/dR of the Z-Y-X extraction
    :func:`kinematics.euler_angles`: (3, n, 3, 3), by angle; bounds keep
    pitch off +-pi/2."""
    flat = rotations.reshape(-1, 9)  # R_ij at 3 i + j
    d = np.zeros((3, len(rotations), 9))
    # -arcsin(R_20)
    d[1, :, 6] = -1.0 / np.sqrt(np.maximum(1.0 - flat[:, 6] ** 2, 1e-12))
    # atan2(R_21, R_22) and atan2(R_10, R_00)
    for axis, (y, x) in ((0, (7, 8)), (2, (3, 0))):
        denom = flat[:, y] ** 2 + flat[:, x] ** 2
        d[axis, :, y], d[axis, :, x] = flat[:, x] / denom, -flat[:, y] / denom
    return d.reshape(3, -1, 3, 3)


def state_residuals(horizon: Horizon, start: int, tracks: ConstraintTracks,
                    spec: CameraSensorSpec, margin: float = 0.0,
                    separation_scale: float = 1.0,
                    ) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
    """Every state inequality g >= 0 of horizon states ``start``..N, one
    row per state in the layout the planner's model step and
    :func:`evaluate_constraints` share: the :data:`BOX` residuals of the
    state rows; in ``tracks.collision``, distance - (safety distance +
    ``margin``) per target by sorted id; in ``tracks.separation``, per
    occlusion record, the :func:`separation_pieces` pixel gap /
    ``separation_scale`` - ``margin``.

    Returns the rows and ``derivatives()``: (states, 12 + collision and
    separation columns, 12), the derivative by its own state of each
    :data:`BOX_LOW` entry (``hi - x`` has the negative): the unit row on
    the entries linear in the state, the roll, pitch and yaw derivative on
    ``ROTATION``; then of the :attr:`ConstraintTracks.collision` and
    ``.separation`` columns in order.
    """
    states = horizon.state_rows(start)
    rows = np.empty((len(states), tracks.width))
    low, high = tracks.bounds
    rows[:, BOX_LOW], rows[:, BOX_HIGH] = states - low, high - states
    diff = horizon.positions[start:] - tracks.collisions[:, start:]
    dist = np.sqrt(np.add.reduce(diff * diff, axis=2))  # as np.linalg.norm
    rows[:, tracks.collision] = (dist - (tracks.safety_distance + margin)).T
    separations = []
    for column, track in enumerate(tracks.separations,
                                   tracks.separation.start):
        gap, build = separation_pieces(horizon, start, track, spec)
        rows[:, column] = gap / separation_scale - margin
        separations.append(build)

    def derivatives() -> np.ndarray:
        rotations = horizon.rotations[start:]
        d = np.zeros((len(states), STATE_SIZE + tracks.width - BOX.stop,
                      STATE_SIZE))
        d[:, :STATE_SIZE] = np.eye(STATE_SIZE)
        collision = slice(STATE_SIZE, STATE_SIZE + len(dist))
        d[:, collision, POSITION] = (diff / np.maximum(dist, 1e-9)[
            :, :, None]).transpose(1, 0, 2)
        gaps = [[piece / separation_scale for piece in build()]
                for build in separations]
        by_rotation = tangent_gradients(rotations, np.concatenate(
            [_rpy_derivative(rotations)] + [d_rot[None]
                                            for _, d_rot, _ in gaps]))
        d[:, ROTATION, ROTATION] = by_rotation[:3].transpose(1, 0, 2)
        for column, (d_pos, _, d_f), d_rot in zip(
                range(collision.stop, d.shape[1]), gaps, by_rotation[3:]):
            d[:, column, POSITION] = d_pos
            d[:, column, ROTATION] = d_rot
            d[:, column, LENS.start] = d_f
        return d
    return rows, derivatives


def evaluate_constraints(u: np.ndarray, horizon: Horizon,
                         tracks: ConstraintTracks, cset: ConstraintSet,
                         spec: CameraSensorSpec) -> np.ndarray:
    """Stack every inequality residual of a plan; feasible when all are
    >= 0.

    Order: the 18 :func:`input_bound_residuals` of each (n, 9) input row,
    then the :func:`state_residuals` row of every state 0..N.
    """
    states = state_residuals(horizon, 0, tracks, spec)[0]
    return np.concatenate([input_bound_residuals(u, cset).ravel(),
                           states.ravel()])
