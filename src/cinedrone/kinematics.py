"""Discrete-time rig dynamics and the set-points between control steps.

The drone/gimbal mount orientation is stored as a rotation matrix in the
ROS-style body convention (x forward, y left, z up) over a z-up world, so a
level mount looking along world +x is the identity and roll/pitch/yaw bounds
read naturally.  The optical axes used for projection (x right, y down,
z forward) are reached through the fixed :data:`BODY_TO_CAMERA` rotation.

The rollout takes every step exponential and right Jacobian from one call
of :func:`so3_exp_and_right_jacobian_batch` and keeps the Jacobians on its
:class:`Horizon`, where the forward sensitivities of the states to the
inputs, the planner's one chain rule through the dynamics, read them.
Only their rotation block depends on the inputs
(:func:`rotation_sensitivities`); the planner builds the rest
(:func:`linear_sensitivities`) once per horizon length and step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .optics import IntrinsicState, camera_points

#: Columns are the camera axes (right, down, forward) in body coordinates.
BODY_TO_CAMERA = np.array([
    [0.0, 0.0, 1.0],
    [-1.0, 0.0, 0.0],
    [0.0, -1.0, 0.0],
])
BODY_TO_CAMERA.setflags(write=False)

#: State-row entries (:meth:`Horizon.state_rows`): position, velocity,
#: roll/pitch/yaw (in a derivative, the body rotation vector) and lens.
POSITION, VELOCITY, ROTATION, LENS = (slice(0, 3), slice(3, 6), slice(6, 9),
                                      slice(9, 12))
STATE_SIZE = LENS.stop

_ORTHONORMAL_TOL = 1e-9
_REORTHONORMALIZE_TOL = 1e-12
_EYE3 = np.eye(3)
_EYE3.setflags(write=False)


#: Row i lays vector entry i, with its sign, into the flattened skew matrix.
_HAT_BASIS = np.array([[0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 1.0, 0.0],
                       [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0],
                       [0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
_HAT_BASIS.setflags(write=False)


def hat_batch(w: np.ndarray) -> np.ndarray:
    """Skew matrices of a stack of finite 3-vectors: (n, 3) -> (n, 3, 3);
    exact values, but a zero entry may carry either sign."""
    return (w @ _HAT_BASIS).reshape(len(w), 3, 3)


def so3_exp_and_right_jacobian_batch(
        w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rodrigues exponentials (series below 1e-8 rad) and right Jacobians
    (below 1e-6 rad) of a stack of rotation vectors, in one pass: the
    rollout's, whose Jacobians its :class:`Horizon` keeps."""
    theta = np.sqrt(np.add.reduce(w * w, axis=1))  # as np.linalg.norm
    k = hat_batch(w)
    k2 = k @ k
    small = theta < 1e-8
    safe = np.where(small, 1.0, theta)
    sin, cos = np.sin(safe), np.cos(safe)
    t2 = safe * safe
    # (1 - cos)/theta^2: the exponential's k^2 coefficient, and from 1e-6
    # rad on, where both read the same theta, the Jacobian's k coefficient
    one_minus_cos = (1.0 - cos) / t2
    a = np.where(small, 1.0, sin / safe)
    b = np.where(small, 0.5, one_minus_cos)
    exps = _EYE3 + a[:, None, None] * k + b[:, None, None] * k2
    small = theta < 1e-6
    a = np.where(small, 0.5, one_minus_cos)
    b = np.where(small, 1.0 / 6.0, (safe - sin) / (t2 * safe))
    return exps, _EYE3 - a[:, None, None] * k + b[:, None, None] * k2


def tangent_gradients(rotations: np.ndarray,
                      matrix_grads: np.ndarray) -> np.ndarray:
    """Gradients w.r.t. the body rotation vectors ``d`` of ``R exp(d^)``
    at ``d = 0``, from gradients w.r.t. the matrices ``R``: (n, 3, 3) and
    (..., n, 3, 3) -> (..., n, 3), the vee of ``R^T G - G^T R``."""
    m = np.swapaxes(rotations, -1, -2) @ matrix_grads
    vee = np.empty(m.shape[:-1])
    vee[..., 0] = m[..., 2, 1] - m[..., 1, 2]
    vee[..., 1] = m[..., 0, 2] - m[..., 2, 0]
    vee[..., 2] = m[..., 1, 0] - m[..., 0, 1]
    return vee


def project_to_so3(matrix: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix (Frobenius) via polar decomposition."""
    u, _, vt = np.linalg.svd(matrix)
    rotation = u @ vt
    if np.linalg.det(rotation) < 0.0:
        u[:, -1] = -u[:, -1]
        rotation = u @ vt
    return rotation


def rotation_from_rpy(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Z-Y-X Euler angles to rotation matrix (yaw about z, then pitch, roll)."""
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    return np.array([
        [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
        [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
        [-sp, cp * sr, cp * cr],
    ])


def euler_angles(rotations: np.ndarray) -> np.ndarray:
    """Z-Y-X Euler angles (roll, pitch, yaw) of a stack of rotation
    matrices: (n, 3, 3) -> (n, 3)."""
    out = np.empty((len(rotations), 3))
    out[:, 0] = np.arctan2(rotations[:, 2, 1], rotations[:, 2, 2])
    out[:, 1] = -np.arcsin(rotations[:, 2, 0].clip(-1.0, 1.0))
    out[:, 2] = np.arctan2(rotations[:, 1, 0], rotations[:, 0, 0])
    return out


def _readonly(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=float)
    out.setflags(write=False)
    return out


def _check_rotation(rotation: np.ndarray) -> None:
    drift = np.linalg.norm(rotation.T @ rotation - np.eye(3))
    det = np.linalg.det(rotation)
    if drift > _ORTHONORMAL_TOL or abs(det - 1.0) > _ORTHONORMAL_TOL:
        raise ValueError(
            f"orientation is not a rotation: |R^T R - I|={drift:.3g},"
            f" det={det:.12g}")


@dataclass(frozen=True, eq=False)
class DroneState:
    """Mount pose: position (m), velocity (m/s), body orientation matrix."""

    position: np.ndarray
    velocity: np.ndarray
    orientation: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", _readonly(self.position))
        object.__setattr__(self, "velocity", _readonly(self.velocity))
        object.__setattr__(self, "orientation", _readonly(self.orientation))
        _check_rotation(self.orientation)


@dataclass(frozen=True)
class CameraRig:
    """Joint mount + lens state at one control step."""

    drone: DroneState
    intrinsics: IntrinsicState

    def camera_rotation(self) -> np.ndarray:
        """Optical-axes matrix (columns: right, down, forward in world)."""
        return self.drone.orientation @ BODY_TO_CAMERA

    def state_row(self) -> np.ndarray:
        """The rig's state row: its one-state :class:`Horizon`'s."""
        drone = self.drone
        return Horizon(drone.position[None], drone.velocity[None],
                       drone.orientation[None],
                       self.intrinsics.as_array()[None],
                       np.empty((0, 3, 3))).state_rows()[0]


def rig_camera_points(rig: CameraRig, points: np.ndarray) -> np.ndarray:
    """World points (m, 3) in one rig's optical frame: (m, 3), each a
    one-row track of :func:`optics.camera_points`."""
    return camera_points(rig.camera_rotation()[None],
                         rig.drone.position[None], points[:, None])[1][:, 0]


def _chain(first: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """``first``, then each state times the next step exponential, put back
    onto SO(3) where |R^T R - I| drifted: the first drifted state of each
    stacked check is projected and the chain goes on from it."""
    rotations = np.empty((len(exps) + 1, 3, 3))
    rotations[0] = first
    start = 0
    while start is not None:
        for k in range(start, len(exps)):
            rotations[k + 1] = rotations[k] @ exps[k]
        chained = rotations[start + 1:]
        drift = (np.swapaxes(chained, 1, 2) @ chained - _EYE3).reshape(-1, 9)
        start = next((k for k, row in enumerate(drift, start + 1)
                      if math.sqrt(row.dot(row)) > _REORTHONORMALIZE_TOL),
                     None)
        if start is not None:
            rotations[start] = project_to_so3(rotations[start])
    return rotations


@dataclass(frozen=True, eq=False)
class Horizon:
    """Rig states 0..N of one horizon as stacked arrays: ``positions``,
    ``velocities`` and ``lens`` (focal mm, focus m, aperture) are (N+1, 3),
    ``rotations`` the (N+1, 3, 3) body orientations and ``jacobians`` the
    (N, 3, 3) right Jacobians of the N step exponentials."""

    positions: np.ndarray
    velocities: np.ndarray
    rotations: np.ndarray
    lens: np.ndarray
    jacobians: np.ndarray

    def __len__(self) -> int:
        return len(self.positions)

    @cached_property
    def camera_rotations(self) -> np.ndarray:
        """Every state's :meth:`CameraRig.camera_rotation`, computed once."""
        return self.rotations @ BODY_TO_CAMERA

    def state_rows(self, start: int = 0) -> np.ndarray:
        """The state rows of states ``start``..N alone: (N+1-start, 12),
        with :func:`euler_angles` in the :data:`ROTATION` entries."""
        rows = np.empty((len(self) - start, STATE_SIZE))
        rows[:, POSITION], rows[:, VELOCITY], rows[:, LENS] = (
            self.positions[start:], self.velocities[start:], self.lens[start:])
        rows[:, ROTATION] = euler_angles(self.rotations[start:])
        return rows

    def rig(self, k: int) -> CameraRig:
        """State ``k`` as a rig."""
        return CameraRig(drone=DroneState(self.positions[k],
                                          self.velocities[k],
                                          self.rotations[k]),
                         intrinsics=IntrinsicState(*self.lens[k]))


def rollout(initial: CameraRig, u: np.ndarray, dt: float) -> Horizon:
    """Roll the dynamics forward under the (n, 9) input rows
    (acceleration, angular velocity, focal/focus/aperture rates); returns
    the n + 1 states.  Per step, the position advances with the
    pre-update velocity, the velocity and lens state integrate their
    rates unclamped, and the orientation is multiplied by the step's
    Rodrigues exponential and put back onto SO(3) where it drifted.  With
    n = 0, the initial state alone."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    # cumsum adds row after row, as a step-by-step loop would
    velocities = np.concatenate([initial.drone.velocity[None],
                                 dt * u[:, 0:3]]).cumsum(axis=0)
    positions = np.concatenate([initial.drone.position[None],
                                dt * velocities[:-1]]).cumsum(axis=0)
    lens = np.concatenate([initial.intrinsics.as_array()[None],
                           dt * u[:, 6:9]]).cumsum(axis=0)
    exps, jacobians = so3_exp_and_right_jacobian_batch(dt * u[:, 3:6])
    rotations = _chain(initial.drone.orientation, exps)
    return Horizon(positions, velocities, rotations, lens, jacobians)


@lru_cache(maxsize=16)
def linear_sensitivities(n: int, dt: float) -> np.ndarray:
    """The blocks no input moves of the forward sensitivities of the states
    0..N of a ``rollout(initial, u, dt)`` to its N input rows: (N+1, 12,
    N, 9), rows position, velocity, body rotation vector (the tangent of
    :func:`tangent_gradients`) and lens.  Position, velocity and lens are
    linear in ``u``, and their rows are filled; the rotation rows are zero
    (:func:`rotation_sensitivities`).  Built once per ``(n, dt)`` and
    read-only: a caller that writes into it takes a copy."""
    k = np.arange(n + 1)[:, None]
    j = np.arange(n)[None, :]
    eye = _EYE3[None, :, None, :]
    before = (j < k)[:, None, :, None]
    sens = np.zeros((n + 1, STATE_SIZE, n, 9))
    sens[:, POSITION, :, 0:3] = (dt * dt * np.maximum(k - 1 - j, 0))[
        :, None, :, None] * eye
    sens[:, VELOCITY, :, 0:3] = dt * before * eye
    sens[:, LENS, :, 6:9] = dt * before * eye
    sens.setflags(write=False)
    return sens


def rotation_sensitivities(horizon: Horizon, dt: float) -> np.ndarray:
    """The rotation rows that :func:`linear_sensitivities` leaves zero, of
    states 1..N (state 0's are zero): (N, 3, N, 3), state k's rotation
    vector by input j's angular velocity, ``R_k^T R_(j+1) Jr(dt w_j) dt``
    for j < k, the re-orthonormalization aside."""
    n = len(horizon) - 1
    before = (np.arange(n)[None, :] < np.arange(1, n + 1)[:, None])[
        :, None, :, None]
    moved = horizon.rotations[1:]
    steps = dt * (moved @ horizon.jacobians)
    return before * np.einsum("kba,jbc->kajc", moved, steps)


def interpolate_commands(start: CameraRig, end: CameraRig,
                         substeps: int) -> np.ndarray:
    """Positions of the ``substeps`` set-points that split one control
    command: (substeps, 3), row i at ``(i + 1) / substeps`` of the straight
    segment, clipped to it so floating point never oversteps it; the last
    row is exactly ``end``'s position."""
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    a, b = start.drone.position, end.drone.position
    frac = (np.arange(1, substeps) / substeps)[:, None]
    inner = np.clip((1.0 - frac) * a + frac * b, np.minimum(a, b),
                    np.maximum(a, b))
    return np.concatenate([inner, b[None]])
