"""Target perception: robust depth, world-frame measurement, Kalman
filtering, horizon prediction and velocity-based orientation.

Each tracked target carries a constant-velocity filter over its reference
point (a nature-dependent spot on the body: the top of a person, the center
of anything else), measured by back-projecting the detector's representative
pixel at the robust depth of its bounding box.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kinematics import CameraRig
from .objectives import TargetPrediction
from .optics import CameraSensorSpec, back_project

#: Targets slower than this keep their preliminary orientation (m/s).
SPEED_THRESHOLD = 0.1

_GRAVITY_DIR = np.array([0.0, 0.0, -1.0])


class NoValidDepthError(ValueError):
    """Every entry of a depth patch was invalid."""


@dataclass(frozen=True, eq=False)
class TargetMeta:
    """Prior knowledge about a target: what it is and how big it is."""

    nature: str
    height: float
    width: float
    preliminary_rotation: np.ndarray

    def __post_init__(self) -> None:
        if self.height <= 0.0 or self.width <= 0.0:
            raise ValueError("target size must be strictly positive")
        rot = np.array(self.preliminary_rotation, dtype=float)
        if np.linalg.norm(rot.T @ rot - np.eye(3)) > 1e-6:
            raise ValueError("preliminary_rotation is not in SO(3)")
        rot.setflags(write=False)
        object.__setattr__(self, "preliminary_rotation", rot)


#: Body-frame offset from the target center to the tracked reference point.
def reference_offset(meta: TargetMeta) -> np.ndarray:
    if meta.nature == "person":
        return np.array([0.0, 0.0, meta.height / 2.0])
    return np.zeros(3)


@dataclass(frozen=True, eq=False)
class Detection:
    """One synthetic or real detector output for a single target: its
    representative pixel and the depth patch of its bounding box."""

    pixel: np.ndarray
    depth_patch: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "pixel",
                           np.asarray(self.pixel, dtype=float))
        object.__setattr__(self, "depth_patch",
                           np.asarray(self.depth_patch, dtype=float))


@dataclass(frozen=True, eq=False)
class TargetTrack:
    """Constant-velocity filter state of one target."""

    position: np.ndarray
    velocity: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "position",
                           np.asarray(self.position, dtype=float))
        object.__setattr__(self, "velocity",
                           np.asarray(self.velocity, dtype=float))
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (6, 6):
            raise ValueError("covariance must be 6x6")
        object.__setattr__(self, "covariance", cov)


def initialize_track(measurement: np.ndarray, meas_sigma: float,
                     velocity_sigma: float) -> TargetTrack:
    """Start a track at the first measurement with an uninformative
    velocity."""
    cov = np.zeros((6, 6))
    cov[:3, :3] = np.eye(3) * meas_sigma ** 2
    cov[3:, 3:] = np.eye(3) * velocity_sigma ** 2
    return TargetTrack(
        position=np.asarray(measurement, dtype=float),
        velocity=np.zeros(3),
        covariance=cov,
    )


def robust_depth(patch: np.ndarray) -> float:
    """Median over rows of each row's minimum valid depth.

    Nonpositive and non-finite entries are invalid; rows without any valid
    entry are skipped.  An even number of rows averages the two middle
    values.
    """
    patch = np.asarray(patch, dtype=float)
    if patch.size == 0:
        raise NoValidDepthError("empty depth patch")
    rows = np.atleast_2d(patch)
    valid = np.isfinite(rows) & (rows > 0.0)
    # an all-invalid row's minimum is inf; min is exact, so the finite
    # minima are the per-row minima of the valid entries, in row order
    row_mins = np.where(valid, rows, np.inf).min(axis=1)
    row_mins = sorted(row_mins[np.isfinite(row_mins)].tolist())
    if not row_mins:
        raise NoValidDepthError("no valid entries in depth patch")
    # np.median's values: the middle one, or the mean of the middle two
    middle = len(row_mins) // 2
    if len(row_mins) % 2:
        return row_mins[middle]
    return (row_mins[middle - 1] + row_mins[middle]) / 2.0


def measure_world_position(det: Detection, rig: CameraRig,
                           spec: CameraSensorSpec) -> np.ndarray:
    """Back-project a detection to a world position using the rig pose."""
    rel = back_project(det.pixel, robust_depth(det.depth_patch),
                       rig.intrinsics, spec)
    return rig.drone.position + rig.camera_rotation() @ rel


@lru_cache(maxsize=16)
def _constant_velocity_model(dt: float, accel_sigma: float,
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Read-only transition and white-acceleration process-noise matrices
    of one constant-velocity step, built once per ``(dt, accel_sigma)``."""
    transition = np.eye(6)
    transition[:3, 3:] = dt * np.eye(3)
    q = accel_sigma ** 2
    dt2 = dt * dt
    noise = np.zeros((6, 6))
    noise[:3, :3] = np.eye(3) * (q * dt2 * dt2 / 4.0)
    noise[:3, 3:] = np.eye(3) * (q * dt2 * dt / 2.0)
    noise[3:, :3] = noise[:3, 3:]
    noise[3:, 3:] = np.eye(3) * (q * dt2)
    transition.setflags(write=False)
    noise.setflags(write=False)
    return transition, noise


def kf_predict(track: TargetTrack, dt: float,
               accel_sigma: float) -> TargetTrack:
    """Constant-velocity prediction with white-acceleration process noise."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    transition, noise = _constant_velocity_model(dt, accel_sigma)
    cov = transition @ track.covariance @ transition.T + noise
    return TargetTrack(
        position=track.position + dt * track.velocity,
        velocity=track.velocity,
        covariance=0.5 * (cov + cov.T),
    )


def kf_update(track: TargetTrack, measurement: np.ndarray,
              meas_sigma: float) -> TargetTrack:
    """Linear position correction; Joseph form keeps the covariance SPD."""
    measurement = np.asarray(measurement, dtype=float)
    # the measurement matrix selects the position, [I 0]: its products are
    # slices of the covariance and of the gain
    noise = meas_sigma ** 2
    cov = track.covariance
    innovation_cov = cov[:3, :3] + np.eye(3) * noise
    gain = cov[:, :3] @ np.linalg.inv(innovation_cov)
    state = np.concatenate([track.position, track.velocity])
    state = state + gain @ (measurement - track.position)
    joseph = np.eye(6)
    joseph[:, :3] -= gain
    cov = joseph @ cov @ joseph.T + (gain * noise) @ gain.T
    return TargetTrack(
        position=state[:3],
        velocity=state[3:],
        covariance=0.5 * (cov + cov.T),
    )


def predict_horizon(track: TargetTrack, n_steps: int, dt: float,
                    orientation: np.ndarray,
                    anchors: dict[str, np.ndarray] | None = None,
                    ) -> TargetPrediction:
    """Noise-free constant-velocity poses for the next ``n_steps`` steps.

    The first entry is the current estimate; the target's ``orientation``
    is held constant over the horizon."""
    steps = np.arange(n_steps + 1)[:, None]
    positions = track.position[None, :] + steps * dt * track.velocity[None, :]
    rotations = np.broadcast_to(orientation,
                                (n_steps + 1, 3, 3)).copy()
    return TargetPrediction(positions=positions, rotations=rotations,
                            anchors=dict(anchors or {}))


def orientation_from_velocity(velocity: np.ndarray,
                              fallback: np.ndarray) -> np.ndarray:
    """Rotation whose first axis is the motion direction, built against
    gravity.

    Slow or gravity-aligned velocities are direction-noise dominated and
    return the fallback orientation instead.  The third axis is the cross
    product of the first two, which guarantees det = +1.
    """
    velocity = np.asarray(velocity, dtype=float)
    speed = float(np.linalg.norm(velocity))
    if speed < SPEED_THRESHOLD:
        return np.array(fallback, dtype=float)
    forward = velocity / speed
    lateral = _cross(forward, _GRAVITY_DIR)
    lateral_norm = float(np.linalg.norm(lateral))
    if lateral_norm < 1e-8:
        return np.array(fallback, dtype=float)
    lateral = lateral / lateral_norm
    up = _cross(forward, lateral)
    return np.column_stack([forward, lateral, up])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of 3-vectors written out: its operations, its bits."""
    (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
