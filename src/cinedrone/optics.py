"""Thin-lens optics and projective camera geometry.

Unit conventions, used consistently across the package:

* focal length and circle of confusion are in millimeters (lens convention),
* focus distance and depth-of-field limits are in meters (scene convention),
* pixels are floats with the origin at the top-left image corner, u right,
  v down.

The camera frame is z forward (depth), x right, y down, so that pixel
coordinates grow in the same direction as the camera axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Distinguished far-limit value: everything beyond the near limit is sharp.
INFINITE_FAR = math.inf

_MM_PER_M = 1000.0


def mm_to_m(value_mm: float) -> float:
    """Single conversion point between lens millimeters and scene meters."""
    return value_mm / _MM_PER_M


class OpticsError(ValueError):
    """Base class for optics-domain errors."""


class SingularDofError(OpticsError):
    """Depth-of-field denominator is non-positive (non-physical setup)."""


class BehindCameraError(OpticsError):
    """Point to project has non-positive depth."""


@dataclass(frozen=True)
class CameraSensorSpec:
    """Fixed sensor/lens-mount constants of one camera body.

    ``beta_x``/``beta_y`` are the pixel-per-millimeter scale factors of the
    sensor.  The physical sensor size is derived from them so the identity
    ``beta = image_size / sensor_size`` holds exactly; use
    :meth:`from_sensor_size` when the datasheet gives millimeters instead.
    """

    image_width: float
    image_height: float
    beta_x: float
    beta_y: float
    principal_u: float
    principal_v: float
    skew: float = 0.0
    circle_of_confusion: float = 0.03  # mm

    def __post_init__(self) -> None:
        for name in ("image_width", "image_height", "beta_x", "beta_y",
                     "circle_of_confusion"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")

    @property
    def sensor_width(self) -> float:
        """Sensor width in millimeters."""
        return self.image_width / self.beta_x

    @property
    def sensor_height(self) -> float:
        """Sensor height in millimeters."""
        return self.image_height / self.beta_y

    @classmethod
    def from_sensor_size(cls, image_width: float, image_height: float,
                         sensor_width_mm: float, sensor_height_mm: float,
                         principal_u: float, principal_v: float,
                         skew: float = 0.0,
                         circle_of_confusion: float = 0.03,
                         ) -> "CameraSensorSpec":
        """Build a spec from physical sensor dimensions in millimeters."""
        if sensor_width_mm <= 0.0 or sensor_height_mm <= 0.0:
            raise ValueError("sensor dimensions must be strictly positive")
        return cls(
            image_width=image_width,
            image_height=image_height,
            beta_x=image_width / sensor_width_mm,
            beta_y=image_height / sensor_height_mm,
            principal_u=principal_u,
            principal_v=principal_v,
            skew=skew,
            circle_of_confusion=circle_of_confusion,
        )


@dataclass(frozen=True)
class IntrinsicState:
    """Controllable lens state: focal length (mm), focus distance (m),
    aperture (f-stop)."""

    focal_length: float
    focus_distance: float
    aperture: float

    def __post_init__(self) -> None:
        if self.focal_length <= 0.0:
            raise ValueError("focal_length must be strictly positive")
        if self.focus_distance <= 0.0:
            raise ValueError("focus_distance must be strictly positive")
        if self.aperture <= 0.0:
            raise ValueError("aperture must be strictly positive")

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.focal_length, self.focus_distance, self.aperture])


@dataclass(frozen=True)
class DepthOfField:
    """Sharpness interval of a lens configuration, all in meters.

    ``far_distance`` may be :data:`INFINITE_FAR` when focusing at or beyond
    the hyperfocal distance.
    """

    hyperfocal: float
    near_distance: float
    far_distance: float

    @property
    def far_is_infinite(self) -> bool:
        return math.isinf(self.far_distance)


def camera_points(cam_rotations: np.ndarray, positions: np.ndarray,
                  points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points in the optical frames of a stack of cameras: ``rel``, the
    world offsets ``points - positions``, and ``q``, the same offsets in
    camera axes, (T, n, 3) each from the (n, 3, 3) optical-axes matrices
    (columns right, down, forward in world), the (n, 3) camera positions
    and T tracks of (n, 3) world points.  One camera passes n = 1."""
    rel = points - positions
    return rel, np.einsum("kji,tkj->tki", cam_rotations, rel)


def pixel_coordinates(q: np.ndarray, depth: np.ndarray, f_mm: np.ndarray,
                      spec: CameraSensorSpec, vertical: bool = True,
                      ) -> tuple[np.ndarray, ...]:
    """Pinhole pixels of camera-frame points ``q`` (..., 3) at the
    caller's ``depth`` (q's z, or q's z clamped) with focal lengths
    ``f_mm``: ``beta_x f``, the u numerator ``beta_x f q_x + skew q_y``,
    u and v (None unless ``vertical``)."""
    bxf = spec.beta_x * f_mm
    u_num = bxf * q[..., 0] + spec.skew * q[..., 1]
    u = u_num / depth + spec.principal_u
    v = spec.beta_y * f_mm * q[..., 1] / depth + spec.principal_v \
        if vertical else None
    return bxf, u_num, u, v


def back_project(pixel: np.ndarray, depth: float, intr: IntrinsicState,
                 spec: CameraSensorSpec) -> np.ndarray:
    """Invert :func:`pixel_coordinates`: pixel + depth -> camera-frame
    point.  The focal length and both pixel scales are positive, so the
    inverse always exists."""
    if depth <= 0.0:
        raise BehindCameraError(f"depth {depth} is not positive")
    f = intr.focal_length
    y = (pixel[1] - spec.principal_v) * depth / (spec.beta_y * f)
    x = ((pixel[0] - spec.principal_u) * depth - spec.skew * y) / (
        spec.beta_x * f)
    return np.array([x, y, depth])


def thin_lens(f_mm: np.ndarray, focus: np.ndarray, aperture: np.ndarray,
              spec: CameraSensorSpec) -> tuple[np.ndarray, ...]:
    """Thin-lens terms in meters, for scalars or arrays of lens states:
    the focal length ``f``, ``A c``, the hyperfocal distance
    ``H = f^2 / (A c) + f``, the near limit's denominator ``H + F - 2f``
    and ``H - f``."""
    f_m = mm_to_m(f_mm)
    a_c = aperture * mm_to_m(spec.circle_of_confusion)
    h = f_m * f_m / a_c + f_m
    return f_m, a_c, h, h + focus - 2.0 * f_m, h - f_m


def dof_limits(focus: np.ndarray, h: np.ndarray, denom: np.ndarray,
               h_f: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """From :func:`thin_lens`'s ``H``, ``H + F - 2f`` and ``H - f``: the
    near limit ``F (H - f) / (H + F - 2f)``, ``H - F`` (1 where ``F >= H``)
    and the far limit ``F (H - f) / (H - F)`` (:data:`INFINITE_FAR` where
    ``F >= H``)."""
    numer = focus * h_f
    finite = focus < h
    h_focus = np.where(finite, h - focus, 1.0)
    return (numer / denom, h_focus,
            np.where(finite, numer / h_focus, INFINITE_FAR))


def hyperfocal(intr: IntrinsicState, spec: CameraSensorSpec) -> float:
    """Hyperfocal distance in meters, ``f^2 / (A c) + f``."""
    return thin_lens(intr.focal_length, intr.focus_distance, intr.aperture,
                     spec)[2]


def depth_of_field(intr: IntrinsicState,
                   spec: CameraSensorSpec) -> DepthOfField:
    """Near and far sharpness limits for the given lens state.

    Focusing at or beyond the hyperfocal distance makes the far limit
    infinite; that case is reported via :data:`INFINITE_FAR`, not as a
    float overflow.
    """
    focus = intr.focus_distance
    _, _, h, denom_near, h_f = thin_lens(intr.focal_length, focus,
                                         intr.aperture, spec)
    if denom_near <= 0.0:
        raise SingularDofError(
            f"H + F - 2f = {denom_near:.6g} <= 0 for f={intr.focal_length} mm,"
            f" F={focus} m, A={intr.aperture}")
    near, _, far = dof_limits(focus, h, denom_near, h_f)
    return DepthOfField(hyperfocal=h, near_distance=float(near),
                        far_distance=float(far))

