"""Cinematographic objective terms and their horizon sums.

Four weighted terms are evaluated per control step: depth-of-field tracking,
image composition, relative camera-target pose, and focal-length tracking.
The planner's derivatives are built on demand from the intermediates of a
value pass, as rows of states 1..N (:data:`Rows`); :func:`contract_rows`
forms their per-state gradients and stage blocks, and
:func:`chain_through_dynamics` takes the gradients to the inputs.

Desired values may be expressed relative to a target (distance offsets) or
as time schedules (focal ramps); call :meth:`Instructions.resolve` before
evaluating costs.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial

import numpy as np

from .kinematics import (BODY_TO_CAMERA, LENS, POSITION, ROTATION,
                         STATE_SIZE, Horizon, tangent_gradients)
from .optics import (CameraSensorSpec, SingularDofError, camera_points,
                     dof_limits, mm_to_m, pixel_coordinates, thin_lens)

#: Depth below which the in-planner projection switches to a smooth barrier.
BARRIER_DEPTH = 0.1
#: Weight of the barrier penalty on the depth shortfall.
BARRIER_GAIN = 1e4
#: In-planner smoothing of the rotation norm's kink at zero; the smoothed
#: value differs from the exact norm by at most this amount.
ROTATION_NORM_EPS = 1e-3
#: Slope of the in-planner surrogate used where the far limit is infinite
#: but a finite one is requested; steers the focus back below hyperfocal.
_FAR_BARRIER = 1e9
_EYE3 = np.eye(3)
_EYE3.setflags(write=False)


@dataclass(frozen=True)
class RelativeDistance:
    """A distance expressed as 'current camera-target distance + offset'."""

    target_id: str
    offset: float


@dataclass(frozen=True)
class FocalSchedule:
    """Piecewise-linear desired focal length over absolute time, clamped at
    the ends."""

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.values) or not self.times:
            raise ValueError("schedule needs matching, nonempty breakpoints")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("schedule times must be strictly increasing")

    @classmethod
    def constant(cls, value_mm: float) -> "FocalSchedule":
        return cls(times=(0.0,), values=(value_mm,))

    def value_at(self, t: float) -> float:
        return self.values_at([t])[0]

    def values_at(self, times) -> tuple[float, ...]:
        """The desired focal length at each of ``times``."""
        return tuple(np.interp(times, self.times, self.values).tolist())


@dataclass(frozen=True)
class DofTarget:
    """Desired near/far sharpness limits with their weights.

    ``near``/``far`` may be absolute meters, :class:`RelativeDistance`, or
    ``math.inf`` for 'sharp to infinity' (which disables the far term).
    """

    near: float | RelativeDistance | None = None
    far: float | RelativeDistance | None = None
    w_near: float = 0.0
    w_far: float = 0.0

    def __post_init__(self) -> None:
        if self.w_near < 0.0 or self.w_far < 0.0:
            raise ValueError("depth-of-field weights must be >= 0")


@dataclass(frozen=True)
class CompositionTarget:
    """Place a named target point at a desired pixel; per-axis weights."""

    target_id: str
    point_id: str
    pixel: tuple[float, float]
    weight: tuple[float, float]

    def __post_init__(self) -> None:
        if min(self.weight) < 0.0:
            raise ValueError("composition weights must be >= 0")


@dataclass(frozen=True, eq=False)
class PoseTarget:
    """Desired camera-target distance and relative mount rotation.

    ``rotation`` is compared against the transpose of the relative rotation
    (mount-to-target); configs store this desired matrix directly.
    """

    target_id: str
    distance: float | None = None
    w_distance: float = 0.0
    rotation: np.ndarray | None = None
    w_rotation: float = 0.0

    def __post_init__(self) -> None:
        if self.w_distance < 0.0 or self.w_rotation < 0.0:
            raise ValueError("pose weights must be >= 0")
        if self.rotation is not None:
            rot = np.array(self.rotation, dtype=float)
            if np.linalg.norm(rot.T @ rot - np.eye(3)) > 1e-6:
                raise ValueError("desired relative rotation is not in SO(3)")
            rot.setflags(write=False)
            object.__setattr__(self, "rotation", rot)


@dataclass(frozen=True)
class FocalTarget:
    """Desired focal length (possibly a ramp) and its weight."""

    schedule: FocalSchedule | None = None
    weight: float = 0.0

    def __post_init__(self) -> None:
        if self.weight < 0.0:
            raise ValueError("focal weight must be >= 0")


@dataclass(frozen=True)
class Instructions:
    """One sequence worth of recording set-points.

    ``focal_steps`` holds the per-horizon-step desired focal length after
    :meth:`resolve`; cost evaluation requires resolved instructions unless
    every time-varying / target-relative form is absent.
    """

    dof: DofTarget = DofTarget()
    composition: tuple[CompositionTarget, ...] = ()
    poses: tuple[PoseTarget, ...] = ()
    focal: FocalTarget = FocalTarget()
    focal_steps: tuple[float, ...] | None = None

    def resolve(self, t0: float, dt: float, n_steps: int,
                distances: dict[str, float] | None = None) -> "Instructions":
        """Materialize schedules and target-relative distances.

        ``distances`` maps target ids to the current estimated camera-target
        distance; required only when a dof limit is target-relative.
        """
        def materialize(limit):
            if isinstance(limit, RelativeDistance):
                if distances is None or limit.target_id not in distances:
                    raise KeyError(
                        f"no current distance for target '{limit.target_id}'")
                return distances[limit.target_id] + limit.offset
            return limit

        dof = self.dof
        if any(isinstance(limit, RelativeDistance)
               for limit in (dof.near, dof.far)):
            dof = replace(dof, near=materialize(dof.near),
                          far=materialize(dof.far))
        steps = None
        if self.focal.schedule is not None:
            steps = self.focal.schedule.values_at(
                t0 + np.arange(n_steps + 1) * dt)
        if dof is self.dof and steps is None and self.focal_steps is None:
            return self
        return replace(self, dof=dof, focal_steps=steps)

    def focal_value(self, step: int) -> float:
        if self.focal_steps is not None:
            return self.focal_steps[min(step, len(self.focal_steps) - 1)]
        schedule = self.focal.schedule
        if schedule is None:
            raise ValueError("no desired focal length configured")
        if len(schedule.times) > 1:
            raise ValueError("time-varying focal target: call resolve() first")
        return schedule.values[0]

    def _dof_limit(self, limit, name: str):
        if isinstance(limit, RelativeDistance):
            raise ValueError(
                f"target-relative {name} limit: call resolve() first")
        return limit


@dataclass(eq=False)
class TargetPrediction:
    """Predicted world track of one target over the horizon.

    ``positions`` follow the tracked reference point of the target;
    ``anchors`` are body-frame offsets from that point for each named
    point of interest (the reserved key ``"center"`` locates the physical
    center used for bounding boxes).
    """

    positions: np.ndarray
    rotations: np.ndarray
    anchors: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=float)
        self.rotations = np.asarray(self.rotations, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError("positions must be (n, 3)")
        if self.rotations.shape != (len(self.positions), 3, 3):
            raise ValueError("rotations must be (n, 3, 3)")
        drift = np.swapaxes(self.rotations, 1, 2) @ self.rotations - _EYE3
        if (np.linalg.norm(drift, axis=(1, 2)) > 1e-6).any():
            raise ValueError("prediction rotation is not in SO(3)")
        self.anchors = {name: np.asarray(off, dtype=float)
                        for name, off in self.anchors.items()}
        self.anchors.setdefault("center", np.zeros(3))

    def __len__(self) -> int:
        return len(self.positions)

    def anchor_track(self, name: str, n: int) -> np.ndarray:
        """World positions of anchor ``name`` at the first ``n`` states:
        (n, 3)."""
        return self.positions[:n] + np.einsum(
            "kij,j->ki", self.rotations[:n], self.anchors[name])


@dataclass(frozen=True, eq=False)
class CostBreakdown:
    """Per-step values of the four cost terms over a horizon.

    Where ``pose`` holds the smoothed rotation norm, ``exact_pose`` holds
    the same term with the norm exact, from the same pass."""

    dof: np.ndarray
    image: np.ndarray
    pose: np.ndarray
    focal: np.ndarray
    exact_pose: np.ndarray | None = None

    @property
    def exact(self) -> "CostBreakdown":
        """The breakdown with the rotation norm exact: the cost a plan
        reports."""
        if self.exact_pose is None:
            return self
        return replace(self, pose=self.exact_pose, exact_pose=None)

    @property
    def step_totals(self) -> np.ndarray:
        return self.dof + self.image + self.pose + self.focal

    @property
    def total(self) -> float:
        return float(self.step_totals.sum())


#: A block of R derivative rows of states 1..N, the states an input moves:
#: ``D`` (R, N, 12) by position, velocity, body rotation vector and lens
#: (the rows of :func:`kinematics.linear_sensitivities`), slopes ``s`` and
#: Gauss-Newton weights ``w`` (R, N); see :func:`contract_rows`.
Rows = tuple[np.ndarray, np.ndarray, np.ndarray]
#: A builder of row blocks from a value pass's intermediates.
TermRows = Callable[[], list[Rows]]


def derivative_rows(slope: np.ndarray, weight, position=None, tangent=None,
                    lens=None) -> Rows:
    """A block of rows from their slopes (..., N), weights (broadcast to
    the slopes) and derivatives by position and body rotation vector
    (..., N, 3), and by lens (..., N, 3) or focal length alone (..., N):
    the leading axes become the rows."""
    shape = np.shape(slope)
    rows, n = math.prod(shape[:-1]), shape[-1]
    d = np.zeros(shape + (STATE_SIZE,))
    if position is not None:
        d[..., POSITION] = position
    if tangent is not None:
        d[..., ROTATION] = tangent
    if lens is not None:  # by the lens, or by the focal length alone
        d[..., LENS if np.ndim(lens) > len(shape) else LENS.start] = lens
    return (d.reshape(rows, n, STATE_SIZE), np.reshape(slope, (rows, n)),
            np.full(shape, weight).reshape(rows, n))


@lru_cache(maxsize=16)
def _constant_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The derivatives ``D`` of the rows that no value pass moves, over n
    states, read-only: the three unit body rotation rows of the
    pseudo-Huber rotation term (3, n, 12), and the focal row (1, n, 12),
    as :func:`derivative_rows` lays them out."""
    built = (derivative_rows(np.zeros((3, n)), 0.0,
                             tangent=_EYE3[:, None])[0],
             derivative_rows(np.zeros(n), 0.0, lens=np.ones(n))[0])
    for array in built:
        array.setflags(write=False)
    return built


def contract_rows(blocks: list[Rows], n: int,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The per-state gradients ``D^T s`` (n, 12) and generalized
    Gauss-Newton stage blocks ``D^T diag(w) D`` (n, 12, 12) of the row
    blocks of n states."""
    d, s, w = (np.concatenate(part) for part in zip(
        (np.empty((0, n, STATE_SIZE)), np.empty((0, n)), np.empty((0, n))),
        *blocks))
    # row after row from +0.0, so that a row of zeros changes no bit
    gradient = np.add.reduce(s[:, :, None] * d, axis=0, initial=0.0)
    d = d.transpose(1, 0, 2)  # (n, R, 12)
    return gradient, d.transpose(0, 2, 1) @ (w.T[:, :, None] * d)


def _dof_vec(intr: np.ndarray, spec: CameraSensorSpec, instr: Instructions,
             ) -> tuple[np.ndarray, list[TermRows]]:
    dof = instr.dof
    near_star = instr._dof_limit(dof.near, "near")
    far_star = instr._dof_limit(dof.far, "far")
    near_active = dof.w_near > 0.0 and near_star is not None
    far_active = (dof.w_far > 0.0 and far_star is not None
                  and math.isfinite(far_star))
    cost = np.zeros(len(intr))
    if not near_active and not far_active:
        return cost, []

    f_mm, focus, aperture = intr[:, 0], intr[:, 1], intr[:, 2]
    f_m, a_c, h, denom, h_f = thin_lens(f_mm, focus, aperture, spec)
    if (denom <= 0.0).any():
        raise SingularDofError(
            f"H + F - 2f = {denom.min():.6g} <= 0")

    near, h_focus, far = dof_limits(focus, h, denom, h_f)
    near_err = far_err = None
    if near_active:
        near_err = near - near_star
        cost += dof.w_near * near_err * near_err
    if far_active:
        infinite = focus >= h
        finite = ~infinite
        far_err = far - far_star
        term = dof.w_far * far_err * far_err
        cost += np.where(finite, term, 0.0)
        if infinite.any():
            # sloped surrogate where the far limit went infinite: steers
            # the focus back below the hyperfocal distance
            over = focus - h
            cost += np.where(infinite,
                             dof.w_far * _FAR_BARRIER * (1.0 + over), 0.0)

    def rows(f_m, a_c, focus, aperture, h, h_f, denom, h_focus, near_err,
             far_err) -> list[Rows]:
        # of states 1..N; an error is None where its limit is not weighted
        f_m2, two_f = f_m * f_m, 2.0 * f_m
        dh_df_m = two_f / a_c + 1.0
        dh_da = -f_m2 / (aperture * aperture
                         * mm_to_m(spec.circle_of_confusion))
        blocks = []
        if near_err is not None:
            denom2 = denom * denom
            dn_dh = focus * (focus - f_m) / denom2
            dn_df_direct = focus * (h - focus) / denom2
            dn_dfocus = h_f * (h - two_f) / denom2
            d_near = np.stack([(dn_dh * dh_df_m + dn_df_direct) / 1000.0,
                               dn_dfocus, dn_dh * dh_da], axis=1)
            blocks.append(derivative_rows(2.0 * dof.w_near * near_err,
                                          2.0 * dof.w_near, lens=d_near))
        if far_err is not None:
            finite = focus < h
            df_dh = focus * (f_m - focus) / (h_focus * h_focus)
            df_df_direct = -focus / h_focus
            df_dfocus = h_f * h / (h_focus * h_focus)
            d_far = np.stack([(df_dh * dh_df_m + df_df_direct) / 1000.0,
                              df_dfocus, df_dh * dh_da], axis=1)
            blocks.append(derivative_rows(
                np.where(finite, 2.0 * dof.w_far * far_err, 0.0),
                np.where(finite, 2.0 * dof.w_far, 0.0), lens=d_far))
            if not finite.all():
                # the surrogate is linear in H and the focus: no curvature
                blocks.append(derivative_rows(
                    np.where(finite, 0.0, dof.w_far * _FAR_BARRIER), 0.0,
                    lens=np.stack([-dh_df_m / 1000.0, np.ones(len(h)),
                                   -dh_da], axis=1)))
        return blocks
    terms = (f_m, a_c, focus, aperture, h, h_f, denom, h_focus, near_err,
             far_err)
    return cost, [lambda: rows(*(None if term is None else term[1:]
                                 for term in terms))]


def _image_vec(positions: np.ndarray, cam_rotations: np.ndarray,
               rotations: np.ndarray, f_mm: np.ndarray, point_tracks,
               spec: CameraSensorSpec) -> tuple[np.ndarray, list[TermRows]]:
    targets, points, weight, pixel = point_tracks
    cost = np.zeros(len(positions))
    # leading axis: the weighted composition targets, each added into the
    # totals in turn, as a loop over them would
    rel, q = camera_points(cam_rotations, positions, points)
    qz = q[:, :, 2]
    clamped = qz < BARRIER_DEPTH
    if not clamped.any():
        clamped = None  # then np.where would change no value
    qz_eff = qz if clamped is None else np.where(clamped, BARRIER_DEPTH, qz)
    bxf, u_num, u, v = pixel_coordinates(q, qz_eff, f_mm, spec)
    e_u = u - pixel[:, 0]
    e_v = v - pixel[:, 1]
    w_u, w_v = weight[:, 0], weight[:, 1]
    terms = w_u * e_u * e_u + w_v * e_v * e_v
    shortfall = None
    if clamped is not None:
        shortfall = np.where(clamped, BARRIER_DEPTH - qz, 0.0)
        barrier_terms = BARRIER_GAIN * shortfall * shortfall
    for t in range(len(targets)):
        cost += terms[t]
        if clamped is not None and clamped[t].any():
            cost += barrier_terms[t]

    def rows(rel, q, qz_eff, u_num, e_u, e_v, clamped, shortfall,
             ) -> list[Rows]:
        # of states 1..N; the leading axis of the residuals: u, v and, with
        # any point clamped, the depth shortfall, each over the targets
        states = slice(1, None)
        byf, depth2 = spec.beta_y * f_mm[states], qz_eff * qz_eff
        d_q = np.zeros((2 if clamped is None else 3,) + q.shape)
        weights, errors = np.empty(d_q.shape[:-1]), np.empty(d_q.shape[:-1])
        weights[0], weights[1], errors[0], errors[1] = w_u, w_v, e_u, e_v
        d_q[0, :, :, 0] = bxf[states] / qz_eff
        d_q[0, :, :, 1] = spec.skew / qz_eff
        d_q[0, :, :, 2] = -u_num / depth2
        d_q[1, :, :, 1] = byf / qz_eff
        d_q[1, :, :, 2] = -byf * q[:, :, 1] / depth2
        if clamped is not None:
            # the projection is held at BARRIER_DEPTH: only the barrier
            # moves with the depth
            d_q[:2, :, :, 2] = np.where(clamped, 0.0, d_q[:2, :, :, 2])
            d_q[2, :, :, 2] = -1.0
            weights[2] = np.where(clamped, BARRIER_GAIN, 0.0)
            errors[2] = shortfall
        focal = np.zeros(d_q.shape[:-1])
        focal[0] = spec.beta_x * q[:, :, 0] / qz_eff
        focal[1] = spec.beta_y * q[:, :, 1] / qz_eff
        d_position, d_rotation = camera_point_derivatives(
            cam_rotations[states], rel, d_q)
        return [derivative_rows(
            2.0 * weights * errors, 2.0 * weights, position=d_position,
            tangent=tangent_gradients(rotations[states], d_rotation),
            lens=focal)]
    return cost, [lambda: rows(*(None if term is None else term[:, 1:]
                                 for term in (rel, q, qz_eff, u_num, e_u, e_v,
                                              clamped, shortfall)))]


def camera_point_derivatives(cam_rotations: np.ndarray, rel: np.ndarray,
                             g_q: np.ndarray,
                             ) -> tuple[np.ndarray, np.ndarray]:
    """The chain rule through the camera points ``q = C^T rel`` of
    :func:`optics.camera_points`, ``rel`` the world points less the rig
    position and ``C = R BODY_TO_CAMERA`` the optical axes
    ``cam_rotations`` (n, 3, 3): from gradients ``g_q`` (..., n, 3) by
    ``q``, those by the rig position, ``-C g_q``, and by its body rotation
    matrix ``R``, ``rel (BODY_TO_CAMERA g_q)^T`` (..., n, 3, 3).  The
    signed permutation is applied first: the values of
    ``np.einsum("...i,...j->...ij", rel, g_q) @ BODY_TO_CAMERA.T``, zeros'
    signs aside."""
    return (-np.einsum("kij,...kj->...ki", cam_rotations, g_q),
            rel[..., :, None] * (g_q @ BODY_TO_CAMERA.T)[..., None, :])


def _pose_vec(positions: np.ndarray, rotations: np.ndarray, pose_tracks,
              ) -> tuple[np.ndarray, np.ndarray, list[TermRows]]:
    """The pose term with the smoothed rotation norm, the term with the
    exact norm, and the smoothed term's row builders."""
    n = len(positions)
    exact, smoothed = np.zeros(n), np.zeros(n)
    builds = []
    for pt, target_positions, target_rotations in pose_tracks:
        if pt.w_distance > 0.0 and pt.distance is not None:
            diff = positions - target_positions
            dist = np.linalg.norm(diff, axis=1)
            err = dist - pt.distance
            term = pt.w_distance * err * err
            exact += term
            smoothed += term
            builds.append(partial(_distance_rows, pt.w_distance, diff, dist,
                                  err))
        if pt.w_rotation > 0.0 and pt.rotation is not None:
            residual = np.einsum("kji,kjl->kil", target_rotations,
                                 rotations) - pt.rotation
            norm = np.sqrt(np.einsum("kij,kij->k", residual, residual))
            exact += pt.w_rotation * norm
            root = np.sqrt(norm * norm + ROTATION_NORM_EPS ** 2)
            smoothed += pt.w_rotation * (root - ROTATION_NORM_EPS)
            builds.append(partial(_rotation_rows, pt.w_rotation, rotations,
                                  target_rotations, residual, root))
    return smoothed, exact, builds


def _distance_rows(weight: float, diff: np.ndarray, dist: np.ndarray,
                   err: np.ndarray) -> list[Rows]:
    diff, dist, err = diff[1:], dist[1:], err[1:]  # states 1..N
    d_dist = np.where(dist[:, None] > 1e-12, diff, 0.0) / (
        np.maximum(dist, 1e-12)[:, None])
    return [derivative_rows(2.0 * weight * err, 2.0 * weight,
                            position=d_dist)]


def _rotation_rows(weight: float, rotations: np.ndarray,
                   target_rotations: np.ndarray, residual: np.ndarray,
                   root: np.ndarray) -> list[Rows]:
    rotations, root = rotations[1:], root[1:]  # states 1..N
    # of the smoothed norm, taken to the rotation vector
    c = tangent_gradients(rotations, np.einsum(
        "kij,kjl->kil", target_rotations[1:], residual[1:]))
    # exact pseudo-Huber Hessian in the residual matrix M, w (I / root -
    # M M^T / root^3), pulled back through dM/dd = R_t^T R hat(e_i), whose
    # columns are orthogonal with squared norm 2: w (2 I / root - c c^T /
    # root^3), the row c weighted -w / root^3 and three unit rows 2 w / root
    n = len(root)
    return [derivative_rows(weight / root, -weight / root ** 3, tangent=c),
            (_constant_rows(n)[0], np.zeros((3, n)),
             np.full((3, n), 2.0 * weight / root))]


def _focal_vec(f_mm: np.ndarray, f_star: np.ndarray, weight: float,
               ) -> tuple[np.ndarray, list[TermRows]]:
    if weight == 0.0:
        return np.zeros(len(f_mm)), []
    err = f_mm - f_star
    n = len(err) - 1
    return weight * err * err, [lambda: [(
        _constant_rows(n)[1], (2.0 * weight * err[1:]).reshape(1, n),
        np.full((1, n), 2.0 * weight))]]


def _point_tracks(preds: dict[str, TargetPrediction], instr: Instructions,
                  n: int):
    # weighted composition targets, points (T, n, 3), weights, pixels
    targets, points = [], []
    for ct in instr.composition:
        point = preds[ct.target_id].anchor_track(ct.point_id, n)
        if ct.weight[0] != 0.0 or ct.weight[1] != 0.0:
            targets.append(ct)
            points.append(point)
    return (targets, np.array(points).reshape(len(targets), n, 3),
            *(np.array([getattr(ct, name) for ct in targets],
                       dtype=float).reshape(len(targets), 2, 1)
              for name in ("weight", "pixel")))


def _pose_tracks(preds: dict[str, TargetPrediction], instr: Instructions,
                 n: int):
    return [(pt, preds[pt.target_id].positions[:n],
             preds[pt.target_id].rotations[:n]) for pt in instr.poses]


class HorizonTracks:
    """Per-solve precomputed target data: composition point tracks, pose
    tracks and the per-step desired focal length.  None of it depends on
    the decision variables, so the planner builds it once per instance."""

    __slots__ = ("points", "poses", "f_star")

    def __init__(self, preds: dict[str, TargetPrediction],
                 instr: Instructions, n: int):
        for tid, pred in preds.items():
            if len(pred) < n:
                raise ValueError(f"prediction for '{tid}' has {len(pred)}"
                                 f" steps, rollout {n}")
        self.points = _point_tracks(preds, instr, n)
        self.poses = _pose_tracks(preds, instr, n)
        if instr.focal.weight > 0.0:
            self.f_star = np.array([instr.focal_value(k) for k in range(n)])
        else:
            self.f_star = np.zeros(n)


def evaluate_horizon_stacked(horizon: Horizon, tracks: HorizonTracks,
                             spec: CameraSensorSpec, instr: Instructions,
                             ) -> tuple[CostBreakdown, TermRows]:
    """Evaluate all four terms at every state of a horizon, the rotation
    norm's kink rounded off by :data:`ROTATION_NORM_EPS` as the planner's
    descent asks: the per-step breakdown, whose :attr:`CostBreakdown.exact`
    has the norm exact, and a callable that builds the row blocks
    (:data:`Rows`) of states 1..N of the smoothed cost from the
    projections, depths, errors and lens terms the breakdown computed.
    Points closer than :data:`BARRIER_DEPTH` are projected at that depth
    and penalized smoothly, and an infinite far limit costs a sloped
    surrogate."""
    positions, rotations = horizon.positions, horizon.rotations
    f_mm = horizon.lens[:, 0]
    pose, exact_pose, pose_rows = _pose_vec(positions, rotations,
                                            tracks.poses)
    terms = (_dof_vec(horizon.lens, spec, instr),
             _image_vec(positions, horizon.camera_rotations, rotations,
                        f_mm, tracks.points, spec),
             (pose, pose_rows),
             _focal_vec(f_mm, tracks.f_star, instr.focal.weight))
    breakdown = CostBreakdown(*(cost for cost, _ in terms),
                              exact_pose=exact_pose)
    return breakdown, lambda: [block for _, builds in terms
                               for build in builds for block in build()]


def evaluate_horizon(horizon: Horizon, tracks: HorizonTracks,
                     spec: CameraSensorSpec,
                     instr: Instructions) -> CostBreakdown:
    """The exact cost a plan reports, the rotation norm unsmoothed.  The
    planner takes it from its last value pass instead."""
    return evaluate_horizon_stacked(horizon, tracks, spec, instr)[0].exact


def chain_through_dynamics(gradient: np.ndarray,
                           sens: np.ndarray) -> np.ndarray:
    """Per-state gradients -> gradient per input: ``sum_k g_k^T S_k`` over
    the states 1..N, from their (N, 12) ``gradient`` and their (N, 12, m)
    sensitivities ``sens`` to the m inputs
    (:func:`kinematics.linear_sensitivities` with the rotation rows of
    :func:`kinematics.rotation_sensitivities`)."""
    return gradient.ravel() @ sens.reshape(gradient.size, -1)
