"""The merit's derivatives accumulated as the planner accumulated them
before it built row blocks: one ``HorizonGradients.add`` call per residual,
and direct writes for the far-limit surrogate and the pseudo-Huber
rotation term, over states 0..N.  It is
the oracle of ``objectives.contract_rows`` over the rows the planner
builds: the terms below are the cost terms' derivative code from before
that change, with their value passes, and ``add_state_rows`` is the
constraint rows' adder."""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from cinedrone import constraints as cons
from cinedrone.kinematics import tangent_gradients
from cinedrone.objectives import (BARRIER_DEPTH, BARRIER_GAIN,
                                  ROTATION_NORM_EPS, _FAR_BARRIER,
                                  camera_point_derivatives)
from cinedrone.optics import (SingularDofError, camera_points, mm_to_m,
                              pixel_coordinates, thin_lens)

_EYE3 = np.eye(3)


class HorizonGradients:
    """Stacked derivatives of the accumulated merit w.r.t. the rig states
    whose body orientations are ``rotations``: per state, the ``gradient``
    (12,) and the (12, 12) generalized Gauss-Newton block ``curvature``,
    both over position, velocity, body rotation vector and lens (the rows
    of :func:`kinematics.linear_sensitivities`)."""

    __slots__ = ("gradient", "curvature", "rotations")

    def __init__(self, rotations: np.ndarray) -> None:
        n = len(rotations)
        self.gradient = np.zeros((n, 12))
        self.curvature = np.zeros((n, 12, 12))
        self.rotations = rotations

    def add(self, slope: np.ndarray, weight: np.ndarray | None = None,
            position=None, rotation=None, intrinsics=None, velocity=None,
            states: slice = slice(None)) -> None:
        """Add ``slope * d`` to the gradient and ``weight * d d^T`` to the
        curvature of ``states`` (none without ``weight``), ``d`` one
        residual's derivative per state given by its pieces: w.r.t. the
        position (n, 3), the rotation matrix (n, 3, 3), taken to the
        rotation vector, the lens (n, 3) or the focal length (n,), and the
        velocity (n, 3)."""
        rows = np.zeros((len(slope), 12))
        if position is not None:
            rows[:, 0:3] = position
        if velocity is not None:
            rows[:, 3:6] = velocity
        if rotation is not None:
            rows[:, 6:9] = tangent_gradients(self.rotations[states], rotation)
        if intrinsics is not None:
            if intrinsics.ndim == 1:
                rows[:, 9] = intrinsics
            else:
                rows[:, 9:12] = intrinsics
        self.gradient[states] += slope[:, None] * rows
        if weight is not None:
            self.curvature[states] += weight[:, None, None] * (
                rows[:, :, None] * rows[:, None, :])


def cost_gradients(horizon, tracks, spec, instr) -> HorizonGradients:
    """The smoothed cost's derivatives of every state of ``horizon``."""
    positions, rotations = horizon.positions, horizon.rotations
    f_mm = horizon.lens[:, 0]
    grads = HorizonGradients(rotations)
    _, _, pose = _pose_vec(positions, rotations, tracks.poses, True)
    for _, add in (_dof_vec(horizon.lens, spec, instr),
                   _image_vec(positions, horizon.camera_rotations, f_mm,
                              tracks.points, spec),
                   (None, pose),
                   _focal_vec(f_mm, tracks.f_star, instr.focal.weight)):
        if add is not None:
            add(grads)
    return grads


def add_state_rows(grads, horizon, start, tracks, spec, slopes, weights,
                   separation_scale=1.0) -> None:
    """Add the derivatives of :func:`constraints.state_residuals`' rows of
    states ``start``..N, times ``slopes`` and ``weights``, into
    ``grads``, skipping each entry whose weights are all zero."""
    n_box = 2 * len(tracks.bounds[0])
    diff = horizon.positions[start:] - tracks.collisions[:, start:]
    dist = np.sqrt(np.add.reduce(diff * diff, axis=2))
    n_coll = n_box + len(dist)
    separations = [cons.separation_pieces(horizon, start, track, spec)[1]
                   for track in tracks.separations]
    rotations = horizon.rotations[start:]
    states = slice(start, None)
    # a box row x - lo has derivative d and hi - x has -d, both the
    # same d d^T
    half = n_box // 2
    box = slopes[:, :half] - slopes[:, half:n_box]
    box_weights = weights[:, :half] + weights[:, half:n_box]
    angles = cons._rpy_derivative(rotations)
    for entry in range(half):
        if box_weights[:, entry].any():
            # the state's own entry, or its angle's rotation derivative
            unit = np.zeros((len(rotations), 12))
            unit[:, entry] = 1.0
            pieces = ({"rotation": angles[entry - 6]} if 6 <= entry < 9
                      else {"position": unit[:, 0:3],
                            "velocity": unit[:, 3:6],
                            "intrinsics": unit[:, 9:12]})
            grads.add(box[:, entry], box_weights[:, entry], **pieces,
                      states=states)
    for column, (d, r) in enumerate(zip(diff, dist), n_box):
        if weights[:, column].any():
            grads.add(slopes[:, column], weights[:, column],
                      position=d / np.maximum(r, 1e-9)[:, None],
                      states=states)
    for column, build in enumerate(separations, n_coll):
        if weights[:, column].any():
            d_pos, d_rot, d_f = build()
            grads.add(slopes[:, column], weights[:, column],
                      position=d_pos / separation_scale,
                      rotation=d_rot / separation_scale,
                      intrinsics=d_f / separation_scale, states=states)


def _dof_vec(intr: np.ndarray, spec: CameraSensorSpec, instr: Instructions,
             ) -> tuple[np.ndarray, object]:
    dof = instr.dof
    near_star = instr._dof_limit(dof.near, "near")
    far_star = instr._dof_limit(dof.far, "far")
    near_active = dof.w_near > 0.0 and near_star is not None
    far_active = (dof.w_far > 0.0 and far_star is not None
                  and math.isfinite(far_star))
    cost = np.zeros(len(intr))
    if not near_active and not far_active:
        return cost, None

    f_mm, focus, aperture = intr[:, 0], intr[:, 1], intr[:, 2]
    f_m, a_c, h, denom, h_f = thin_lens(f_mm, focus, aperture, spec)
    if (denom <= 0.0).any():
        raise SingularDofError(
            f"H + F - 2f = {denom.min():.6g} <= 0")

    if near_active:
        near = focus * h_f / denom
        near_err = near - near_star
        cost += dof.w_near * near_err * near_err
    if far_active:
        infinite = focus >= h
        finite = ~infinite
        h_focus = np.where(finite, h - focus, 1.0)
        far = focus * h_f / h_focus
        far_err = far - far_star
        term = dof.w_far * far_err * far_err
        cost += np.where(finite, term, 0.0)
        if infinite.any():
            # sloped surrogate where the far limit went infinite: steers
            # the focus back below the hyperfocal distance
            over = focus - h
            cost += np.where(infinite,
                             dof.w_far * _FAR_BARRIER * (1.0 + over), 0.0)

    def add_gradients(grads: HorizonGradients) -> None:
        f_m2, two_f = f_m * f_m, 2.0 * f_m
        dh_df_m = two_f / a_c + 1.0
        dh_da = -f_m2 / (aperture * aperture
                         * mm_to_m(spec.circle_of_confusion))
        if near_active:
            denom2 = denom * denom
            dn_dh = focus * (focus - f_m) / denom2
            dn_df_direct = focus * (h - focus) / denom2
            dn_dfocus = h_f * (h - two_f) / denom2
            d_near = np.stack([(dn_dh * dh_df_m + dn_df_direct) / 1000.0,
                               dn_dfocus, dn_dh * dh_da], axis=1)
            grads.add(2.0 * dof.w_near * near_err,
                      np.full(len(intr), 2.0 * dof.w_near), intrinsics=d_near)
        if far_active:
            df_dh = focus * (f_m - focus) / (h_focus * h_focus)
            df_df_direct = -focus / h_focus
            df_dfocus = h_f * h / (h_focus * h_focus)
            d_far = np.stack([(df_dh * dh_df_m + df_df_direct) / 1000.0,
                              df_dfocus, df_dh * dh_da], axis=1)
            grads.add(np.where(finite, 2.0 * dof.w_far * far_err, 0.0),
                      np.where(finite, 2.0 * dof.w_far, 0.0),
                      intrinsics=d_far)
            if infinite.any():
                # the surrogate is linear in H and the focus: no curvature
                bar = dof.w_far * _FAR_BARRIER
                grads.gradient[:, 9:12] += np.where(
                    infinite[:, None], np.stack(
                        [-bar * dh_df_m / 1000.0, np.full(len(intr), bar),
                         -bar * dh_da], axis=1), 0.0)
    return cost, add_gradients


def _image_vec(positions: np.ndarray, cam_rotations: np.ndarray,
               f_mm: np.ndarray, point_tracks, spec: CameraSensorSpec,
               ) -> tuple[np.ndarray, object]:
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
    if clamped is not None:
        shortfall = np.where(clamped, BARRIER_DEPTH - qz, 0.0)
        barrier_terms = BARRIER_GAIN * shortfall * shortfall
    for t in range(len(targets)):
        cost += terms[t]
        if clamped is not None and clamped[t].any():
            cost += barrier_terms[t]

    def add_gradients(grads: HorizonGradients) -> None:
        # derivatives of e_u, e_v and the depth shortfall w.r.t. q, and of
        # e_u, e_v w.r.t. the focal length
        byf = spec.beta_y * f_mm
        d_u, d_v = np.zeros(q.shape), np.zeros(q.shape)
        d_u[:, :, 0] = bxf / qz_eff
        d_u[:, :, 1] = spec.skew / qz_eff
        d_v[:, :, 1] = byf / qz_eff
        d_u[:, :, 2] = -u_num / (qz_eff * qz_eff)
        d_v[:, :, 2] = -byf * q[:, :, 1] / (qz_eff * qz_eff)
        f_u = spec.beta_x * q[:, :, 0] / qz_eff
        f_v = spec.beta_y * q[:, :, 1] / qz_eff
        residuals = [(w_u, e_u, d_u, f_u), (w_v, e_v, d_v, f_v)]
        if clamped is not None:
            # the projection is held at BARRIER_DEPTH: only the barrier
            # moves with the depth
            d_u[:, :, 2] = np.where(clamped, 0.0, d_u[:, :, 2])
            d_v[:, :, 2] = np.where(clamped, 0.0, d_v[:, :, 2])
            d_s = np.zeros(q.shape)
            d_s[:, :, 2] = -1.0
            residuals.append((np.where(clamped, BARRIER_GAIN, 0.0),
                              shortfall, d_s, None))
        for w, e, d_q, d_f in residuals:
            # d/dq -> d/d position, d/d rotation matrix
            d_pos, d_rot = camera_point_derivatives(cam_rotations, rel, d_q)
            slopes = 2.0 * w * e
            weights = 2.0 * np.broadcast_to(w, slopes.shape)
            for t in range(len(targets)):
                grads.add(slopes[t], weights[t], position=d_pos[t],
                          rotation=d_rot[t],
                          intrinsics=None if d_f is None else d_f[t])
    return cost, add_gradients


def _pose_vec(positions: np.ndarray, rotations: np.ndarray,
              pose_tracks, smooth: bool,
              ) -> tuple[np.ndarray, np.ndarray | None,
                         object]:
    """The pose term with the exact rotation norm; with ``smooth``, the
    term with the smoothed norm first, the exact one next and the
    smoothed one's gradients."""
    n = len(positions)
    exact = np.zeros(n)
    smoothed = np.zeros(n) if smooth else None
    # each target's distance, then rotation derivatives, in that order
    adds = []
    for pt, target_positions, target_rotations in pose_tracks:
        if pt.w_distance > 0.0 and pt.distance is not None:
            diff = positions - target_positions
            dist = np.linalg.norm(diff, axis=1)
            err = dist - pt.distance
            term = pt.w_distance * err * err
            exact += term
            if smooth:
                smoothed += term
                adds.append(partial(_add_distance_gradients, pt.w_distance,
                                    diff, dist, err))
        if pt.w_rotation > 0.0 and pt.rotation is not None:
            residual = np.einsum("kji,kjl->kil", target_rotations,
                                 rotations) - pt.rotation
            norm = np.sqrt(np.einsum("kij,kij->k", residual, residual))
            exact += pt.w_rotation * norm
            if smooth:
                root = np.sqrt(norm * norm + ROTATION_NORM_EPS ** 2)
                smoothed += pt.w_rotation * (root - ROTATION_NORM_EPS)
                adds.append(partial(_add_rotation_gradients, pt.w_rotation,
                                    rotations, target_rotations, residual,
                                    root))
    if not smooth:
        return exact, None, None

    def add_gradients(grads: HorizonGradients) -> None:
        for add in adds:
            add(grads)
    return smoothed, exact, add_gradients if adds else None


def _add_distance_gradients(weight: float, diff: np.ndarray,
                            dist: np.ndarray, err: np.ndarray,
                            grads: HorizonGradients) -> None:
    d_dist = np.where(dist[:, None] > 1e-12, diff, 0.0) / (
        np.maximum(dist, 1e-12)[:, None])
    grads.add(2.0 * weight * err, np.full(len(dist), 2.0 * weight),
              position=d_dist)


def _add_rotation_gradients(weight: float, rotations: np.ndarray,
                            target_rotations: np.ndarray,
                            residual: np.ndarray, root: np.ndarray,
                            grads: HorizonGradients) -> None:
    # of the smoothed norm, taken to the rotation vector
    c = tangent_gradients(rotations, np.einsum(
        "kij,kjl->kil", target_rotations, residual))
    grads.gradient[:, 6:9] += (weight / root)[:, None] * c
    # exact pseudo-Huber Hessian in the residual matrix M,
    # w (I / root - M M^T / root^3), pulled back through
    # dM/dd = R_t^T R hat(e_i), whose columns are orthogonal
    # with squared norm 2
    grads.curvature[:, 6:9, 6:9] += weight * (
        2.0 * _EYE3 / root[:, None, None]
        - c[:, :, None] * c[:, None, :] / (root ** 3)[:, None, None])


def _focal_vec(f_mm: np.ndarray, f_star: np.ndarray, weight: float,
               ) -> tuple[np.ndarray, object]:
    if weight == 0.0:
        return np.zeros(len(f_mm)), None
    err = f_mm - f_star

    def add_gradients(grads: HorizonGradients) -> None:
        grads.add(2.0 * weight * err, np.full(len(f_mm), 2.0 * weight),
                  intrinsics=np.ones(len(f_mm)))
    return weight * err * err, add_gradients

