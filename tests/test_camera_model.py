"""The one camera model against the expressions it replaced.

The planner's projection, thin-lens terms, Euler extraction and anchor
placement each had their own copy before they shared one; those copies are
kept below as oracles, and the shared code must give their bits, signed
zeros included, on seeded horizons.  (The separation rows' oracle, the
per-box loop, is in ``test_constraints.py``.)  A one-row call of the
stacked kernel must give the bits of the stacked call's row.
"""

import math

import numpy as np
import pytest

from cinedrone import constraints as cons
from cinedrone import kinematics as kin
from cinedrone import objectives as obj
from cinedrone.optics import (CameraSensorSpec, SingularDofError,
                              camera_points, pixel_coordinates)
from gradient_oracle import HorizonGradients
from test_constraints import make_rig
from test_rows import assert_matches_oracle
from test_kinematics import so3_exp

SPECS = (CameraSensorSpec.from_sensor_size(960, 540, 23.76, 13.365, 480,
                                           270),
         CameraSensorSpec(image_width=960, image_height=540, beta_x=40.0,
                          beta_y=41.0, principal_u=470.0, principal_v=265.0,
                          skew=3.5, circle_of_confusion=0.02))


def assert_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def seeded_horizon(rng, n):
    """A rollout of ``n`` seeded input rows from a seeded rig."""
    return kin.rollout(make_rig(p=rng.uniform(-1, 1, 3),
                                rpy=rng.uniform(-0.3, 0.3, 3),
                                f=rng.uniform(20, 120)),
                       rng.uniform(-1.0, 1.0, (n, 9)), 0.2)


def seeded_prediction(rng, m, base):
    return obj.TargetPrediction(
        positions=base + rng.uniform(-1, 1, (m, 3)),
        rotations=np.array([so3_exp(rng.uniform(-0.5, 0.5, 3))
                            for _ in range(m)]),
        anchors={"center": rng.uniform(-0.3, 0.3, 3),
                 "top": rng.uniform(-0.3, 0.3, 3)})


def image_projection_oracle(positions, cam_rotations, f_mm, points, spec):
    """The image term's projection before it shared the kernel."""
    bxf = spec.beta_x * f_mm
    byf = spec.beta_y * f_mm
    rel = points - positions
    q = np.einsum("kji,tkj->tki", cam_rotations, rel)
    qz = q[:, :, 2]
    qz_eff = np.where(qz < obj.BARRIER_DEPTH, obj.BARRIER_DEPTH, qz)
    u_num = bxf * q[:, :, 0] + spec.skew * q[:, :, 1]
    u = u_num / qz_eff + spec.principal_u
    v = byf * q[:, :, 1] / qz_eff + spec.principal_v
    return rel, q, u_num, u, v


def test_image_projection_bit_identical():
    rng = np.random.default_rng(22)
    for trial in range(40):
        spec = SPECS[trial % 2]
        n = 1 + trial % 7
        horizon = seeded_horizon(rng, n - 1)
        # some points behind or beside the camera, so the clamp acts
        points = rng.uniform(-6, 12, (3, n, 3))
        rel, q = camera_points(horizon.camera_rotations, horizon.positions,
                               points)
        qz = q[:, :, 2]
        qz_eff = np.where(qz < obj.BARRIER_DEPTH, obj.BARRIER_DEPTH, qz)
        bxf, u_num, u, v = pixel_coordinates(q, qz_eff, horizon.lens[:, 0],
                                             spec)
        want = image_projection_oracle(horizon.positions,
                                       horizon.camera_rotations,
                                       horizon.lens[:, 0], points, spec)
        for got, expected in zip((rel, q, u_num, u, v), want):
            assert_bits(got, expected)
        assert_bits(bxf, spec.beta_x * horizon.lens[:, 0])
        # the separation rows read no v
        assert pixel_coordinates(q, qz_eff, horizon.lens[:, 0], spec,
                                 vertical=False)[3] is None


def test_one_row_equals_row_of_stacked_call():
    rng = np.random.default_rng(5)
    for trial in range(40):
        spec = SPECS[trial % 2]
        n = 2 + trial % 6
        horizon = seeded_horizon(rng, n - 1)
        points = rng.uniform(-6, 12, (2, n, 3))
        rel, q = camera_points(horizon.camera_rotations, horizon.positions,
                               points)
        depth = np.abs(q[:, :, 2]) + 0.5
        stacked = pixel_coordinates(q, depth, horizon.lens[:, 0], spec)
        angles = kin.euler_angles(horizon.rotations)
        for k in range(n):
            one = camera_points(horizon.camera_rotations[k:k + 1],
                                horizon.positions[k:k + 1],
                                points[:, k:k + 1])
            assert_bits(one[0][:, 0], rel[:, k])
            assert_bits(one[1][:, 0], q[:, k])
            rig = horizon.rig(k)
            # as the detector, the boxes and the log call it
            assert_bits(kin.rig_camera_points(rig, points[:, k]), q[:, k])
            for t in range(2):
                assert_bits(kin.rig_camera_points(rig, points[t, k][None])[0],
                            q[t, k])
                pixel = pixel_coordinates(q[t, k], depth[t, k],
                                          rig.intrinsics.focal_length, spec)
                for got, row in zip(pixel, stacked):
                    assert_bits(got, row[k] if row.ndim == 1 else row[t, k])
            assert_bits(kin.euler_angles(horizon.rotations[k][None])[0],
                        angles[k])


def dof_oracle(intr, spec, instr):
    """``objectives._dof_vec`` before it took its thin-lens terms from
    ``optics.thin_lens``: the cost and the gradient and curvature it adds."""
    dof = instr.dof
    near_star, far_star = dof.near, dof.far
    near_active = dof.w_near > 0.0 and near_star is not None
    far_active = (dof.w_far > 0.0 and far_star is not None
                  and math.isfinite(far_star))
    grads = HorizonGradients(np.tile(np.eye(3), (len(intr), 1, 1)))
    cost = np.zeros(len(intr))
    f_mm, focus, aperture = intr[:, 0], intr[:, 1], intr[:, 2]
    c_m = spec.circle_of_confusion / 1000.0
    f_m = f_mm / 1000.0
    f_m2, two_f, a_c = f_m * f_m, 2.0 * f_m, aperture * c_m
    h = f_m2 / a_c + f_m
    denom = h + focus - two_f
    if (denom <= 0.0).any():
        raise SingularDofError("oracle")
    h_f = h - f_m
    dh_df_m = two_f / a_c + 1.0
    dh_da = -f_m2 / (aperture * aperture * c_m)
    if near_active:
        near = focus * h_f / denom
        near_err = near - near_star
        cost += dof.w_near * near_err * near_err
        denom2 = denom * denom
        dn_dh = focus * (focus - f_m) / denom2
        dn_df_direct = focus * (h - focus) / denom2
        dn_dfocus = h_f * (h - two_f) / denom2
        d_near = np.stack([(dn_dh * dh_df_m + dn_df_direct) / 1000.0,
                           dn_dfocus, dn_dh * dh_da], axis=1)
        grads.add(2.0 * dof.w_near * near_err,
                  np.full(len(intr), 2.0 * dof.w_near), intrinsics=d_near)
    if far_active:
        infinite = focus >= h
        finite = ~infinite
        h_focus = np.where(finite, h - focus, 1.0)
        far = focus * h_f / h_focus
        far_err = far - far_star
        cost += np.where(finite, dof.w_far * far_err * far_err, 0.0)
        if infinite.any():
            cost += np.where(infinite, dof.w_far * obj._FAR_BARRIER
                             * (1.0 + (focus - h)), 0.0)
        df_dh = focus * (f_m - focus) / (h_focus * h_focus)
        df_df_direct = -focus / h_focus
        df_dfocus = h_f * h / (h_focus * h_focus)
        d_far = np.stack([(df_dh * dh_df_m + df_df_direct) / 1000.0,
                          df_dfocus, df_dh * dh_da], axis=1)
        grads.add(np.where(finite, 2.0 * dof.w_far * far_err, 0.0),
                  np.where(finite, 2.0 * dof.w_far, 0.0), intrinsics=d_far)
        if infinite.any():
            bar = dof.w_far * obj._FAR_BARRIER
            grads.gradient[:, 9:12] += np.where(
                infinite[:, None], np.stack(
                    [-bar * dh_df_m / 1000.0, np.full(len(intr), bar),
                     -bar * dh_da], axis=1), 0.0)
    return cost, grads


@pytest.mark.parametrize("terms", ["near", "far", "both"])
def test_dof_term_bit_identical(terms):
    rng = np.random.default_rng(7)
    for trial in range(30):
        spec = SPECS[trial % 2]
        n = 1 + trial % 7
        # focus past the hyperfocal distance on some states: the far
        # limit's surrogate
        lens = np.column_stack([rng.uniform(15, 200, n),
                                rng.uniform(2, 400, n),
                                rng.uniform(1.2, 22, n)])
        instr = obj.Instructions(dof=obj.DofTarget(
            near=rng.uniform(3, 9) if terms != "far" else None,
            far=rng.uniform(12, 40) if terms != "near" else None,
            w_near=rng.uniform(0.5, 5), w_far=rng.uniform(0.5, 5)))
        cost, builds = obj._dof_vec(lens, spec, instr)
        want_cost, want = dof_oracle(lens, spec, instr)
        assert_bits(cost, want_cost)
        # the derivatives are row blocks of states 1..N now, summed in
        # another order
        assert_matches_oracle(obj.contract_rows(
            [block for build in builds for block in build()], n - 1), want)


def test_state_rows_euler_angles_bit_identical():
    rng = np.random.default_rng(11)
    for trial in range(20):
        horizon = seeded_horizon(rng, trial % 8)
        rotations = horizon.rotations
        want = np.empty((len(horizon), 3))
        want[:, 0] = np.arctan2(rotations[:, 2, 1], rotations[:, 2, 2])
        want[:, 1] = -np.arcsin(np.clip(rotations[:, 2, 0], -1.0, 1.0))
        want[:, 2] = np.arctan2(rotations[:, 1, 0], rotations[:, 0, 0])
        assert_bits(kin.euler_angles(rotations), want)
        assert_bits(horizon.state_rows()[:, kin.ROTATION], want)
        for start in range(len(horizon)):
            assert_bits(horizon.state_rows(start)[:, kin.ROTATION],
                        want[start:])


def test_anchor_tracks_bit_identical():
    rng = np.random.default_rng(3)
    cset = cons.ConstraintSet.default()
    for trial in range(20):
        n = 1 + trial % 7
        preds = {tid: seeded_prediction(rng, n + 2, base)
                 for tid, base in (("a", [10.0, 2.0, 1.0]),
                                   ("b", [3.0, -2.0, 1.2]))}

        def placed(tid, name):
            pred = preds[tid]
            return pred.positions[:n] + np.einsum(
                "kij,j->ki", pred.rotations[:n], pred.anchors[name])
        instr = obj.Instructions(composition=(
            obj.CompositionTarget("a", "top", (400.0, 200.0), (1.0, 2.0)),
            obj.CompositionTarget("b", "center", (500.0, 300.0),
                                  (0.5, 0.0))))
        points = obj._point_tracks(preds, instr, n)[1]
        assert_bits(points, np.stack([placed("a", "top"),
                                      placed("b", "center")]))
        record = cons.OcclusionRecord("a", "b")
        centers = cons.ConstraintTracks(preds, {"a": (1.5, 0.4),
                                                "b": (2.0, 0.6)}, cset,
                                        [record], n).separations[0][0]
        assert_bits(centers, np.stack([placed("b", "center"),
                                       placed("a", "center")]))
