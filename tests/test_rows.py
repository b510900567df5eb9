"""The merit's derivative rows against the accumulator they replaced
(``gradient_oracle``): the per-state gradients and stage blocks of states
1..N that ``objectives.contract_rows`` forms from the cost terms' row
blocks, and from the derivatives by state of the rows the l1 merit
prices."""

from dataclasses import replace

import numpy as np
import pytest

import gradient_oracle as oracle
from cinedrone import constraints as cons
from cinedrone import objectives as obj
from cinedrone import solver as sol
from cinedrone.kinematics import Horizon, rollout
from cinedrone.optics import thin_lens
from test_objectives import SPEC, random_instance
from test_solver import PENALTY_GROUPS, priced_rows, side_by_side_problem

def assert_matches_oracle(got, grads):
    """``got``, the gradients and stage blocks of states 1..N, equals the
    oracle's of those states to 1e-12 relative, state by state in the max
    norm: a sum whose terms cancel may end an ulp of its terms from 0."""
    for a, b in zip(got, (grads.gradient[1:], grads.curvature[1:])):
        assert a.shape == b.shape
        axes = tuple(range(1, b.ndim))
        assert (np.abs(a - b).max(axis=axes, initial=0.0)
                <= 1e-12 * np.abs(b).max(axis=axes, initial=0.0)).all()


def cost_rows(horizon, preds, instr):
    """The planner's cost rows of a horizon, and their oracle."""
    tracks = obj.HorizonTracks(preds, instr, len(horizon))
    rows = obj.evaluate_horizon_stacked(horizon, tracks, SPEC, instr)[1]()
    return rows, oracle.cost_gradients(horizon, tracks, SPEC, instr)


def barrier_instance(rng, n):
    """A composition point that passes within the barrier depth of the
    camera, and behind it, over the horizon."""
    rig, preds, instr, u = random_instance(rng, n)
    horizon = rollout(rig, u, 0.2)
    ahead = horizon.camera_rotations[:, :, 2]
    depths = rng.uniform(-0.3, 0.4, n + 1)
    sideways = rng.uniform(-0.2, 0.2, (n + 1, 3))
    preds["t"] = replace(preds["t"], positions=horizon.positions
                         + depths[:, None] * ahead + sideways)
    return horizon, preds, instr


def infinite_far_instance(rng, n):
    """A short, stopped-down lens focused across its hyperfocal distance
    (about 0.6 m) over the horizon."""
    rig, preds, instr, u = random_instance(rng, n)
    rig = replace(rig, intrinsics=replace(rig.intrinsics, focal_length=20.0,
                                          focus_distance=0.7, aperture=22.0))
    u[:, 6:9] = 0.0
    u[:, 7] = rng.uniform(-0.6, 0.6, n)
    return rollout(rig, u, 0.2), preds, instr


class TestCostRows:
    @pytest.mark.parametrize("case", ["all terms", "barrier",
                                      "infinite far"])
    def test_match_the_accumulator(self, case):
        rng = np.random.default_rng(23)
        seen = {"clamped": 0, "infinite": 0}
        for trial in range(20):
            n = 1 + trial % 6
            if case == "all terms":
                rig, preds, instr, u = random_instance(rng, n)
                horizon = rollout(rig, u, 0.2)
            elif case == "barrier":
                horizon, preds, instr = barrier_instance(rng, n)
            else:
                horizon, preds, instr = infinite_far_instance(rng, n)
            rows, grads = cost_rows(horizon, preds, instr)
            assert_matches_oracle(obj.contract_rows(rows, n), grads)
            tracks = obj.HorizonTracks(preds, instr, n + 1)
            points = tracks.points[1]
            q = np.einsum("kji,tkj->tki", horizon.camera_rotations,
                          points - horizon.positions)
            seen["clamped"] += int((q[:, 1:, 2] < obj.BARRIER_DEPTH).any())
            _, _, h, _, _ = thin_lens(*horizon.lens[1:].T, SPEC)
            seen["infinite"] += int((horizon.lens[1:, 1] >= h).any())
        if case == "barrier":
            assert seen["clamped"] >= 10
        if case == "infinite far":
            assert seen["infinite"] >= 10

    def test_no_row_is_built_for_state_0(self):
        # a horizon whose state 0 is NaN builds the same rows, all finite
        rng = np.random.default_rng(5)
        for trial in range(6):
            n = 2 + trial
            rig, preds, instr, u = random_instance(rng, n)
            horizon = rollout(rig, u, 0.2)
            broken = {}
            for name in ("positions", "velocities", "rotations", "lens"):
                array = getattr(horizon, name).copy()
                array[0] = np.nan
                broken[name] = array
            blank = Horizon(**broken, jacobians=horizon.jacobians)
            for a, b in zip(cost_rows(horizon, preds, instr)[0],
                            cost_rows(blank, preds, instr)[0]):
                for x, y in zip(a, b):
                    assert x.shape[1] == n
                    assert np.isfinite(y).all()
                    assert np.array_equal(x, y)


@pytest.mark.parametrize("group", sorted(PENALTY_GROUPS))
def test_penalty_rows_match_the_accumulator(group):
    # seeded slopes and weights on the group's entries alone
    rng = np.random.default_rng(8)
    rig, preds, sizes, _, cset = side_by_side_problem()
    records = cons.activate_occlusions(rig, preds, sizes, SPEC)
    n = 5
    tracks = cons.ConstraintTracks(preds, sizes, cset, records, n + 1)
    columns = PENALTY_GROUPS[group]
    for trial in range(5):
        horizon = rollout(rig, rng.uniform(-0.3, 0.3, (n, 9)), 0.2)
        slopes, weights = np.zeros((2, n, tracks.width))
        slopes[:, columns] = rng.uniform(-1.5, 1.5, (n, len(columns)))
        weights[:, columns] = rng.uniform(0.5, 1.5, (n, len(columns)))
        d = cons.state_residuals(horizon, 1, tracks, SPEC, margin=0.15,
                                 separation_scale=sol._SEPARATION_SCALE)[1]()
        grads = oracle.HorizonGradients(horizon.rotations)
        oracle.add_state_rows(grads, horizon, 1, tracks, SPEC, slopes,
                              weights, separation_scale=sol._SEPARATION_SCALE)
        blocks = priced_rows(d, slopes, weights, columns)
        assert (blocks == []) == (group == "none")
        assert_matches_oracle(obj.contract_rows(blocks, n), grads)
