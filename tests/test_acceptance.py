"""Acceptance suite: one test per headline requirement.

Each criterion prints a PASS/FAIL line (run with ``pytest -s`` to see them
all).  Scenario-based criteria share one set of closed-loop runs, executed
in a small process pool because seeded repetitions are independent.
"""

import json
import logging
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.stats

from cinedrone import estimation as est
from cinedrone import objectives as obj
from cinedrone import solver as sol
from cinedrone.config import scenario_from_dict
from cinedrone.constraints import ConstraintSet
from cinedrone.kinematics import (CameraRig, DroneState, rollout,
                                  rotation_from_rpy)
from cinedrone.optics import (CameraSensorSpec, IntrinsicState,
                              depth_of_field, hyperfocal)
from cinedrone.scene import run_closed_loop
from test_objectives import input_gradient, stacked_cost

SCENARIOS = Path(__file__).parent.parent / "src/cinedrone/scenarios"
SPEC = CameraSensorSpec.from_sensor_size(960, 540, 23.76, 13.365, 480, 270)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {number:02d} {name}: {detail}"


#: Seconds of shot the counterfactual dolly zooms run: criterion 06's window
#: opens at 12 s and 07's at 14 s.
DOLLY_CUT = 16.0


def _pool_run(raw: dict, seed: int):
    logging.disable(logging.WARNING)
    return run_closed_loop(scenario_from_dict(raw), seed)


def _load_raw(name: str) -> dict:
    return json.loads((SCENARIOS / f"{name}.json").read_text())


@pytest.fixture(scope="session")
def runs():
    """All closed-loop runs the scenario criteria need, computed once.

    The workers are spawned with one BLAS thread: OpenBLAS reads the
    variable when numpy loads, which a spawned worker does afresh, and its
    threads only spin and contend on problems this small.  Results do not
    depend on the thread count (see the CLI test at 1 and 2 threads)."""
    tasks = {}
    spawn = multiprocessing.get_context("spawn")
    with mock.patch.dict(os.environ, {"OPENBLAS_NUM_THREADS": "1"}), \
            ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
        rot = _load_raw("rule_of_thirds")
        tasks["rot_a"] = pool.submit(_pool_run, rot, 0)
        tasks["rot_b"] = pool.submit(_pool_run, rot, 0)
        tasks["dolly"] = pool.submit(_pool_run, _load_raw("e3_dolly_zoom"),
                                     0)
        # counterfactual dolly zooms, their lens rates pinned at zero
        for key, channels in (("dolly_fixed_focal", [0]),
                              ("dolly_fixed_focus", [1, 2])):
            pinned = _load_raw("e3_dolly_zoom")
            pinned["control"]["duration"] = DOLLY_CUT
            for bound in pinned["constraints"]["lens_rates"]:
                for channel in channels:
                    bound[channel] = 0.0
            tasks[key] = pool.submit(_pool_run, pinned, 0)
        collision = _load_raw("e4_collision")
        for seed in range(10):
            tasks[f"col_{seed}"] = pool.submit(_pool_run, collision, seed)
        collision_off = _load_raw("e4_collision")
        collision_off["constraints"]["safety_distance"] = 0.0
        tasks["col_off"] = pool.submit(_pool_run, collision_off, 0)
        occlusion = _load_raw("e4_occlusion")
        for seed in range(10):
            tasks[f"occ_{seed}"] = pool.submit(_pool_run, occlusion, seed)
        occlusion_off = _load_raw("e4_occlusion")
        occlusion_off["constraints"]["occlusion_enabled"] = False
        tasks["occ_off"] = pool.submit(_pool_run, occlusion_off, 0)
        started = time.perf_counter()
        results = {key: future.result() for key, future in tasks.items()}
        print(f"\n[acceptance] {len(tasks)} closed-loop runs in"
              f" {time.perf_counter() - started:.0f}s")
    return results


def test_criterion_01_hyperfocal_identity():
    rng = np.random.default_rng(1)
    started = time.perf_counter()
    for _ in range(1000):
        intr = IntrinsicState(rng.uniform(15.0, 500.0), 1.0,
                              rng.uniform(1.2, 22.0))
        h = hyperfocal(intr, SPEC)
        dof = depth_of_field(IntrinsicState(intr.focal_length, h,
                                            intr.aperture), SPEC)
        assert abs(dof.near_distance - h / 2.0) <= 1e-9 * (h / 2.0)
        assert dof.far_is_infinite
    elapsed = time.perf_counter() - started
    report(1, "hyperfocal identity", elapsed < 1.0,
           f"1000 random lens states, {elapsed:.2f}s")


def test_criterion_02_worked_values():
    intr = IntrinsicState(35.0, 10.0, 1.2)
    h = hyperfocal(intr, SPEC)
    dof = depth_of_field(intr, SPEC)
    ok = (abs(h - 34.0628) < 1e-3 and abs(dof.near_distance - 7.735) < 1e-3
          and abs(dof.far_distance - 14.141) < 1e-3)
    report(2, "worked optics values", ok,
           f"H={h:.4f} Dn={dof.near_distance:.4f}"
           f" Df={dof.far_distance:.4f}")


def _random_gradient_instance(rng, n=4):
    rig = CameraRig(
        drone=DroneState(position=rng.uniform(-2, 2, 3),
                         velocity=rng.uniform(-1, 1, 3),
                         orientation=rotation_from_rpy(
                             *rng.uniform(-0.2, 0.2, 3))),
        intrinsics=IntrinsicState(rng.uniform(20, 100), rng.uniform(6, 15),
                                  rng.uniform(2, 10)))
    m = n + 1
    preds = {"t": obj.TargetPrediction(
        positions=np.cumsum(rng.uniform(-0.2, 0.2, (m, 3)), axis=0)
        + np.array([12.0, 0.0, 1.0]),
        rotations=np.stack([rotation_from_rpy(*rng.uniform(-0.3, 0.3, 3))
                            for _ in range(m)]),
        anchors={"top": np.array([0.0, 0.0, 0.8])})}
    instr = obj.Instructions(
        dof=obj.DofTarget(near=rng.uniform(5, 9), far=rng.uniform(12, 25),
                          w_near=rng.uniform(0.5, 5),
                          w_far=rng.uniform(0.5, 5)),
        composition=(
            obj.CompositionTarget("t", "top", (400.0, 200.0),
                                  (rng.uniform(0.2, 2),
                                   rng.uniform(0.2, 2))),
            obj.CompositionTarget("t", "center", (500.0, 300.0),
                                  (rng.uniform(0.2, 2),
                                   rng.uniform(0.2, 2)))),
        poses=(obj.PoseTarget("t", distance=rng.uniform(8, 14),
                              w_distance=rng.uniform(0.5, 5),
                              rotation=rotation_from_rpy(
                                  *rng.uniform(-0.4, 0.4, 3)),
                              w_rotation=rng.uniform(0.5, 5)),),
        focal=obj.FocalTarget(obj.FocalSchedule.constant(
            rng.uniform(30, 90)), weight=rng.uniform(0.2, 2)))
    u = rng.uniform(-1, 1, (n, 9))
    u[:, 6] *= 5
    return rig, preds, instr, u


def test_criterion_03_gradient_oracle():
    rng = np.random.default_rng(17)
    dt, h = 0.2, 1e-6
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        rig, preds, instr, u = _random_gradient_instance(rng)
        horizon = rollout(rig, u, dt)
        _, grads = stacked_cost(horizon, preds, SPEC, instr, smooth=True,
                                with_grads=True)
        grad = input_gradient(grads, horizon, dt)

        def total(flat):
            ro = rollout(rig, flat.reshape(-1, 9), dt)
            return stacked_cost(ro, preds, SPEC, instr,
                                smooth=True)[0].total

        flat = u.ravel()
        fd = np.zeros_like(grad)
        for i in range(flat.size):
            up, down = flat.copy(), flat.copy()
            up[i] += h
            down[i] -= h
            fd[i] = (total(up) - total(down)) / (2.0 * h)
        worst = max(worst, np.linalg.norm(grad - fd)
                    / max(np.linalg.norm(fd), 1e-9))
    elapsed = time.perf_counter() - started
    report(3, "analytic gradient vs central differences",
           worst <= 1e-4 and elapsed < 10.0,
           f"worst relative error {worst:.2e} over 100 instances,"
           f" {elapsed:.1f}s")


def test_criterion_04_grid_search_equivalence():
    from test_solver import brute_force_focal, focal_grid_optimum, make_rig

    started = time.perf_counter()
    instr = obj.Instructions(focal=obj.FocalTarget(
        obj.FocalSchedule.constant(50.0), weight=1.0))
    cfg = sol.SolverConfig(horizon=5, dt=0.2)
    plan = sol.solve(make_rig(f=35.0), {}, instr, ConstraintSet.default(),
                     cfg, SPEC)
    max_rate = bool(np.allclose(plan.inputs[:, 6], 7.0, atol=1e-6))
    final = plan.horizon.lens[-1, 0]

    # exhaustive 0.1 mm/s grid, enumerated exactly by value-DP and
    # cross-checked against literal brute force on a coarse grid
    best = focal_grid_optimum(35.0, 50.0, 1.0, 7.0, 0.2, 5, 0.1)
    coarse_dp = focal_grid_optimum(35.0, 50.0, 1.0, 7.0, 0.2, 5, 1.0)
    coarse_brute = brute_force_focal(35.0, 50.0, 1.0, 7.0, 0.2, 5, 1.0)
    elapsed = time.perf_counter() - started
    ok = (max_rate and abs(final - 42.0) < 1e-6
          and plan.cost.total <= 1.01 * best
          and abs(coarse_dp - coarse_brute) < 1e-9 * coarse_brute
          and elapsed < 30.0)
    report(4, "planner vs exhaustive grid search", ok,
           f"cost {plan.cost.total:.4f} vs grid {best:.4f}, final focal"
           f" {final:.2f} mm, {elapsed:.1f}s")


def test_criterion_05_rule_of_thirds_regulation(runs):
    log = runs["rot_a"]
    points = [("actor_head_u", "actor_head_v", 480.0, 180.0),
              ("actor_hips_u", "actor_hips_v", 480.0, 360.0)]
    errors = np.max([np.hypot(log.column(cu) - du, log.column(cv) - dv)
                     for cu, cv, du, dv in points], axis=0)
    cost = log.column("cost_now")
    # strict non-increase up to float-level slack: 0.1% of the initial cost
    upticks = np.diff(cost[3:])
    tolerance = 1e-3 * cost[0]
    ok = (bool(np.all(errors[29:] < 5.0))
          and bool(np.all(upticks <= tolerance))
          and cost[-1] < 0.01 * cost[0])
    report(5, "rule-of-thirds regulation", ok,
           f"pixel error after period 30 <= {errors[29:].max():.2f} px,"
           f" max uptick {upticks.max():.3g} (tol {tolerance:.3g}),"
           f" final cost {cost[-1]:.2e} vs initial {cost[0]:.2e}")


def _dolly_ramp(raw: dict) -> tuple[float, float]:
    ramp = raw["sequences"][-1]["instructions"]["focal"]["ramp"]
    return float(ramp["start"]), float(ramp["end"])


def _dolly_zoom_holds(log) -> tuple[bool, str]:
    """Criterion 06 on one run: over the ramp from its 10th period, the
    distance/focal spread, the worst pixel error and the mean relative
    focal-tracking error."""
    t = log.column("time")
    ramp_start, ramp_end = _dolly_ramp(_load_raw("e3_dolly_zoom"))
    window = (t >= ramp_start + 10 * 0.2) & (t <= ramp_end)
    ratio = (log.column("actor_distance") / log.column("focal_mm"))[window]
    spread = (ratio.max() - ratio.min()) / ratio.mean()
    errors = np.max([
        np.hypot(log.column("actor_head_u") - 480.0,
                 log.column("actor_head_v") - 150.0),
        np.hypot(log.column("actor_hips_u") - 480.0,
                 log.column("actor_hips_v") - 390.0)], axis=0)[window]
    target = log.column("f_target_mm")[window]
    tracking = np.mean(np.abs(log.column("focal_mm")[window] - target)
                       / target)
    ok = spread <= 0.05 and errors.max() < 10.0 and tracking <= 0.05
    return ok, (f"distance/focal spread {spread * 100:.2f}% (<=5%), max"
                f" pixel error {errors.max():.2f} px (<10), mean |f - f*| /"
                f" f* {tracking * 100:.2f}% (<=5%)")


def _near_limit_tracks(log) -> tuple[bool, str]:
    """Criterion 07 on one run: the near limit's worst error over the ramp,
    after a 20-period transient (the requested limit starts moving with
    the ramp)."""
    t = log.column("time")
    ramp_start, ramp_end = _dolly_ramp(_load_raw("e3_dolly_zoom"))
    window = (t >= ramp_start + 20 * 0.2) & (t <= ramp_end)
    error = np.abs(log.column("dn_actual")
                   - log.column("dn_target"))[window]
    return error.max() < 0.5, f"max |Dn - Dn*| = {error.max():.3f} m (<0.5)"


def test_criterion_06_dolly_zoom(runs):
    # a camera that never zooms keeps distance/focal constant as well: it
    # fails the focal tracking, in the first 16 s of its shot
    fixed_ok, fixed_detail = _dolly_zoom_holds(runs["dolly_fixed_focal"])
    ok, detail = _dolly_zoom_holds(runs["dolly"])
    report(6, "dolly zoom holds composition", ok and not fixed_ok,
           f"{detail}; focal rate pinned, first {DOLLY_CUT:.0f} s:"
           f" {fixed_detail}")


def test_criterion_07_dolly_zoom_dof_tracking(runs):
    # with focus and aperture pinned the near limit is lost from the
    # window's first step, in the first 16 s of the shot
    fixed_ok, fixed_detail = _near_limit_tracks(runs["dolly_fixed_focus"])
    ok, detail = _near_limit_tracks(runs["dolly"])
    report(7, "near-limit tracks distance minus 3 m", ok and not fixed_ok,
           f"{detail}; focus and aperture rates pinned, first"
           f" {DOLLY_CUT:.0f} s: {fixed_detail}")


def test_criterion_08_collision_constraint(runs):
    mins = [runs[f"col_{seed}"].column("cactus_distance").min()
            for seed in range(10)]
    off = runs["col_off"]
    ok = min(mins) >= 2.0 - 1e-3 and off.status == "collision"
    report(8, "safety distance enforced", ok,
           f"min distance over 10 runs {min(mins):.4f} m (>=1.999);"
           f" unconstrained run -> {off.status}")


def test_criterion_09_occlusion_constraint(runs):
    good = 0
    for seed in range(10):
        log = runs[f"occ_{seed}"]
        separated = bool(np.all(log.column("sep_cactus_actor") > 0.5))
        visible = log.column("actor_detected")[-1] > 0.5
        good += separated and visible
    off = runs["occ_off"]
    off_fails = off.column("actor_detected")[-1] < 0.5
    ok = good >= 9 and off_fails
    report(9, "occlusion avoidance", ok,
           f"{good}/10 runs kept boxes disjoint and the target visible;"
           f" unconstrained final detection:"
           f" {int(off.column('actor_detected')[-1])}")


def test_criterion_10_estimation_suite():
    # filter consistency: matched constant-velocity model with sigma =
    # 0.04 m measurement noise.  Per-step run-averaged NEES is exactly
    # chi2(6M)/M distributed, but within-run correlation makes exceedances
    # cluster across steps, so the band-coverage check allows the expected
    # sampling excursions while a genuinely inconsistent filter (a few
    # percent covariance mismatch) still fails decisively.
    rng = np.random.default_rng(8)
    n_runs, n_steps, dt, sigma, vel_sigma = 50, 60, 0.2, 0.04, 2.0
    nees = np.zeros((n_runs, n_steps))
    for run in range(n_runs):
        velocity = rng.normal(0.0, vel_sigma, 3)
        position = rng.normal(0.0, 5.0, 3)
        track = est.initialize_track(position + rng.normal(0, sigma, 3),
                                     sigma, velocity_sigma=vel_sigma)
        for step in range(n_steps):
            position = position + dt * velocity
            track = est.kf_predict(track, dt, accel_sigma=0.0)
            track = est.kf_update(track,
                                  position + rng.normal(0, sigma, 3),
                                  sigma)
            error = np.concatenate([track.position - position,
                                    track.velocity - velocity])
            nees[run, step] = error @ np.linalg.solve(track.covariance,
                                                      error)
    band = scipy.stats.chi2.ppf([0.025, 0.975], 6 * n_runs) / n_runs
    per_step = nees.mean(axis=0)[10:]
    inside = np.mean((per_step >= band[0]) & (per_step <= band[1]))
    pooled = nees[:, 10:].mean()
    nees_ok = inside >= 0.8 and band[0] <= pooled <= band[1]

    rot_ok = True
    rng2 = np.random.default_rng(6)
    for _ in range(10_000):
        rot = est.orientation_from_velocity(rng2.normal(0, 3, 3),
                                            np.eye(3))
        if (np.linalg.norm(rot.T @ rot - np.eye(3)) > 1e-9
                or np.linalg.det(rot) <= 0.0):
            rot_ok = False
            break

    patch = 5.0 + np.random.default_rng(7).normal(0, 0.01, (10, 6))
    clean = est.robust_depth(patch)
    corrupted = patch.copy()
    corrupted[:4] = 300.0
    depth_ok = abs(est.robust_depth(corrupted) - clean) < 0.05

    report(10, "estimation suite", nees_ok and rot_ok and depth_ok,
           f"NEES in band for {inside * 100:.0f}% of steps, pooled"
           f" {pooled:.2f} in [{band[0]:.2f}, {band[1]:.2f}];"
           f" 10^4 orientations proper: {rot_ok};"
           f" depth invariant to 40% corruption: {depth_ok}")


def test_criterion_11_determinism(runs, tmp_path):
    paths = []
    for key in ("rot_a", "rot_b"):
        path = tmp_path / f"{key}.csv"
        runs[key].to_csv(path)
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    report(11, "bit-identical seeded reruns", identical,
           f"{len(runs['rot_a'].rows)} rows compared byte-for-byte")
