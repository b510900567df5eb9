"""Closed-loop benchmark of the cinedrone controller.

    python3 perfbench/run.py --workload regulate --seed 0 --seconds 30 --trace 0

Run from the repository root.  Each shot goes through the public loop the
way ``cinedrone run`` does it: ``config.scenario_from_dict`` ->
``scene.run_closed_loop`` -> ``runlog.emit_outputs`` into a temporary
directory, one shot at a time in this one process.  One operation is one
control step.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
plays the shots once untraced and once traced and prints the per-layer
split.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads
from spans import StepClock, Tracer, layer_metrics
from workloads import ROOT, Shot, Workload

OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 10
#: median time of the reference job on an idle 2-CPU x86 VM; ``setup_s``
#: gives set-up time at this speed of the machine
REF_NOMINAL_S = 3.3e-3
#: executed state (checked against the scenario's state box) and inputs
STATE_COLUMNS = ("drone_px", "drone_py", "drone_pz",
                 "drone_vx", "drone_vy", "drone_vz",
                 "roll", "pitch", "yaw", "focal_mm", "focus_m", "aperture")
INPUT_COLUMNS = ("input_ax", "input_ay", "input_az",
                 "input_wx", "input_wy", "input_wz",
                 "input_vf", "input_vF", "input_vA")
#: units of the printed metrics that BENCHMARK.json does not list; the listed
#: ones take their unit from there
UNLISTED_UNITS = {
    "step_ms_p50": "ms", "step_ms_p90": "ms", "reference_ms": "ms",
    "setup_wall_s": "s",
    "rt_factor": "s/s", "converged_frac": "frac",
    "pixel_error_px": "px", "safety_margin_m": "m", "bound_overshoot": "frac",
    "constraints.separation_pieces.ms_per_eval": "ms",
    "constraints.activate_occlusions.ms_per_solve": "ms",
}


@dataclass
class ShotResult:
    shot: Shot
    period: float
    planned: int  # control steps the shot attempts
    wall: float = 0.0  # seconds inside run_closed_loop
    ref_ms: list[float] = field(default_factory=list)  # per step
    step_ms: list[float] = field(default_factory=list)
    log: object = None  # the RunLog, or None when the loop raised
    csv: bytes = b""
    problems: list[str] = field(default_factory=list)
    figures: dict[str, float] = field(default_factory=dict)

    @property
    def steps(self) -> int:
        return len(self.log.rows) if self.log is not None else len(
            self.step_ms)

    @property
    def failed(self) -> int:
        """Steps lost: all of them when the loop raised or the output check
        failed, the colliding and remaining ones after a collision."""
        if self.log is None or any(not p.startswith("status")
                                   for p in self.problems):
            return self.planned
        if self.log.status != "completed":
            return self.planned - len(self.log.rows) + 1
        return 0


def check_output(log, csv: bytes, planned: int,
                 schemas: dict[str, list[str]]) -> list[str]:
    """The output check of one shot; returns what is wrong with it."""
    problems = []
    if log.status != "completed":
        problems.append(f"status {log.status}")
    lines = csv.decode().splitlines()
    header = lines[0].split(",")
    if header != log.columns:
        problems.append("CSV header differs from the log's columns")
    if header != schemas.setdefault(log.meta.get("name", ""), header):
        problems.append("CSV schema differs between shots of one scenario")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(header) for row in rows):
        problems.append("CSV row width differs from its header")
        return problems
    if log.status == "completed" and len(rows) != planned:
        problems.append(f"{len(rows)} CSV rows for {planned} steps")
    missing = [c for c in STATE_COLUMNS + INPUT_COLUMNS if c not in header]
    if missing:
        problems.append(f"CSV lacks columns {missing}")
        return problems
    idx = [header.index(c) for c in STATE_COLUMNS + INPUT_COLUMNS]
    values = np.array([[float(row[i]) for i in idx] for row in rows])
    if not np.isfinite(values).all():
        problems.append("non-finite state or input values")
    return problems


def run_shot(shot: Shot, out_dir: Path, clock: StepClock | None,
             schemas: dict[str, list[str]]) -> ShotResult:
    """One shot through the public loop, under the step clock unless
    ``clock`` is None (a traced pass)."""
    from cinedrone import config, runlog, scene
    cfg = config.scenario_from_dict(shot.raw)
    period = cfg.control.period
    result = ShotResult(shot=shot, period=period,
                        planned=int(round(cfg.control.duration / period)))
    marks, refs = (clock.marks, clock.refs) if clock else ([], [])
    marks.clear()
    refs.clear()
    start = time.perf_counter()
    try:
        log = scene.run_closed_loop(cfg, shot.seed)
    except Exception as exc:  # a failed shot is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        log = None
        result.problems.append(f"loop raised {exc!r}")
    end = time.perf_counter()
    # step k runs from entry of solve k (of the loop for k = 0) to the next
    # solve entry (the loop's return for the last step); the reference jobs
    # run just before each solve entry mark and are taken out
    # spent[k + 1]: reference seconds up to mark k; spent[-1]: all of them
    spent = np.cumsum([0.0] + refs).tolist()
    result.wall = end - start - spent[-1]
    bounds = ([start] + [m - s for m, s in zip(marks[1:], spent[2:])]
              + [end - spent[-1]])
    result.step_ms = [1e3 * (b - a) for a, b in zip(bounds, bounds[1:])]
    result.ref_ms = [1e3 * r for r in refs]
    if log is None:
        return result
    result.log = log
    csv_path = runlog.emit_outputs(log, out_dir)[0]
    result.csv = csv_path.read_bytes()
    result.problems += check_output(log, result.csv, result.planned,
                                    schemas)
    shot_figures(result, cfg.constraints)
    return result


def shot_figures(result: ShotResult, cset) -> None:
    """Deterministic counts and shot-quality figures of one completed
    loop."""
    from cinedrone import runlog
    log = result.log
    summary = runlog.summary_metrics(log)
    low = np.concatenate([cset.position_low, cset.velocity_low,
                          cset.rpy_low, cset.intr_low])
    high = np.concatenate([cset.position_high, cset.velocity_high,
                           cset.rpy_high, cset.intr_high])
    state = np.column_stack([log.column(c) for c in STATE_COLUMNS])
    overshoot = np.maximum(low - state, state - high) / (high - low)
    result.figures = {
        "converged": float(np.sum(log.column("solver_converged"))),
        "feasible": float(np.sum(log.column("plan_feasible"))),
        "iterations": float(np.sum(log.column("solver_iterations"))),
        "pixel_error_px": summary.get("steady_state_pixel_error",
                                      float("nan")),
        "safety_margin_m": summary.get("min_safety_distance", float("nan"))
        - log.meta["safety_distance"],
        "bound_overshoot": max(0.0, float(np.max(overshoot))),
    }


def run_pass(shots: list[Shot], out_dir: Path, tracer=None
             ) -> list[ShotResult]:
    """Play the shots in order, under the tracer if one is given, else
    under the step clock alone."""
    schemas: dict[str, list[str]] = {}
    results = []
    if tracer is not None:
        with tracer:
            for shot in shots:
                tracer.shot = shot.index
                results.append(run_shot(shot, out_dir, None, schemas))
            tracer.shot = -1
        return results
    with StepClock() as clock:
        for shot in shots:
            results.append(run_shot(shot, out_dir, clock, schemas))
    return results


def rt_factor(results: list[ShotResult]) -> float:
    return (sum(r.wall for r in results)
            / sum(r.steps * r.period for r in results))


def setup_seconds(workload: Workload) -> list[list[float]]:
    """``import cinedrone`` plus parsing the workload's scenarios, each
    time in a fresh interpreter: [set-up, reference job] seconds of each
    probe."""
    probe = Path(__file__).with_name("setup_probe.py")
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(probe), workload.name],
                              capture_output=True, text=True, check=True,
                              timeout=120)
        samples.append([float(x) for x in done.stdout.split()[-2:]])
    return samples


def end_to_end(workload: Workload, results: list[ShotResult],
               setup: list[list[float]]) -> dict[str, float | None]:
    step_ms = [ms for r in results for ms in r.step_ms]
    done = [r for r in results if r.log is not None and r.log.rows]
    # with no completed step there is nothing converged or feasible
    rows = max(1, sum(len(r.log.rows) for r in done))
    # each step over the reference job timed at its solve, so that the
    # speed of the shared machine, which drifts within seconds, cancels
    # out; a median per scenario, as the scenarios' step times form
    # separate clusters and a median across them falls into a gap
    step_ref: dict[str, list[float]] = {}
    for r in results:
        step_ref.setdefault(r.shot.scenario, []).extend(
            ms / ref for ms, ref in zip(r.step_ms, r.ref_ms))
    metrics = {
        "step_ref_p50": statistics.geometric_mean(
            statistics.median(ratios) for ratios in step_ref.values()),
        "step_ms_p50": float(np.median(step_ms)),
        "step_ms_p90": float(np.percentile(step_ms, 90)),
        "reference_ms": float(np.median([ref for r in results
                                         for ref in r.ref_ms])),
        "rt_factor": rt_factor(results),
        # each probe's set-up time at the reference speed, for the same
        # reason as step_ref_p50
        "setup_s": REF_NOMINAL_S * statistics.median(
            wall / ref for wall, ref in setup),
        "setup_wall_s": statistics.median(wall for wall, _ in setup),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "converged_frac": sum(r.figures["converged"] for r in done) / rows,
        "plan_feasible_frac": sum(r.figures["feasible"]
                                  for r in done) / rows,
    }
    over_shots = {"pixel_error_px": statistics.fmean,
                  "safety_margin_m": min, "bound_overshoot": max}
    for name, aggregate in over_shots.items():
        values = [r.figures[name] for r in done]
        metrics[name] = aggregate(values) if name in workload.quality \
            and values else None
    return metrics


def environment() -> dict:
    import scipy
    blas = np.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    commit = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or done.stderr.strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "git_commit": commit,
    }


def shot_row(r: ShotResult) -> dict:
    """Per-shot figures, enough to rebuild the ROADMAP baseline rows."""
    return {"scenario": r.shot.scenario, "seed": r.shot.seed,
            "steps": r.steps, "wall_s": r.wall, "period_s": r.period,
            "problems": r.problems, **r.figures}


def repeat_check(first: ShotResult, again: ShotResult) -> list[str]:
    problems = first.problems + again.problems
    if first.csv != again.csv:
        problems.append("a re-run with the same seed wrote other CSV bytes")
    return problems


def import_checkout() -> bool:
    """Import cinedrone from this checkout's sources; False when they are
    missing or another installed copy would be used instead."""
    src = ROOT / "src"
    if not (src / "cinedrone" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import cinedrone
    # the loop warns on slow solves; keep stderr for failures
    logging.getLogger("cinedrone").addHandler(logging.NullHandler())
    return Path(cinedrone.__file__).resolve().is_relative_to(src)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time of one run; fixes the shot"
                             " count through each workload's nominal"
                             " shot time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    contract = ROOT / "BENCHMARK.json"
    if not contract.is_file() or not import_checkout():
        print("perfbench: BENCHMARK.json or src/cinedrone is missing; run"
              " from the root of a cinedrone checkout", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    env = environment()
    print("env " + json.dumps(env), flush=True)
    shots = workloads.make_shots(
        workload, args.seed, args.seconds / 2 if args.trace else
        args.seconds)
    repeat = workloads.repeat_shot(workload, args.seed)
    setup = [] if args.trace else setup_seconds(workload)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}_seed{args.seed}_trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        out = Path(tmp)
        first = run_pass([repeat], out)[0]
        measured = run_pass(shots, out)
        tracer = Tracer()
        traced = run_pass(shots, out, tracer) if args.trace else []
        again = run_pass([repeat], out)[0]
    results = measured + traced

    problems = [f"shot {r.shot.index} ({r.shot.scenario} seed"
                f" {r.shot.seed}): {p}" for r in results for p in r.problems]
    repeat_problems = repeat_check(first, again)
    problems += [f"repeat shot: {p}" for p in repeat_problems]
    attempted = sum(r.planned for r in results) + again.planned
    failed = sum(r.failed for r in results) + (
        again.planned if repeat_problems else 0)
    if args.trace:
        iterations = sum(r.figures["iterations"] for r in traced
                         if r.log is not None)
        metrics = layer_metrics(tracer.spans, iterations)
        metrics["trace.overhead_frac"] = (rt_factor(traced)
                                          / rt_factor(measured) - 1)
        tracer.write(OUT_DIR / f"{stem}_spans.jsonl")
    else:
        metrics = end_to_end(workload, measured, setup)
    listed = json.loads(contract.read_text())[
        "per_layer" if args.trace else "end_to_end"]
    units = UNLISTED_UNITS | {m["name"]: m["unit"] for m in listed}

    steps = sum(len(r.step_ms) for r in measured)
    print(f"workload {workload.name}, seed {args.seed}: {len(shots)} shots,"
          f" {steps} steps{' per pass' if args.trace else ''};"
          f" {attempted} attempted, {failed} failed")
    for name, value in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g} {units[name]}"
        print(f"  {name:48s} {shown}")
    for problem in problems:
        print(f"  FAIL {problem}")
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "shots": len(shots), "steps": steps, "env": env,
              "setup_s_samples": setup, "problems": problems,
              "shot_rows": [shot_row(r) for r in results],
              "metrics": {n: {"value": v, "unit": units[n]}
                          for n, v in metrics.items()}}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": units[m["name"]]} for m in listed}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
