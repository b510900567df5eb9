"""Shot quality of every shipped scenario over a seed ensemble.

Runs each scenario under ``src/cinedrone/scenarios`` at seeds 0..K-1
through ``scene.run_closed_loop`` on the source tree this file sits in, and
writes one JSON object per scenario:

- ``runs``, ``completed`` and ``statuses``: how many runs ended with each
  log status (an exception the loop raised counts as ``error: <type>``);
- ``plan_feasible_mean`` and ``converged_share``: means of the CSV columns
  ``plan_feasible`` and ``solver_converged`` over every logged step;
- ``worst_bound_overshoot``: the largest amount by which an executed state
  left its declared box, as a share of the box's width (0 inside);
- ``summary_metrics``: the mean over the runs of each numeric
  ``runlog.summary_metrics`` entry, and in how many runs it was finite;
- ``evals_per_step_mean``/``evals_per_step_max``: merit evaluations
  (descent calls of ``objectives.evaluate_horizon_stacked``) per solve;
- ``per_seed``: status, feasibility, convergence and mean evaluations of
  each run, for paired comparisons.

No wall-clock figure is read, so two runs on one tree write the same
bytes.  Compare trees by running a copy of this file in each:

    PYTHONPATH=src python3 tools/quality.py --seeds 8 --out quality.json
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cinedrone import objectives as obj  # noqa: E402
from cinedrone import runlog  # noqa: E402
from cinedrone import solver as sol  # noqa: E402
from cinedrone.config import load_scenario  # noqa: E402
from cinedrone.scene import run_closed_loop  # noqa: E402

SCENARIOS = ROOT / "src" / "cinedrone" / "scenarios"
#: executed state columns, in the order of ``ConstraintSet.state_bounds``
STATE_COLUMNS = ("drone_px", "drone_py", "drone_pz",
                 "drone_vx", "drone_vy", "drone_vz",
                 "roll", "pitch", "yaw", "focal_mm", "focus_m", "aperture")


def _run(config, seed: int) -> dict:
    """One seeded run with its merit evaluations counted per solve."""
    evals: list[int] = []
    solve, evaluate = sol.solve, obj.evaluate_horizon_stacked

    def counted_evaluate(*args, **kwargs):
        # the descent evaluates the smoothed merit, the report the exact
        # cost; only the first are merit evaluations
        if kwargs.get("smooth", args[5] if len(args) > 5 else False):
            evals[-1] += 1
        return evaluate(*args, **kwargs)

    def counted_solve(*args, **kwargs):
        evals.append(0)
        return solve(*args, **kwargs)

    sol.solve, obj.evaluate_horizon_stacked = counted_solve, counted_evaluate
    try:
        log = run_closed_loop(config, seed)
        status = log.status
    except Exception as exc:  # a failed run is a status, not a crash
        log, status = None, f"error: {type(exc).__name__}"
    finally:
        sol.solve, obj.evaluate_horizon_stacked = solve, evaluate
    return {"log": log, "status": status, "evals": evals}


def _overshoot(log, cset) -> float:
    low, high = cset.state_bounds
    state = np.column_stack([log.column(c) for c in STATE_COLUMNS])
    return max(0.0, float(np.max((np.maximum(low - state, state - high))
                                 / (high - low))))


def scenario_quality(path: Path, seeds: int) -> dict:
    config = load_scenario(path)
    per_seed, feasible, converged, evals = [], [], [], []
    overshoot = 0.0
    metrics: dict[str, list[float]] = {}
    statuses: dict[str, int] = {}
    for seed in range(seeds):
        run = _run(config, seed)
        log, status = run["log"], run["status"]
        statuses[status] = statuses.get(status, 0) + 1
        evals += run["evals"]
        entry = {"seed": seed, "status": status,
                 "mean_evals": float(np.mean(run["evals"]))
                 if run["evals"] else math.nan}
        if log is not None and log.rows:
            feasible += list(log.column("plan_feasible"))
            converged += list(log.column("solver_converged"))
            overshoot = max(overshoot, _overshoot(log, config.constraints))
            entry["plan_feasible"] = float(
                np.mean(log.column("plan_feasible")))
            entry["converged"] = float(
                np.mean(log.column("solver_converged")))
            for name, value in runlog.summary_metrics(log).items():
                if isinstance(value, float):
                    metrics.setdefault(name, []).append(value)
        per_seed.append(entry)
    return {
        "runs": seeds,
        "completed": statuses.get("completed", 0),
        "statuses": dict(sorted(statuses.items())),
        "plan_feasible_mean": float(np.mean(feasible)) if feasible
        else math.nan,
        "converged_share": float(np.mean(converged)) if converged
        else math.nan,
        "worst_bound_overshoot": overshoot,
        "summary_metrics": {
            name: {"mean": float(np.mean([v for v in values
                                          if math.isfinite(v)]))
                   if any(math.isfinite(v) for v in values) else math.nan,
                   "finite_runs": sum(math.isfinite(v) for v in values)}
            for name, values in sorted(metrics.items())},
        "evals_per_step_mean": float(np.mean(evals)) if evals else math.nan,
        "evals_per_step_max": int(max(evals)) if evals else 0,
        "per_seed": per_seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=8,
                        help="run seeds 0..K-1 (default 8)")
    parser.add_argument("--scenario", action="append",
                        help="shipped scenario name (default: all)")
    parser.add_argument("--out", type=Path,
                        help="write the JSON here instead of stdout")
    args = parser.parse_args(argv)
    logging.disable(logging.WARNING)  # the loop's over-period warnings
    names = args.scenario or sorted(p.stem for p in SCENARIOS.glob("*.json"))
    report = {name: scenario_quality(SCENARIOS / f"{name}.json", args.seeds)
              for name in names}
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
