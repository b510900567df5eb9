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
  (calls of ``objectives.evaluate_horizon_stacked``, one per value pass
  of the descent) per solve;
- ``per_seed``: status, feasibility, convergence, mean evaluations and the
  numeric ``runlog.summary_metrics`` of each run, for paired comparisons.

A figure with no finite value (a mean over no finite run) is written as
``null``, so the report is strict JSON; reports from before this rule hold
the token ``NaN`` there, and ``--against`` still reads them.  No
wall-clock figure is read, so two runs on one tree write the same bytes.
Compare trees by running a copy of this file in each:

    PYTHONPATH=src python3 tools/quality.py --seeds 8 --out quality.json

or compare this tree with a committed result: ``--against`` reads a
report of this tool, or the ``change`` half of a ``QUALITY_<n>.json``, as
the parent, prints each scenario's figures parent -> change with the
per-seed better/worse counts of ``plan_feasible`` and ``converged`` and
their two-sided sign-test p-value, and writes ``{"parent", "change"}`` to
``--out``:

    python3 tools/quality.py --against QUALITY_12.json --out QUALITY_13.json
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
            entry["summary_metrics"] = {
                name: value for name, value in sorted(
                    runlog.summary_metrics(log).items())
                if isinstance(value, float)}
            for name, value in entry["summary_metrics"].items():
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


def strict(value):
    """``value`` with every non-finite float, at any depth, as None: JSON's
    null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: strict(item) for key, item in value.items()}
    if isinstance(value, list):
        return [strict(item) for item in value]
    return value


def sign_test(better: int, worse: int) -> float:
    """Two-sided sign-test p-value of ``better`` against ``worse`` paired
    outcomes (ties dropped): the chance of a split at least this uneven
    when each is equally likely."""
    n, k = better + worse, min(better, worse)
    tail = sum(math.comb(n, i) for i in range(k + 1))
    return min(1.0, 2.0 * tail / 2 ** n)


def compare(parent: dict, change: dict) -> list[str]:
    """Lines of a parent -> change comparison of two reports."""
    lines = []
    for name in sorted(set(parent) | set(change)):
        if name not in parent or name not in change:
            lines.append(f"{name}: only in the "
                         f"{'parent' if name in parent else 'change'}")
            continue
        old, new = parent[name], change[name]
        lines.append(f"{name}:")
        figures = [(key, old[key], new[key]) for key in (
            "completed", "plan_feasible_mean", "converged_share",
            "worst_bound_overshoot", "evals_per_step_mean",
            "evals_per_step_max")]
        figures += [(key, old["summary_metrics"].get(key, {}).get("mean"),
                     new["summary_metrics"].get(key, {}).get("mean"))
                    for key in sorted(set(old["summary_metrics"])
                                      | set(new["summary_metrics"]))]
        for key, before, after in figures:
            lines.append(f"  {key}: {before:.6g} -> {after:.6g}"
                         if before is not None and after is not None
                         else f"  {key}: {before} -> {after}")
        seeds = {entry["seed"]: entry for entry in old["per_seed"]}
        for key in ("plan_feasible", "converged"):
            pairs = [(seeds[entry["seed"]].get(key), entry.get(key))
                     for entry in new["per_seed"] if entry["seed"] in seeds]
            pairs = [pair for pair in pairs if None not in pair]
            better = sum(after > before for before, after in pairs)
            worse = sum(after < before for before, after in pairs)
            p = sign_test(better, worse)
            lines.append(f"  {key} per seed: {better} better, {worse} worse, "
                         f"{len(pairs) - better - worse} tied of "
                         f"{len(pairs)}; sign test p = {p:.3g}"
                         + ("  LOSS" if worse > better and p < 0.1 else ""))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=8,
                        help="run seeds 0..K-1 (default 8)")
    parser.add_argument("--scenario", action="append",
                        help="shipped scenario name (default: all)")
    parser.add_argument("--out", type=Path,
                        help="write the JSON here instead of stdout (with "
                        "--against, stdout gets the comparison only)")
    parser.add_argument("--against", type=Path,
                        help="parent report (or QUALITY_<n>.json, whose "
                        "change half is taken) to compare with")
    args = parser.parse_args(argv)
    parent = None
    if args.against is not None:
        parent = json.loads(args.against.read_text())
        parent = parent.get("change", parent)
    logging.disable(logging.WARNING)  # the loop's over-period warnings
    names = args.scenario or sorted(p.stem for p in SCENARIOS.glob("*.json"))
    report = {name: scenario_quality(SCENARIOS / f"{name}.json", args.seeds)
              for name in names}
    if parent is not None:
        parent = {name: parent[name] for name in names if name in parent}
        sys.stdout.write("\n".join(compare(parent, report)) + "\n")
        report = {"about": f"tools/quality.py --seeds {args.seeds} "
                  f"--against {args.against.name}",
                  "parent": parent, "change": report}
    text = json.dumps(strict(report), indent=1, sort_keys=True,
                      allow_nan=False) + "\n"
    if args.out is not None:
        args.out.write_text(text)
    elif parent is None:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
