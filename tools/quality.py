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

    PYTHONPATH=src python3 tools/quality.py --out quality.json

or compare this tree with a committed result: ``--against`` reads a
report of this tool, or the ``change`` half of a ``QUALITY_<n>.json``, as
the parent, prints each scenario's figures parent -> change, judges them
seed by seed, and writes ``{"parent", "change"}`` to ``--out``:

    python3 tools/quality.py --against QUALITY_22.json --out QUALITY_23.json

Each judged figure is compared on the seeds both reports ran, as paired
better/worse/tied counts with their two-sided sign-test p-value.  A seed
that completed in the parent and not in the change (an error, or a run
the loop ended early) counts as worse on every judged figure of its
scenario:

- ``plan_feasible`` and ``converged`` (higher is better): LOSS when more
  seeds are worse than better at p < 0.1;
- the shot metrics of :data:`SHOT_METRICS`, each in its declared
  direction.  ``min_safety_distance`` is judged by its shortfall below the
  scenario file's declared ``safety_distance`` only, since staying
  farther away is not better.  A paired difference smaller than the
  metric's declared resolution is a tie, so a last-bit change of a run
  that has no noise (``rule_of_thirds``) is no evidence.  The shot-metric
  tests of all scenarios form one family, corrected by Holm's step-down
  method at :data:`HOLM_ALPHA`; LOSS marks a test Holm rejects with more
  seeds worse than better.

With 16 seeds (the default) the smallest sign-test p-value is 2/2^16, so
about twenty tests can pass Holm; 8 seeds could not (2/2^8 = 0.0078).
The exit status is 1 when any LOSS is printed, after ``--out`` is written,
and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cinedrone import objectives as obj  # noqa: E402
from cinedrone import runlog  # noqa: E402
from cinedrone import solver as sol  # noqa: E402
from cinedrone.config import load_scenario  # noqa: E402
from cinedrone.scene import STATE_COLUMNS, run_closed_loop  # noqa: E402

SCENARIOS = ROOT / "src" / "cinedrone" / "scenarios"
#: Shot metrics judged per seed: direction ("lower", "higher", or
#: "shortfall" below the declared safety distance, lower better),
#: resolution (a smaller paired difference is a tie) and the scenarios it
#: is judged on (None: every scenario reporting it).  A name ending in
#: ``*_detected`` stands for every ``final_<target>_detected``.
SHOT_METRICS = {
    "steady_state_pixel_error": ("lower", 1e-3, None),  # px
    "dof_tracking_error": ("lower", 1e-4, None),  # m
    "focal_tracking_error": ("lower", 1e-6, None),  # relative
    "dolly_zoom_ratio_spread": ("lower", 1e-6, {"e3_dolly_zoom"}),
    "min_safety_distance": ("shortfall", 1e-4, None),  # m
    "final_*_detected": ("higher", 0.5, None),  # a 0/1 flag
}
#: Family-wise error rate of the shot-metric tests.
HOLM_ALPHA = 0.1


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


def scenario_quality(config, seeds: int) -> dict:
    """The report entry of one scenario at seeds 0..``seeds``-1."""
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


def sign_test(better: int, worse: int) -> float:
    """Two-sided sign-test p-value of ``better`` against ``worse`` paired
    outcomes (ties dropped): the chance of a split at least this uneven
    when each is equally likely."""
    n, k = better + worse, min(better, worse)
    tail = sum(math.comb(n, i) for i in range(k + 1))
    return min(1.0, 2.0 * tail / 2 ** n)


def holm(pvalues: list[float], alpha: float = HOLM_ALPHA) -> list[bool]:
    """Holm's step-down rejections of a family of tests at family-wise
    error rate ``alpha``: the i-th smallest p-value (from 0) is rejected
    while each p-value up to it is at most alpha / (m - i)."""
    rejected = [False] * len(pvalues)
    order = sorted(range(len(pvalues)), key=pvalues.__getitem__)
    for rank, index in enumerate(order):
        if pvalues[index] > alpha / (len(pvalues) - rank):
            break
        rejected[index] = True
    return rejected


def _shot_spec(scenario: str, metric: str):
    """The :data:`SHOT_METRICS` entry judging ``metric`` on ``scenario``,
    or None."""
    key = "final_*_detected" if metric.startswith("final_") \
        and metric.endswith("_detected") else metric
    spec = SHOT_METRICS.get(key)
    if spec is None or (spec[2] is not None and scenario not in spec[2]):
        return None
    return spec


def _paired(old: dict, new: dict, read,
            ) -> tuple[list[tuple[float, float]], int]:
    """(parent, change) values of ``read(entry)`` on the seeds both
    reports ran, where both are known, and the number of those seeds that
    completed in the parent and not in the change: each counts as
    worse, whatever its figures."""
    seeds = {entry["seed"]: entry for entry in old["per_seed"]}
    pairs, broken = [], 0
    for entry in new["per_seed"]:
        parent = seeds.get(entry["seed"])
        if parent is None:
            continue
        if (parent["status"] == "completed"
                and entry["status"] != "completed"):
            broken += 1
        elif None not in (pair := (read(parent), read(entry))):
            pairs.append(pair)
    return pairs, broken


def _score(entry: dict, metric: str, direction: str,
           safety_distance: float) -> float | None:
    """One seed's ``metric``, oriented so that lower is better; None when
    it is unknown."""
    value = entry.get("summary_metrics", {}).get(metric)
    if value is None or not math.isfinite(value):
        return None
    if direction == "shortfall":
        return max(0.0, safety_distance - value)
    return -value if direction == "higher" else value


def shot_tests(scenario: str, old: dict, new: dict,
               safety_distance: float) -> list[dict]:
    """The per-seed sign test of each judged shot metric of one scenario:
    its better, worse and tied seeds after the resolution, and p."""
    names = set()
    for entry in old["per_seed"] + new["per_seed"]:
        names |= set(entry.get("summary_metrics", {}))
    tests = []
    for metric in sorted(names):
        spec = _shot_spec(scenario, metric)
        if spec is None:
            continue
        direction, resolution, _ = spec
        pairs, broken = _paired(old, new, partial(
            _score, metric=metric, direction=direction,
            safety_distance=safety_distance))
        if not pairs and not broken:
            continue
        better = sum(after < before - resolution for before, after in pairs)
        worse = broken + sum(after > before + resolution
                             for before, after in pairs)
        tests.append({"metric": metric, "direction": direction,
                      "resolution": resolution, "better": better,
                      "worse": worse, "n": len(pairs) + broken,
                      "p": sign_test(better, worse)})
    return tests


def compare(parent: dict, change: dict,
            safety: dict[str, float]) -> tuple[list[str], bool]:
    """Lines of a parent -> change comparison of two reports, and whether
    any of them is a LOSS; ``safety`` maps each scenario to its declared
    safety distance."""
    names = sorted(set(parent) | set(change))
    tests = {name: shot_tests(name, parent[name], change[name],
                              safety.get(name, 0.0))
             for name in names if name in parent and name in change}
    family = [test for name in names for test in tests.get(name, [])]
    for test, rejected in zip(family, holm([t["p"] for t in family])):
        test["loss"] = rejected and test["worse"] > test["better"]
    lines, loss = [], False
    for name in names:
        if name not in tests:
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
            before, after = runlog.strict(before), runlog.strict(after)
            lines.append(f"  {key}: {before:.6g} -> {after:.6g}"
                         if before is not None and after is not None
                         else f"  {key}: {before} -> {after}")
        for key in ("plan_feasible", "converged"):
            pairs, broken = _paired(old, new,
                                    lambda entry, key=key: entry.get(key))
            better = sum(after > before for before, after in pairs)
            worse = broken + sum(after < before for before, after in pairs)
            n = len(pairs) + broken
            p = sign_test(better, worse)
            lost = worse > better and p < 0.1
            loss |= lost
            lines.append(f"  {key} per seed: {better} better, {worse} worse, "
                         f"{n - better - worse} tied of {n}; sign test p = "
                         f"{p:.3g}" + ("  LOSS" if lost else ""))
        for test in tests[name]:
            loss |= test["loss"]
            lines.append(
                f"  {test['metric']} per seed ({test['direction']}, ties"
                f" within {test['resolution']:g}): {test['better']} better,"
                f" {test['worse']} worse,"
                f" {test['n'] - test['better'] - test['worse']} tied of"
                f" {test['n']}; sign test p = {test['p']:.3g}"
                + ("  LOSS" if test["loss"] else ""))
    return lines, loss


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=16,
                        help="run seeds 0..K-1 (default 16)")
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
    configs = {name: load_scenario(SCENARIOS / f"{name}.json")
               for name in names}
    report = {name: scenario_quality(config, args.seeds)
              for name, config in configs.items()}
    loss = False
    if parent is not None:
        parent = {name: parent[name] for name in names if name in parent}
        lines, loss = compare(parent, report, {
            name: config.constraints.safety_distance
            for name, config in configs.items()})
        sys.stdout.write("\n".join(lines) + "\n")
        report = {"about": f"tools/quality.py --seeds {args.seeds} "
                  f"--against {args.against.name}",
                  "parent": parent, "change": report}
    text = json.dumps(runlog.strict(report), indent=1, sort_keys=True,
                      allow_nan=False) + "\n"
    if args.out is not None:
        args.out.write_text(text)
    elif parent is None:
        sys.stdout.write(text)
    return 1 if loss else 0


if __name__ == "__main__":
    sys.exit(main())
