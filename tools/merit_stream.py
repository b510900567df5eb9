"""Fingerprint one closed-loop run: what the descent saw and what it planned.

Runs one scenario at one seed through ``scene.run_closed_loop`` (with no
``--scenario``, each shipped scenario in turn, one block each) and prints

- the SHA-256 over every value pass's values (the cost, then the
  state rows) that the planner hands to its descent
  (``solver.box_gauss_newton``, called through ``scipy.optimize.minimize``
  once per solve), and the SHA-256 over every gradient (the cost's, then
  the Jacobian of the rows), each stream in call order;
- the SHA-256 over every plan's fields (the input array; each horizon
  state's position, velocity, rotation, lens and time index; cost
  breakdown, residuals, feasibility, solver statistics other than wall
  time, and occlusion records, each hashed as the text
  ``OcclusionRecord(left_id=..., right_id=..., active=np.True_)``, and the
  time index of state ``k`` of the loop's ``s``-th solve (from 0) as ``s +
  k``);
- the number of solves, value passes (calls of the merit handed to the
  descent), gradient and Hessian builds (calls of the two builders each
  value pass returns; the first of them called at a point gathers that
  point's derivative rows, contracts the cost's once with
  ``objectives.contract_rows`` and builds the sensitivities, and the other
  reuses them), and cost evaluations (``objectives.evaluate_horizon_stacked``
  calls: one per value pass, and the plan's reported cost comes from the
  descent's last pass, with no pass of its own);
- the descent's own work: model steps (``solver._model_step`` calls: one
  per trial step, and two more per point whose linearized rows hold no
  step: the elastic step's, and the trial step's again) and cold model
  steps, those of them whose start set is empty (the elastic steps, and a
  solve's first trial step where the last one held no row).

Two checkouts that print the same lines handed the descent the same bits
at every call, so a rewrite claimed to be bit for bit can be checked on
whole runs.  ``--against FILE`` compares the printed lines with a saved
run's, line by line: at the first line that differs (or is missing on
either side) it names the line on stderr and exits 1; it exits 0 where
they all match.  Hashes may differ between CPUs, so compare runs made on
one machine.

    PYTHONPATH=src python3 tools/merit_stream.py --scenario e4_occlusion --seed 0
    PYTHONPATH=src python3 tools/merit_stream.py --seed 0 > saved.txt
    PYTHONPATH=src python3 tools/merit_stream.py --seed 0 --against saved.txt
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import sys
from pathlib import Path

import numpy as np
import scipy.optimize

from cinedrone import objectives as obj
from cinedrone import solver as sol
from cinedrone.config import load_scenario
from cinedrone.scene import run_closed_loop

SCENARIOS = Path(sol.__file__).parent / "scenarios"


def _update(digest, *values) -> None:
    for value in values:
        digest.update(np.ascontiguousarray(value, dtype=float).tobytes())


def _hash_plan(digest, plan: sol.Plan, index: int) -> None:
    """Hash the fields of the loop's ``index``-th plan (from 0)."""
    _update(digest, plan.inputs)
    horizon = plan.horizon
    for k in range(len(horizon)):
        _update(digest, horizon.positions[k], horizon.velocities[k],
                horizon.rotations[k], horizon.lens[k], index + k)
    cost = plan.cost
    _update(digest, cost.dof, cost.image, cost.pose, cost.focal,
            plan.residuals, plan.feasible, plan.stats.iterations,
            plan.stats.converged)
    for record in plan.records:
        digest.update(f"OcclusionRecord(left_id={record.left_id!r}, right_id="
                      f"{record.right_id!r}, active=np.True_)".encode())


def fingerprint(scenario: str, seed: int) -> dict[str, object]:
    """Run ``scenario`` (a shipped name or a JSON path) at ``seed`` and
    return the two hashes and the counts."""
    path = Path(scenario)
    if not path.suffix:
        path = SCENARIOS / f"{scenario}.json"
    config = load_scenario(path)
    values, gradients = hashlib.sha256(), hashlib.sha256()
    plans = hashlib.sha256()
    counts = {"solves": 0, "value passes": 0, "gradient builds": 0,
              "Hessian builds": 0, "evaluations": 0, "model steps": 0,
              "cold model steps": 0}
    minimize, solve = scipy.optimize.minimize, sol.solve
    # the hooks that count a call and pass it on, by module and name
    counted = {(obj, "evaluate_horizon_stacked"): "evaluations",
               (sol, "_model_step"): "model steps"}
    originals = {hook: getattr(*hook) for hook in counted}

    def counter(hook):
        def call(*args, **kwargs):
            counts[counted[hook]] += 1
            return originals[hook](*args, **kwargs)
        return call

    def hashed_minimize(fun, *args, **kwargs):
        def merit(x):
            value, gradient, hessian, point = fun(x)
            counts["value passes"] += 1
            _update(values, value)

            def hashed_gradient():
                result = gradient()
                counts["gradient builds"] += 1
                _update(gradients, result)
                return result

            def counted_hessian():
                counts["Hessian builds"] += 1
                return hessian()
            return value, hashed_gradient, counted_hessian, point
        return minimize(merit, *args, **kwargs)

    def model_step(h, g, normals, levels, start=()):
        counts["cold model steps"] += not len(start)
        return counted_step(h, g, normals, levels, start)

    def hashed_solve(*args, **kwargs):
        plan = solve(*args, **kwargs)
        _hash_plan(plans, plan, counts["solves"])
        counts["solves"] += 1
        return plan

    scipy.optimize.minimize = hashed_minimize
    sol.solve = hashed_solve
    for module, name in counted:
        setattr(module, name, counter((module, name)))
    # the counted model step, wrapped once more to count its cold starts
    counted_step, sol._model_step = sol._model_step, model_step
    try:
        log = run_closed_loop(config, seed)
    finally:
        scipy.optimize.minimize = minimize
        sol.solve = solve
        for (module, name), original in originals.items():
            setattr(module, name, original)
    return {"scenario": config.name, "seed": seed, "status": log.status,
            "value sha256": values.hexdigest(),
            "gradient sha256": gradients.hexdigest(),
            "plan sha256": plans.hexdigest(), **counts}


def _lines(scenarios: list[str], seed: int):
    """The printed lines: one block per scenario, a blank line between."""
    for block, scenario in enumerate(scenarios):
        if block:
            yield ""
        for key, value in fingerprint(scenario, seed).items():
            yield f"{key}: {value}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default=None,
                        help="shipped scenario name or scenario JSON path"
                             " (default: every shipped scenario)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--against", type=Path, default=None,
                        help="a saved run's output: exit 1 at the first"
                             " line that differs from it")
    args = parser.parse_args(argv)
    scenarios = [args.scenario] if args.scenario else sorted(
        path.stem for path in SCENARIOS.glob("*.json"))
    saved = args.against.read_text().splitlines() if args.against else None
    for number, (line, want) in enumerate(itertools.zip_longest(
            _lines(scenarios, args.seed), saved or []), 1):
        if line is not None:
            print(line)
        if saved is not None and line != want:
            print(f"line {number} differs: {line!r}, saved {want!r}",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
