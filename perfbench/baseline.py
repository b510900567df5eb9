"""Print the ROADMAP "Baseline" table: one full seed-0 shot per scenario.

    python3 perfbench/baseline.py

Run from the repository root.  Shots go through the same loop, step clock
and output check as ``run.py``; e3_dolly_zoom alone runs for about a
minute.  Exits 1 when a shot fails its output check.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import run
import workloads
from workloads import Shot

SCENARIOS = ("rule_of_thirds", "e1_plane", "e4_collision", "e4_occlusion",
             "e3_dolly_zoom")


def main() -> int:
    if not run.import_checkout():
        print("baseline: src/cinedrone is missing", file=sys.stderr)
        return 2
    import numpy as np

    shots = [Shot(i, name, 0, raw) for i, (name, raw) in enumerate(
        workloads.scenario_dicts(SCENARIOS, False).items())]
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        results = run.run_pass(shots, Path(tmp))
    print("| scenario | steps | wall | ms/step | period | RT factor"
          " | L-BFGS iters mean/max | converged | plan feasible |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for r in results:
        if r.log is None:
            print(f"| {r.shot.scenario} | raised | | | | | | | |")
            continue
        iters = r.log.column("solver_iterations")
        print(f"| {r.shot.scenario} | {r.steps} | {r.wall:.1f} s"
              f" | {1e3 * r.wall / r.steps:.0f}"
              f" | {1e3 * r.period:.0f} ms | {run.rt_factor([r]):.2f}"
              f" | {np.mean(iters):.0f} / {np.max(iters):.0f}"
              f" | {r.figures['converged'] / r.steps:.2f}"
              f" | {r.figures['feasible'] / r.steps:.2f} |")
    problems = [f"{r.shot.scenario}: {p}" for r in results
                for p in r.problems]
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
