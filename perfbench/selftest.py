"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

Run from the repository root; exits 1 and lists the problems when a check
fails.  It checks that:

- two traced passes over the same shots give identical deterministic
  figures (evaluations and iterations per solve, converged and feasible
  fractions);
- after a traced pass every hooked function is the original again, and a
  shot played in this process writes the same CSV bytes as the same shot in
  a fresh interpreter that never loaded the benchmark;
- every span's self time is >= 0 and every child lies inside its parent,
  up to the clock's resolution.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import spans
import workloads
from workloads import ROOT, Shot

#: plays one shot and emits its outputs without importing the benchmark;
#: argv: the directory to write into; stdin: the shot as JSON
PLAIN_SHOT = """
import json, sys
sys.path.insert(0, "src")
from cinedrone import config, runlog, scene
shot = json.load(sys.stdin)
log = scene.run_closed_loop(config.scenario_from_dict(shot["raw"]),
                            shot["seed"])
print(runlog.emit_outputs(log, sys.argv[1])[0])
"""


def small_shots() -> list[Shot]:
    """Four control periods of occlusion and one cold plan per scenario."""
    raw = workloads.scenario_dicts(("e4_occlusion",),
                                   False)["e4_occlusion"]
    raw["control"]["duration"] = 4 * raw["control"]["period"]
    first = workloads.make_shots(workloads.WORKLOADS["first_plan"], 0, 1.25)
    return [Shot(0, "e4_occlusion", 0, raw)] + [
        Shot(i + 1, s.scenario, s.seed, s.raw) for i, s in enumerate(first)]


def deterministic(results, tracer) -> dict[str, float]:
    iterations = sum(r.figures["iterations"] for r in results)
    rows = sum(len(r.log.rows) for r in results)
    layers = spans.layer_metrics(tracer.spans, iterations)
    return {
        "solver.evals_per_solve": layers["solver.evals_per_solve"],
        "solver.iters_per_solve": layers["solver.iters_per_solve"],
        "converged_frac": sum(r.figures["converged"] for r in results) / rows,
        "plan_feasible_frac": sum(r.figures["feasible"]
                                  for r in results) / rows,
    }


def main() -> int:
    if not run.import_checkout():
        print("selftest: src/cinedrone is missing", file=sys.stderr)
        return 2
    hooked = [(m, a) for m, a, _ in spans.TRACED] + [spans.MINIMIZE]
    originals = {(m, a): getattr(importlib.import_module(m), a)
                 for m, a in hooked}
    shots = small_shots()
    problems = []
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        out = Path(tmp)
        figures = []
        for _ in range(2):
            tracer = spans.Tracer()
            results = run.run_pass(shots, out, tracer)
            problems += [p for r in results for p in r.problems]
            problems += spans.span_problems(tracer.spans)
            unseen = ({name for _, _, name in spans.TRACED}
                      | {"solver.minimize", "solver.merit"}) - {
                          span[0] for span in tracer.spans}
            if unseen:
                problems.append(f"no spans recorded for {sorted(unseen)}")
            figures.append(deterministic(results, tracer))
        if figures[0] != figures[1]:
            problems.append(f"traced passes differ: {figures}")

        for (module, attr), original in originals.items():
            if getattr(importlib.import_module(module), attr) is not original:
                problems.append(f"{module}.{attr} is still hooked")
        shot = shots[0]
        here = run.run_pass([shot], out / "here")[0]
        plain = subprocess.run(
            [sys.executable, "-c", PLAIN_SHOT, str(out / "plain")],
            input=json.dumps({"raw": shot.raw, "seed": shot.seed}),
            capture_output=True, text=True, check=True, cwd=ROOT,
            timeout=120)
        if Path(plain.stdout.strip()).read_bytes() != here.csv:
            problems.append("CSV bytes differ from a run without the"
                            " benchmark loaded")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAILED" if problems else "ok",
          json.dumps(figures[0]))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
