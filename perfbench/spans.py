"""Clock hooks of the benchmark: the per-step clock and the span recorder.

An untraced run installs only :class:`StepClock`, which times a fixed
reference job and reads the clock at each entry into
``cinedrone.solver.solve``.  A traced run installs
:class:`Tracer` instead, which wraps the public functions of every layer,
plus ``scipy.optimize.minimize`` and the merit callable handed to it.  Each
call leaves one span ``[name, start, end, parent, shot]``; spans stay in
memory until :meth:`Tracer.write`.  Both restore every original function
when their ``with`` block ends.

The hooks sit on module attributes where the caller looks them up, so the
functions ``scene`` imported by name are patched on ``scene`` itself.  A
later change that removes or renames one of these functions must re-point
its entry in :data:`TRACED`.
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path

import numpy as np
from scipy.optimize import minimize, rosen, rosen_der

#: (module, attribute, span name) of every traced call.
TRACED = (
    ("cinedrone.config", "scenario_from_dict", "config.scenario_from_dict"),
    ("cinedrone.scene", "run_closed_loop", "scene.run_closed_loop"),
    ("cinedrone.scene", "synthesize_detection", "scene.synthesize_detection"),
    ("cinedrone.scene", "target_pose_at", "scene.target_pose_at"),
    ("cinedrone.scene", "interpolate_commands",
     "kinematics.interpolate_commands"),
    ("cinedrone.estimation", "kf_predict", "estimation.kf_predict"),
    ("cinedrone.estimation", "kf_update", "estimation.kf_update"),
    ("cinedrone.estimation", "measure_world_position",
     "estimation.measure_world_position"),
    ("cinedrone.estimation", "predict_horizon", "estimation.predict_horizon"),
    ("cinedrone.estimation", "orientation_from_velocity",
     "estimation.orientation_from_velocity"),
    ("cinedrone.solver", "solve", "solver.solve"),
    ("cinedrone.kinematics", "rollout", "kinematics.rollout"),
    ("cinedrone.objectives", "evaluate_horizon_stacked",
     "objectives.evaluate_horizon_stacked"),
    ("cinedrone.objectives", "chain_through_dynamics",
     "objectives.chain_through_dynamics"),
    ("cinedrone.objectives", "evaluate_horizon",
     "objectives.evaluate_horizon"),
    ("cinedrone.constraints", "separation_pieces",
     "constraints.separation_pieces"),
    ("cinedrone.constraints", "activate_occlusions",
     "constraints.activate_occlusions"),
    ("cinedrone.constraints", "evaluate_constraints",
     "constraints.evaluate_constraints"),
    ("cinedrone.runlog", "emit_outputs", "runlog.emit_outputs"),
)
MINIMIZE = ("scipy.optimize", "minimize")
#: spans summed into ``estimation.ms_per_step``
ESTIMATION = ("estimation.kf_predict", "estimation.kf_update",
              "estimation.measure_world_position",
              "estimation.predict_horizon",
              "estimation.orientation_from_velocity")


class _Patches:
    """Module attributes replaced by a hook, restored in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, module_name: str, attr: str, make_hook) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make_hook(original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def reference_job() -> None:
    """A fixed job of the benchmark's own: L-BFGS-B on the 24-variable
    Rosenbrock function, the same mix of scipy and small numpy calls as a
    solve, about 3 ms.  A change to cinedrone cannot move its time, which
    tracks only how fast the shared machine runs at the moment."""
    minimize(rosen, np.linspace(-1.2, 1.0, 24), jac=rosen_der,
             method="L-BFGS-B", options={"maxiter": 50})


class StepClock:
    """At each entry into ``solver.solve``, times :func:`reference_job`,
    then reads the clock; nothing else."""

    def __init__(self) -> None:
        #: solve entry times, read after the reference job
        self.marks: list[float] = []
        #: seconds of the reference job at each solve entry
        self.refs: list[float] = []
        self._patches = _Patches()

    def __enter__(self) -> "StepClock":
        marks = self.marks
        refs = self.refs
        clock = time.perf_counter

        def make_hook(solve):
            def hooked(*args, **kwargs):
                start = clock()
                reference_job()
                marks.append(clock())
                refs.append(marks[-1] - start)
                return solve(*args, **kwargs)
            return hooked
        self._patches.set("cinedrone.solver", "solve", make_hook)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()


class Tracer:
    """Span recorder over the functions in :data:`TRACED`.

    ``shot`` is stamped on every span opened while it is set.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.shot = -1
        self._stack: list[int] = []
        self._patches = _Patches()

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    self.shot]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    def __enter__(self) -> "Tracer":
        for module_name, attr, name in TRACED:
            self._patches.set(module_name, attr,
                              lambda fn, name=name: self.wrap(name, fn))

        def make_minimize(minimize):
            traced = self.wrap("solver.minimize", minimize)

            def hooked(fun, *args, **kwargs):
                return traced(self.wrap("solver.merit", fun), *args,
                              **kwargs)
            return hooked
        self._patches.set(*MINIMIZE, make_minimize)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    def write(self, path: Path) -> None:
        """One JSON list per line: name, start and end in seconds from the
        first span, parent index (-1 for none) and shot index."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            for name, start, end, parent, shot in self.spans:
                out.write(json.dumps([name, start - origin, end - origin,
                                      parent, shot]) + "\n")


def self_times(spans: list[list]) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    durations = np.array([end - start for _, start, end, _, _ in spans])
    child = np.zeros(len(spans))
    for (_, _, _, parent, _), duration in zip(spans, durations):
        if parent >= 0:
            child[parent] += duration
    return durations - child


def span_problems(spans: list[list]) -> list[str]:
    """Negative self times, and children reaching outside their parent,
    beyond the clock's resolution."""
    tol = time.get_clock_info("perf_counter").resolution
    problems = []
    for i, value in enumerate(self_times(spans)):
        if value < -tol:
            problems.append(f"span {i} {spans[i][0]}: self time {value}")
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0 and (start < spans[parent][1] - tol
                            or end > spans[parent][2] + tol):
            problems.append(f"span {i} {name} outside its parent {parent}")
    return problems


def layer_metrics(spans: list[list], iterations: float) -> dict[str, float]:
    """Per-layer figures of one traced pass, in ms unless named otherwise.

    An evaluation is one call of ``evaluate_horizon_stacked`` made by the
    solver (the call nested in the report's ``evaluate_horizon`` is not
    one); a step is one ``solver.solve``.  ``iterations`` is the sum of the
    CSV column ``solver_iterations`` over the pass.
    """
    names = [span[0] for span in spans]
    durations = np.array([end - start for _, start, end, _, _ in spans])
    selfs = self_times(spans)
    index: dict[str, list[int]] = {}
    for i, name in enumerate(names):
        index.setdefault(name, []).append(i)

    def of(name: str) -> list[int]:
        return index.get(name, [])

    def total(name: str, values: np.ndarray = durations) -> float:
        return 1e3 * float(np.sum(values[of(name)]))

    solves = of("solver.solve")
    steps = len(solves)
    shots = len(of("scene.run_closed_loop"))
    report = set(of("objectives.evaluate_horizon"))
    evals = len([i for i in of("objectives.evaluate_horizon_stacked")
                 if spans[i][3] not in report])
    merits = len(of("solver.merit"))
    loop_spans = set(of("scene.run_closed_loop"))

    def from_loop(*names: str) -> float:
        """ms of the calls made by the loop body itself, not nested in
        another timed call."""
        return 1e3 * sum(durations[i] for name in names for i in of(name)
                         if spans[i][3] in loop_spans)
    solve_ms = 1e3 * durations[solves]
    return {
        "solver.solve.ms_p50": float(np.median(solve_ms)),
        "solver.solve.ms_p90": float(np.percentile(solve_ms, 90)),
        "solver.solve.self_ms": total("solver.solve", selfs) / steps,
        "solver.evals_per_solve": evals / steps,
        "solver.rounds_per_solve": len(of("solver.minimize")) / steps,
        "solver.iters_per_solve": iterations / steps,
        "solver.useful_eval_ratio": iterations / evals,
        "solver.minimize.self_ms_per_solve":
            total("solver.minimize", selfs) / steps,
        "solver.merit.ms_per_eval": total("solver.merit") / merits,
        "solver.merit.self_ms_per_eval":
            total("solver.merit", selfs) / merits,
        "kinematics.rollout.ms_per_eval": total("kinematics.rollout") / evals,
        "kinematics.interpolate_commands.ms_per_step":
            total("kinematics.interpolate_commands") / steps,
        "objectives.evaluate_horizon_stacked.ms_per_eval":
            total("objectives.evaluate_horizon_stacked") / evals,
        "objectives.chain_through_dynamics.ms_per_eval":
            total("objectives.chain_through_dynamics") / evals,
        "objectives.evaluate_horizon.ms_per_solve":
            total("objectives.evaluate_horizon") / steps,
        "constraints.separation_pieces.ms_per_eval":
            total("constraints.separation_pieces") / evals,
        "constraints.activate_occlusions.ms_per_solve":
            total("constraints.activate_occlusions") / steps,
        "constraints.evaluate_constraints.ms_per_solve":
            total("constraints.evaluate_constraints") / steps,
        "scene.synthesize_detection.ms_per_step":
            total("scene.synthesize_detection") / steps,
        # ground truth and obstacle forecasts; the calls inside
        # synthesize_detection count there
        "scene.target_pose_at.ms_per_step":
            from_loop("scene.target_pose_at") / steps,
        # the steps partition each loop span, so the loop's own self time
        # per step is the step time outside every timed child
        "scene.step.self_ms": total("scene.run_closed_loop", selfs) / steps,
        "estimation.ms_per_step": from_loop(*ESTIMATION) / steps,
        "runlog.emit_outputs.ms_per_shot":
            total("runlog.emit_outputs") / shots,
        "config.scenario_from_dict.ms":
            total("config.scenario_from_dict") / len(
                of("config.scenario_from_dict")),
    }
