"""Scenario schema, sequencer, output emission and the CLI."""

import ast
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cinedrone import cli
from cinedrone.config import (ControlConfig, EstimationConfig, RigInit,
                              ScenarioParseError, ScenarioValidationError,
                              load_scenario, scenario_from_dict)
from cinedrone.runlog import (RunLog, emit_outputs, summarize,
                              summary_metrics)
from cinedrone.scene import SensorModel, run_closed_loop
from cinedrone.solver import SolverConfig

SCENARIOS = Path(__file__).parent.parent / "src/cinedrone/scenarios"
SHIPPED = sorted(SCENARIOS.glob("*.json"))


def minimal_raw():
    return {
        "name": "minimal",
        "camera": {"image_width": 960, "image_height": 540,
                   "sensor_width_mm": 23.76, "sensor_height_mm": 13.365,
                   "principal_u": 480.0, "principal_v": 270.0},
        "control": {"period": 0.2, "substeps": 2, "duration": 0.4},
        "targets": [{"id": "thing", "nature": "object", "height": 1.0,
                     "width": 1.0, "waypoints": [[0.0, 8.0, 0.0, 1.0]]}],
        "sequences": [{"start": 0.0, "instructions": {
            "composition": [{"target": "thing", "point": "center",
                             "pixel": [480.0, 270.0], "weight": 1.0}]}}],
    }


class TestLoading:
    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
    def test_shipped_scenarios_load(self, path):
        config = load_scenario(path)
        assert config.targets and config.sequences

    def test_minimal_scenario(self):
        config = scenario_from_dict(minimal_raw())
        assert config.name == "minimal"
        assert len(config.targets) == 1

    def test_omitted_keys_take_dataclass_defaults(self):
        config = scenario_from_dict(minimal_raw())
        assert config.solver == SolverConfig(dt=0.2)
        assert config.control == ControlConfig(period=0.2, substeps=2,
                                               duration=0.4)
        assert config.sensor == SensorModel()
        assert config.estimation == EstimationConfig()
        assert config.initial_rig == RigInit()

    @pytest.mark.parametrize("path", [
        "contact_radus", "control.perod", "solver.dt",
        "constraints.velocity_typo",
        "sensor.dropuot", "camera.skw", "estimation.acel_sigma",
        "initial_rig.focal", "targets[0].colour",
        "sequences[0].strat", "sequences[0].instructions.focus",
        "sequences[0].instructions.dof.w_nera",
        "sequences[0].instructions.dof.near.ofset",
        "sequences[0].instructions.focal.wieght",
        "sequences[0].instructions.focal.ramp.stop",
        "sequences[0].instructions.focal.schedule.values",
        "sequences[0].instructions.composition[0].pixels",
        "sequences[0].instructions.pose[0].w_distanse"])
    def test_unknown_key_rejected(self, path):
        raw = minimal_raw()
        instructions = raw["sequences"][0]["instructions"]
        instructions.update(
            dof={"near": {"target": "thing", "offset": -1.0}, "w_near": 1.0},
            pose=[{"target": "thing", "distance": 5.0, "w_distance": 1.0}])
        if "ramp" in path:
            instructions["focal"] = {"ramp": {
                "start": 0.0, "end": 1.0, "from_mm": 35.0, "to_mm": 50.0}}
        elif "schedule" in path:
            instructions["focal"] = {"schedule": {"times": [0.0],
                                                  "values_mm": [35.0]}}
        scenario_from_dict(raw)  # loads before the misspelt key goes in
        *parents, key = path.replace("[", ".[").split(".")
        owner = raw
        for part in parents:
            owner = owner[int(part[1:-1])] if part.startswith("[") else \
                owner.setdefault(part, {})
        owner[key] = 1.0
        with pytest.raises(ScenarioValidationError) as info:
            scenario_from_dict(raw)
        assert info.value.errors == [f"{path}: unknown key"]

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ScenarioParseError):
            load_scenario(bad)

    def test_sequence_order_validated(self):
        raw = minimal_raw()
        raw["sequences"].append({"start": -1.0, "instructions": {}})
        with pytest.raises(ScenarioValidationError) as info:
            scenario_from_dict(raw)
        assert "sequences[1].start" in str(info.value)

    def test_unknown_target_id(self):
        raw = minimal_raw()
        raw["sequences"][0]["instructions"]["composition"][0]["target"] = \
            "ghost"
        with pytest.raises(ScenarioValidationError) as info:
            scenario_from_dict(raw)
        assert "ghost" in str(info.value)
        assert "composition[0]" in str(info.value)

    def test_negative_weight_rejected(self):
        raw = minimal_raw()
        raw["sequences"][0]["instructions"]["composition"][0]["weight"] = \
            -1.0
        with pytest.raises(ScenarioValidationError):
            scenario_from_dict(raw)

    def test_unsorted_waypoints_rejected(self):
        raw = minimal_raw()
        raw["targets"][0]["waypoints"] = [[1.0, 0, 0, 0], [0.5, 1, 0, 0]]
        with pytest.raises(ScenarioValidationError) as info:
            scenario_from_dict(raw)
        assert "targets[0]" in str(info.value)

    def test_every_violation_reported(self):
        raw = minimal_raw()
        raw["control"]["period"] = -1.0
        raw["targets"][0]["height"] = -2.0
        with pytest.raises(ScenarioValidationError) as info:
            scenario_from_dict(raw)
        assert len(info.value.errors) >= 2

    def test_control_violations_reported_together(self):
        raw = minimal_raw()
        raw["control"]["period"] = 0
        raw["control"]["substeps"] = 0
        with pytest.raises(ScenarioValidationError) as info:
            scenario_from_dict(raw)
        assert len(info.value.errors) == 1
        assert info.value.errors[0].startswith("control")
        assert "period" in info.value.errors[0]
        assert "substeps" in info.value.errors[0]

    def test_solver_keys_checked_when_control_invalid(self):
        raw = minimal_raw()
        raw["control"]["period"] = 0
        raw["solver"] = {"horizn": 5}
        with pytest.raises(ScenarioValidationError) as info:
            scenario_from_dict(raw)
        assert "solver.horizn: unknown key" in info.value.errors
        assert len(info.value.errors) == 2

    def test_solver_violations_reported_together(self):
        raw = minimal_raw()
        raw["solver"] = {"horizon": 0, "max_iterations": 0,
                         "constraint_margin": -0.5}
        with pytest.raises(ScenarioValidationError) as info:
            scenario_from_dict(raw)
        assert len(info.value.errors) == 1
        assert info.value.errors[0].startswith("solver")
        for name in raw["solver"]:
            assert name in info.value.errors[0]


class TestControlConfig:
    def test_invariants(self):
        with pytest.raises(ValueError, match="period"):
            ControlConfig(period=0.0)
        with pytest.raises(ValueError, match="substeps"):
            ControlConfig(period=0.1, substeps=0)
        with pytest.raises(ValueError, match="duration"):
            ControlConfig(duration=-1.0)
        ControlConfig(period=0.1, substeps=1, duration=0.0)


class TestSequencer:
    def test_before_second_sequence(self):
        raw = minimal_raw()
        raw["sequences"].append({"start": 5.0, "instructions": {
            "focal": {"value_mm": 99.0, "weight": 1.0}}})
        config = scenario_from_dict(raw)
        assert config.active_instructions(4.9).focal.weight == 0.0

    def test_boundary_is_closed_open(self):
        raw = minimal_raw()
        raw["sequences"].append({"start": 5.0, "instructions": {
            "focal": {"value_mm": 99.0, "weight": 1.0}}})
        config = scenario_from_dict(raw)
        assert config.active_instructions(5.0).focal.weight == 1.0

    def test_ramp_midpoint(self):
        config = load_scenario(SCENARIOS / "e3_dolly_zoom.json")
        schedule = config.sequences[-1].instructions.focal.schedule
        midpoint = 0.5 * (schedule.times[0] + schedule.times[-1])
        active = config.active_instructions(midpoint)
        # halfway through the 35 -> 450 mm ramp
        assert active.focal.schedule.value_at(midpoint) == pytest.approx(
            242.5)

    def test_two_knot_schedule_is_the_ramp(self):
        focals = []
        for form in ({"ramp": {"start": 1.0, "end": 3.0, "from_mm": 35.0,
                               "to_mm": 70.0}},
                     {"schedule": {"times": [1.0, 3.0],
                                   "values_mm": [35.0, 70.0]}}):
            raw = minimal_raw()
            raw["sequences"][0]["instructions"]["focal"] = {**form,
                                                            "weight": 1.0}
            focals.append(
                scenario_from_dict(raw).sequences[0].instructions.focal)
        ramp, schedule = focals
        assert schedule.schedule is not None
        assert schedule == ramp

    def test_negative_time_rejected(self):
        config = scenario_from_dict(minimal_raw())
        with pytest.raises(ValueError):
            config.active_instructions(-0.1)


class TestOutputs:
    def test_empty_log_header_only(self, tmp_path):
        log = RunLog(columns=["a", "b"], meta={"name": "x", "seed": 0})
        paths = emit_outputs(log, tmp_path)
        assert paths[0].read_text() == "a,b\n"

    def test_summary_min_distance_consistency(self, tmp_path):
        log = RunLog(columns=["collision_residual_min"],
                     meta={"name": "x", "seed": 0, "safety_distance": 2.0})
        for value in (1.0, 0.25, 0.8):
            log.append({"collision_residual_min": value})
        metrics = summary_metrics(log)
        assert metrics["min_safety_distance"] == pytest.approx(2.25)

    def test_summary_focal_tracking_error(self):
        log = RunLog(columns=["focal_mm", "f_target_mm"],
                     meta={"name": "x", "seed": 0})
        # the first half is left out, and so are rows with no target
        for focal, target in ((10.0, 50.0), (55.0, 50.0), (70.0, np.nan),
                              (90.0, 100.0)):
            log.append({"focal_mm": focal, "f_target_mm": target})
        metrics = summary_metrics(log)
        assert metrics["focal_tracking_error"] == pytest.approx(0.1)

    def test_schema_is_config_function(self):
        config = scenario_from_dict(minimal_raw())
        logs = [run_closed_loop(config, seed) for seed in (0, 1)]
        assert logs[0].columns == logs[1].columns

    def test_identical_runs_aggregate_with_zero_std(self, tmp_path):
        config = scenario_from_dict(minimal_raw())
        for _ in range(2):
            log = run_closed_loop(config, seed=3)
            # distinct filenames per repetition
            log.meta["seed"] = f"3_{_}"
            emit_outputs(log, tmp_path)
        summarize(tmp_path)
        agg = (tmp_path / "minimal_aggregate.csv").read_text().splitlines()
        header = agg[0].split(",")
        std_cols = [i for i, name in enumerate(header)
                    if name.endswith("_std")]
        for line in agg[1:]:
            values = line.split(",")
            # all-nan columns (inactive set-points) aggregate to nan
            assert all(float(values[i]) == 0.0 or np.isnan(float(values[i]))
                       for i in std_cols)

    def test_csv_round_trip(self, tmp_path):
        log = RunLog(columns=["x", "y"], meta={})
        log.append({"x": 1.25, "y": float("inf")})
        log.append({"x": float("nan"), "y": -3.5})
        path = tmp_path / "log.csv"
        log.to_csv(path)
        back = RunLog.read_csv(path)
        assert back.columns == ["x", "y"]
        assert back.rows[0][0] == 1.25 and back.rows[0][1] == float("inf")
        assert np.isnan(back.rows[1][0]) and back.rows[1][1] == -3.5

    def test_summaries_are_strict_json(self, tmp_path):
        # a one-period e1_plane shot has no depth-of-field or focal target:
        # those metrics have no finite value and are written null, in the
        # run's summary and in the aggregate
        def strict_loads(text):
            def refuse(token):
                raise ValueError(f"not strict JSON: {token}")
            return json.loads(text, parse_constant=refuse)
        raw = json.loads((SCENARIOS / "e1_plane.json").read_text())
        raw["control"]["duration"] = raw["control"]["period"]
        log = run_closed_loop(scenario_from_dict(raw), 0)
        summary = strict_loads(emit_outputs(log, tmp_path)[1].read_text())
        assert summary["dof_tracking_error"] is None
        assert summary["focal_tracking_error"] is None
        assert summary["steady_state_pixel_error"] >= 0.0
        combined = strict_loads(summarize(tmp_path).read_text())["e1_plane"]
        assert combined["dof_tracking_error_mean"] is None
        assert combined["runs"] == 1 and combined["steps_mean"] == 1.0

    def test_summarize_names_a_missing_directory(self, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        with pytest.raises(FileNotFoundError, match="nowhere"):
            summarize(missing)
        assert cli.main(["summarize", str(missing)]) == 2
        err = capsys.readouterr().err
        assert str(missing) in err and "summary_aggregate" not in err
        assert not missing.exists()


class TestCli:
    def test_validate_ok(self, capsys):
        assert cli.main(["validate",
                         str(SCENARIOS / "rule_of_thirds.json")]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x"}))
        assert cli.main(["validate", str(bad)]) == 1

    @pytest.mark.parametrize("path, spoil", [
        ("solver", lambda raw: raw.update(solver={"horizon": None})),
        ("control", lambda raw: raw["control"].update(substeps="five")),
        ("sequences[0].instructions.composition[0]",
         lambda raw: raw["sequences"][0]["instructions"]["composition"][
             0].pop("pixel")),
        ("seeds", lambda raw: raw.update(seeds=["a"])),
        ("repetitions", lambda raw: raw.update(repetitions="two")),
        ("sequences[0].start",
         lambda raw: raw["sequences"][0].update(start="x")),
        ("initial_rig", lambda raw: raw.update(initial_rig={"position": 5})),
        ("sequences[0].instructions.focal.ramp",
         lambda raw: raw["sequences"][0]["instructions"].update(focal={
             "ramp": {"start": 0.0, "from_mm": 35.0, "to_mm": 50.0}})),
        ("camera", lambda raw: raw.update(camera=5)),
        ("targets[0]", lambda raw: raw.update(targets=[5])),
        ("targets[0].points", lambda raw: raw["targets"][0].update(
            points=[1])),
        ("solver.outer_rounds",
         lambda raw: raw.update(solver={"outer_rounds": 3})),
        ("solver", lambda raw: raw.update(solver={"max_iterations": -3})),
        ("solver",
         lambda raw: raw.update(solver={"constraint_margin": -0.5})),
        ("solver.convergence_tol",
         lambda raw: raw.update(solver={"convergence_tol": 1e-5})),
    ], ids=["horizon_null", "substeps_text", "pixel_missing", "seed_text",
            "repetitions_text", "start_text", "position_scalar",
            "ramp_end_missing", "camera_number", "target_number",
            "points_list", "outer_rounds_unknown",
            "max_iterations_negative", "constraint_margin_negative",
            "unknown_key"])
    def test_validate_malformed_value(self, tmp_path, capsys, path, spoil):
        raw = minimal_raw()
        spoil(raw)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert cli.main(["validate", str(bad)]) == 1
        assert f"\n  {path}: " in capsys.readouterr().err

    def test_run_and_summarize(self, tmp_path, capsys):
        scenario = tmp_path / "mini.json"
        scenario.write_text(json.dumps(minimal_raw()))
        out_dir = tmp_path / "out"
        assert cli.main(["run", str(scenario), "--seed", "5",
                         "--out", str(out_dir)]) == 0
        csvs = list(out_dir.glob("*.csv"))
        assert len(csvs) == 1 and "seed5" in csvs[0].name
        assert cli.main(["summarize", str(out_dir)]) == 0
        assert (out_dir / "summary_aggregate.json").exists()

    @pytest.mark.parametrize("reps", ["0", "-8"])
    def test_run_rejects_reps_below_one(self, tmp_path, capsys, reps):
        # bad input: exit 2 before any run, and no output directory
        scenario = tmp_path / "mini.json"
        scenario.write_text(json.dumps(minimal_raw()))
        out_dir = tmp_path / "out"
        assert cli.main(["run", str(scenario), "--reps", reps,
                         "--out", str(out_dir)]) == 2
        assert "--reps must be >= 1" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_run_rejects_negative_seed(self, tmp_path, capsys):
        # a seed NumPy cannot take: a one-line message and exit 2 before
        # any run, not a traceback from the loop's generator
        scenario = tmp_path / "mini.json"
        scenario.write_text(json.dumps(minimal_raw()))
        out_dir = tmp_path / "out"
        assert cli.main(["run", str(scenario), "--seed", "-1",
                         "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err == "--seed must be >= 0, got -1\n"
        assert not out_dir.exists()

    def test_csv_independent_of_blas_threads(self, tmp_path):
        # OpenBLAS reads its thread count when numpy loads, so each count
        # needs its own interpreter
        src = str(Path(cli.__file__).parent.parent)
        runs = {}
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")])}
            out_dir = tmp_path / threads
            runs[threads] = (out_dir, subprocess.Popen(
                [sys.executable, "-m", "cinedrone.cli", "run",
                 str(SCENARIOS / "rule_of_thirds.json"), "--seed", "0",
                 "--out", str(out_dir)], env=env, stdout=subprocess.DEVNULL))
        csvs = {}
        for threads, (out_dir, process) in runs.items():
            assert process.wait(timeout=600) == 0
            csvs[threads] = [path.read_bytes()
                             for path in sorted(out_dir.glob("*.csv"))]
        assert csvs["1"] and csvs["1"] == csvs["2"]

    def test_one_period_csv_independent_of_blas_threads(self, tmp_path):
        # the cold first solve, the longest, factors its model Hessians
        # with LAPACK
        raw = json.loads((SCENARIOS / "rule_of_thirds.json").read_text())
        raw["control"]["duration"] = raw["control"]["period"]
        scenario = tmp_path / "one_period.json"
        scenario.write_text(json.dumps(raw))
        src = str(Path(cli.__file__).parent.parent)
        csvs = {}
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")])}
            out_dir = tmp_path / threads
            subprocess.run([sys.executable, "-m", "cinedrone.cli", "run",
                            str(scenario), "--seed", "0", "--out",
                            str(out_dir)], env=env, check=True,
                           stdout=subprocess.DEVNULL, timeout=600)
            csvs[threads] = [path.read_bytes()
                             for path in sorted(out_dir.glob("*.csv"))]
        assert len(csvs["1"]) == 1 and csvs["1"] == csvs["2"]


class TestQualityReport:
    def test_report_is_strict_json(self, tmp_path, monkeypatch, capsys):
        import importlib.util
        spec = importlib.util.spec_from_file_location(
            "quality", Path(__file__).parent.parent / "tools" / "quality.py")
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)

        def strict_loads(text):
            def reject(token):
                raise ValueError(f"non-standard JSON token {token}")
            return json.loads(text, parse_constant=reject)
        # e1_plane's dof and focal tracking errors have no finite value
        out = tmp_path / "report.json"
        assert tool.main(["--scenario", "e1_plane", "--seeds", "1",
                          "--out", str(out)]) == 0
        report = strict_loads(out.read_text())["e1_plane"]
        metrics = report["summary_metrics"]
        assert metrics["dof_tracking_error"] == {"mean": None,
                                                 "finite_runs": 0}
        assert report["per_seed"][0]["summary_metrics"][
            "dof_tracking_error"] is None
        # an older report, with NaN tokens, still reads as the parent, and
        # both halves are written strict
        metrics["dof_tracking_error"]["mean"] = math.nan
        report["evals_per_step_mean"] = math.inf
        older = tmp_path / "older.json"
        older.write_text(json.dumps({"e1_plane": report}))
        assert "NaN" in older.read_text()
        monkeypatch.setattr(tool, "scenario_quality",
                            lambda path, seeds: report)
        both = tmp_path / "both.json"
        assert tool.main(["--scenario", "e1_plane", "--seeds", "1",
                          "--against", str(older), "--out", str(both)]) == 0
        # a figure missing on both sides prints alike on both
        assert "dof_tracking_error: None -> None" in capsys.readouterr().out
        written = strict_loads(both.read_text())
        for half in (written["parent"], written["change"]):
            assert half["e1_plane"]["evals_per_step_mean"] is None
            assert half["e1_plane"]["summary_metrics"][
                "dof_tracking_error"]["mean"] is None


class TestConstantCaches:
    def test_memoized_arrays_are_read_only(self):
        import pkgutil

        import cinedrone
        from cinedrone import estimation, kinematics, objectives, solver
        from cinedrone.constraints import ConstraintSet
        bounds = ConstraintSet.default()
        # the package's memoized builders, each with a key it is built for
        builders = {
            kinematics.linear_sensitivities: (5, 0.2),
            estimation._constant_velocity_model: (0.3, 0.5),
            solver._planner_constants: (5, 0.2, *(
                edge.tobytes() for edge in bounds.input_bounds)),
            objectives._constant_rows: (5,),
        }
        modules = pkgutil.iter_modules(cinedrone.__path__, "cinedrone.")
        memoized = {value for module in modules
                    for value in vars(importlib.import_module(
                        module.name)).values()
                    if hasattr(value, "cache_info")}
        assert memoized == set(builders)
        for builder, key in builders.items():
            built = builder(*key)
            assert builder(*key) is built
            for array in built if isinstance(built, tuple) else (built,):
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0.0

    def test_runs_in_one_process_share_no_state(self, tmp_path):
        # rule_of_thirds, a shot at another period, then rule_of_thirds
        # again: the second shot's constants must not leak into the third
        dolly = json.loads((SCENARIOS / "e3_dolly_zoom.json").read_text())
        dolly["control"]["duration"] = 10 * dolly["control"]["period"]
        thirds = load_scenario(SCENARIOS / "rule_of_thirds.json")
        assert dolly["control"]["period"] != thirds.control.period
        csvs = []
        for config in (thirds, scenario_from_dict(dolly), thirds):
            out_dir = tmp_path / str(len(csvs))
            paths = emit_outputs(run_closed_loop(config, 0), out_dir)
            csvs.append([path.read_bytes() for path in paths
                         if path.suffix == ".csv"])
        assert csvs[0] and csvs[0] == csvs[2]


class TestRootApi:
    def test_one_period_shot_through_the_root(self, tmp_path):
        import cinedrone
        assert all(hasattr(cinedrone, name) for name in cinedrone.__all__)
        raw = minimal_raw()
        raw["control"]["duration"] = raw["control"]["period"]
        scenario = tmp_path / "one_period.json"
        scenario.write_text(json.dumps(raw))
        config = cinedrone.load_scenario(scenario)
        log = cinedrone.run_closed_loop(config, 0)
        assert log.status == "completed" and len(log.rows) == 1
        csv_path, summary_path = cinedrone.emit_outputs(log, tmp_path)
        assert csv_path.read_text().count("\n") == 2  # header + one step
        assert json.loads(summary_path.read_text())["name"] == "minimal"


class TestBenchmarkHooks:
    def test_traced_attributes_resolve(self):
        # the benchmark's traced run patches these module attributes; one
        # renamed away would break that run alone
        spans = Path(__file__).parent.parent / "perfbench" / "spans.py"
        tables = {node.targets[0].id: ast.literal_eval(node.value)
                  for node in ast.parse(spans.read_text()).body
                  if isinstance(node, ast.Assign)
                  and isinstance(node.targets[0], ast.Name)
                  and node.targets[0].id in ("TRACED", "MINIMIZE",
                                             "ESTIMATION")}
        traced = tables["TRACED"]
        assert traced
        for module, attr in [entry[:2] for entry in traced] + [
                tables["MINIMIZE"]]:
            assert callable(getattr(importlib.import_module(module), attr,
                                    None)), f"{module}.{attr}"
        # the per-step estimation metric sums spans the table records
        assert set(tables["ESTIMATION"]) <= {name for *_, name in traced}


class TestMeritStream:
    def test_fingerprint_repeats_and_restores_hooks(self, tmp_path):
        import importlib.util

        import scipy.linalg.lapack
        import scipy.optimize

        from cinedrone import objectives, solver
        spec = importlib.util.spec_from_file_location(
            "merit_stream",
            Path(__file__).parent.parent / "tools" / "merit_stream.py")
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        def hooks():
            return (scipy.optimize.minimize, solver.solve,
                    objectives.evaluate_horizon_stacked, solver._model_step,
                    scipy.linalg.lapack.dpotrf, scipy.linalg.lapack.dtrtrs)
        hooked = hooks()
        prints = {}
        for pixel in (270.0, 270.0, 250.0):
            raw = minimal_raw()
            raw["sequences"][0]["instructions"]["composition"][0][
                "pixel"] = [480.0, pixel]
            scenario = tmp_path / f"mini{pixel}.json"
            scenario.write_text(json.dumps(raw))
            prints.setdefault(pixel, []).append(
                tool.fingerprint(str(scenario), 3))
        assert hooks() == hooked
        first, again = prints[270.0]
        assert first == again
        assert first["solves"] == 2 and first["value passes"] > 0
        # one descent per solve, each with value passes
        assert first["solves"] <= first["value passes"]
        # the report reads the descent's last value pass: one evaluation
        # per value pass
        moved = prints[250.0][0]
        for counts in (first, moved):
            assert counts["evaluations"] == counts["value passes"]
        # a descent's first value pass is at its start, and every trial's
        # model step but possibly a descent's last is followed by its pass;
        # here no start breaks a row, so each model step is a trial's, and
        # the centred target is planned without one
        assert first["model steps"] == 0
        assert 0 < moved["model steps"] <= moved["value passes"]
        assert moved["factorizations"] > 0
        # gradients only where the descent goes on, and a Hessian only
        # where it takes a step from
        for counts in (first, moved):
            assert counts["solves"] <= counts["gradient builds"]
            assert counts["Hessian builds"] <= counts["gradient builds"]
        assert moved["gradient builds"] < moved["value passes"]
        for stream in ("value sha256", "gradient sha256", "plan sha256"):
            assert moved[stream] != first[stream]

    def test_against_a_saved_run(self, tmp_path, capsys):
        # the same run exits 0 against its own output; one altered hash
        # line, or a line more or less, exits 1 naming the line
        import importlib.util
        spec = importlib.util.spec_from_file_location(
            "merit_stream",
            Path(__file__).parent.parent / "tools" / "merit_stream.py")
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        scenario = tmp_path / "mini.json"
        scenario.write_text(json.dumps(minimal_raw()))
        run = ["--scenario", str(scenario), "--seed", "3"]
        assert tool.main(run) == 0
        lines = capsys.readouterr().out.splitlines()
        saved = tmp_path / "saved.txt"
        saved.write_text("\n".join(lines) + "\n")
        assert tool.main(run + ["--against", str(saved)]) == 0
        assert capsys.readouterr().out.splitlines() == lines
        at = next(k for k, line in enumerate(lines)
                  if line.startswith("gradient sha256: "))
        for altered, first in (
                (lines[:at] + ["gradient sha256: 0"] + lines[at + 1:], at + 1),
                (lines + ["solves: 2"], len(lines) + 1),
                (lines[:-1], len(lines))):
            saved.write_text("\n".join(altered) + "\n")
            assert tool.main(run + ["--against", str(saved)]) == 1
            assert capsys.readouterr().err.startswith(
                f"line {first} differs")
