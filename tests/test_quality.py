"""The quality gate's judging (``tools/quality.py --against``), on
synthetic reports: no scenario is run."""

import copy
import importlib.util
import json
import logging
import types
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "quality.py"
_SPEC = importlib.util.spec_from_file_location("quality_tool", _PATH)
quality = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(quality)

SEEDS = 16


def report(metrics=None, seeds=SEEDS):
    """A one-scenario report whose every seed ran clean with
    ``metrics``."""
    metrics = metrics or {"steady_state_pixel_error": 2.0,
                          "min_safety_distance": 3.0,
                          "final_actor_detected": 1.0}
    per_seed = [{"seed": seed, "status": "completed", "mean_evals": 5.0,
                 "plan_feasible": 1.0, "converged": 1.0,
                 "summary_metrics": dict(metrics)} for seed in range(seeds)]
    return {"shot": {
        "runs": seeds, "completed": seeds, "statuses": {"completed": seeds},
        "plan_feasible_mean": 1.0, "converged_share": 1.0,
        "worst_bound_overshoot": 0.0, "evals_per_step_mean": 5.0,
        "evals_per_step_max": 9,
        "summary_metrics": {name: {"mean": value, "finite_runs": seeds}
                            for name, value in metrics.items()},
        "per_seed": per_seed}}


def shifted(base, metric, delta, seeds=range(SEEDS)):
    out = copy.deepcopy(base)
    for seed in seeds:
        out["shot"]["per_seed"][seed]["summary_metrics"][metric] += delta
    return out


def judge(parent, change, safety=2.5):
    return quality.compare(parent, change, {"shot": safety})


def test_last_bit_shift_on_every_seed_ties():
    # one run repeated, as rule_of_thirds' seeds are: a last-bit shift
    # on all 16 would be p = 3e-5 untied
    parent = report()
    change = shifted(parent, "steady_state_pixel_error", 5e-14)
    lines, loss = judge(parent, change)
    assert not loss
    assert not any("LOSS" in line for line in lines)
    line, = [line for line in lines
             if line.startswith("  steady_state_pixel_error per seed")]
    assert "0 better, 0 worse, 16 tied of 16" in line


def test_sixteen_to_none_loss_is_flagged():
    parent = report()
    change = shifted(parent, "steady_state_pixel_error", 1.0)
    lines, loss = judge(parent, change)
    assert loss
    line, = [line for line in lines if "LOSS" in line]
    assert line.startswith("  steady_state_pixel_error per seed")
    assert "0 better, 16 worse" in line


def test_directions():
    parent = report()
    # fewer detections and a safety distance broken on every seed lose;
    # a lower pixel error is a gain
    for metric, delta in (("final_actor_detected", -1.0),
                          ("min_safety_distance", -1.0)):
        assert judge(parent, shifted(parent, metric, delta))[1], metric
    assert not judge(parent, shifted(parent, "steady_state_pixel_error",
                                     -1.0))[1]


def test_safety_only_shortfall_counts():
    # moving closer while still beyond the declared distance is no loss,
    # nor is a shortfall shrinking
    parent = report()
    assert not judge(parent, shifted(parent, "min_safety_distance", -0.4),
                     safety=2.5)[1]
    assert not judge(shifted(parent, "min_safety_distance", -1.0),
                     shifted(parent, "min_safety_distance", -0.8))[1]


def test_holm_corrects_the_family():
    # 16 seeds of which 12 worse and 4 better give p = 0.077: below 0.1
    # alone, not after Holm over the family of three metrics
    parent = report()
    change = shifted(parent, "steady_state_pixel_error", 1.0, range(12))
    change = shifted(change, "steady_state_pixel_error", -1.0,
                     range(12, SEEDS))
    assert quality.sign_test(4, 12) < quality.HOLM_ALPHA
    assert not judge(parent, change)[1]
    assert quality.holm([0.01, 0.06, 0.5]) == [True, False, False]
    assert quality.holm([0.01, 0.02, 0.03]) == [True, True, True]


def test_ratio_spread_judged_on_dolly_zoom_only():
    base = report({"dolly_zoom_ratio_spread": 0.1})
    worse = shifted(base, "dolly_zoom_ratio_spread", 0.1)
    assert not judge(base, worse)[1]
    dolly = {"e3_dolly_zoom": base["shot"]}
    assert quality.compare(dolly, {"e3_dolly_zoom": worse["shot"]},
                           {})[1]


def main_against(tmp_path, monkeypatch, parent, change):
    """The exit status of ``tools/quality.py --against`` a written
    ``parent``, its own run replaced by ``change``, and what it wrote."""
    against = tmp_path / "parent.json"
    against.write_text(json.dumps(parent))
    config = types.SimpleNamespace(
        constraints=types.SimpleNamespace(safety_distance=2.5))
    monkeypatch.setattr(quality, "load_scenario", lambda path: config)
    monkeypatch.setattr(quality, "scenario_quality",
                        lambda config, seeds: change["shot"])
    out = tmp_path / "out.json"
    try:
        status = quality.main(["--scenario", "shot", "--against",
                               str(against), "--out", str(out)])
    finally:
        logging.disable(logging.NOTSET)  # main silences the loop's warnings
    return status, json.loads(out.read_text())


@pytest.mark.parametrize("delta, status", [(0.0, 0), (1.0, 1)])
def test_exit_status_after_out_is_written(tmp_path, monkeypatch, delta,
                                          status):
    parent = report()
    change = shifted(parent, "steady_state_pixel_error", delta)
    assert main_against(tmp_path, monkeypatch, parent, change) == (
        status, {"about": "tools/quality.py --seeds 16 --against "
                 "parent.json", "parent": parent, "change": change})


def errored(base, seeds=range(SEEDS)):
    """``base`` with the runs of ``seeds`` ended by an exception, as
    ``scenario_quality`` records them."""
    out = copy.deepcopy(base)
    for seed in seeds:
        out["shot"]["per_seed"][seed] = {
            "seed": seed, "status": "error: RuntimeError",
            "mean_evals": float("nan")}
    return out


def test_one_errored_seed_counts_as_worse_on_each_figure():
    parent = report()
    lines, loss = judge(parent, errored(parent, [3]))
    assert not loss
    judged = [line for line in lines if " per seed" in line]
    # plan_feasible, converged and the three shot metrics
    assert len(judged) == 5
    for line in judged:
        assert "0 better, 1 worse, 15 tied of 16" in line, line


def test_sixteen_errored_seeds_lose(tmp_path, monkeypatch):
    parent = report()
    change = errored(parent)
    lines, loss = judge(parent, change)
    assert loss
    assert len([line for line in lines if "LOSS" in line]) == 5
    assert main_against(tmp_path, monkeypatch, parent, change)[0] == 1


def test_identical_halves_pass(tmp_path, monkeypatch):
    parent = report()
    lines, loss = judge(parent, copy.deepcopy(parent))
    assert not loss
    assert not any("LOSS" in line for line in lines)
    assert main_against(tmp_path, monkeypatch, parent,
                        copy.deepcopy(parent))[0] == 0


def test_a_seed_errored_in_both_is_not_judged():
    parent = errored(report(), [0])
    lines, _ = judge(parent, copy.deepcopy(parent))
    line, = [line for line in lines
             if line.startswith("  plan_feasible per seed")]
    assert "0 better, 0 worse, 15 tied of 15" in line
