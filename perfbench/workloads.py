"""Benchmark workloads: which shipped scenarios, which seeds, how many shots.

Every input of a run is a function of (workload, seed, seconds) alone, so
the shot-quality metrics repeat exactly for a given seed and code.  This
module uses only the standard library: the set-up probe imports it before
it starts its clock.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "src" / "cinedrone" / "scenarios"

#: Shot seeds of ``--seed n`` are ``n * SEED_STRIDE + 0, 1, 2, ...``, so the
#: seed sets of different runs never overlap.
SEED_STRIDE = 1000
#: Fewest shots of one measured pass, whatever ``--seconds`` says.
MIN_SHOTS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: tuple[str, ...]
    #: cut each shot to one control period, so it ends after its cold solve
    one_period: bool
    #: wall seconds of one shot on an idle 2-CPU x86 box (the ROADMAP
    #: baseline); turns --seconds into a fixed shot count, never into a
    #: time-dependent one
    nominal_shot_s: float
    #: the shot-quality metrics that mean something on this workload
    quality: tuple[str, ...]


#: why each workload was chosen is in BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload("regulate", ("rule_of_thirds",), False, 4.2,
             ("pixel_error_px", "bound_overshoot")),
    Workload("occlusion", ("e4_occlusion",), False, 6.5,
             ("pixel_error_px", "safety_margin_m", "bound_overshoot")),
    Workload("first_plan", ("rule_of_thirds", "e1_plane", "e3_dolly_zoom",
                            "e4_collision", "e4_occlusion"), True, 0.25,
             ()),
)}


@dataclass(frozen=True)
class Shot:
    """One ``run_closed_loop`` call: a scenario dict and its seed."""

    index: int
    scenario: str
    seed: int
    raw: dict


def scenario_dicts(names: tuple[str, ...],
                   one_period: bool) -> dict[str, dict]:
    """Scenario dicts read from the shipped JSON, optionally cut to one
    control period."""
    dicts = {}
    for name in names:
        raw = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
        if one_period:
            raw["control"]["duration"] = raw["control"]["period"]
        dicts[name] = raw
    return dicts


def shot_count(workload: Workload, seconds: float) -> int:
    return max(MIN_SHOTS, round(seconds / workload.nominal_shot_s))


def make_shots(workload: Workload, seed: int, seconds: float) -> list[Shot]:
    """Shots cycle through the workload's scenarios; each scenario takes
    consecutive seeds from ``seed * SEED_STRIDE``."""
    names = workload.scenarios
    dicts = scenario_dicts(names, workload.one_period)
    return [Shot(index=i, scenario=names[i % len(names)],
                 seed=seed * SEED_STRIDE + i // len(names),
                 raw=dicts[names[i % len(names)]])
            for i in range(shot_count(workload, seconds))]


def repeat_shot(workload: Workload, seed: int) -> Shot:
    """A one-period shot of the workload's first scenario and seed.  A run
    plays it before measuring, to warm caches, and again after, to compare
    the CSV bytes of the two."""
    name = workload.scenarios[0]
    return Shot(index=-1, scenario=name, seed=seed * SEED_STRIDE,
                raw=scenario_dicts((name,), True)[name])
