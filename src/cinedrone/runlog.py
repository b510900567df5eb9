"""Closed-loop run logging, CSV/summary emission and aggregation.

A run log has a fixed numeric column schema decided before the first row
(a function of the scenario alone, never of runtime events), which keeps
repeated runs byte-comparable and aggregation trivial.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class RunLog:
    """Fixed-schema numeric log of one closed-loop run."""

    columns: list[str]
    meta: dict = field(default_factory=dict)
    rows: list[list[float]] = field(default_factory=list)

    def append(self, values: dict) -> None:
        missing = [c for c in self.columns if c not in values]
        if missing:
            raise KeyError(f"row is missing columns: {missing}")
        extra = set(values) - set(self.columns)
        if extra:
            raise KeyError(f"row has unknown columns: {sorted(extra)}")
        self.rows.append([float(values[c]) for c in self.columns])

    def column(self, name: str) -> np.ndarray:
        idx = self.columns.index(name)
        return np.array([row[idx] for row in self.rows])

    @property
    def status(self) -> str:
        return self.meta.get("status", "completed")

    def to_csv(self, path: Path | str) -> None:
        path = Path(path)
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(repr(v) for v in row))
        path.write_text("\n".join(lines) + "\n")

    @classmethod
    def read_csv(cls, path: Path | str) -> "RunLog":
        lines = Path(path).read_text().splitlines()
        columns = lines[0].split(",")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        return cls(columns=columns, rows=rows)


def strict(value):
    """``value`` with every non-finite float, at any depth, as None: JSON's
    null, so that ``json.dumps(..., allow_nan=False)`` writes strict JSON
    (RFC 8259 has no NaN or Infinity)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [strict(item) for item in value]
    return value


def _nan_mean(values: np.ndarray) -> float:
    values = values[np.isfinite(values)]
    return float(np.mean(values)) if values.size else math.nan


def summary_metrics(log: RunLog) -> dict:
    """Headline acceptance metrics of one run.

    Steady-state statistics use the tail of the run (last quarter for pixel
    error, last half for sharpness and focal tracking, last three quarters
    for the dolly-zoom ratio).
    """
    metrics: dict = {
        "status": log.status,
        "steps": len(log.rows),
    }
    if not log.rows:
        return metrics

    point_cols = [c for c in log.columns if c.endswith("_u_des")]
    if point_cols:
        errors = []
        for col in point_cols:
            base = col[:-len("_u_des")]
            du = log.column(base + "_u") - log.column(base + "_u_des")
            dv = log.column(base + "_v") - log.column(base + "_v_des")
            errors.append(np.hypot(du, dv))
        error = np.array(errors)  # (points, steps)
        tail = error[:, -max(1, len(log.rows) // 4):]
        with np.errstate(invalid="ignore"):
            worst = np.nanmax(tail, axis=0)
        metrics["steady_state_pixel_error"] = _nan_mean(worst)

    if "collision_residual_min" in log.columns:
        residual = log.column("collision_residual_min")
        d_min = float(log.meta.get("safety_distance", 0.0))
        metrics["min_safety_distance"] = float(np.min(residual)) + d_min

    if "dn_actual" in log.columns and "dn_target" in log.columns:
        err = np.abs(log.column("dn_actual") - log.column("dn_target"))
        metrics["dof_tracking_error"] = _nan_mean(
            err[-max(1, len(log.rows) // 2):])

    if "f_target_mm" in log.columns and "focal_mm" in log.columns:
        target = log.column("f_target_mm")
        err = np.abs(log.column("focal_mm") - target) / target
        metrics["focal_tracking_error"] = _nan_mean(
            err[-max(1, len(log.rows) // 2):])

    ratio_cols = [c for c in log.columns if c.endswith("_distance")]
    if ratio_cols and "focal_mm" in log.columns:
        ratio = log.column(ratio_cols[0]) / log.column("focal_mm")
        tail = ratio[-max(1, 3 * len(log.rows) // 4):]
        tail = tail[np.isfinite(tail)]
        if tail.size and np.mean(tail) != 0.0:
            metrics["dolly_zoom_ratio_spread"] = float(
                (np.max(tail) - np.min(tail)) / np.mean(tail))

    for col in log.columns:
        if col.endswith("_detected"):
            metrics[f"final_{col}"] = float(log.rows[-1][
                log.columns.index(col)])

    if "cost_now" in log.columns:
        metrics["cost_final"] = float(log.rows[-1][
            log.columns.index("cost_now")])
    return metrics


def emit_outputs(log: RunLog, out_dir: Path | str) -> list[Path]:
    """Write one CSV and one summary JSON for a run; returns the paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = log.meta.get("name", "run")
    seed = log.meta.get("seed", 0)
    stem = f"{name}_seed{seed}"
    csv_path = out_dir / f"{stem}.csv"
    log.to_csv(csv_path)
    summary = dict(log.meta)
    summary.update(summary_metrics(log))
    summary_path = out_dir / f"{stem}_summary.json"
    summary_path.write_text(json.dumps(strict(summary), sort_keys=True,
                                       indent=2, default=str,
                                       allow_nan=False) + "\n")
    return [csv_path, summary_path]


def summarize(out_dir: Path | str) -> Path:
    """Aggregate every run in a directory: per-step mean/std CSV per
    scenario plus a combined summary with mean/std of each metric, a
    metric null in a run's summary (no finite value) counting as NaN
    there, and written null where the mean or std is not finite."""
    out_dir = Path(out_dir)
    if not out_dir.is_dir():
        raise FileNotFoundError(f"no run directory {out_dir}")
    summaries: dict[str, list[dict]] = {}
    logs: dict[str, list[RunLog]] = {}
    for path in sorted(out_dir.glob("*_summary.json")):
        data = json.loads(path.read_text())
        summaries.setdefault(data.get("name", "run"), []).append(data)
    for path in sorted(out_dir.glob("*.csv")):
        if path.stem.endswith("_aggregate"):
            continue
        name = path.stem.rsplit("_seed", 1)[0]
        logs.setdefault(name, []).append(RunLog.read_csv(path))

    combined: dict = {}
    for name, runs in logs.items():
        n_rows = min(len(r.rows) for r in runs)
        columns = runs[0].columns
        stack = np.array([[row for row in r.rows[:n_rows]] for r in runs])
        with np.errstate(invalid="ignore"):
            mean = np.mean(stack, axis=0)
            std = np.std(stack, axis=0)
        agg = out_dir / f"{name}_aggregate.csv"
        header = ",".join([f"{c}_mean" for c in columns]
                          + [f"{c}_std" for c in columns])
        lines = [header]
        for i in range(n_rows):
            lines.append(",".join(repr(float(v)) for v in
                                  list(mean[i]) + list(std[i])))
        agg.write_text("\n".join(lines) + "\n")

    for name, entries in summaries.items():
        numeric: dict[str, list[float]] = {}
        for entry in entries:
            for key, value in entry.items():
                if value is None or isinstance(value, (int, float)):
                    numeric.setdefault(key, []).append(
                        math.nan if value is None else float(value))
        combined[name] = {
            "runs": len(entries),
            **{f"{k}_mean": float(np.mean(v)) for k, v in numeric.items()},
            **{f"{k}_std": float(np.std(v)) for k, v in numeric.items()},
        }
    path = out_dir / "summary_aggregate.json"
    path.write_text(json.dumps(strict(combined), sort_keys=True, indent=2,
                               allow_nan=False) + "\n")
    return path
