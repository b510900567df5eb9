"""cinedrone: joint extrinsic + intrinsic camera planning for drone
cinematography, closed against a deterministic kinematic scene.

The root exports the sense -> estimate -> plan -> act loop's API; the
modules hold the rest."""

import types as _types

from .optics import (CameraSensorSpec, DepthOfField, IntrinsicState,
                     INFINITE_FAR, back_project, depth_of_field,
                     hyperfocal)
from .kinematics import CameraRig, DroneState, Horizon, rollout
from .objectives import (CompositionTarget, CostBreakdown, DofTarget,
                         FocalSchedule, FocalTarget, Instructions,
                         PoseTarget, RelativeDistance, TargetPrediction)
from .constraints import ConstraintSet, OcclusionRecord
from .solver import Plan, SolverConfig, solve
from .scene import run_closed_loop
from .config import (ScenarioConfig, ScenarioParseError,
                     ScenarioValidationError, load_scenario)
from .runlog import RunLog, emit_outputs, summarize

__version__ = "0.1.0"

__all__ = [name for name, value in globals().items()
           if not name.startswith("_")
           and not isinstance(value, _types.ModuleType)]
