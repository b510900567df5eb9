"""cinedrone: joint extrinsic + intrinsic camera planning for drone
cinematography, closed against a deterministic kinematic scene."""

from .optics import (CameraSensorSpec, DepthOfField, IntrinsicState,
                     INFINITE_FAR, back_project, calibration_matrix,
                     depth_of_field, hyperfocal, project)
from .kinematics import (CameraRig, DroneInput, DroneState, Horizon,
                         IntrinsicInput, interpolate_commands, rollout,
                         step_intrinsics, step_rotation, step_translation)
from .objectives import (CompositionTarget, CostBreakdown, DofTarget,
                         FocalSchedule, FocalTarget, Instructions,
                         PoseTarget, RelativeDistance, TargetPrediction,
                         composition_cost, cost_gradient, dof_cost,
                         focal_cost, horizon_cost, pose_cost)
from .constraints import (ConstraintSet, OcclusionRecord, PixelBox,
                          evaluate_constraints, occlusion_activation,
                          predict_bounding_box)
from .solver import InfeasibleStartError, Plan, SolverConfig, \
    shift_warm_start, solve
from .estimation import (Detection, TargetMeta, TargetTrack, kf_predict,
                         kf_update, measure_world_position,
                         orientation_from_velocity, predict_horizon,
                         robust_depth)
from .scene import (ScriptedTarget, SensorModel, SimClock, run_closed_loop,
                    synthesize_detection, target_pose_at)
from .config import (ScenarioConfig, ScenarioParseError,
                     ScenarioValidationError, dump_scenario, load_scenario)
from .runlog import RunLog, emit_outputs, summarize, summary_metrics

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
