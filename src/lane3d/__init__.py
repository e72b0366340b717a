"""lane3d: a 3D-lane geometry toolkit built around the virtual top-view
projection — view transforms, geometry-prior losses, point-pair matching,
rotation augmentation, 2D-to-3D reconstruction and the full lane-detection
evaluation protocol, exercised on synthetic scenes."""

from .augment import AugmentConfig, augment_scene, rot_x, rot_y, rot_z
from .errors import (DegeneratePair, HeightExceedsCamera, InvalidInput,
                     InvariantViolation, Lane3DError, NoPairing, ParseError,
                     SpecError)
from .evaluate import (EvalReport, MatchConfig, compute_ap, compute_fscore,
                       compute_offset_errors, evaluate_frames,
                       joint_offset_errors, match_lanes, split_extra_long,
                       split_hard_easy)
from .losses import WidthSeries, geo_prior_loss, grad_check, width_series
from .model import (CameraPose, FlatFrame, Intrinsics, Lane2D, Lane3D, PairMap,
                    Prediction, Scene, read_flat_frames, read_predictions,
                    read_scenes, write_flat_frames, write_predictions,
                    write_scenes)
from .pairing import PairingConfig, match_point_pairs
from .projection import (compute_visibility, lift_from_virtual_top_xy,
                         project_front_view_points, project_virtual_top_xy)
from .reconstruct import SolveOptions
from .synth import (GeneratorConfig, HillProfile, RoadSpec, generate_scene,
                    generate_scenes)

__version__ = "0.1.0"
