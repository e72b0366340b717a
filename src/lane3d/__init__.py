"""lane3d: a 3D-lane geometry toolkit built around the virtual top-view
projection — view transforms, geometry-prior losses, point-pair matching,
rotation augmentation, 2D-to-3D reconstruction and the full lane-detection
evaluation protocol, exercised on synthetic scenes."""

from .augment import AugmentConfig, augment_scene, rot_x, rot_y, rot_z
from .errors import (DegeneratePair, DegeneratePose, HeightExceedsCamera,
                     InvalidInput, InvariantViolation, Lane3DError,
                     MismatchedAnchors, NoPairing, OutOfRange, ParseError,
                     SpecError)
from .evaluate import (EvalReport, MatchConfig, compute_ap, compute_fscore,
                       compute_offset_errors, evaluate_frames,
                       joint_offset_errors, match_lanes, split_extra_long,
                       split_hard_easy)
from .losses import (LossWeights, WidthSeries, anchor_loss, cam_loss,
                     dist2d_weighted, dist3d, geo_prior_loss, grad_check,
                     total_rec_loss, width_series)
from .model import (Anchor, AnchorSet, CameraPose, FlatFrame, Intrinsics,
                    Lane2D, Lane3D, PairMap, Point2D, Point3D, Prediction,
                    Scene, TopViewMask, read_flat_frames, read_predictions,
                    read_scenes, write_flat_frames, write_predictions,
                    write_scenes)
from .pairing import PairingConfig, match_point_pairs, adjacent_index_pairs
from .projection import (compute_visibility, ipm_homography,
                         lift_from_virtual_top, project_front_view,
                         project_real_top, project_virtual_top)
from .reconstruct import SolveOptions
from .synth import (AnchorConfig, HillProfile, MaskGeometry, RoadSpec,
                    decode_anchors, encode_anchors, generate_scene,
                    generate_scenes, rasterize_top_mask, write_mask_pgm)

__version__ = "0.1.0"
