"""lane3d: a 3D-lane geometry toolkit built around the virtual top-view
projection — view transforms, geometry-prior losses, point-pair matching,
rotation augmentation, 2D-to-3D reconstruction and the full lane-detection
evaluation protocol, exercised on synthetic scenes."""
