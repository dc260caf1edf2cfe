"""A synthetic scene's frames as one list, for the tests; the pipeline
reads a scene one frame at a time."""


def scene_frames(scene):
    """Frames 0..N-1 of ``scene``, in order."""
    return [scene.frame(i) for i in range(scene.num_frames)]
