"""Video-outpainting propagation engine and diffusion harness.

Reference-frame selection, flow completion and composition on an expanded
canvas, one-shot bidirectional latent propagation, and a deterministic
(DDIM) sampler for a pluggable denoiser, with sliding-window noise averaging
and one noise draw per run — all deterministic and verifiable against
analytic oracles.
"""

from .grids import (
    BinaryMask,
    CanvasSpec,
    ChannelGrid,
    FlowField,
    GridFormatError,
    downscale_flow,
    downscale_mask,
    make_outpaint_mask,
    read_grid,
    write_grid,
)
from .refselect import (
    ReferenceChain,
    build_reference_chain,
    nearest_refs,
    ssim_structure_score,
    to_grayscale,
)
from .flow import (
    backward_warp,
    complete_flow_laplacian,
    compose_accumulated,
    map_flow_to_canvas,
)
from .propagation import (
    PropagationResult,
    fuse_directions,
    propagate_direction,
    propagate_sequence,
    pull_stack,
    required_flow_pairs,
)
from .diffusion import (
    NoiseSchedule,
    forward_noise,
    make_schedule,
    plan_windows,
    resolve_denoiser,
    reverse_sample,
    windowed_epsilon,
)
from .synthetic import SyntheticScene, generate_scene, stand_in_decode, stand_in_encode
from .metrics import psnr, psnr_masked, ssim_full
from .pipeline import BenchmarkReport, ConfigError, PipelineConfig, StageError, run_benchmark, run_pipeline

__version__ = "0.1.0"
