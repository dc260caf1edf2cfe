"""Video-outpainting propagation engine and diffusion harness.

Reference-frame selection, flow completion and composition on an expanded
canvas, one-shot bidirectional latent propagation, and a pluggable DDPM
sampler with sliding-window noise averaging — all deterministic and
verifiable against analytic oracles.
"""

from .grids import (
    BinaryMask,
    CanvasSpec,
    ChannelGrid,
    FlowField,
    GridFormatError,
    ScalarGrid,
    downscale_flow,
    downscale_mask,
    make_outpaint_mask,
    place_on_canvas,
    read_grid,
    write_grid,
)
from .refselect import (
    ReferenceChain,
    build_reference_chain,
    fixed_stride_chain,
    nearest_refs,
    ssim_structure_score,
    to_grayscale,
)
from .flow import (
    AccumulatedFlow,
    FlowCompletionError,
    backward_warp,
    complete_flow_laplacian,
    compose_accumulated,
    map_flow_to_canvas,
    warp_flow,
)
from .propagation import (
    FlowBank,
    PropagationResult,
    fuse_baseline,
    propagate_direction,
    propagate_sequence,
    required_flow_pairs,
)
from .diffusion import (
    NoiseSchedule,
    WindowPlan,
    forward_noise,
    make_schedule,
    plan_windows,
    resolve_denoiser,
    reverse_sample,
    windowed_epsilon,
)
from .synthetic import SyntheticScene, TrajectorySpec, generate_scene, stand_in_decode, stand_in_encode
from .metrics import psnr, psnr_masked, ssim_full
from .pipeline import BenchmarkReport, ConfigError, PipelineConfig, StageError, run_benchmark, run_pipeline

__version__ = "0.1.0"
