"""ramimo: link-level simulator for atomic MIMO receivers that read out only
signal amplitudes, with dual-slot phase-rotated transmission for recovering
the complex received signal and conventional ML/ZF detection on top."""

__version__ = "0.1.0"

from .constellation import make_qam, modulate, quantize, demap
from .channel import (
    draw_channel,
    draw_reference,
    draw_noise,
    stream_rng,
    derive_point_seed,
)
from .frontend import observe_single, observe_prss
from .reconstruct import (
    DegenerateReferenceError,
    SingularOffsetError,
    reconstruct_optimal,
    reconstruct_general,
    predicted_trace,
    predicted_mse,
)
from .detect import (
    SearchBudgetError,
    IllConditionedChannelError,
    ml_linear,
    zf_linear,
    ml_single_shot,
)
from .montecarlo import (
    ExperimentConfig,
    run_ber_sweep,
    run_phi_sweep,
    run_rsr_sweep,
)
