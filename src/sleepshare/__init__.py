"""Dynamic weight equalization for locally connected layers.

The package splits into small numeric cores (mathcore, topology), the
equalization dynamics and their closed forms (sharing), a biologically
grounded rate-circuit realization (ratecircuit), a desk-scale training
harness with periodic sharing (trainer), and a CLI (cli) that wraps the
experiments in reproducible runs.
"""

from .errors import (DivergenceError, ShapeError, SingularMatrixError,
                     ToleranceError)
from .mathcore import RngStream, solve_spd
from .ratecircuit import (RateCircuit, RateSleepResult, rate_fixed_point,
                          rate_sleep_run, rate_step)
from .sharing import (NEG_LOG_SNR_CONVERGED, NEG_LOG_SNR_ZERO_MEAN,
                      NoiseFloorResult, Schedule, SleepConfig, SleepResult,
                      WeightBundle, bias_coefficient, biased_fixed_point,
                      descent_step_cap, fixed_point, full_batch_descent,
                      instant_share, kernel_grid_neg_log_snr, layer_sleep_run,
                      loglog_slope, neg_log_snr, neg_log_snr_floor,
                      noise_floor_run, patch_share, share_kernel_grid_means,
                      sleep_run, sleep_step, snr)
from .topology import (ConvLayer, GridPartition, LocalLayer, RepeatingPattern,
                       conv_forward, generate_pattern, kaiming_std, lc_forward,
                       make_partition, padded_windows, receptive_field,
                       tie_lc_to_conv)
from .trainer import (Dataset, LayerStack, TrainConfig, TrainHistory,
                      augment_translate, forward_backward, read_idx,
                      run_experiment, softmax_cross_entropy, train)

__version__ = "0.1.0"

__all__ = [
    "DivergenceError", "ShapeError", "SingularMatrixError", "ToleranceError",
    "RngStream", "solve_spd",
    "RateCircuit", "RateSleepResult", "rate_fixed_point", "rate_sleep_run",
    "rate_step",
    "NEG_LOG_SNR_CONVERGED", "NEG_LOG_SNR_ZERO_MEAN", "NoiseFloorResult",
    "Schedule", "SleepConfig", "SleepResult", "WeightBundle",
    "bias_coefficient", "biased_fixed_point", "descent_step_cap",
    "fixed_point", "full_batch_descent", "instant_share",
    "kernel_grid_neg_log_snr", "layer_sleep_run", "loglog_slope",
    "neg_log_snr", "neg_log_snr_floor", "noise_floor_run", "patch_share",
    "share_kernel_grid_means", "sleep_run", "sleep_step", "snr",
    "ConvLayer", "GridPartition", "LocalLayer", "RepeatingPattern",
    "conv_forward", "generate_pattern", "kaiming_std", "lc_forward",
    "make_partition", "padded_windows", "receptive_field", "tie_lc_to_conv",
    "Dataset", "LayerStack", "TrainConfig", "TrainHistory",
    "augment_translate", "forward_backward", "read_idx",
    "run_experiment", "softmax_cross_entropy", "train",
    "__version__",
]
