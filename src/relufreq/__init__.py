"""Frequency-domain analysis of the ReLU activation.

A multi-tone signal model, DFT utilities, the square-root series model of
relu (its injected DC component and harmonics), fixed-kernel conv/ReLU
prototype stacks, and a from-scratch trainable 1-D CNN used to study how the
DC component shapes training.
"""

__version__ = "0.1.0"

from .errors import (
    AliasingError,
    DegenerateInputError,
    DivergenceError,
    EmptyToneError,
    ReluFreqError,
    ZeroReferenceError,
)
from .multitone import (
    DatasetSpec,
    LabeledSet,
    MultiTone,
    ProbeSpec,
    Signal,
    harmonic_stack,
    sample_dataset,
    synthesize,
)
from .spectral import (
    Spectrum,
    band_occupancy,
    dc_of,
    energy_fraction_above,
    rrmse,
    spectrum,
)
from .relu_taylor import (
    ConvergenceReport,
    TaylorConfig,
    approximate_relu,
    convergence_report,
    dc_model,
    fluctuation_from_samples,
    mean_power,
    power_fluctuation,
    relu,
    sqrt1p_series,
    sqrt_taylor_coefficients,
)
from .convnets import (
    FilterResponse,
    Kernel,
    PrototypeStack,
    avg_pool,
    conv1d,
    fir_response,
    make_prototype_stack,
    run_prototype,
)
from .trainer import (
    AdamHyper,
    AdamState,
    Architecture,
    ComparisonReport,
    ConvLayerSpec,
    Network,
    TrainingRecord,
    ZeroTrainReport,
    adam_step,
    backward,
    forward,
    init_adam_state,
    init_network,
    layer_views,
    loss_sparse_ce,
    run_comparison,
    train,
    weight_distance,
    zero_train_eval,
)
