"""Two-photon probes of a lossy optical phase shift: bounds, simulation, estimation."""

__version__ = "0.1.0"

from .bounds import (
    NOON_WEIGHTS,
    PrecisionPoint,
    ProbeWeights,
    noon_precision,
    optimize_weights,
    precision_curve,
    probe_state,
    qfi_lossy,
    qfi_pure,
    sil_precision,
    sil_precision_numeric,
)
from .detection import (
    LABELS,
    DetectionConfig,
    OutcomeModel,
    Setting,
    classical_fisher,
    fringe_scan,
    optimize_theta_d,
    outcome_distribution,
)
from .estimator import (
    DegenerateLikelihoodError,
    Estimate,
    UncertaintyRow,
    analyze,
    estimate_dataset,
    histogram,
)
from .fock import (
    ConditionalBranch,
    FockState,
    ModeTransform,
    apply_loss,
    apply_transform,
    basis,
    beam_splitter,
    outcome_probability,
    phase_shift,
)
from .imperfections import (
    IDEAL,
    ImperfectionParams,
    apply_coupler_thinning,
    classical_distribution,
    degrade_distribution,
    fibre_input,
)
from .montecarlo import (
    EventDataset,
    EventRecord,
    ExperimentConfig,
    ProbeKind,
    default_phase_list,
    run_campaign,
    sample_counts,
)
from .prep import PrepConfig, attenuate, prepare, solve_prep
