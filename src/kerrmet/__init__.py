"""kerrmet: metrology toolkit for a Kerr-nonlinear two-mode interferometer.

Simulates fixed-photon-number states of light traversing an
intensity-dependent phase shifter on a truncated two-mode Fock space,
applies photon-loss channels, and quantifies phase sensitivity through
the quantum Fisher information, the Cramer-Rao bound, and
error-propagation readout uncertainties.
"""

from .estimation import (
    DegenerateOperatingPointError,
    MomentProfile,
    PhasedFamily,
    QfiResult,
    ReadoutResult,
    UndefinedBoundError,
    delta_phi,
    max_qfi_over_k,
    measurement_m,
    measurement_mm,
    min_delta_phi,
    moments,
    qcrb,
    qfi,
    qfi_pure_analytic,
    sld,
)
from .fock import (
    BasisMismatchError,
    BlockStructureError,
    DensityOperator,
    HermitianOperator,
    NumericalError,
    PureState,
    TruncationError,
    TwoModeBasis,
    block_split,
    eigh,
    expectation,
    falling_factorial,
    lowering_power,
)
from .interferometer import (
    InterferometerParams,
    NoonLikeSpec,
    SuperpositionSpec,
    apply_phase,
    beam_splitter,
    g_tilde,
    generator_h,
    superposition_state,
)
from .loss import (
    LossParams,
    apply_loss,
    kraus_element,
)
from .optimizer import (
    OptimizationOutcome,
    OptimizationProblem,
    optimize_alpha,
    qfi_objective,
)

__version__ = "0.1.0"
