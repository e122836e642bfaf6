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
    UndefinedBoundError,
    max_qfi_over_k,
    measurement_mm,
    min_delta_phi,
    qcrb,
    qfi_pure_analytic,
)
from .fock import (
    BasisMismatchError,
    HermitianOperator,
    NumericalError,
    TruncationError,
    TwoModeBasis,
    falling_factorial,
    lowering_power,
)
from .interferometer import NoonLikeSpec, SuperpositionSpec
from .optimizer import (
    OptimizationOutcome,
    OptimizationProblem,
    optimize_alpha,
    qfi_objective,
)

__version__ = "0.1.0"
