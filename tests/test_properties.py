"""Physics properties that hold for every input, checked on random inputs.

Each property is drawn over random real coefficients alpha at N <= 8,
transmissivity eta in [0, 1], Kerr strength chi in [0, 0.5] and phase
phi in [0, pi].  The examples are derandomized, so every run checks the
same inputs.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrmet.estimation import (
    DegenerateOperatingPointError,
    PhasedFamily,
    measurement_mm,
    min_delta_phi,
    qcrb,
)
from kerrmet.interferometer import (
    SuperpositionSpec,
    apply_phase,
    superposition_length,
    superposition_state,
)
from kerrmet.loss import LossParams, apply_loss

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=40,
                             database=None)

etas = st.floats(0.0, 1.0)
chis = st.floats(0.0, 0.5)
phis = st.floats(0.0, math.pi)


@st.composite
def specs(draw):
    n = draw(st.integers(1, 8))
    raw = draw(st.lists(st.floats(-1.0, 1.0), min_size=superposition_length(n),
                        max_size=superposition_length(n))
               .filter(lambda a: SuperpositionSpec.squared_weight(n, a) > 1e-6))
    return SuperpositionSpec.normalized(n, raw)


@PROPERTY_SETTINGS
@given(specs(), etas, chis, phis)
def test_family_state_matches_dense_channel(spec, eta, chi, phi):
    family = PhasedFamily(spec, chi=chi, eta=eta)
    evolved = apply_phase(superposition_state(spec, family.basis), phi, chi)
    oracle = apply_loss(evolved.to_density(), LossParams.equal(eta))
    assert np.abs(family.rho(phi).matrix - oracle.matrix).max() <= 1e-12


@PROPERTY_SETTINGS
@given(specs(), etas, chis)
def test_qfi_below_generator_spread(spec, eta, chi):
    # (g(N) - g(0))^2 with g(n) = n + chi n^2 / 2 bounds any N-photon input
    bound = (spec.N + 0.5 * chi * spec.N ** 2) ** 2
    assert PhasedFamily(spec, chi=chi, eta=eta).qfi().qfi <= bound * (1 + 1e-12)


@PROPERTY_SETTINGS
@given(specs(), etas, etas, chis)
def test_qfi_does_not_grow_with_loss(spec, eta_a, eta_b, chi):
    # loss channels compose and commute with the phase, so more loss is a
    # phi-independent channel applied after less loss
    low, high = sorted((eta_a, eta_b))
    f_low = PhasedFamily(spec, chi=chi, eta=low).qfi().qfi
    f_high = PhasedFamily(spec, chi=chi, eta=high).qfi().qfi
    assert f_low <= f_high + 1e-9 * max(1.0, f_high)


@PROPERTY_SETTINGS
@given(specs(), etas, chis)
def test_full_coincidence_readout_respects_qcrb(spec, eta, chi):
    family = PhasedFamily(spec, chi=chi, eta=eta)
    fisher = family.qfi().qfi
    try:
        scan = min_delta_phi(family, measurement_mm(spec.N, family.basis))
    except DegenerateOperatingPointError:
        return
    assert fisher > 0.0
    assert scan.min_delta_phi >= qcrb(fisher) - 1e-9
