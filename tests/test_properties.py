"""Physics properties that hold for every input, checked on random inputs.

Each property is drawn over random real coefficients alpha at N <= 8,
transmissivity eta in [0, 1], Kerr strength chi in [0, 0.5] and phase
phi in [0, pi]; the readout bound, which needs no dense oracle, is also
drawn at 9 <= N <= 30 over random alpha and two-branch inputs.  The
examples are derandomized, so every run checks the same inputs.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from kerrmet.estimation import (
    DegenerateOperatingPointError,
    PhasedFamily,
    measurement_mm,
    min_delta_phi,
    qcrb,
)
from kerrmet.interferometer import NoonLikeSpec, SuperpositionSpec, superposition_length

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=40,
                             database=None)

etas = st.floats(0.0, 1.0)
chis = st.floats(0.0, 0.5)
phis = st.floats(0.0, math.pi)


@st.composite
def specs(draw, n_min=1, n_max=8):
    n = draw(st.integers(n_min, n_max))
    raw = draw(st.lists(st.floats(-1.0, 1.0), min_size=superposition_length(n),
                        max_size=superposition_length(n))
               .filter(lambda a: SuperpositionSpec.squared_weight(n, a) > 1e-6))
    return SuperpositionSpec.normalized(n, raw)


@st.composite
def two_branch_specs(draw, n_min, n_max):
    n = draw(st.integers(n_min, n_max))
    return NoonLikeSpec(n, draw(st.integers(0, n)))


@PROPERTY_SETTINGS
@given(specs(), etas, chis, phis)
def test_family_state_matches_dense_channel(spec, eta, chi, phi):
    family = PhasedFamily(spec, chi=chi, eta=eta)
    evolved = oracle.apply_phase(oracle.superposition_state(spec, family.basis), phi, chi)
    dense = oracle.apply_loss(evolved.to_density(), oracle.LossParams.equal(eta))
    assert np.abs(oracle.rho(family, phi).matrix - dense.matrix).max() <= 1e-12


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
@given(specs(), st.floats(0.0, 0.99), chis)
def test_qfi_below_linear_loss_bound(spec, eta, chi):
    # without Kerr, loss caps the Fisher information of any N-photon input
    # at eta N / (1 - eta) (Demkowicz-Dobrzanski, Kolodynski and Guta 2012).
    # On the N-photon shell the Kerr generator is theta (n2 - n1)/2 with
    # theta = 1 + chi N/2, and loss commutes with it, so the bound holds
    # times theta^2
    theta = 1.0 + 0.5 * chi * spec.N
    bound = theta ** 2 * eta * spec.N / (1.0 - eta)
    assert PhasedFamily(spec, chi=chi, eta=eta).qfi().qfi <= bound * (1 + 1e-12) + 1e-12


@PROPERTY_SETTINGS
@given(specs(), etas, chis)
def test_full_coincidence_readout_respects_qcrb(spec, eta, chi):
    family = PhasedFamily(spec, chi=chi, eta=eta)
    fisher = family.qfi().qfi
    try:
        scan = min_delta_phi(family.moment_profile(measurement_mm(spec.N, family.basis)))
    except DegenerateOperatingPointError:
        return
    assert fisher > 0.0
    assert scan.min_delta_phi >= qcrb(fisher) - 1e-9


@PROPERTY_SETTINGS
@given(st.one_of(specs(9, 30), two_branch_specs(9, 30)), etas, chis)
def test_full_coincidence_readout_respects_qcrb_at_larger_n(spec, eta, chi):
    family = PhasedFamily(spec, chi=chi, eta=eta)
    fisher = family.qfi().qfi
    try:
        scan = min_delta_phi(family.moment_profile(measurement_mm(spec.N, family.basis)))
    except DegenerateOperatingPointError:
        return
    assert fisher > 0.0
    # relative: bounds reach 1e9 here, where 1e-9 is below the float spacing
    assert scan.min_delta_phi >= qcrb(fisher) * (1 - 1e-9)
