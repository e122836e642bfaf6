"""Physics properties that hold for every input, checked on random inputs.

Each property is drawn over random real coefficients alpha at N <= 8,
transmissivity eta in [0, 1], Kerr strength chi in [0, 0.5] and phase
phi in [0, pi]; the readout bound, which needs no dense oracle, is also
drawn at 9 <= N <= 30 over random alpha and two-branch inputs.  The
readout's closed-form operating point phi = 0 is checked at every m
against the dense oracle at N <= 8, and against a grid plus
golden-section search at N <= 30, and the profile's mean, variance and
delta_phi at every m against the dense oracle at any phi in [-pi, pi].
Every optimize-scan row at N <= 8, eta in (0, 1) and chi in {0, 0.2}
stays below the lossy linear bound.  The examples are derandomized, so
every run checks the same inputs.
"""

import csv
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from kerrmet.cli import main
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


@settings(derandomize=True, deadline=None, max_examples=20, database=None)
@given(st.integers(1, 8), st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                                   min_size=1, max_size=2),
       st.sampled_from([0.0, 0.2]))
@example(8, [0.9, 0.99], 0.0)  # where the optimized states come closest
@example(8, [0.6, 0.999], 0.2)
def test_optimized_rows_below_linear_loss_bound(n, eta_list, chi):
    # the optimized input is an N-photon input too, so every optimize-scan
    # row obeys the same asymptotic bound theta^2 eta N / (1 - eta)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "rows.csv"
        assert main(["--command", "optimize-scan", "--n-range", str(n),
                     "--eta", ",".join(repr(eta) for eta in eta_list),
                     "--chi", repr(chi), "--out", str(out)]) == 0
        rows = list(csv.DictReader(line for line in out.read_text().splitlines()
                                   if not line.startswith("#")))
    assert len(rows) == len(eta_list)
    for row in rows:
        eta = float(row["eta"])
        theta = 1.0 + 0.5 * chi * n
        bound = theta ** 2 * eta * n / (1.0 - eta)
        assert float(row["qfi"]) <= bound * (1 + 1e-12) + 1e-12, row


@PROPERTY_SETTINGS
@given(specs(), etas, chis)
def test_full_coincidence_readout_respects_qcrb(spec, eta, chi):
    family = PhasedFamily(spec, chi=chi, eta=eta)
    fisher = family.qfi().qfi
    try:
        best = min_delta_phi(family.moment_profile(measurement_mm(spec.N, family.basis)))
    except DegenerateOperatingPointError:
        return
    assert fisher > 0.0
    # at eta near 0 the bound reaches 1e19, where 1e-9 is below the float
    # spacing: allow a few ulp there and 1e-9 wherever it is representable
    bound = qcrb(fisher)
    assert best >= bound - max(1e-9, 1e-14 * bound)


@PROPERTY_SETTINGS
@given(st.one_of(specs(9, 30), two_branch_specs(9, 30)), etas, chis)
def test_full_coincidence_readout_respects_qcrb_at_larger_n(spec, eta, chi):
    family = PhasedFamily(spec, chi=chi, eta=eta)
    fisher = family.qfi().qfi
    try:
        best = min_delta_phi(family.moment_profile(measurement_mm(spec.N, family.basis)))
    except DegenerateOperatingPointError:
        return
    assert fisher > 0.0
    # relative: bounds reach 1e9 here, where 1e-9 is below the float spacing
    assert best >= qcrb(fisher) * (1 - 1e-9)


@PROPERTY_SETTINGS
@given(st.one_of(specs(), two_branch_specs(1, 8)), etas, chis, phis)
def test_min_delta_phi_is_the_dense_readout_at_phi_zero(spec, eta, chi, phi):
    family = PhasedFamily(spec, chi=chi, eta=eta)
    for m in range(1, spec.N + 1):
        obs = measurement_mm(m, family.basis)
        try:
            best = min_delta_phi(family.moment_profile(obs))
        except DegenerateOperatingPointError:
            with pytest.raises(DegenerateOperatingPointError):
                oracle.delta_phi(family, obs, 0.0)
            continue
        # the dense oracle raises at a degenerate phi, and its slope floor is
        # relative to ||O||, not to the signal, so under heavy loss it may
        # call phi = 0 degenerate as well
        try:
            assert best == pytest.approx(oracle.delta_phi(family, obs, 0.0), rel=1e-9)
            assert oracle.delta_phi(family, obs, phi) >= best * (1 - 1e-9)
        except DegenerateOperatingPointError:
            continue


@PROPERTY_SETTINGS
@given(st.one_of(specs(1, 30), two_branch_specs(1, 30)), etas, chis)
def test_no_grid_point_beats_phi_zero(spec, eta, chi):
    family = PhasedFamily(spec, chi=chi, eta=eta)
    for m in range(1, spec.N + 1):
        profile = family.moment_profile(measurement_mm(m, family.basis))
        try:
            best = min_delta_phi(profile)
        except DegenerateOperatingPointError:
            # phi = 0 is degenerate only where the slope vanishes at every phi
            with pytest.raises(DegenerateOperatingPointError):
                oracle.scan_delta_phi(profile)
            continue
        assert oracle.scan_delta_phi(profile).min_delta_phi >= best * (1 - 1e-10)


@PROPERTY_SETTINGS
@given(specs(), etas, chis, st.floats(-math.pi, math.pi))
def test_moment_profile_is_the_dense_readout_at_any_phi(spec, eta, chi, phi):
    # mean and variance to 1e-12 of the scale (3.4e-15 at worst in 300
    # random draws);
    # delta_phi to 1e-9 relative plus the round-off of sqrt(Var)/|slope|,
    # which grows as the slope and the variance shrink
    family = PhasedFamily(spec, chi=chi, eta=eta)
    state = oracle.rho(family, phi).matrix
    tangent = oracle.rho_prime(family, phi).matrix
    at = np.array([phi])
    for m in range(1, spec.N + 1):
        obs = measurement_mm(m, family.basis)
        dense = oracle.dense(obs).matrix
        mean = float(np.sum(state * dense.T).real)
        second = float(np.sum(state * (dense @ dense).T).real)
        slope = abs(float(np.sum(tangent * dense.T).real))
        var = second - mean ** 2
        profile = family.moment_profile(obs)
        size = profile.scale
        assert profile.mean(at)[0] == pytest.approx(mean, rel=0.0, abs=1e-12 * size)
        assert profile.variance(at)[0] == pytest.approx(var, rel=0.0, abs=1e-12 * size ** 2)
        got = profile.delta_phi(at)[0]
        if math.isnan(got):  # degenerate: the slope or the variance vanishes
            assert (slope <= 1e-9 * profile.rate * size
                    or var <= 1e-5 * (abs(second) + mean ** 2))
            continue
        round_off = 1e-12 * (profile.rate * size / slope + size ** 2 / var)
        assert got == pytest.approx(math.sqrt(var) / slope, rel=1e-9 + round_off)
