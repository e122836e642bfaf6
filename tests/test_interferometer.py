import math

import numpy as np
import pytest

import oracle
from kerrmet.estimation import PhasedFamily, measurement_mm, qfi_pure_analytic
from kerrmet.fock import HermitianOperator, TwoModeBasis
from kerrmet.interferometer import NoonLikeSpec, SuperpositionSpec


def test_g_tilde_values():
    assert oracle.g_tilde(0, 0.7) == 0.0
    assert oracle.g_tilde(2, 0.1) == pytest.approx(2.2)
    assert oracle.g_tilde(10, 0.0) == 10.0


def test_generator_diagonal_entries():
    basis = TwoModeBasis(3)
    h = oracle.generator_h(basis, 0.0).matrix
    assert h[basis.index_of(1, 1), basis.index_of(1, 1)] == 0.0
    assert h[basis.index_of(1, 0), basis.index_of(1, 0)] == pytest.approx(-0.5)
    h2 = oracle.generator_h(basis, 0.2).matrix
    assert h2[basis.index_of(0, 3), basis.index_of(0, 3)] == pytest.approx(1.95)
    assert np.allclose(h2, np.diag(np.diag(h2)))


def test_apply_phase_identity_at_zero():
    basis = TwoModeBasis(4)
    state = oracle.superposition_state(NoonLikeSpec(4, 1), basis)
    evolved = oracle.apply_phase(state, 0.0, 0.3)
    assert np.array_equal(evolved.amplitudes, state.amplitudes)


def test_apply_phase_composition():
    basis = TwoModeBasis(5)
    state = oracle.superposition_state(NoonLikeSpec(5, 2), basis)
    one = oracle.apply_phase(oracle.apply_phase(state, 0.3, 0.1), 0.5, 0.1)
    two = oracle.apply_phase(state, 0.8, 0.1)
    assert np.abs(one.amplitudes - two.amplitudes).max() < 1e-12


def test_apply_phase_balanced_ket_invariant():
    basis = TwoModeBasis(4)
    amps = np.zeros(basis.dim, dtype=complex)
    amps[basis.index_of(2, 2)] = 1.0
    state = oracle.PureState(basis, amps)
    evolved = oracle.apply_phase(state, 1.3, 0.4)
    assert np.abs(evolved.amplitudes - state.amplitudes).max() < 1e-15


def test_apply_phase_single_photon_signal():
    # <M>(phi) = sin(phi (1 + chi/2)) for the single-photon split state
    chi = 0.4
    basis = TwoModeBasis(1)
    state = oracle.superposition_state(NoonLikeSpec(1, 0), basis)
    m = measurement_mm(1, basis)  # the photon-count difference is -M_1
    for phi in (0.0, 0.3, 1.1):
        evolved = oracle.apply_phase(state, phi, chi)
        assert -oracle.expectation(evolved, m) == pytest.approx(
            math.sin(phi * (1 + chi / 2)), abs=1e-12)


def test_apply_phase_preserves_blocks():
    basis = TwoModeBasis(3)
    state = oracle.superposition_state(NoonLikeSpec(3, 1), basis)
    evolved = oracle.apply_phase(state, 0.9, 0.2)
    assert np.abs(np.abs(evolved.amplitudes) - np.abs(state.amplitudes)).max() < 1e-15


def test_noon_like_states():
    basis = TwoModeBasis(3)
    state = oracle.superposition_state(NoonLikeSpec(1, 0), basis)
    assert state.amplitudes[basis.index_of(1, 0)] == pytest.approx(1 / math.sqrt(2))
    assert state.amplitudes[basis.index_of(0, 1)] == pytest.approx(1 / math.sqrt(2))

    state = oracle.superposition_state(NoonLikeSpec(3, 1), basis)
    assert state.amplitudes[basis.index_of(2, 1)] == pytest.approx(1 / math.sqrt(2))
    assert state.amplitudes[basis.index_of(1, 2)] == pytest.approx(1 / math.sqrt(2))


def test_noon_like_degenerate_midpoint():
    basis = TwoModeBasis(2)
    state = oracle.superposition_state(NoonLikeSpec(2, 1), basis)
    assert state.amplitudes[basis.index_of(1, 1)] == pytest.approx(1.0)
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0)


def test_noon_like_branch_order_symmetry():
    basis = TwoModeBasis(5)
    rho_a = oracle.superposition_state(NoonLikeSpec(5, 1), basis).to_density()
    rho_b = oracle.superposition_state(NoonLikeSpec(5, 4), basis).to_density()
    assert np.abs(rho_a.matrix - rho_b.matrix).max() < 1e-15


def test_noon_like_validation():
    with pytest.raises(ValueError):
        NoonLikeSpec(3, 4)
    with pytest.raises(ValueError):
        NoonLikeSpec(0, 0)
    with pytest.raises(ValueError):
        oracle.superposition_state(NoonLikeSpec(5, 0), TwoModeBasis(4))


def test_superposition_lengths_and_normalization():
    assert len(SuperpositionSpec(3, (0.5, 0.5)).alpha) == 2
    assert len(SuperpositionSpec(4, (1 / math.sqrt(2), 0.0, 0.0)).alpha) == 3
    with pytest.raises(ValueError):
        SuperpositionSpec(3, (0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        SuperpositionSpec(3, (0.5, 0.4))
    spec = SuperpositionSpec.normalized(5, (1.0, 2.0, -1.0))
    assert SuperpositionSpec.squared_weight(5, spec.alpha) == pytest.approx(1.0)


def test_superposition_reduces_to_noon():
    basis = TwoModeBasis(3)
    spec = SuperpositionSpec(3, (1 / math.sqrt(2), 0.0))
    assert NoonLikeSpec(3, 0) == spec
    state = oracle.superposition_state(spec, basis)
    noon = oracle.superposition_state(NoonLikeSpec(3, 0), basis)
    assert np.abs(state.amplitudes - noon.amplitudes).max() < 1e-15


def test_superposition_equal_weights():
    basis = TwoModeBasis(3)
    state = oracle.superposition_state(SuperpositionSpec(3, (0.5, 0.5)), basis)
    for ket in ((3, 0), (0, 3), (2, 1), (1, 2)):
        assert state.amplitudes[basis.index_of(*ket)] == pytest.approx(0.5)


def test_superposition_even_midpoint():
    basis = TwoModeBasis(2)
    state = oracle.superposition_state(SuperpositionSpec(2, (0.0, 0.5)), basis)
    assert state.amplitudes[basis.index_of(1, 1)] == pytest.approx(1.0)


def test_variance_of_generator_matches_pure_qfi():
    # cross-module property: 4 Var(H) equals the analytic pure-state value
    rng = np.random.default_rng(5)
    for n in (2, 5, 9):
        basis = TwoModeBasis(n)
        h = oracle.generator_h(basis, 0.07)
        hsq = HermitianOperator(basis, h.matrix @ h.matrix)
        for k in range(n + 1):
            state = oracle.superposition_state(NoonLikeSpec(n, k), basis)
            var = oracle.expectation(state, hsq) - oracle.expectation(state, h) ** 2
            want = qfi_pure_analytic(n, k, 0.07)
            assert 4 * var == pytest.approx(want, rel=1e-12, abs=1e-12)
        length = (n - 1) // 2 + 1 if n % 2 else n // 2 + 1
        spec = SuperpositionSpec.normalized(n, rng.normal(size=length))
        state = oracle.superposition_state(spec, basis)
        var = oracle.expectation(state, hsq) - oracle.expectation(state, h) ** 2
        got = PhasedFamily(spec, chi=0.07, eta=1.0).qfi().qfi
        assert got == pytest.approx(4 * var, rel=1e-9)
