import cmath
import math

import numpy as np
import pytest

import oracle
from kerrmet.estimation import PhasedFamily
from kerrmet.fock import TwoModeBasis
from kerrmet.interferometer import NoonLikeSpec, SuperpositionSpec, branch_amplitudes
from kerrmet.loss import cross_lossy_blocks, survival_table


def spec_length(n):
    return ((n - 1) // 2 if n % 2 else n // 2) + 1


def lossy(spec, eta, phi=0.0, chi=0.0, basis=None):
    """Closed-form channel output: the family's phase-rotated rho_0."""
    return oracle.rho(PhasedFamily(spec, chi=chi, eta=eta, basis=basis), phi)


def kraus_oracle(spec, eta, phi, chi, basis):
    """Independent route: evolve the pure input, then the generic Kraus map."""
    state = oracle.superposition_state(spec, basis)
    evolved = oracle.apply_phase(state, phi, chi)
    return oracle.apply_loss(evolved.to_density(), oracle.LossParams.equal(eta))


def test_kraus_element_no_loss_limit():
    basis = TwoModeBasis(3)
    assert np.allclose(oracle.kraus_element(1, 0, 1.0, basis), np.eye(basis.dim))
    assert np.all(oracle.kraus_element(1, 2, 1.0, basis) == 0)


def test_kraus_amplitude_single_photon():
    for eta in (0.2, 0.6, 0.9):
        assert oracle.kraus_amplitude(1, 1, eta) == pytest.approx(math.sqrt(1 - eta))
        assert oracle.kraus_amplitude(1, 0, eta) == pytest.approx(math.sqrt(eta))


@pytest.mark.parametrize("eta", [0.0, 0.31, 0.77, 1.0])
@pytest.mark.parametrize("mode", [1, 2])
def test_kraus_completeness(mode, eta):
    basis = TwoModeBasis(6)
    total = np.zeros((basis.dim, basis.dim), dtype=complex)
    for q in range(basis.n_total_max + 1):
        k = oracle.kraus_element(mode, q, eta, basis)
        total += k.conj().T @ k
    assert np.abs(total - np.eye(basis.dim)).max() < 1e-12


@pytest.mark.parametrize("eta", [0.0, 0.3, 0.9, 1.0])
def test_survival_table_matches_scalar_amplitude(eta):
    table = survival_table(30, eta)
    scalar = np.array([[oracle.kraus_amplitude(n, q, eta) for q in range(31)]
                       for n in range(31)])
    assert np.allclose(table, scalar, rtol=1e-12, atol=0.0)
    assert np.all(np.isfinite(survival_table(100, eta)))


def test_apply_loss_identity_at_unit_transmissivity():
    basis = TwoModeBasis(3)
    rho = oracle.superposition_state(NoonLikeSpec(3, 1), basis).to_density()
    out = oracle.apply_loss(rho, oracle.LossParams(1.0, 1.0))
    assert np.abs(out.matrix - rho.matrix).max() < 1e-14


def test_apply_loss_single_photon_two_terms():
    basis = TwoModeBasis(1)
    amps = np.zeros(basis.dim, dtype=complex)
    amps[basis.index_of(1, 0)] = 1.0
    rho = oracle.PureState(basis, amps).to_density()
    eta = 0.37
    out = oracle.apply_loss(rho, oracle.LossParams(eta, 1.0))
    want = np.zeros_like(rho.matrix)
    want[basis.index_of(1, 0), basis.index_of(1, 0)] = eta
    want[basis.index_of(0, 0), basis.index_of(0, 0)] = 1 - eta
    assert np.abs(out.matrix - want).max() < 1e-14


def test_apply_loss_supports_unequal_arms():
    basis = TwoModeBasis(2)
    amps = np.zeros(basis.dim, dtype=complex)
    amps[basis.index_of(1, 1)] = 1.0
    rho = oracle.PureState(basis, amps).to_density()
    out = oracle.apply_loss(rho, oracle.LossParams(0.25, 0.75))
    ix = basis.index_of
    assert out.matrix[ix(1, 1), ix(1, 1)] == pytest.approx(0.25 * 0.75)
    assert out.matrix[ix(1, 0), ix(1, 0)] == pytest.approx(0.25 * 0.25)
    assert out.matrix[ix(0, 1), ix(0, 1)] == pytest.approx(0.75 * 0.75)
    assert out.matrix[ix(0, 0), ix(0, 0)] == pytest.approx(0.75 * 0.25)


def test_lossy_noon_pure_limit():
    basis = TwoModeBasis(3)
    rho = lossy(NoonLikeSpec(3, 0), eta=1.0, phi=0.7, chi=0.1, basis=basis)
    pure = oracle.superposition_state(NoonLikeSpec(3, 0), basis)
    evolved = oracle.apply_phase(pure, 0.7, 0.1)
    assert np.abs(rho.matrix - evolved.to_density().matrix).max() < 1e-14
    assert rho.purity() == pytest.approx(1.0, abs=1e-12)


def test_lossy_noon_hand_values():
    # N=2, k=0, eta=0.5: survival weights eta^2/2 on |2,0> and |0,2>,
    # coherence eta^2/2, one-photon weights eta(1-eta), vacuum (1-eta)^2
    basis = TwoModeBasis(2)
    rho = lossy(NoonLikeSpec(2, 0), eta=0.5, basis=basis)
    ix = basis.index_of
    assert rho.matrix[ix(2, 0), ix(2, 0)] == pytest.approx(0.125, abs=1e-14)
    assert rho.matrix[ix(0, 2), ix(0, 2)] == pytest.approx(0.125, abs=1e-14)
    assert rho.matrix[ix(2, 0), ix(0, 2)] == pytest.approx(0.125, abs=1e-14)
    assert rho.matrix[ix(1, 0), ix(1, 0)] == pytest.approx(0.25, abs=1e-14)
    assert rho.matrix[ix(0, 1), ix(0, 1)] == pytest.approx(0.25, abs=1e-14)
    assert rho.matrix[ix(0, 0), ix(0, 0)] == pytest.approx(0.25, abs=1e-14)


def test_lossy_noon_coherence_phase():
    # the surviving two-branch coherence rotates at the full branch splitting
    basis = TwoModeBasis(2)
    phi = 0.7
    rho = lossy(NoonLikeSpec(2, 0), eta=0.5, phi=phi, basis=basis)
    ix = basis.index_of
    want = 0.125 * cmath.exp(-2j * phi)
    assert rho.matrix[ix(2, 0), ix(0, 2)] == pytest.approx(want, abs=1e-14)


def test_lossy_noon_matches_kraus_composition():
    for n in range(1, 7):
        for k in range(n + 1):
            for eta in (0.3, 0.7, 1.0):
                for phi in (0.0, 0.4):
                    basis = TwoModeBasis(n)
                    spec = NoonLikeSpec(n, k)
                    closed = lossy(spec, eta=eta, phi=phi, chi=0.05, basis=basis)
                    dense = kraus_oracle(spec, eta, phi, 0.05, basis)
                    assert np.abs(closed.matrix - dense.matrix).max() < 1e-11


def test_lossy_superposition_single_term_reduction():
    basis = TwoModeBasis(5)
    one_hot = SuperpositionSpec(5, (0.0, 1 / math.sqrt(2), 0.0))
    via_superposition = lossy(one_hot, eta=0.6, phi=0.3, chi=0.01, basis=basis)
    via_noon = lossy(NoonLikeSpec(5, 1), eta=0.6, phi=0.3, chi=0.01, basis=basis)
    assert np.abs(via_superposition.matrix - via_noon.matrix).max() < 1e-12


def test_lossy_superposition_pure_limit_is_projector():
    basis = TwoModeBasis(4)
    spec = SuperpositionSpec.normalized(4, (1.0, 0.7, 0.2))
    rho = lossy(spec, eta=1.0, phi=0.5, chi=0.02, basis=basis)
    evolved = oracle.apply_phase(oracle.superposition_state(spec, basis), 0.5, 0.02)
    assert np.abs(rho.matrix - evolved.to_density().matrix).max() < 1e-13
    assert rho.purity() == pytest.approx(1.0, abs=1e-12)


def test_lossy_superposition_matches_kraus_composition():
    alpha2 = math.sqrt(1 - 2 * 0.25 - 2 * 0.09) / 2
    spec = SuperpositionSpec(4, (0.5, 0.3, alpha2))
    basis = TwoModeBasis(4)
    closed = lossy(spec, eta=0.7, phi=0.2, chi=0.0, basis=basis)
    dense = kraus_oracle(spec, 0.7, 0.2, 0.0, basis)
    assert np.abs(closed.matrix - dense.matrix).max() < 1e-11


def test_lossy_superposition_random_specs_match_kraus():
    rng = np.random.default_rng(123)
    for n in range(1, 8):
        spec = SuperpositionSpec.normalized(n, rng.normal(size=spec_length(n)))
        for eta in (0.3, 0.7, 1.0):
            basis = TwoModeBasis(n)
            closed = lossy(spec, eta=eta, phi=0.4, chi=0.03, basis=basis)
            dense = kraus_oracle(spec, eta, 0.4, 0.03, basis)
            assert np.abs(closed.matrix - dense.matrix).max() < 1e-11


@pytest.mark.parametrize("eta", [0.0, 0.25, 0.5, 0.9, 1.0])
def test_trace_preserved_across_loss_grid(eta):
    for n in (1, 4, 9, 12):
        basis = TwoModeBasis(n)
        rho = lossy(NoonLikeSpec(n, n // 3), eta=eta, phi=0.2, basis=basis)
        assert abs(rho.matrix.trace().real - 1.0) < 1e-10


def test_block_structure_of_channel_output():
    basis = TwoModeBasis(5)
    rho = lossy(NoonLikeSpec(5, 2), eta=0.6, phi=0.9, basis=basis)
    blocks = oracle.block_split(rho)  # raises if off-block mass appears
    assert sum(b.trace().real for _, b in blocks) == pytest.approx(1.0, abs=1e-12)


def test_cross_blocks_are_views_into_one_buffer():
    n = 7
    branches = branch_amplitudes(n, NoonLikeSpec(n, 2).alpha)
    out = cross_lossy_blocks(branches, branches, n, 0.6)
    assert out.flat.size == sum((t + 1) ** 2 for t in range(n + 1))
    assert [t for t, _ in out] == list(range(n + 1))
    for t, block in out:
        assert block.shape == (t + 1, t + 1)
        assert np.shares_memory(block, out.flat)
    # writing through a view writes the buffer
    out[3][1][0, 0] = 7.0
    assert out.flat[sum((t + 1) ** 2 for t in range(3))] == 7.0


def test_purity_monotone_in_loss():
    # purity falls monotonically with moderate loss; at strong loss it
    # turns around again because eta -> 0 collapses onto the pure vacuum
    spec = NoonLikeSpec(6, 1)
    basis = TwoModeBasis(6)
    purities = []
    for eta in (1.0, 0.9, 0.7, 0.5):
        rho = lossy(spec, eta=eta, phi=0.1, basis=basis)
        purities.append(rho.purity())
    assert purities[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(purities) <= 1e-12)
    vacuum_limit = lossy(spec, eta=0.0, phi=0.1, basis=basis)
    assert vacuum_limit.purity() == pytest.approx(1.0, abs=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        oracle.LossParams(1.2, 0.5)
    with pytest.raises(ValueError):
        lossy(NoonLikeSpec(2, 0), eta=-0.1)
