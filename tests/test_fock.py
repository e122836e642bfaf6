import math

import numpy as np
import pytest

from kerrmet.fock import (
    BasisMismatchError,
    BlockStructureError,
    DensityOperator,
    HermitianOperator,
    PureState,
    TruncationError,
    TwoModeBasis,
    block_split,
    eigh,
    expectation,
    falling_factorial,
    lowering_power,
)
from kerrmet.estimation import PhasedFamily
from kerrmet.interferometer import NoonLikeSpec, superposition_state


def test_flat_index_layout():
    basis = TwoModeBasis(4)
    assert basis.index_of(0, 0) == 0
    assert basis.index_of(0, 1) == 1
    assert basis.index_of(1, 0) == 2
    # T=2 block starts at 3, n1 ascends within the block
    assert basis.index_of(1, 1) == 4


def test_dimension_formula():
    for n_max in (0, 1, 3, 10):
        basis = TwoModeBasis(n_max)
        assert basis.dim == (n_max + 1) * (n_max + 2) // 2


@pytest.mark.parametrize("n_max", [0, 1, 5, 9])
def test_index_round_trip(n_max):
    basis = TwoModeBasis(n_max)
    for i in range(basis.dim):
        n1, n2 = basis.state_of(i)
        assert basis.index_of(n1, n2) == i


def test_truncation_errors():
    basis = TwoModeBasis(3)
    with pytest.raises(TruncationError):
        basis.index_of(2, 2)
    with pytest.raises(TruncationError):
        basis.index_of(-1, 0)
    with pytest.raises(TruncationError):
        basis.state_of(basis.dim)


def test_falling_factorial_small_exact():
    assert falling_factorial(3, 2) == 6.0
    assert falling_factorial(5, 0) == 1.0
    assert falling_factorial(2, 5) == 0.0
    assert falling_factorial(20, 20) == float(math.factorial(20))


def test_falling_factorial_large_matches_product():
    # above the exact-integer limit the log-gamma route takes over
    want = 25.0 * 24.0 * 23.0
    assert falling_factorial(25, 3) == pytest.approx(want, rel=1e-13)
    assert falling_factorial(100, 100) == pytest.approx(math.factorial(100), rel=1e-10)


def test_lowering_single_photon():
    basis = TwoModeBasis(3)
    a1 = lowering_power(1, 1, basis)
    vec = np.zeros(basis.dim)
    vec[basis.index_of(1, 0)] = 1.0
    out = a1 @ vec
    assert out[basis.index_of(0, 0)] == pytest.approx(1.0)
    assert np.linalg.norm(out) == pytest.approx(1.0)


def test_lowering_two_photons_amplitude():
    basis = TwoModeBasis(3)
    a1_sq = lowering_power(1, 2, basis)
    vec = np.zeros(basis.dim)
    vec[basis.index_of(3, 0)] = 1.0
    out = a1_sq @ vec
    # falling factorial 3*2
    assert out[basis.index_of(1, 0)] == pytest.approx(math.sqrt(6.0))


def test_lowering_annihilates_vacuum_mode():
    basis = TwoModeBasis(5)
    a2 = lowering_power(2, 1, basis)
    vec = np.zeros(basis.dim)
    vec[basis.index_of(5, 0)] = 1.0
    assert np.all(a2 @ vec == 0)


def test_lowering_power_is_iterated_single_lowering():
    # compare on a padded basis so truncation never clips the product
    m = 3
    padded = TwoModeBasis(8 + m)
    for mode in (1, 2):
        single = lowering_power(mode, 1, padded)
        product = np.linalg.matrix_power(single, m)
        direct = lowering_power(mode, m, padded)
        assert np.allclose(product, direct, atol=1e-12)


def test_expectation_trivials():
    basis = TwoModeBasis(3)
    vacuum = np.zeros(basis.dim, dtype=complex)
    vacuum[basis.index_of(0, 0)] = 1.0
    rho = PureState(basis, vacuum).to_density()
    identity = HermitianOperator(basis, np.eye(basis.dim))
    assert expectation(rho, identity) == pytest.approx(1.0)

    one_two = np.zeros(basis.dim, dtype=complex)
    one_two[basis.index_of(1, 2)] = 1.0
    a2 = lowering_power(2, 1, basis)
    number2 = HermitianOperator(basis, a2.conj().T @ a2)
    assert expectation(PureState(basis, one_two), number2) == pytest.approx(2.0)


def test_expectation_m_squared():
    # <M^2> = 2 n1 n2 + n1 + n2 on each Fock component -> 7 on both kets
    from kerrmet.estimation import measurement_mm

    basis = TwoModeBasis(3)
    amps = np.zeros(basis.dim, dtype=complex)
    amps[basis.index_of(1, 2)] = 1 / math.sqrt(2)
    amps[basis.index_of(2, 1)] = 1 / math.sqrt(2)
    state = PureState(basis, amps)
    m = measurement_mm(1, basis).matrix  # M^2 does not depend on M's sign
    msq = HermitianOperator(basis, m @ m)
    assert expectation(state, msq) == pytest.approx(7.0, abs=1e-12)


def test_expectation_basis_mismatch():
    basis_a, basis_b = TwoModeBasis(2), TwoModeBasis(3)
    vec = np.zeros(basis_a.dim, dtype=complex)
    vec[0] = 1.0
    state = PureState(basis_a, vec)
    obs = HermitianOperator(basis_b, np.eye(basis_b.dim))
    with pytest.raises(BasisMismatchError):
        expectation(state, obs)


def test_block_split_pure_ket():
    basis = TwoModeBasis(4)
    state = superposition_state(NoonLikeSpec(4, 0), basis)
    blocks = block_split(state.to_density())
    nonzero = [t for t, b in blocks if np.abs(b).max() > 0]
    assert nonzero == [4]


def test_block_split_channel_output():
    basis = TwoModeBasis(2)
    rho = PhasedFamily(NoonLikeSpec(2, 0), eta=0.5, basis=basis).rho(0.0)
    blocks = block_split(rho)
    populated = [t for t, b in blocks if np.abs(b).max() > 1e-15]
    assert populated == [0, 1, 2]
    # blocks reassemble exactly
    rebuilt = np.zeros_like(rho.matrix)
    for t, b in blocks:
        sl = basis.block_slice(t)
        rebuilt[sl, sl] = b
    assert np.array_equal(rebuilt, rho.matrix)


def test_block_split_maximally_mixed_single_photon_block():
    basis = TwoModeBasis(1)
    rho = DensityOperator(basis, np.eye(3) / 3.0)
    blocks = dict(block_split(rho))
    assert blocks[1].shape == (2, 2)
    assert np.allclose(blocks[1], np.eye(2) / 3.0)


def test_block_split_rejects_off_block_mass():
    basis = TwoModeBasis(1)
    matrix = np.eye(3, dtype=complex) / 3.0
    matrix[0, 1] = matrix[1, 0] = 1e-6
    with pytest.raises(BlockStructureError):
        block_split(HermitianOperator(basis, matrix))


def test_eigh_diagonal_and_swap():
    vals, vecs = eigh(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.allclose(vals, [1.0, 2.0, 3.0])
    assert np.allclose(np.abs(vecs), np.eye(3)[:, [1, 2, 0]])

    vals, _ = eigh(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    assert np.allclose(vals, [-1.0, 1.0])


def test_eigh_reconstruction_random_hermitian():
    rng = np.random.default_rng(42)
    for dim in (5, 60, 200):
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        matrix = 0.5 * (raw + raw.conj().T)
        vals, vecs = eigh(matrix)
        rebuilt = (vecs * vals) @ vecs.conj().T
        scale = np.abs(vals).max()
        assert np.abs(rebuilt - matrix).max() <= 1e-9 * scale
        assert np.all(np.diff(vals) >= 0)


def test_eigh_channel_output_trace():
    basis = TwoModeBasis(3)
    rho = PhasedFamily(NoonLikeSpec(3, 1), eta=0.8, basis=basis).rho(0.0)
    vals, _ = eigh(rho)
    assert vals.sum() == pytest.approx(1.0, abs=1e-12)


def test_density_operator_validation():
    basis = TwoModeBasis(1)
    with pytest.raises(ValueError):
        DensityOperator(basis, np.diag([0.5, 0.5, 0.5]))  # trace 1.5
    bad = np.diag([1.2, -0.2, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        DensityOperator(basis, bad)  # eigenvalue below the PSD floor
    skew = np.eye(3, dtype=complex) / 3
    skew[0, 1] = 1e-3
    with pytest.raises(ValueError):
        DensityOperator(basis, skew)


def test_pure_state_norm_validation():
    basis = TwoModeBasis(1)
    with pytest.raises(ValueError):
        PureState(basis, np.array([0.5, 0.5, 0.5]))
    state = PureState.normalized(basis, np.array([1.0, 1.0, 0.0]))
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-15)
