import math

import numpy as np
import pytest

import oracle
from kerrmet.fock import (
    BasisMismatchError,
    HermitianOperator,
    TruncationError,
    TwoModeBasis,
    block_diagonal,
    block_offsets,
    falling_factorial,
    lowering_power,
)
from kerrmet.estimation import PhasedFamily
from kerrmet.interferometer import NoonLikeSpec
from oracle import BlockStructureError, DenseOperator, block_split


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
        assert basis.index_of(int(basis.n1[i]), int(basis.n2[i])) == i


def test_truncation_errors():
    basis = TwoModeBasis(3)
    with pytest.raises(TruncationError):
        basis.index_of(2, 2)
    with pytest.raises(TruncationError):
        basis.index_of(-1, 0)


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
    a1 = oracle.lowering_power(1, 1, basis)
    vec = np.zeros(basis.dim)
    vec[basis.index_of(1, 0)] = 1.0
    out = a1 @ vec
    assert out[basis.index_of(0, 0)] == pytest.approx(1.0)
    assert np.linalg.norm(out) == pytest.approx(1.0)


def test_lowering_two_photons_amplitude():
    basis = TwoModeBasis(3)
    a1_sq = oracle.lowering_power(1, 2, basis)
    vec = np.zeros(basis.dim)
    vec[basis.index_of(3, 0)] = 1.0
    out = a1_sq @ vec
    # falling factorial 3*2
    assert out[basis.index_of(1, 0)] == pytest.approx(math.sqrt(6.0))


def test_lowering_annihilates_vacuum_mode():
    basis = TwoModeBasis(5)
    a2 = oracle.lowering_power(2, 1, basis)
    vec = np.zeros(basis.dim)
    vec[basis.index_of(5, 0)] = 1.0
    assert np.all(a2 @ vec == 0)


def test_lowering_power_is_iterated_single_lowering():
    # compare on a padded basis so truncation never clips the product
    m = 3
    padded = TwoModeBasis(8 + m)
    for mode in (1, 2):
        single = oracle.lowering_power(mode, 1, padded)
        product = np.linalg.matrix_power(single, m)
        direct = oracle.lowering_power(mode, m, padded)
        assert np.allclose(product, direct, atol=1e-12)


def test_lowering_power_matches_elementwise_definition():
    # a^m |n> = sqrt(n!/(n-m)!) |n - m> in the chosen mode, entry by entry
    for n_max in range(0, 9):
        basis = TwoModeBasis(n_max)
        for mode in (1, 2):
            for m in range(0, n_max + 2):
                want = np.zeros((basis.dim, basis.dim), dtype=complex)
                for src in range(basis.dim):
                    n1, n2 = int(basis.n1[src]), int(basis.n2[src])
                    n = n1 if mode == 1 else n2
                    if n >= m:
                        tgt = (n1 - m, n2) if mode == 1 else (n1, n2 - m)
                        want[basis.index_of(*tgt), src] = math.sqrt(falling_factorial(n, m))
                assert np.array_equal(oracle.lowering_power(mode, m, basis), want)
                # the package's amplitudes: zero on every annihilated column
                assert np.array_equal(lowering_power(mode, m, basis),
                                      want.sum(axis=0).real), (n_max, mode, m)


def test_expectation_trivials():
    basis = TwoModeBasis(3)
    vacuum = np.zeros(basis.dim, dtype=complex)
    vacuum[basis.index_of(0, 0)] = 1.0
    rho = oracle.PureState(basis, vacuum).to_density()
    identity = DenseOperator(basis, np.eye(basis.dim))
    assert oracle.expectation(rho, identity) == pytest.approx(1.0)

    one_two = np.zeros(basis.dim, dtype=complex)
    one_two[basis.index_of(1, 2)] = 1.0
    a2 = oracle.lowering_power(2, 1, basis)
    number2 = DenseOperator(basis, a2.conj().T @ a2)
    state = oracle.PureState(basis, one_two)
    assert oracle.expectation(state, number2) == pytest.approx(2.0)


def test_expectation_m_squared():
    # <M^2> = 2 n1 n2 + n1 + n2 on each Fock component -> 7 on both kets
    from kerrmet.estimation import measurement_mm

    basis = TwoModeBasis(3)
    amps = np.zeros(basis.dim, dtype=complex)
    amps[basis.index_of(1, 2)] = 1 / math.sqrt(2)
    amps[basis.index_of(2, 1)] = 1 / math.sqrt(2)
    state = oracle.PureState(basis, amps)
    m = oracle.dense(measurement_mm(1, basis)).matrix  # M^2 does not depend on M's sign
    msq = DenseOperator(basis, m @ m)
    assert oracle.expectation(state, msq) == pytest.approx(7.0, abs=1e-12)


def test_expectation_basis_mismatch():
    basis_a, basis_b = TwoModeBasis(2), TwoModeBasis(3)
    vec = np.zeros(basis_a.dim, dtype=complex)
    vec[0] = 1.0
    state = oracle.PureState(basis_a, vec)
    obs = DenseOperator(basis_b, np.eye(basis_b.dim))
    with pytest.raises(BasisMismatchError):
        oracle.expectation(state, obs)


def test_block_split_pure_ket():
    basis = TwoModeBasis(4)
    state = oracle.superposition_state(NoonLikeSpec(4, 0), basis)
    blocks = block_split(state.to_density())
    nonzero = [t for t, b in blocks if np.abs(b).max() > 0]
    assert nonzero == [4]


def test_block_split_channel_output():
    basis = TwoModeBasis(2)
    rho = oracle.rho(PhasedFamily(NoonLikeSpec(2, 0), eta=0.5, basis=basis), 0.0)
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
    rho = oracle.DensityOperator(basis, np.eye(3) / 3.0)
    blocks = dict(block_split(rho))
    assert blocks[1].shape == (2, 2)
    assert np.allclose(blocks[1], np.eye(2) / 3.0)


def test_block_split_rejects_off_block_mass():
    basis = TwoModeBasis(1)
    matrix = np.eye(3, dtype=complex) / 3.0
    matrix[0, 1] = matrix[1, 0] = 1e-6
    with pytest.raises(BlockStructureError):
        block_split(DenseOperator(basis, matrix))


def test_eigh_channel_output_trace():
    basis = TwoModeBasis(3)
    rho = oracle.rho(PhasedFamily(NoonLikeSpec(3, 1), eta=0.8, basis=basis), 0.0)
    vals = np.linalg.eigvalsh(rho.matrix)
    assert vals.sum() == pytest.approx(1.0, abs=1e-12)


def test_density_operator_validation():
    basis = TwoModeBasis(1)
    with pytest.raises(ValueError):
        oracle.DensityOperator(basis, np.diag([0.5, 0.5, 0.5]))  # trace 1.5
    bad = np.diag([1.2, -0.2, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        oracle.DensityOperator(basis, bad)  # eigenvalue below the PSD floor
    skew = np.eye(3, dtype=complex) / 3
    skew[0, 1] = 1e-3
    with pytest.raises(ValueError):
        oracle.DensityOperator(basis, skew)


def test_density_operator_psd_check_inside_a_block():
    # block T = 1 is [[0.5, 0.6], [0.6, 0.5]] with eigenvalue -0.1, while
    # every diagonal entry is non-negative
    basis = TwoModeBasis(2)
    matrix = np.zeros((basis.dim, basis.dim), dtype=complex)
    sl = basis.block_slice(1)
    matrix[sl, sl] = [[0.5, 0.6], [0.6, 0.5]]
    with pytest.raises(ValueError, match="PSD floor"):
        oracle.DensityOperator(basis, matrix)


def test_hermiticity_check_covers_every_band():
    dim = 1000
    band = oracle._band_rows(dim)
    assert band < dim // 3  # at least four bands, the last one partial
    assert dim % band
    last = dim - 1
    for row, col in ((last, 0),  # last row band against the first
                     (last, last - 1),  # inside the last band
                     (1, 2 * band + 1),  # crosses two bands
                     (2 * band + 1, 1)):
        matrix = np.diag(np.arange(dim, dtype=complex))
        oracle._check_hermitian(matrix, "diagonal")
        matrix[row, col] = 1e-6
        with pytest.raises(ValueError, match="not Hermitian"):
            oracle._check_hermitian(matrix, "perturbed")


def test_hermiticity_check_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        oracle._check_hermitian(np.zeros((2, 3)), "input")


def test_pure_state_norm_validation():
    basis = TwoModeBasis(1)
    with pytest.raises(ValueError):
        oracle.PureState(basis, np.array([0.5, 0.5, 0.5]))
    state = oracle.PureState(basis, np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0))
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-15)


def flat_identity(n_max: int) -> np.ndarray:
    flat = np.zeros(block_offsets(n_max)[-1], dtype=complex)
    flat[block_diagonal(n_max)] = 1.0
    return flat


def test_operator_blocks_view_the_flat_buffer():
    basis = TwoModeBasis(4)
    op = HermitianOperator(basis, flat_identity(4))
    assert [t for t, _ in op.blocks] == list(range(5))
    for t, block in op.blocks:
        assert np.array_equal(block, np.eye(t + 1))
        assert np.shares_memory(block, op.matrix)
    assert np.array_equal(oracle.dense(op).matrix, np.eye(basis.dim))


def test_operator_rejects_a_wrong_buffer_length():
    basis = TwoModeBasis(3)
    with pytest.raises(ValueError, match="does not match"):
        HermitianOperator(basis, flat_identity(4))
    with pytest.raises(ValueError, match="does not match"):
        HermitianOperator(basis, np.eye(basis.dim))


@pytest.mark.parametrize("t", [1, 2, 4])
def test_operator_hermiticity_is_checked_in_every_block(t):
    basis = TwoModeBasis(4)
    flat = flat_identity(4)
    HermitianOperator(basis, flat)
    flat[block_offsets(4)[t] + 1] = 1e-6  # entry (0, 1) of block t alone
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianOperator(basis, flat)
    flat[block_offsets(4)[t] + t + 1] = 1e-6  # its mirror (1, 0)
    HermitianOperator(basis, flat)
    flat[block_offsets(4)[t]] = 1j  # an imaginary diagonal entry
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianOperator(basis, flat)
