import math
import tracemalloc

import numpy as np
import pytest

import oracle
from kerrmet import estimation
from kerrmet.estimation import (
    BlockPairs,
    DegenerateOperatingPointError,
    KScanPairs,
    MomentProfile,
    PhasedFamily,
    UndefinedBoundError,
    _class_step,
    _qfi_from_block_pairs,
    generator_flat,
    max_qfi_over_k,
    measurement_mm,
    min_delta_phi,
    qcrb,
    qfi_over_k,
    qfi_pure_analytic,
)
from kerrmet.fock import (
    FlatBlocks,
    HermitianOperator,
    NumericalError,
    PSD_FLOOR,
    TwoModeBasis,
    block_offsets,
    check_trace,
    falling_factorial,
)
from kerrmet.interferometer import (
    NoonLikeSpec,
    SuperpositionSpec,
    branch_amplitudes,
    superposition_length,
)
from kerrmet.loss import survival_table
from kerrmet.optimizer import OptimizationProblem, _QuadraticQfiModel


def qfi_pinv_oracle(rho: oracle.DensityOperator, rhop: oracle.DenseOperator) -> float:
    """Brute-force full-matrix route: solve (L rho + rho L)/2 = rho' by a
    pseudo-inverse in the vectorized representation, then Tr[rho' L]."""
    dim = rho.basis.dim
    eye = np.eye(dim)
    lyapunov = 0.5 * (np.kron(rho.matrix, eye) + np.kron(eye, rho.matrix.T))
    solution = np.linalg.pinv(lyapunov, rcond=1e-10) @ rhop.matrix.ravel()
    sld_matrix = solution.reshape(dim, dim)
    return float(np.trace(rhop.matrix @ sld_matrix).real)


def commutator_derivative(basis, rho, chi):
    h = oracle.generator_h(basis, chi).matrix
    mat = 1j * (h @ rho.matrix - rho.matrix @ h)
    return oracle.DenseOperator(basis, mat)


# ---------------------------------------------------------------- pure QFI


def test_qfi_pure_analytic_values():
    assert qfi_pure_analytic(10, 0, 0.0) == pytest.approx(100.0)
    assert qfi_pure_analytic(4, 2, 0.37) == 0.0
    assert qfi_pure_analytic(3, 1, 0.2) == pytest.approx(1.69)
    with pytest.raises(ValueError):
        qfi_pure_analytic(3, 5, 0.0)


def test_qfi_matches_analytic_on_pure_family():
    for n in (1, 4, 10, 20):
        for k in range(n + 1):
            for chi in (0.0, 1e-8, 0.1):
                family = PhasedFamily(NoonLikeSpec(n, k), chi=chi, eta=1.0)
                got = family.qfi().qfi
                want = qfi_pure_analytic(n, k, chi)
                assert abs(got - want) <= 1e-9 * max(1.0, want)


def test_qfi_zero_for_stationary_mixture():
    # maximally mixed on one block commutes with the generator
    basis = TwoModeBasis(1)
    rho = oracle.DensityOperator(basis, np.diag([0.0, 0.5, 0.5]).astype(complex))
    rhop = commutator_derivative(basis, rho, 0.0)
    assert np.abs(rhop.matrix).max() < 1e-15
    assert oracle.qfi(rho, rhop) == 0.0


def test_qfi_lossy_against_pinv_oracle():
    frozen = {(2, 0, 0.5): 1.0}  # known closed form N^2 eta^N at k=0
    for (n, k, eta), want in frozen.items():
        family = PhasedFamily(NoonLikeSpec(n, k), chi=0.0, eta=eta)
        got = family.qfi().qfi
        assert got == pytest.approx(want, rel=1e-10)
        dense = qfi_pinv_oracle(oracle.rho(family, 0.0), oracle.rho_prime(family, 0.0))
        assert got == pytest.approx(dense, rel=1e-9)


def test_qfi_lossy_pinv_oracle_sweep():
    for n, k, eta, chi, phi in [(2, 0, 0.5, 0.0, 0.0), (3, 1, 0.8, 0.1, 0.3),
                                (4, 0, 0.6, 1e-3, 0.7), (5, 2, 0.9, 0.0, 0.0)]:
        family = PhasedFamily(NoonLikeSpec(n, k), chi=chi, eta=eta)
        got = family.qfi().qfi
        dense = qfi_pinv_oracle(oracle.rho(family, phi), oracle.rho_prime(family, phi))
        assert got == pytest.approx(dense, rel=1e-9, abs=1e-12)


def test_qfi_equals_four_variance_on_rank_one():
    basis = TwoModeBasis(6)
    state = oracle.superposition_state(NoonLikeSpec(6, 2), basis)
    rho = state.to_density()
    rhop = commutator_derivative(basis, rho, 0.05)
    h = oracle.generator_h(basis, 0.05)
    hsq = oracle.DenseOperator(basis, h.matrix @ h.matrix)
    var = oracle.expectation(state, hsq) - oracle.expectation(state, h) ** 2
    assert oracle.qfi(rho, rhop) == pytest.approx(4 * var, rel=1e-12)


@pytest.mark.parametrize("eta", [0.5, 0.6, 0.75, 0.9, 1.0])
def test_qfi_lossy_noon_closed_form(eta):
    # equal-loss NOON state: F = (N + chi N^2/2)^2 eta^N (Dorner et al.,
    # PRL 102, 040403 (2009)).  Only block T = N keeps the branch coherence,
    # and under heavy loss it lies wholly below 1e-12 of the largest
    # eigenvalue of the other blocks, so the rank cutoff must be per block
    chi = 1e-8
    larger = (150, 200) if eta in (0.5, 0.9) else ()
    for n in (1, 10, 40, 50, 60, 70, 80, 90, 100) + larger:
        got = PhasedFamily(NoonLikeSpec(n, 0), chi=chi, eta=eta).qfi().qfi
        want = (n + 0.5 * chi * n * n) ** 2 * eta ** n
        assert got == pytest.approx(want, rel=1e-9), n


def _assert_matches_unsplit(family, with_sld=False):
    """The class-split spectral step against one eigh per whole block."""
    pairs = family._pairs()
    got = _qfi_from_block_pairs(pairs, with_sld=with_sld)
    want = oracle.blockwise_qfi(pairs, with_sld=with_sld)
    assert abs(got.qfi - want.qfi) <= max(1e-12 * abs(want.qfi), 1e-300)
    assert got.spectrum.shape == want.spectrum.shape
    assert np.abs(got.spectrum - want.spectrum).max() <= 1e-13
    return got, want


@pytest.mark.parametrize("eta", [0.3, 0.6, 0.9, 1.0])
def test_class_split_matches_unsplit_blocks(eta):
    # every k up to N = 30: k = N/2 at even N is a single ket (stride 0,
    # singleton classes), k = (N - 1)/2 at odd N has stride 1 (one class
    # per block), the other k stride N - 2k
    for n in range(1, 31):
        for k in range(n // 2 + 1):
            family = PhasedFamily(NoonLikeSpec(n, k), chi=1e-8, eta=eta)
            assert family.stride == n - 2 * k
            _assert_matches_unsplit(family)


@pytest.mark.parametrize("eta", [0.3, 0.6, 0.9, 1.0])
def test_class_split_sparse_superposition_stride_two(eta):
    # weight on k = 0 and k = 2 only: at even N the branch n1 values N, N-2,
    # 2, 0 differ by multiples of 2
    for n in (4, 6, 10, 20, 30):
        alpha = np.zeros(n // 2 + 1)
        alpha[[0, 2]] = (0.8, 0.6)
        family = PhasedFamily(SuperpositionSpec.normalized(n, alpha), chi=0.01, eta=eta)
        assert family.stride == 2
        _assert_matches_unsplit(family)


@pytest.mark.parametrize("t, big, pair", [
    (4, [0, 2, 4], [1, 3]), (4, [1, 3], [0, 4]), (3, [0, 2], [1, 3]), (3, [1, 3], [0, 2])])
def test_class_cutoff_comes_from_the_whole_block(t, big, pair):
    # block t at stride 2: one class is diagonal with weight 1, another
    # holds a coherent pair of total weight w, whose Fisher information is
    # w (i - j)^2.  At w = 2e-14 the pair lies below 1e-12 of the block's
    # largest eigenvalue, though not of its own class's, whichever class
    # size is solved first
    blocks = FlatBlocks(np.zeros(55), 4)
    _, block = blocks[t]
    block[big, big] = 1.0 / len(big)
    pairs = BlockPairs(blocks.flat, generator_flat(4, 0.0), 4, 2)
    block[np.ix_(pair, pair)] = 1e-14
    result = _qfi_from_block_pairs(pairs, with_sld=True)
    assert result.qfi == 0.0 == oracle.blockwise_qfi(pairs).qfi
    assert not any(sld.any() for sld in result.sld)
    # at w = 2e-11 the pair counts; the unsplit eigh resolves its
    # eigenvalues only to eps times the block norm, the class split to
    # eps times the class norm
    block[np.ix_(pair, pair)] = 1e-11
    result = _qfi_from_block_pairs(pairs, with_sld=True)
    assert result.qfi == pytest.approx(2e-11 * (pair[1] - pair[0]) ** 2, rel=1e-12)
    assert result.qfi == pytest.approx(oracle.blockwise_qfi(pairs).qfi, rel=1e-6)


def test_channel_output_lives_on_the_residue_classes():
    # the split is exact: rho_0 has no entry between classes
    for n, k in ((9, 2), (12, 3), (12, 6), (20, 0)):
        family = PhasedFamily(NoonLikeSpec(n, k), chi=0.0, eta=0.7)
        step = family.stride or n + 1
        for t, block in enumerate(oracle.rho0_blocks(family)):
            i, j = np.indices(block.shape)
            assert not block[(i - j) % step != 0].any(), (n, k, t)


@pytest.mark.parametrize("n, eta", [(7, 0.6), (13, 0.9), (21, 0.3), (29, 1.0)])
def test_stride_one_sld_matches_unsplit_blocks(n, eta):
    family = PhasedFamily(NoonLikeSpec(n, (n - 1) // 2), chi=0.05, eta=eta)
    assert family.stride == 1
    got, want = _assert_matches_unsplit(family, with_sld=True)
    for t, (j, b) in enumerate(zip(got.sld, want.sld)):
        assert np.abs(1j * j - b).max() <= 1e-12 * max(1.0, np.abs(b).max()), t


def test_class_split_sld_is_zero_between_classes():
    family = PhasedFamily(NoonLikeSpec(14, 4), chi=0.05, eta=0.8)
    result = _qfi_from_block_pairs(family._pairs(), with_sld=True)
    for block in result.sld:
        i, j = np.indices(block.shape)
        assert np.all(block[(i - j) % family.stride != 0] == 0.0)


def _stride_two_pairs(classes):
    """BlockPairs of N = 4 at stride 2 with the given (T, rows, class matrix)
    written into a zeroed flat buffer."""
    blocks = FlatBlocks(np.zeros(55), 4)
    for t, rows, matrix in classes:
        blocks[t][1][np.ix_(rows, rows)] = matrix
    return BlockPairs(blocks.flat, generator_flat(4, 0.05), 4, 2)


TWO_BY_TWO = {
    "rank two": [[0.3, 0.1], [0.1, 0.2]],
    "rank one": [[0.1, math.sqrt(0.005)], [math.sqrt(0.005), 0.05]],
    "a = d, b = 0": [[0.07, 0.0], [0.0, 0.07]],
    "b = 0, a != d": [[0.04, 0.0], [0.0, 0.01]],
}


@pytest.mark.parametrize("case", TWO_BY_TWO)
def test_two_by_two_classes_in_closed_form(case, monkeypatch):
    # the case fills 2 x 2 classes of blocks 2, 3 and 4 next to a rank-two
    # 2 x 2 class and a 3 x 3 class, which still goes to eigh
    x = np.array(TWO_BY_TWO[case])
    pairs = _stride_two_pairs([(2, [0, 2], x), (3, [0, 2], TWO_BY_TWO["rank two"]),
                               (3, [1, 3], 0.5 * x), (4, [1, 3], 2.0 * x),
                               (4, [0, 2, 4], np.full((3, 3), 0.01) + np.diag([0.1, 0.2, 0.3]))])
    shapes, eigh = [], np.linalg.eigh  # the class shapes handed to eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda x: shapes.append(x.shape[1:]) or eigh(x))
    got = _qfi_from_block_pairs(pairs, with_sld=True)
    assert shapes == [(3, 3)]
    want = oracle.blockwise_qfi(pairs, with_sld=True)
    assert got.qfi == pytest.approx(want.qfi, rel=1e-12, abs=1e-300)
    assert np.abs(got.spectrum - want.spectrum).max() <= 1e-13
    for t, (j, b) in enumerate(zip(got.sld, want.sld)):
        assert np.abs(1j * j - b).max() <= 1e-12 * max(1.0, np.abs(b).max()), t
    # on its own the class adds 4 kappa^2 / (a + d), and J_02 = 2 kappa / (a + d)
    alone = _qfi_from_block_pairs(_stride_two_pairs([(2, [0, 2], x)]), with_sld=True)
    g = generator_flat(4, 0.05)[3:6]
    assert alone.qfi == pytest.approx(4 * ((g[0] - g[2]) * x[0, 1]) ** 2 / np.trace(x),
                                      rel=1e-12, abs=0.0)
    assert alone.sld[2][0, 2] == -alone.sld[2][2, 0] == pytest.approx(
        2 * (g[0] - g[2]) * x[0, 1] / np.trace(x), rel=1e-12, abs=0.0)


def test_two_by_two_batch_sums_each_point_in_order():
    # each point of a batch gets the bits of its own single-point result
    cases = list(TWO_BY_TWO.values())
    flats = [_stride_two_pairs([(2, [0, 2], x), (3, [1, 3], cases[i - 1]),
                                (4, [1, 3], 0.5 * x)]).rho_flat
             for i, x in enumerate(map(np.array, cases))]
    batch = BlockPairs(np.stack(flats), generator_flat(4, 0.05), 4, 2)
    got = _qfi_from_block_pairs(batch, with_sld=True)
    for i, flat in enumerate(flats):
        one = _qfi_from_block_pairs(BlockPairs(flat, generator_flat(4, 0.05), 4, 2),
                                    with_sld=True)
        assert got.qfi[i] == one.qfi
        assert all(np.array_equal(many[i], sld) for many, sld in zip(got.sld, one.sld))


@pytest.mark.parametrize("scale, kept", [(1.0 - 1e-9, False), (1.0 + 1e-9, True)])
def test_two_by_two_class_at_the_rank_cutoff(scale, kept):
    # block 3 has largest eigenvalue 1 exactly (class {1, 3}), so a class
    # of trace w counts when w exceeds RANK_CUTOFF_FACTOR
    w = estimation.RANK_CUTOFF_FACTOR * scale
    small = [[w / 2, w / 4], [w / 4, w / 2]]
    result = _qfi_from_block_pairs(
        _stride_two_pairs([(3, [1, 3], [[1.0, 0.0], [0.0, 0.0]]), (3, [0, 2], small)]),
        with_sld=True)
    g = generator_flat(4, 0.05)[6:10]
    kappa = (g[0] - g[2]) * w / 4
    assert result.qfi == (pytest.approx(4 * kappa ** 2 / w, rel=1e-12) if kept else 0.0)
    assert result.sld[3].any() == kept


def test_two_by_two_eigenvalues_are_clamped_at_the_psd_floor():
    # p_- = -1e-12 lies above PSD_FLOOR: clamped to 0, and the class's term
    # is 4 kappa^2 / p_+; p_- = -1e-9 lies below it and raises
    b = 0.5 + 1e-12
    pairs = _stride_two_pairs([(2, [0, 2], [[0.5, b], [b, 0.5]])])
    result = _qfi_from_block_pairs(pairs)
    assert PSD_FLOOR < result.spectrum[0] < 0.0
    g = generator_flat(4, 0.05)[3:6]
    assert result.qfi == pytest.approx(4 * ((g[0] - g[2]) * b) ** 2 / (1.0 + 1e-12),
                                       rel=1e-12)
    assert result.qfi == pytest.approx(oracle.blockwise_qfi(pairs).qfi, rel=1e-12)
    b = 0.5 + 1e-9
    with pytest.raises(ValueError, match="below PSD floor"):
        _qfi_from_block_pairs(_stride_two_pairs([(2, [0, 2], [[0.5, b], [b, 0.5]])]))


def test_qfi_result_diagnostics():
    family = PhasedFamily(NoonLikeSpec(3, 0), chi=0.0, eta=0.7)
    result = family.qfi()
    assert result.qfi >= 0.0
    assert result.rank_cutoff > 0.0
    assert result.spectrum.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.diff(result.spectrum) >= 0)


# ---------------------------------------------------------------- SLD


def test_sld_pure_family_is_twice_derivative():
    basis = TwoModeBasis(4)
    rho = oracle.superposition_state(NoonLikeSpec(4, 1), basis).to_density()
    rhop = commutator_derivative(basis, rho, 0.0)
    sld_op = oracle.sld(rho, rhop)
    assert np.abs(sld_op.matrix - 2 * rhop.matrix).max() < 1e-10


def test_sld_zero_derivative():
    basis = TwoModeBasis(2)
    rho = oracle.superposition_state(NoonLikeSpec(2, 1), basis).to_density()
    zero = oracle.DenseOperator(basis, np.zeros((basis.dim, basis.dim)))
    assert np.abs(oracle.sld(rho, zero).matrix).max() == 0.0


@pytest.mark.parametrize("n,k,eta", [(2, 0, 0.5), (3, 1, 0.8), (5, 0, 0.6),
                                     (6, 2, 0.9)])
def test_sld_reconstructs_derivative_on_support(n, k, eta):
    family = PhasedFamily(NoonLikeSpec(n, k), chi=0.01, eta=eta)
    rho = oracle.rho(family, 0.2)
    rhop = oracle.rho_prime(family, 0.2)
    sld_op = oracle.sld(rho, rhop)
    residual = rhop.matrix - 0.5 * (sld_op.matrix @ rho.matrix
                                    + rho.matrix @ sld_op.matrix)
    vals, vecs = np.linalg.eigh(rho.matrix)
    support = vecs[:, vals > 1e-12]
    projected = support.conj().T @ residual @ support
    scale = max(np.abs(rhop.matrix).max(), 1e-30)
    assert np.abs(projected).max() <= 1e-9 * scale


# ---------------------------------------------------------------- derivatives


def test_rho_prime_pure_matches_commutator():
    family = PhasedFamily(NoonLikeSpec(4, 1), chi=0.2, eta=1.0)
    for phi in (0.0, 0.6):
        got = oracle.rho_prime(family, phi)
        want = commutator_derivative(family.basis, oracle.rho(family, phi), 0.2)
        assert np.abs(got.matrix - want.matrix).max() < 1e-12


def test_rho_prime_constant_diagonal_differentiates_to_zero():
    family = PhasedFamily(NoonLikeSpec(3, 0), chi=0.0, eta=0.5)
    rhop = oracle.rho_prime(family, 0.4)
    basis = family.basis
    for i in range(basis.dim):
        assert abs(rhop.matrix[i, i]) < 1e-15
    assert abs(rhop.matrix.trace()) < 1e-12


def test_rho_prime_finite_difference_agrees():
    for n, eta in [(3, 0.5), (5, 0.9)]:
        spec = SuperpositionSpec.normalized(n, np.arange(1, (n - 1) // 2 + 2 if n % 2
                                                         else n // 2 + 2, dtype=float))
        family = PhasedFamily(spec, chi=0.05, eta=eta)
        for phi in (0.0, 0.8):
            a = oracle.rho_prime(family, phi).matrix
            f = oracle.richardson_rho_prime(family, phi, 1e-3)
            assert np.abs(a - f).max() <= 1e-6 * max(np.abs(a).max(), 1e-12)


def test_rho_prime_step_too_small():
    family = PhasedFamily(NoonLikeSpec(2, 0), eta=0.9)
    with pytest.raises(NumericalError):
        oracle.richardson_rho_prime(family, 0.3, 1e-16)


# ---------------------------------------------------------------- k scan


def test_max_qfi_over_k_lossless():
    for n in (2, 5, 10):
        k_star, qfi_star = max_qfi_over_k(n, 1.0, 0.0)
        assert k_star == 0
        assert qfi_star == pytest.approx(n * n, rel=1e-9)


def test_max_qfi_over_k_tie_breaks_low():
    k_star, qfi_star = max_qfi_over_k(1, 1.0, 0.0)
    assert k_star == 0
    assert qfi_star == pytest.approx(1.0, rel=1e-12)


def test_max_qfi_over_k_matches_exhaustive():
    n, eta, chi = 6, 0.9, 1e-8
    values = [PhasedFamily(NoonLikeSpec(n, k), chi=chi, eta=eta).qfi().qfi
              for k in range(n + 1)]
    k_star, qfi_star = max_qfi_over_k(n, eta, chi)
    assert qfi_star == pytest.approx(max(values), rel=1e-12)
    assert k_star == int(np.argmax(values))


@pytest.mark.parametrize("eta", [0.0, 0.3, 0.9, 1.0])
@pytest.mark.parametrize("chi", [0.0, 0.05])
def test_k_scan_matches_the_per_k_families_bit_for_bit(eta, chi):
    # the batched scan packs each k's classes from its channel-map terms,
    # several k to one spectral step; N = 40 and 60 take several chunks
    for n in [*range(1, 13), 20, 40, 60]:
        want = oracle.k_scan(n, eta, chi)
        assert qfi_over_k(n, eta, chi, range(n // 2 + 1)) == want, n
        # ties break toward the smaller k: at eta = 0 every k gives 0
        assert max_qfi_over_k(n, eta, chi) == (want.index(max(want)), max(want)), n


@pytest.mark.parametrize("eta", [1e-6, 1e-3, 0.999])
def test_k_scan_matches_the_families_at_extreme_loss(eta):
    # at eta = 1e-6 the no-loss term eta^N of a dyad underflows to an exact
    # zero from N = 54 on: the scan drops zero terms and packs no class that
    # holds only those, and every value still equals the family's
    for n in (33, 59, 61):
        kappa = survival_table(n, eta)
        assert (kappa[0, 0] * kappa[0, 0] * kappa[n, 0] * kappa[n, 0] == 0) == (
            eta == 1e-6 and n >= 54)
        assert qfi_over_k(n, eta, 0.0, range(n // 2 + 1)) == oracle.k_scan(n, eta, 0.0), n


def test_k_scan_pairs_iterate_as_the_family_pairs(monkeypatch):
    # no flat buffer is built, yet the pairs the scan hands to the spectral
    # step still iterate as (rho block, rho' block), bit for bit the families'
    seen = []
    spectral = estimation._qfi_from_block_pairs
    monkeypatch.setattr(estimation, "_qfi_from_block_pairs",
                        lambda pairs: seen.append(pairs) or spectral(pairs))
    n, eta, chi = 9, 0.7, 0.05
    qfi_over_k(n, eta, chi, range(n // 2 + 1))
    got = [item for pairs in seen for item in pairs]
    want = [item for k in range(n // 2 + 1)
            for item in PhasedFamily(NoonLikeSpec(n, k), chi=chi, eta=eta)._pairs()]
    assert len(got) == len(want) == (n // 2 + 1) * (n + 1)
    for (rho, rho_prime), (rho_want, rho_prime_want) in zip(got, want):
        assert np.array_equal(rho, rho_want) and np.array_equal(rho_prime, rho_prime_want)
    # a dyad and its mirror form every term's product alike, so each packed
    # class is symmetric bit for bit
    for pairs in seen:
        for _, run, diag in pairs.stacks:
            x = pairs.rho_flat[run].reshape(-1, diag.shape[1], diag.shape[1])
            assert x.tobytes() == x.swapaxes(1, 2).tobytes()


# ---------------------------------------------------------------- bounds


def test_qcrb_values():
    assert qcrb(100.0) == pytest.approx(0.1)
    chi, n = 0.3, 5
    assert qcrb(qfi_pure_analytic(n, 0, chi)) == pytest.approx(
        1.0 / (n + chi * n * n / 2))
    with pytest.raises(UndefinedBoundError):
        qcrb(0.0)


# ---------------------------------------------------------------- observables


def test_measurement_m_balanced_ket():
    basis = TwoModeBasis(4)
    amps = np.zeros(basis.dim, dtype=complex)
    amps[basis.index_of(2, 2)] = 1.0
    # photon counting is measurement_mm(1) up to sign
    state = oracle.PureState(basis, amps)
    assert oracle.expectation(state, measurement_mm(1, basis)) == 0.0


def test_measurement_mm_full_coincidence_signal():
    # <M_N>(phi) = -N! sin((N + chi N^2/2) phi) with the operator sign
    # conventions used here; the magnitude N! is the headline value
    n, chi = 3, 0.2
    family = PhasedFamily(NoonLikeSpec(n, 0), chi=chi, eta=1.0)
    obs = measurement_mm(n, family.basis)
    profile = family.moment_profile(obs)
    rate = n + chi * n * n / 2
    for phi in (0.1, 0.9):
        want = -math.factorial(n) * math.sin(rate * phi)
        assert profile.mean(np.array([phi]))[0] == pytest.approx(want, abs=1e-10)


def test_measurement_mm_coincidence_prefactor():
    # C_{N,m} = ((N+m)/2)! / ((N-m)/2)! -> C_{3,3} = 6
    assert falling_factorial(3, 3) == pytest.approx(6.0)
    n, m = 9, 3
    c = falling_factorial((n + m) // 2, m)
    family = PhasedFamily(NoonLikeSpec(n, (n - m) // 2), chi=0.0, eta=1.0)
    obs = measurement_mm(m, family.basis)
    profile = family.moment_profile(obs)
    phi = 0.2
    assert profile.mean(np.array([phi]))[0] == pytest.approx(
        -c * math.sin(m * phi), abs=1e-8)


def test_measurement_mm_vanishes_without_enough_photons():
    basis = TwoModeBasis(2)
    state = oracle.superposition_state(NoonLikeSpec(2, 0), basis)
    obs = measurement_mm(5, TwoModeBasis(2))
    assert oracle.expectation(state, obs) == 0.0
    assert np.abs(obs.matrix).max() == 0.0


def test_measurement_mm_order_one_is_negated_photon_difference():
    basis = TwoModeBasis(3)
    x = oracle.lowering_power(2, 1, basis).conj().T @ oracle.lowering_power(1, 1, basis)
    difference = 1j * (x - x.conj().T)  # i(a2^dag a1 - a1^dag a2)
    obs = oracle.dense(measurement_mm(1, basis))
    assert np.abs(obs.matrix + difference).max() < 1e-14


def test_measurement_mm_equals_dense_product():
    # the dense product stays here as the oracle for the flat-block build
    for n_max in range(0, 13):
        basis = TwoModeBasis(n_max)
        for m in range(1, n_max + 2):
            x = (oracle.lowering_power(1, m, basis).conj().T
                 @ oracle.lowering_power(2, m, basis))
            assert np.array_equal(oracle.dense(measurement_mm(m, basis)).matrix,
                                  1j * (x - x.conj().T)), (n_max, m)


def flat_bound(n: int) -> int:
    """Four complex flat block buffers: O(N^3) bytes, where one dense
    dim x dim complex matrix takes O(N^4)."""
    return 4 * int(block_offsets(n)[-1]) * 16


def test_k_scan_peak_memory():
    # the scan keeps no flat buffer of N^3/3 floats per k: one family per
    # k, one at a time, peaks at 7.8 MB; all 51 of N = 100 take 142 MB
    tracemalloc.start()
    try:
        max_qfi_over_k(100, 0.9, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= flat_bound(100)


def test_measurement_mm_peak_memory():
    basis = TwoModeBasis(40)
    tracemalloc.start()
    try:
        measurement_mm(40, basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= flat_bound(40)


def test_moment_profile_peak_memory():
    # the readout path from the observable to its profile stays O(N^3)
    family = PhasedFamily(NoonLikeSpec(80, 3), chi=0.0, eta=0.9)
    tracemalloc.start()
    try:
        family.moment_profile(measurement_mm(20, family.basis))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= flat_bound(80)


@pytest.mark.parametrize("m", [1, 20, 80])
def test_coincidence_profile_peak_memory_is_quadratic(m):
    # from the band to the profile, the readout holds O(N^2) bytes: a few
    # weight terms per basis state, read off the band at j = 0, +-m and +-2m
    n = 80
    family = PhasedFamily(NoonLikeSpec(n, 3), chi=0.0, eta=0.9)
    tracemalloc.start()
    try:
        family.moment_profile(measurement_mm(m, family.basis))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 384 * (n + 1) ** 2


def test_moment_profile_scale_is_exact():
    # O/scale with a power-of-two scale taken from the band's largest
    # amplitude: every moment and delta_phi equals the unscaled profile's
    # bit for bit
    family = PhasedFamily(NoonLikeSpec(14, 2), chi=0.05, eta=0.8)
    obs = measurement_mm(6, family.basis)
    profile = family.moment_profile(obs)
    mantissa, _ = math.frexp(profile.scale)
    assert mantissa == 0.5 and profile.scale > 1.0
    assert 0.5 <= np.abs(obs.matrix).max() / profile.scale < 1.0
    s = profile.scale
    plain = MomentProfile(profile.rate, profile.a * s, profile.c * s * s, profile.f * s * s,
                          1.0)
    phi = np.linspace(0.0, np.pi, 97)
    for name in ("mean", "second_moment", "variance", "delta_phi"):
        assert np.array_equal(getattr(profile, name)(phi), getattr(plain, name)(phi),
                              equal_nan=True), name


def test_moment_profile_past_the_float_range():
    # |O| = 100! and |O|^2 overflows: delta_phi stays finite, the second
    # moment raises OverflowError instead of returning inf
    family = PhasedFamily(NoonLikeSpec(100, 0), chi=1e-8, eta=0.9)
    profile = family.moment_profile(measurement_mm(100, family.basis))
    phi = np.array([0.1])
    assert np.isfinite(profile.mean(phi)).all()
    with pytest.raises(OverflowError):
        profile.second_moment(phi)
    with pytest.raises(OverflowError):
        profile.variance(phi)
    assert min_delta_phi(profile) >= qcrb(family.qfi().qfi) - 1e-9


def random_band(basis: TwoModeBasis, m: int, rng) -> HermitianOperator:
    """A band of random amplitudes at offsets +-m, zero where n2 < m."""
    return HermitianOperator(basis, m, rng.normal(size=basis.dim) * (basis.n2 >= m))


def assert_profile_matches_oracle(family, obs):
    got = family.moment_profile(obs)
    want = oracle.moment_profile(family, obs)
    kept = (want.w_mean != 0) | (want.w_sq != 0)
    assert np.array_equal(got.freqs, want.freqs[kept])
    # the oracle scales by ||O|| and the band by max |x|, with
    # max |x| <= ||O|| <= 2 max |x|: the scales differ by 1 or 2, exactly
    ratio = want.scale / got.scale
    assert ratio in (1.0, 2.0)
    a, c, f = got.a / ratio, got.c / ratio ** 2, got.f / ratio ** 2
    # <O> = a sin u and <O^2> = c + 2f cos 2u: the oracle's weights at
    # j = -N..N are +-ia/2 at j = -+m, c at 0 and f at +-2m, exact zeros
    # elsewhere (and a = 0 where m > N, f = 0 where 2m > N)
    n, m = family.input_spec.N, obs.m
    w_mean, w_sq = np.zeros(2 * n + 1, dtype=complex), np.zeros(2 * n + 1, dtype=complex)
    if m <= n:
        w_mean[n - m], w_mean[n + m] = 0.5j * a, -0.5j * a
    else:
        assert a == 0.0
    if 2 * m <= n:
        w_sq[n - 2 * m] = w_sq[n + 2 * m] = f
    else:
        assert f == 0.0
    w_sq[n] = want.w_sq[n]  # c, compared below
    assert np.array_equal(w_mean, want.w_mean) and np.array_equal(w_sq, want.w_sq)
    # c sums the diagonal of O^2, x_r^2 + x_{r-m}^2: the band adds two
    # rounded squares, while the oracle's dense product (OpenBLAS zgemm)
    # fuses the second multiply-add.  They agree exactly when 2m > N, where
    # each diagonal entry is a single square, and to a few eps otherwise
    # (1.94 eps at worst, in 87 of the 4131 profiles here)
    if 2 * m > n:
        assert c == want.w_sq[n]
    else:
        assert np.allclose(c, want.w_sq[n], rtol=4 * np.finfo(float).eps, atol=0.0)
    return got


@pytest.mark.parametrize("chi", [0.0, 0.05])
@pytest.mark.parametrize("eta", [0.0, 0.5, 0.9, 1.0])
def test_moment_profile_matches_the_blockwise_oracle(eta, chi):
    # the band's sums equal the per-block bincount's weights bit for bit,
    # but for c at 2m <= N: every m on a random dense input,
    # plus a band of random amplitudes; every k at the readout m = N - 2k
    rng = np.random.default_rng(12)
    for n in range(1, 25):
        basis = TwoModeBasis(n)
        alpha = rng.normal(size=superposition_length(n))
        family = PhasedFamily(SuperpositionSpec.normalized(n, alpha), chi=chi, eta=eta)
        observables = [measurement_mm(m, basis) for m in range(1, n + 2)]
        for obs in observables + [random_band(basis, int(rng.integers(1, n + 2)), rng)]:
            assert_profile_matches_oracle(family, obs)
        for k in range(n // 2 + 1):
            family = PhasedFamily(NoonLikeSpec(n, k), chi=chi, eta=eta)
            profile = assert_profile_matches_oracle(family, observables[(n - 2 * k or n) - 1])
            assert len(profile.freqs) <= 5


def test_variance_floor_is_never_looser_than_the_norm_floor():
    # the floor comes from the band's largest amplitude, scale/2 <= max |x|,
    # and max |x| <= ||O||: it lies at or above PSD_FLOOR * max(1, ||O||^2),
    # within 16x of it, on every readout and random band of the oracle tests
    rng = np.random.default_rng(24)
    for n in range(1, 25):
        basis = TwoModeBasis(n)
        family = PhasedFamily(SuperpositionSpec.normalized(
            n, rng.normal(size=superposition_length(n))), chi=0.05, eta=0.9)
        observables = [measurement_mm(m, basis) for m in range(1, n + 2)]
        for obs in observables + [random_band(basis, int(rng.integers(1, n + 2)), rng)]:
            profile = family.moment_profile(obs)
            norm = max(oracle.spectral_norm(block) for _, block in oracle.obs_blocks(obs))
            old = PSD_FLOOR * max(1.0, norm * norm)
            floor = profile.variance_floor * profile.scale ** 2
            assert old <= floor < old / 16


def test_moment_profile_matches_the_oracle_at_n60():
    rng = np.random.default_rng(60)
    n = 60
    alpha = rng.normal(size=superposition_length(n))
    family = PhasedFamily(SuperpositionSpec.normalized(n, alpha), chi=0.05, eta=0.8)
    for m in (1, 3, 60):
        assert_profile_matches_oracle(family, measurement_mm(m, family.basis))


def test_coincidence_profile_keeps_at_most_five_frequencies():
    # mean at offsets +-m, second moment at 0 and +-2m: the other 2N - 4
    # frequencies carry exact zeros and are dropped
    for n, k, m in ((40, 0, 40), (45, 3, 39), (80, 30, 20), (12, 2, 3), (9, 1, 1)):
        family = PhasedFamily(NoonLikeSpec(n, k), chi=1e-8, eta=0.9)
        profile = family.moment_profile(measurement_mm(m, family.basis))
        assert 0 < len(profile.freqs) <= 5
        assert set(np.round(profile.freqs / (1 + 0.5e-8 * n)).astype(int)) <= {
            -2 * m, -m, 0, m, 2 * m}


def profile_moments(family, obs, phi):
    profile = family.moment_profile(obs)
    phi = np.array([phi])
    return profile.mean(phi)[0], profile.variance(phi)[0]


def test_moments_examples():
    family = PhasedFamily(NoonLikeSpec(3, 1), chi=0.0, eta=1.0)
    mean, var = profile_moments(family, measurement_mm(1, family.basis), 0.0)
    assert mean == pytest.approx(0.0, abs=1e-14)
    assert var == pytest.approx(7.0, abs=1e-12)

    n = 4
    family = PhasedFamily(NoonLikeSpec(n, 0), chi=0.0, eta=1.0)
    mean, var = profile_moments(family, measurement_mm(n, family.basis), 0.0)
    assert mean == pytest.approx(0.0, abs=1e-10)
    assert var == pytest.approx(math.factorial(n) ** 2, rel=1e-12)


def test_moments_variance_of_coincidence_below_full_order():
    # for m < N the second moment picks up a spectator term
    # ff(k, m) ff(N-k+m, m) on top of C^2
    n, m = 9, 3
    k = (n - m) // 2
    family = PhasedFamily(NoonLikeSpec(n, k), chi=0.7, eta=1.0)
    obs = measurement_mm(m, family.basis)
    c_sq = falling_factorial(n - k, m) ** 2
    extra = falling_factorial(k, m) * falling_factorial(n - k + m, m)
    rate = m * (1 + 0.7 * n / 2)
    for phi in (0.0, 0.4):
        mean, var = profile_moments(family, obs, phi)
        assert var == pytest.approx(c_sq + extra - c_sq * math.sin(rate * phi) ** 2,
                                    rel=1e-10)


# ---------------------------------------------------------------- readout


def test_delta_phi_saturates_bound_for_full_coincidence():
    for n in (1, 3, 5):
        for chi in (0.0, 0.1):
            family = PhasedFamily(NoonLikeSpec(n, 0), chi=chi, eta=1.0)
            obs = measurement_mm(n, family.basis)
            bound = 1.0 / (n + chi * n * n / 2)
            for phi in (0.05, 0.4):
                got = oracle.delta_phi(family, obs, phi)
                assert got == pytest.approx(bound, rel=1e-9)


def test_delta_phi_near_balanced_closed_form():
    # sqrt(A - C1^2 sin^2(theta phi)) / (C1 theta |cos(theta phi)|)
    n, chi = 5, 0.3
    a = (n * n + 2 * n - 1) / 2
    c1 = (n + 1) / 2
    theta = 1 + chi * n / 2
    family = PhasedFamily(NoonLikeSpec(n, (n - 1) // 2), chi=chi, eta=1.0)
    obs = measurement_mm(1, family.basis)
    for phi in (0.0, 0.2, 0.7):
        want = math.sqrt(a - c1 ** 2 * math.sin(theta * phi) ** 2) / (
            c1 * theta * abs(math.cos(theta * phi)))
        assert oracle.delta_phi(family, obs, phi) == pytest.approx(want, rel=1e-10)


def test_delta_phi_large_kerr_consistency():
    # for m-photon coincidence at full order, the strong-Kerr uncertainty
    # approaches 2/(chi N m) with a relative correction of order 1/(chi N)
    n, chi = 5, 1000.0
    family = PhasedFamily(NoonLikeSpec(n, 0), chi=chi, eta=1.0)
    obs = measurement_mm(n, family.basis)
    got = min_delta_phi(family.moment_profile(obs))
    approx = 2.0 / (chi * n * n)
    assert abs(got / approx - 1.0) < 2.0 / (chi * n)


def test_delta_phi_degenerate_raises():
    family = PhasedFamily(NoonLikeSpec(2, 1), chi=0.0, eta=1.0)
    obs = measurement_mm(2, family.basis)
    with pytest.raises(DegenerateOperatingPointError):
        oracle.delta_phi(family, obs, 0.3)


def test_min_delta_phi_full_coincidence():
    n, chi = 5, 0.1
    family = PhasedFamily(NoonLikeSpec(n, 0), chi=chi, eta=1.0)
    obs = measurement_mm(n, family.basis)
    result = min_delta_phi(family.moment_profile(obs))
    assert result == pytest.approx(1.0 / (n + chi * n * n / 2), rel=1e-6)


def test_min_delta_phi_near_balanced_minimum_at_zero():
    n = 7
    a = (n * n + 2 * n - 1) / 2
    c1 = (n + 1) / 2
    family = PhasedFamily(NoonLikeSpec(n, (n - 1) // 2), chi=0.0, eta=1.0)
    profile = family.moment_profile(measurement_mm(1, family.basis))
    assert min_delta_phi(profile) == pytest.approx(math.sqrt(a) / c1, rel=1e-9)
    # a search over phi finds the same operating point
    assert abs(oracle.scan_delta_phi(profile).argmin_phi) < 1e-6


def test_min_delta_phi_single_photon_unit():
    family = PhasedFamily(NoonLikeSpec(1, 0), chi=0.0, eta=1.0)
    result = min_delta_phi(family.moment_profile(measurement_mm(1, family.basis)))
    assert result == pytest.approx(1.0, rel=1e-9)


def test_min_delta_phi_rejects_degenerate_grid():
    family = PhasedFamily(NoonLikeSpec(2, 0), chi=0.0, eta=1.0)
    obs = measurement_mm(2, family.basis)
    # cos(2 phi) = 0 at phi = pi/4: slope of <M_2> vanishes there
    with pytest.raises(DegenerateOperatingPointError):
        oracle.scan_delta_phi(family.moment_profile(obs), np.array([np.pi / 4]))
    # the closed form evaluates phi = 0 only, where this slope is largest;
    # the k = 1 input's slope vanishes at every phi, phi = 0 included
    assert min_delta_phi(family.moment_profile(obs)) == pytest.approx(0.5, rel=1e-9)
    balanced = PhasedFamily(NoonLikeSpec(2, 1), chi=0.0, eta=1.0)
    with pytest.raises(DegenerateOperatingPointError):
        min_delta_phi(balanced.moment_profile(measurement_mm(2, balanced.basis)))


def test_min_delta_phi_all_zero_profile_is_degenerate():
    # at eta = 0 only the vacuum survives: every sum, slope and slope
    # floor is exactly zero, and no point may divide by it
    family = PhasedFamily(NoonLikeSpec(4, 0), chi=0.0, eta=0.0)
    profile = family.moment_profile(measurement_mm(4, family.basis))
    assert (profile.a, profile.c, profile.f) == (0.0, 0.0, 0.0)
    assert profile.slope_floor == 0.0 and not profile.freqs.size
    assert np.isnan(profile.delta_phi(np.linspace(0.0, np.pi, 11))).all()
    with pytest.raises(DegenerateOperatingPointError):
        min_delta_phi(profile)


def test_min_delta_phi_rejects_negative_variance():
    # <O> = 2 sin(phi), <O^2> = 0.5 - 2 cos(2 phi): c + 2f < 0, and
    # Var O = 0.5 - 2 cos(2 phi) - 4 sin^2(phi) = -1.5 at every phi
    profile = MomentProfile(rate=1.0, a=2.0, c=0.5, f=-1.0, scale=1.0)
    with pytest.raises(NumericalError):
        profile.delta_phi(np.array([0.0, 0.3]))
    with pytest.raises(NumericalError):
        min_delta_phi(profile)


def test_min_delta_phi_never_beats_qcrb():
    cases = [
        (NoonLikeSpec(3, 0), 0.0, 1.0, 3),
        (NoonLikeSpec(3, 1), 0.0, 1.0, 1),
        (NoonLikeSpec(4, 0), 0.1, 0.9, 4),
        (SuperpositionSpec.normalized(5, (1.0, 0.5, 0.2)), 1e-3, 0.8, 5),
    ]
    for spec, chi, eta, m in cases:
        family = PhasedFamily(spec, chi=chi, eta=eta)
        obs = measurement_mm(m, family.basis)
        bound = qcrb(family.qfi().qfi)
        try:
            result = min_delta_phi(family.moment_profile(obs))
        except DegenerateOperatingPointError:
            continue
        assert result >= bound - 1e-9


def test_min_delta_phi_matches_pointwise_evaluation():
    family = PhasedFamily(NoonLikeSpec(4, 1), chi=0.05, eta=0.8)
    obs = measurement_mm(2, family.basis)
    grid = np.linspace(0.05, 3.0, 41)
    profile = family.moment_profile(obs)
    result = oracle.scan_delta_phi(profile, grid)
    for i in (0, 13, 27, 40):
        point = oracle.delta_phi(family, obs, float(grid[i]))
        assert result.delta_phi[i] == pytest.approx(point, rel=1e-9)
    best = min_delta_phi(profile)
    assert best == pytest.approx(oracle.delta_phi(family, obs, 0.0), rel=1e-9)
    assert best <= result.min_delta_phi


def test_phased_family_validation():
    with pytest.raises(ValueError):
        PhasedFamily(NoonLikeSpec(2, 0), eta=1.5)
    with pytest.raises(TypeError):
        PhasedFamily("not a spec")


def _doubled_state(caller: str):
    """Build, by ``caller``, the state of NoonLikeSpec(4, 1) with its
    amplitudes doubled: trace 4."""
    n, spec = 4, NoonLikeSpec(4, 1)
    if caller == "PhasedFamily":
        doubled = SuperpositionSpec(n, spec.alpha)
        object.__setattr__(doubled, "alpha", tuple(2.0 * a for a in spec.alpha))
        PhasedFamily(doubled, chi=0.0, eta=0.9)
    elif caller == "KScanPairs":
        (k, _, amp), *_ = branch_amplitudes(n, 2.0 * np.array(spec.alpha))
        KScanPairs(generator_flat(n, 0.0), n, 0.9, [(k, amp)])
    else:
        model = _QuadraticQfiModel(OptimizationProblem(N=n, eta=0.9, chi=0.0))
        model._rho(2.0 * np.array(spec.alpha))


@pytest.mark.parametrize("caller", ["PhasedFamily", "KScanPairs", "_QuadraticQfiModel"])
def test_a_state_whose_trace_is_off_raises(caller):
    with pytest.raises(NumericalError, match="deviates from 1"):
        _doubled_state(caller)


def test_check_trace_tolerance():
    check_trace(1.0 + 5e-11, "state")
    check_trace(np.float64(1.0 - 5e-11), "state")
    for trace in (1.0 + 2e-10, np.float64(0.9), math.nan):
        with pytest.raises(NumericalError, match="state trace"):
            check_trace(trace, "state")


def test_class_step():
    # the stride, or past every block when it is 0 or exceeds N
    assert [_class_step(6, stride) for stride in (0, 1, 2, 6, 7, 12)] == [7, 1, 2, 6, 7, 7]
