import cmath
import math

import numpy as np
import pytest

import oracle
from kerrmet.estimation import PhasedFamily
from kerrmet.fock import TwoModeBasis
from kerrmet.interferometer import NoonLikeSpec, SuperpositionSpec, branch_amplitudes
from kerrmet.fock import block_offsets
from kerrmet.loss import ChannelMap, cross_lossy_blocks, dyad_terms, survival_table


def spec_length(n):
    return ((n - 1) // 2 if n % 2 else n // 2) + 1


def lossy(spec, eta, phi=0.0, chi=0.0):
    """Closed-form channel output: the family's phase-rotated rho_0."""
    return oracle.rho(PhasedFamily(spec, chi=chi, eta=eta), phi)


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
    rho = lossy(NoonLikeSpec(3, 0), eta=1.0, phi=0.7, chi=0.1)
    pure = oracle.superposition_state(NoonLikeSpec(3, 0), basis)
    evolved = oracle.apply_phase(pure, 0.7, 0.1)
    assert np.abs(rho.matrix - evolved.to_density().matrix).max() < 1e-14
    assert rho.purity() == pytest.approx(1.0, abs=1e-12)


def test_lossy_noon_hand_values():
    # N=2, k=0, eta=0.5: survival weights eta^2/2 on |2,0> and |0,2>,
    # coherence eta^2/2, one-photon weights eta(1-eta), vacuum (1-eta)^2
    basis = TwoModeBasis(2)
    rho = lossy(NoonLikeSpec(2, 0), eta=0.5)
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
    rho = lossy(NoonLikeSpec(2, 0), eta=0.5, phi=phi)
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
                    closed = lossy(spec, eta=eta, phi=phi, chi=0.05)
                    dense = kraus_oracle(spec, eta, phi, 0.05, basis)
                    assert np.abs(closed.matrix - dense.matrix).max() < 1e-11


def test_lossy_superposition_single_term_reduction():
    one_hot = SuperpositionSpec(5, (0.0, 1 / math.sqrt(2), 0.0))
    via_superposition = lossy(one_hot, eta=0.6, phi=0.3, chi=0.01)
    via_noon = lossy(NoonLikeSpec(5, 1), eta=0.6, phi=0.3, chi=0.01)
    assert np.abs(via_superposition.matrix - via_noon.matrix).max() < 1e-12


def test_lossy_superposition_pure_limit_is_projector():
    basis = TwoModeBasis(4)
    spec = SuperpositionSpec.normalized(4, (1.0, 0.7, 0.2))
    rho = lossy(spec, eta=1.0, phi=0.5, chi=0.02)
    evolved = oracle.apply_phase(oracle.superposition_state(spec, basis), 0.5, 0.02)
    assert np.abs(rho.matrix - evolved.to_density().matrix).max() < 1e-13
    assert rho.purity() == pytest.approx(1.0, abs=1e-12)


def test_lossy_superposition_matches_kraus_composition():
    alpha2 = math.sqrt(1 - 2 * 0.25 - 2 * 0.09) / 2
    spec = SuperpositionSpec(4, (0.5, 0.3, alpha2))
    basis = TwoModeBasis(4)
    closed = lossy(spec, eta=0.7, phi=0.2, chi=0.0)
    dense = kraus_oracle(spec, 0.7, 0.2, 0.0, basis)
    assert np.abs(closed.matrix - dense.matrix).max() < 1e-11


def test_lossy_superposition_random_specs_match_kraus():
    rng = np.random.default_rng(123)
    for n in range(1, 8):
        spec = SuperpositionSpec.normalized(n, rng.normal(size=spec_length(n)))
        for eta in (0.3, 0.7, 1.0):
            basis = TwoModeBasis(n)
            closed = lossy(spec, eta=eta, phi=0.4, chi=0.03)
            dense = kraus_oracle(spec, eta, 0.4, 0.03, basis)
            assert np.abs(closed.matrix - dense.matrix).max() < 1e-11


@pytest.mark.parametrize("eta", [0.0, 0.25, 0.5, 0.9, 1.0])
def test_trace_preserved_across_loss_grid(eta):
    for n in (1, 4, 9, 12):
        rho = lossy(NoonLikeSpec(n, n // 3), eta=eta, phi=0.2)
        assert abs(rho.matrix.trace().real - 1.0) < 1e-10


def test_block_structure_of_channel_output():
    rho = lossy(NoonLikeSpec(5, 2), eta=0.6, phi=0.9)
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
    purities = []
    for eta in (1.0, 0.9, 0.7, 0.5):
        rho = lossy(spec, eta=eta, phi=0.1)
        purities.append(rho.purity())
    assert purities[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(purities) <= 1e-12)
    vacuum_limit = lossy(spec, eta=0.0, phi=0.1)
    assert vacuum_limit.purity() == pytest.approx(1.0, abs=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        oracle.LossParams(1.2, 0.5)
    with pytest.raises(ValueError):
        lossy(NoonLikeSpec(2, 0), eta=-0.1)


@pytest.mark.parametrize("n", [1, 2, 5, 12])
@pytest.mark.parametrize("eta", [0.0, 0.7, 1.0])
def test_channel_map_lists_the_terms_dyad_by_dyad(n, eta):
    # reference: each dyad's (q, p) grid built on its own, q-major, dyads in
    # list order; dyad_terms must give the same terms in that order, for the
    # (ket, bra) lists of a map and for the k-scan's dyads grouped by point
    # (one dyad at k = N/2), and the map must hold the same bytes
    kappa = survival_table(n, eta)
    offsets = block_offsets(n)

    def reference(dyad_list):
        positions, products, dyads, qs, ps = [], [], [], [], []
        for d, (n1, m1) in enumerate(dyad_list):
            q = np.arange(min(n1, m1) + 1)[:, None]
            p = np.arange(n - max(n1, m1) + 1)[None, :]
            t = n - q - p
            positions.append((offsets[t] + (n1 - q) * (t + 1) + (m1 - q)).ravel())
            products.append(((kappa[n1, q] * kappa[m1, q])
                             * (kappa[n - n1, p] * kappa[n - m1, p])).ravel())
            dyads.append(np.full(q.size * p.size, d))
            qs.append(np.broadcast_to(q, t.shape).ravel())
            ps.append(np.broadcast_to(p, t.shape).ravel())
        return [np.concatenate(parts) for parts in (positions, products, dyads, qs, ps)]

    def check_terms(dyad_list):
        want = reference(dyad_list)
        n1, m1 = np.array(dyad_list).T
        dyad, q, line, p, values = dyad_terms(n1, m1, n, eta)
        assert np.array_equal(line, np.sort(line)) and np.unique(line).size == dyad.size
        assert np.array_equal(dyad[line], want[2]) and np.array_equal(q[line], want[3])
        assert np.array_equal(p, want[4])
        assert values.tobytes() == want[1].tobytes()
        return want

    for kets, bras in [(range(n + 1), range(n + 1)), ((0, n), (n, 0)), ((n,), (1, 0, n))]:
        positions, products, dyads, _, _ = check_terms([(n1, m1) for n1 in kets for m1 in bras])
        channel = ChannelMap(kets, bras, n, eta)
        assert channel.positions.tobytes() == positions.tobytes()
        assert channel.kappa.tobytes() == products.tobytes()
        assert channel.dyads.tobytes() == dyads.tobytes()
    point_dyads = [[(n1, m1) for n1 in branches for m1 in branches]
                   for branches in (dict.fromkeys((k, n - k)) for k in range(n // 2 + 1))]
    check_terms([dyad for dyads in point_dyads for dyad in dyads])
    check_terms(point_dyads[-1])  # k = n // 2: a single dyad when n is even
    check_terms(point_dyads[-1] + point_dyads[0])


@pytest.mark.parametrize("n", [1, 3, 6, 9, 12])
@pytest.mark.parametrize("eta", [0.0, 0.6, 1.0])
def test_stacked_channel_ops_match_one_row_calls(n, eta):
    # a (B, n) stack runs one bincount per chunk of rows with per-row
    # offsets: the same terms in the same order within each bin as the
    # row's own call, which is the one-row bincount of the terms
    channel = ChannelMap(range(n + 1), range(n + 1), n, eta)
    rng = np.random.default_rng(n)
    for rows in sorted({1, max(1, channel.chunk - 1), channel.chunk, channel.chunk + 1,
                        2 * channel.chunk + 1}):
        weights = rng.normal(size=(rows, channel.n_dyads))
        duals = rng.normal(size=(rows, channel.size))
        outputs, adjoints = channel.scatter(weights), channel.real_adjoint(duals)
        assert outputs.shape == (rows, channel.size)
        assert adjoints.shape == (rows, channel.n_dyads)
        for weight, dual, output, adjoint in zip(weights, duals, outputs, adjoints):
            alone = channel.scatter(weight)
            want = np.bincount(channel.positions, weight[channel.dyads] * channel.kappa,
                               channel.size)
            assert alone.tobytes() == want.tobytes()
            assert output.tobytes() == alone.tobytes()
            alone = channel.real_adjoint(dual)
            want = np.bincount(channel.dyads, dual[channel.positions] * channel.kappa)
            assert alone.tobytes() == want.tobytes()
            assert adjoint.tobytes() == alone.tobytes()


def test_chunk_size_follows_the_term_count():
    # a few thousand terms per bincount: a whole N = 3 round of the
    # optimizer in one, three rows at N = 9 (1210 terms), and one row per
    # chunk from N = 10 (1716 terms, two rows by the budget) on
    assert ChannelMap(range(4), range(4), 3, 0.6).chunk == 2 ** 12 // 50 == 81
    assert ChannelMap(range(10), range(10), 9, 0.6).chunk == 2 ** 12 // 1210 == 3
    assert 2 ** 12 // ChannelMap(range(11), range(11), 10, 0.6).kappa.size == 2
    assert ChannelMap(range(11), range(11), 10, 0.6).chunk == 1
    assert ChannelMap(range(13), range(13), 12, 0.6).kappa.size == 3185
    assert ChannelMap(range(13), range(13), 12, 0.6).chunk == 1
