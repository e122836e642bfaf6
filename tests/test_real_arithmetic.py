"""The state path is real: with real coefficients and real Kraus elements
rho_0 is real symmetric, rho' = iK with K real antisymmetric, and the SLD
is iJ with J real antisymmetric.  These tests check that premise against
the complex dense oracle and keep complex buffers out of the spectral step."""

import numpy as np
import pytest

import oracle
from kerrmet.estimation import PhasedFamily, _qfi_from_block_pairs
from kerrmet.interferometer import NoonLikeSpec, SuperpositionSpec
from kerrmet.optimizer import OptimizationProblem, _QuadraticQfiModel


@pytest.mark.parametrize("eta", [0.0, 0.3, 0.9, 1.0])
@pytest.mark.parametrize("chi", [0.0, 0.3])
@pytest.mark.parametrize("n", [1, 4, 7, 12])
def test_real_state_and_sld_match_the_complex_oracle(n, chi, eta):
    problem = OptimizationProblem(N=n, eta=eta, chi=chi)
    model = _QuadraticQfiModel(problem)
    rng = np.random.default_rng(100 * n + int(10 * eta))
    for _ in range(2):
        spec = SuperpositionSpec.normalized(n, rng.normal(size=problem.dimension))
        family = PhasedFamily(spec, chi=chi, eta=eta)
        dense = oracle.apply_loss(
            oracle.superposition_state(spec, family.basis).to_density(),
            oracle.LossParams.equal(eta)).matrix
        assert np.all(dense.imag == 0.0)
        model_rho = model._pairs(np.array(spec.alpha)).rho_flat
        assert family.rho0_flat.dtype == model_rho.dtype == np.float64
        for t, block in enumerate(oracle.rho0_blocks(family)):
            sl = family.basis.block_slice(t)
            assert np.abs(block - dense[sl, sl]).max() <= 1e-12
        assert np.abs(model_rho - family.rho0_flat).max() <= 1e-12
        result = _qfi_from_block_pairs(family._pairs(), with_sld=True)
        want = oracle.sld(oracle.rho(family, 0.0), oracle.rho_prime(family, 0.0)).matrix
        scale = max(1.0, np.abs(want).max())
        for t, j in enumerate(result.sld):
            sl = family.basis.block_slice(t)
            assert j.dtype == np.float64
            assert np.abs(1j * j - want[sl, sl]).max() <= 1e-12 * scale, t


def test_spectral_step_solves_only_real_matrices(monkeypatch):
    import kerrmet.estimation as estimation

    seen = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        seen.append(np.asarray(a).dtype)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(estimation.np.linalg, "eigh", recording_eigh)
    PhasedFamily(NoonLikeSpec(12, 3), chi=0.1, eta=0.8).qfi()
    spec = SuperpositionSpec.normalized(9, np.arange(1.0, 6.0))
    PhasedFamily(spec, chi=0.1, eta=0.8).qfi()
    problem = OptimizationProblem(N=9, eta=0.8, chi=0.1)
    _QuadraticQfiModel(problem).seesaw(np.array(spec.alpha))
    assert seen
    assert all(dtype == np.float64 for dtype in seen), seen
