import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

import oracle
from kerrmet.estimation import (
    PhasedFamily,
    _qfi_from_block_pairs,
    max_qfi_over_k,
    qfi_pure_analytic,
)
from kerrmet.fock import FlatBlocks
from kerrmet.interferometer import SuperpositionSpec
from kerrmet.optimizer import (
    OptimizationProblem,
    _QuadraticQfiModel,
    _climb,
    _lockstep,
    optimize_alpha,
    qfi_objective,
)

# qfi_star of the multi-restart Nelder-Mead optimizer this package used
# before the see-saw (defaults: 16 restarts, seed 0, chi = 1e-8), N = 1..12
NELDER_MEAD_QFI = {
    0.6: (0.6000000060000001, 1.4700000294000009, 2.34967706116085,
          3.2744000595404685, 4.232043834258128, 5.217245937144435,
          6.225692910741305, 7.254168450337094, 8.30016578447432,
          9.361683691894484, 10.437090658937487, 11.525033581332137),
    0.8: (0.8000000079999997, 2.5600000512000025, 4.6080001382400075,
          6.578149721065536, 8.580587145041106, 10.665424052794945,
          12.820105192276454, 15.036104333879557, 17.306702281234553,
          19.62645823079918, 21.990867360571777, 24.39612951544707),
    0.9: (0.9000000089999998, 3.240000064800004, 6.561000196830012,
          10.497600419904021, 14.762250738112536, 19.13187714791261,
          23.436549740558437, 27.57076747258331, 31.740282667321864,
          36.014404228306205, 40.3843333317526, 44.84361269252268),
}


def test_alpha_star_sign_convention_at_even_n():
    # at even N, alpha_k -> (-1)^k alpha_k leaves the QFI unchanged, so the
    # even-k and the odd-k part each get their largest entry positive
    for n in (2, 4):
        first = None
        for seed in (0, 1, 2):
            problem = OptimizationProblem(N=n, eta=0.6, chi=1e-8, restarts=4,
                                          seed=seed)
            alpha = np.array(optimize_alpha(problem).alpha_star)
            for part in (alpha[0::2], alpha[1::2]):
                assert part[np.argmax(np.abs(part))] > 0
            flipped = alpha * (-1.0) ** np.arange(alpha.size)
            assert qfi_objective(flipped, problem) == pytest.approx(
                qfi_objective(alpha, problem), rel=1e-12)
            first = alpha if first is None else first
            assert np.abs(alpha - first).max() < 1e-6


def test_problem_validation():
    with pytest.raises(ValueError):
        OptimizationProblem(N=0, eta=0.9, chi=0.0)
    with pytest.raises(ValueError):
        OptimizationProblem(N=3, eta=1.2, chi=0.0)
    with pytest.raises(ValueError):
        OptimizationProblem(N=3, eta=0.9, chi=0.0, restarts=0)
    with pytest.raises(ValueError):
        OptimizationProblem(N=3, eta=0.9, chi=0.0, seed=-1)


def test_objective_one_hot_reproduces_pure_values():
    problem = OptimizationProblem(N=6, eta=1.0, chi=0.0)
    e0 = np.zeros(problem.dimension)
    e0[0] = 1.0
    assert qfi_objective(e0, problem) == pytest.approx(36.0, rel=1e-10)
    # even-N midpoint carries no phase information
    mid = np.zeros(problem.dimension)
    mid[-1] = 1.0
    assert qfi_objective(mid, problem) == pytest.approx(0.0, abs=1e-12)


def test_objective_matches_direct_construction():
    problem = OptimizationProblem(N=4, eta=0.9, chi=1e-8)
    rng = np.random.default_rng(2)
    one_hot = np.array([1.0, 0.0, 0.0])
    direct = PhasedFamily(SuperpositionSpec.normalized(4, one_hot), chi=1e-8,
                          eta=0.9).qfi().qfi
    assert qfi_objective(one_hot, problem) == pytest.approx(direct, rel=1e-10)
    # a dense alpha has stride 1 on both paths: the same computation
    raw = rng.normal(size=3)
    direct = PhasedFamily(SuperpositionSpec.normalized(4, raw), chi=1e-8,
                          eta=0.9).qfi().qfi
    assert qfi_objective(raw, problem) == direct


def test_objective_scale_invariance():
    problem = OptimizationProblem(N=7, eta=0.8, chi=1e-4)
    rng = np.random.default_rng(3)
    raw = rng.normal(size=problem.dimension)
    base = qfi_objective(raw, problem)
    for scale in (0.1, 3.0, 250.0):
        assert abs(qfi_objective(scale * raw, problem) - base) < 1e-12 * max(1, base)


def test_objective_input_validation():
    problem = OptimizationProblem(N=5, eta=0.9, chi=0.0)
    with pytest.raises(ValueError):
        qfi_objective(np.zeros(problem.dimension), problem)
    with pytest.raises(ValueError):
        qfi_objective(np.ones(problem.dimension + 1), problem)


def test_single_coefficient_case():
    outcome = optimize_alpha(OptimizationProblem(N=1, eta=0.7, chi=0.0,
                                                 restarts=2, max_evals=500))
    assert outcome.alpha_star == pytest.approx((1 / math.sqrt(2),))
    assert outcome.qfi_star == pytest.approx(0.7, rel=1e-9)  # N^2 eta^N at N=1


def test_lossless_winner_concentrates_on_noon():
    problem = OptimizationProblem(N=5, eta=1.0, chi=1e-8, restarts=4)
    outcome = optimize_alpha(problem)
    weight0 = 2 * outcome.alpha_star[0] ** 2
    assert weight0 >= 1 - 1e-6
    want = qfi_pure_analytic(5, 0, 1e-8)
    assert abs(outcome.qfi_star - want) <= 1e-6 * want
    assert outcome.converged


def test_lossy_outcome_dominates_best_two_branch_state():
    problem = OptimizationProblem(N=6, eta=0.9, chi=1e-8, restarts=6)
    outcome = optimize_alpha(problem)
    _, noon_best = max_qfi_over_k(6, 0.9, 1e-8)
    assert outcome.qfi_star >= noon_best - 1e-9
    assert SuperpositionSpec.squared_weight(6, outcome.alpha_star) == pytest.approx(
        1.0, abs=1e-10)


def test_replay_is_deterministic():
    problem = OptimizationProblem(N=4, eta=0.8, chi=1e-8, restarts=3, seed=11)
    first = optimize_alpha(problem)
    second = optimize_alpha(problem)
    assert first.alpha_star == second.alpha_star
    assert first.qfi_star == second.qfi_star
    assert first.per_restart == second.per_restart
    assert first.evaluations == second.evaluations


def test_reported_best_equals_max_over_restarts():
    problem = OptimizationProblem(N=5, eta=0.85, chi=1e-8, restarts=5, seed=3)
    outcome = optimize_alpha(problem)
    assert outcome.qfi_star == max(value for _, value in outcome.per_restart)
    seeds = [seed for seed, _ in outcome.per_restart]
    assert seeds == [3 + i for i in range(6)]


def test_budget_exhaustion_returns_best_so_far():
    problem = OptimizationProblem(N=6, eta=0.8, chi=1e-8, restarts=2,
                                  max_evals=3)
    outcome = optimize_alpha(problem)
    assert not outcome.converged
    assert outcome.qfi_star > 0.0


@pytest.mark.parametrize("eta", sorted(NELDER_MEAD_QFI))
def test_never_below_nelder_mead(eta):
    for n, recorded in enumerate(NELDER_MEAD_QFI[eta], start=1):
        outcome = optimize_alpha(OptimizationProblem(N=n, eta=eta, chi=1e-8))
        assert outcome.qfi_star >= recorded - 1e-9 * max(1.0, recorded), n
        assert outcome.converged, n


@pytest.mark.parametrize("n, eta", [(1, 0.5), (4, 0.9), (7, 0.6), (8, 1.0)])
def test_model_rho_is_the_family_rho0(n, eta):
    # one channel path: for a dense alpha (every ket, the even-N midpoint
    # included) the model scatters the same terms in the same order
    problem = OptimizationProblem(N=n, eta=eta, chi=1e-8)
    model = _QuadraticQfiModel(problem)
    rng = np.random.default_rng(n)
    for _ in range(3):
        spec = SuperpositionSpec.normalized(n, rng.normal(size=problem.dimension))
        got = model._pairs(np.array(spec.alpha)).rho_flat
        want = PhasedFamily(spec, chi=1e-8, eta=eta).rho0_flat
        assert got.tobytes() == want.tobytes()
        # a dyad and its mirror form every term's product alike, so each
        # block is symmetric bit for bit
        for _, block in FlatBlocks(got, n):
            assert block.tobytes() == block.T.tobytes()


@pytest.mark.parametrize("n, eta", [(1, 0.5), (4, 0.9), (7, 0.6), (8, 1.0), (12, 0.7)])
def test_seesaw_matrix_matches_dense_model_rows(n, eta):
    problem = OptimizationProblem(N=n, eta=eta, chi=1e-4)
    model = _QuadraticQfiModel(problem)
    rows = oracle.model_rows(n, eta)
    for seed in range(3):
        alpha = _unit(problem, np.random.default_rng(seed))
        _, m, _ = model.seesaw(alpha)
        slds = [1j * j for j in _qfi_from_block_pairs(model._pairs(alpha), with_sld=True).sld]
        want = oracle.seesaw_matrix(rows, slds, model.g_flat, n)
        assert np.abs(m - want).max() <= 1e-12 * np.abs(want).max()


def test_model_build_memory_stays_below_the_dense_rows():
    # the dense model rows would take 168 MB at N = 40; the channel map
    # holds sum_T (T+1)^2 (N-T+1) terms, about 6 MB
    problem = OptimizationProblem(N=40, eta=0.9, chi=1e-8)
    tracemalloc.start()
    try:
        _QuadraticQfiModel(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6, peak


def _unit(problem, rng):
    alpha = rng.normal(size=problem.dimension)
    return alpha / math.sqrt(SuperpositionSpec.squared_weight(problem.N, alpha))


def test_seesaw_never_decreases_f():
    problem = OptimizationProblem(N=10, eta=0.9, chi=1e-8)
    model = _QuadraticQfiModel(problem)
    root = np.sqrt(model.metric)
    alpha = _unit(problem, np.random.default_rng(5))
    values = []
    for _ in range(60):
        value, m, _ = model.seesaw(alpha)
        values.append(value)
        # top eigenvector of M against the normalization metric W
        alpha = np.linalg.eigh(m / np.outer(root, root))[1][:, -1] / root
    assert values[-1] > values[0]
    steps = np.diff(values)
    assert steps.min() >= -1e-12 * max(values)
    # the climb, polish included, keeps every accepted F within round-off
    # of the best one before it
    [climb] = _lockstep(model, [_climb(model.metric, _unit(problem, np.random.default_rng(6)),
                                       500, 1e-10)])
    history = np.array(climb.history)
    assert climb.converged
    assert np.all(history[1:] >= np.maximum.accumulate(history)[:-1]
                  - 1e-12 * history.max())


@pytest.mark.parametrize("n, eta, chi", [(7, 0.8, 1e-4), (6, 0.6, 0.0), (12, 0.9, 1e-8)])
def test_gradient_matches_central_differences(n, eta, chi):
    problem = OptimizationProblem(N=n, eta=eta, chi=chi)
    alpha = _unit(problem, np.random.default_rng(n))
    value, _, gradient = _QuadraticQfiModel(problem).seesaw(alpha)
    assert value == pytest.approx(qfi_objective(alpha, problem), rel=1e-12)
    h = 1e-5
    numeric = np.array([
        (qfi_objective(alpha + h * e, problem) - qfi_objective(alpha - h * e, problem))
        / (2 * h) for e in np.eye(alpha.size)])
    assert np.linalg.norm(gradient - numeric) <= 1e-6 * np.linalg.norm(gradient)


def test_no_model_outlives_its_call(monkeypatch):
    # each model's channel map holds about N^4/12 terms: a scan over N
    # must not keep the model of an earlier problem alive
    built, init = [], _QuadraticQfiModel.__init__

    def recorded_init(model, problem):
        built.append(weakref.ref(model))
        init(model, problem)

    monkeypatch.setattr(_QuadraticQfiModel, "__init__", recorded_init)
    optimize_alpha(OptimizationProblem(N=6, eta=0.9, chi=1e-8, restarts=2))
    qfi_objective(np.ones(3), OptimizationProblem(N=4, eta=0.9, chi=1e-8))
    gc.collect()
    assert len(built) == 2
    assert all(model() is None for model in built)


@pytest.mark.parametrize("chi", [0.0, 0.2])
@pytest.mark.parametrize("eta", [0.3, 0.9, 1.0])
def test_batched_seesaw_is_bit_identical_to_one_point_calls(eta, chi):
    # batched eigh and matmul solve one matrix at a time and each point's
    # QFI terms are summed alone, so a point's bits ignore its batch
    for n in range(1, 9):
        problem = OptimizationProblem(N=n, eta=eta, chi=chi)
        model = _QuadraticQfiModel(problem)
        rng = np.random.default_rng(n)
        # the one-hot points have rank-deficient blocks
        one_hots = [e / math.sqrt(SuperpositionSpec.squared_weight(n, e))
                    for e in np.eye(problem.dimension)]
        points = np.array(one_hots + [_unit(problem, rng) for _ in range(4)])
        values, ms, gradients = model.seesaw(points)
        assert ms.shape == (len(points), problem.dimension, problem.dimension)
        for point, value, m, gradient in zip(points, values, ms, gradients):
            want = model.seesaw(point)
            assert type(value) is float
            assert np.float64(value).tobytes() == np.float64(want[0]).tobytes(), n
            assert m.tobytes() == want[1].tobytes(), n
            assert gradient.tobytes() == want[2].tobytes(), n


def test_batched_pairs_run_point_by_point():
    # the pairs of a batch are every point's pairs, point after point
    problem = OptimizationProblem(N=4, eta=0.8, chi=0.1)
    model = _QuadraticQfiModel(problem)
    rng = np.random.default_rng(4)
    points = np.array([_unit(problem, rng) for _ in range(3)])
    batch = model._pairs(points)
    singles = [pair for point in points for pair in model._pairs(point)]
    assert len(batch) == len(singles) == 3 * (problem.N + 1)
    for (rho, rho_prime), (want, want_prime) in zip(batch, singles):
        assert rho.tobytes() == want.tobytes()
        assert rho_prime.tobytes() == want_prime.tobytes()


@pytest.mark.parametrize("chi", [0.0, 0.2])
@pytest.mark.parametrize("eta", [0.3, 0.9, 1.0])
def test_lockstep_starts_match_starts_driven_alone(monkeypatch, eta, chi):
    import kerrmet.optimizer as optimizer

    def alone(model, climbs):
        return [_lockstep(model, [climb])[0] for climb in climbs]

    for n in range(1, 9):
        problem = OptimizationProblem(N=n, eta=eta, chi=chi, restarts=4)
        together = optimize_alpha(problem)
        with monkeypatch.context() as patch:
            patch.setattr(optimizer, "_lockstep", alone)
            apart = optimize_alpha(problem)
        assert np.array(together.alpha_star).tobytes() == np.array(apart.alpha_star).tobytes()
        assert repr(together.qfi_star) == repr(apart.qfi_star)
        assert together.evaluations == apart.evaluations
        assert repr(together.per_restart) == repr(apart.per_restart)
        assert together.converged == apart.converged


def test_lockstep_round_runs_one_seesaw_eigh(monkeypatch):
    # every pending climb's see-saw step comes from one batched eigh over
    # the round's (B, S, S) stack: one call per round, none per climb
    import sys

    import kerrmet.optimizer as optimizer

    eigh, seesaw = np.linalg.eigh, _QuadraticQfiModel.seesaw
    rounds, steps = [], []

    def counted_eigh(a, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == optimizer.__name__:
            steps.append(a.shape)
        return eigh(a, *args, **kwargs)

    def counted_seesaw(model, alpha):
        rounds.append(len(alpha))
        return seesaw(model, alpha)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(_QuadraticQfiModel, "seesaw", counted_seesaw)
    problem = OptimizationProblem(N=3, eta=0.6, chi=0.0, restarts=16)
    outcome = optimize_alpha(problem)
    assert len(outcome.per_restart) == 17
    assert sum(rounds) == outcome.evaluations
    assert len(steps) == len(rounds) > 2
    assert steps == [(points, problem.dimension, problem.dimension) for points in rounds]


def test_seesaw_round_memory_stays_bounded():
    # at N = 40 every chunk holds one point; a single scatter over all 17
    # points would hold 17 copies of the term list (about 139 MB)
    problem = OptimizationProblem(N=40, eta=0.9, chi=1e-8)
    model = _QuadraticQfiModel(problem)
    rng = np.random.default_rng(40)
    points = np.array([_unit(problem, rng) for _ in range(17)])
    model.seesaw(points)  # the class tables are cached on first use
    tracemalloc.start()
    try:
        model.seesaw(points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 13.5e6, peak
