import math

import numpy as np
import pytest

from kerrmet.estimation import PhasedFamily, max_qfi_over_k, qfi_pure_analytic
from kerrmet.interferometer import SuperpositionSpec
from kerrmet.optimizer import (
    OptimizationProblem,
    optimize_alpha,
    qfi_objective,
)


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
    for raw in (np.array([1.0, 0.0, 0.0]), rng.normal(size=3)):
        fast = qfi_objective(raw, problem)
        spec = SuperpositionSpec.normalized(4, raw)
        direct = PhasedFamily(spec, chi=1e-8, eta=0.9).qfi().qfi
        assert fast == pytest.approx(direct, rel=1e-10)


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
                                  max_evals=20)
    outcome = optimize_alpha(problem)
    assert not outcome.converged
    assert outcome.qfi_star > 0.0
