"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The optimizer-backed
criteria share one session cache of optimization outcomes, so the whole
module stays well inside its runtime budgets.
"""

import math
import time

import numpy as np
import pytest

import oracle
from kerrmet.estimation import (
    PhasedFamily,
    max_qfi_over_k,
    measurement_mm,
    min_delta_phi,
    qcrb,
    qfi_pure_analytic,
)
from kerrmet.fock import TwoModeBasis
from kerrmet.interferometer import NoonLikeSpec, SuperpositionSpec
from kerrmet.optimizer import OptimizationProblem, optimize_alpha

CHI_DEFAULT = 1e-8


def criterion(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}  -- {detail}")
    assert ok, f"{name}: {detail}"


def linear_loss_bound(n: int, eta: float, chi: float) -> float:
    """theta^2 eta N / (1 - eta) with theta = 1 + chi N/2: the asymptotic
    bound of lossy linear interferometry (Demkowicz-Dobrzanski, Kolodynski
    and Guta, Nat. Commun. 3, 1063 (2012)), rescaled by the Kerr rate, which
    multiplies the generator on the N-photon shell and commutes with loss."""
    theta = 1.0 + 0.5 * chi * n
    return theta ** 2 * eta * n / (1.0 - eta)


def spec_length(n: int) -> int:
    return ((n - 1) // 2 if n % 2 else n // 2) + 1


@pytest.fixture(scope="module")
def optimized():
    cache: dict[tuple[int, float], object] = {}

    def get(n: int, eta: float):
        key = (n, eta)
        if key not in cache:
            cache[key] = optimize_alpha(
                OptimizationProblem(N=n, eta=eta, chi=CHI_DEFAULT))
        return cache[key]

    return get


def test_criterion_1_pure_qfi_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 41):
        for k in range(n + 1):
            for chi in (0.0, 1e-8, 0.1):
                got = PhasedFamily(NoonLikeSpec(n, k), chi=chi, eta=1.0).qfi().qfi
                want = qfi_pure_analytic(n, k, chi)
                worst = max(worst, abs(got - want) / max(1.0, want))
    elapsed = time.perf_counter() - t0
    criterion("1 pure-QFI exactness",
              worst <= 1e-9 and elapsed < 60.0,
              f"worst rel dev {worst:.2e} over N<=40, runtime {elapsed:.1f}s")


def test_criterion_2_channel_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260810)
    worst_gap = 0.0
    worst_trace = 0.0
    for n in range(1, 11):
        basis = TwoModeBasis(n)
        specs = [NoonLikeSpec(n, k) for k in range(n + 1)]
        specs.append(SuperpositionSpec.normalized(n, np.ones(spec_length(n))))
        specs.append(SuperpositionSpec.normalized(n, rng.normal(size=spec_length(n))))
        for spec in specs:
            pure = oracle.superposition_state(spec, basis)
            for eta in (0.3, 0.7, 1.0):
                family = PhasedFamily(spec, chi=CHI_DEFAULT, eta=eta)
                for phi in (0.0, 0.4):
                    closed = oracle.rho(family, phi)
                    worst_trace = max(worst_trace,
                                      abs(closed.matrix.trace().real - 1.0))
                    evolved = oracle.apply_phase(pure, phi, CHI_DEFAULT)
                    dense = oracle.apply_loss(evolved.to_density(),
                                              oracle.LossParams.equal(eta))
                    gap = np.abs(closed.matrix - dense.matrix).max()
                    worst_gap = max(worst_gap, gap)
    elapsed = time.perf_counter() - t0
    criterion("2 channel correctness",
              worst_trace <= 1e-10 and worst_gap <= 1e-11 and elapsed < 300.0,
              f"worst trace dev {worst_trace:.2e}, closed-vs-Kraus gap "
              f"{worst_gap:.2e}, runtime {elapsed:.1f}s")


def test_criterion_3_scaling_slopes():
    t0 = time.perf_counter()
    ns = list(range(20, 101, 10))
    slopes = {}
    for eta in (1.0, 0.9):
        values = [max_qfi_over_k(n, eta, CHI_DEFAULT)[1] for n in ns]
        slopes[eta] = float(np.polyfit(np.log(ns), np.log(values), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = abs(slopes[1.0] - 2.0) <= 0.05 and abs(slopes[0.9] - 1.0) <= 0.15
    criterion("3 scaling of max-over-k QFI", ok,
              f"slope(eta=1)={slopes[1.0]:.4f} (2.00+-0.05), "
              f"slope(eta=0.9)={slopes[0.9]:.4f} (1.0+-0.15), "
              f"runtime {elapsed:.1f}s")


def test_criterion_4_qcrb_saturation_full_coincidence():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 3, 5, 7, 9):
        for chi in (0.0, 0.1):
            family = PhasedFamily(NoonLikeSpec(n, 0), chi=chi, eta=1.0)
            obs = measurement_mm(n, family.basis)
            got = min_delta_phi(family.moment_profile(obs))
            want = 1.0 / (n + chi * n * n / 2)
            worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - t0
    criterion("4 QCRB saturation at m=N",
              worst <= 1e-6 and elapsed < 60.0,
              f"worst rel dev {worst:.2e}, runtime {elapsed:.1f}s")


def test_criterion_5_near_balanced_readout_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 3, 5, 7, 9):
        for chi in (0.0, 0.1):
            a = (n * n + 2 * n - 1) / 2
            c1 = (n + 1) / 2
            theta = 1 + chi * n / 2
            family = PhasedFamily(NoonLikeSpec(n, (n - 1) // 2), chi=chi, eta=1.0)
            obs = measurement_mm(1, family.basis)  # photon counting up to sign
            got = min_delta_phi(family.moment_profile(obs))
            want = math.sqrt(a) / (c1 * theta)
            worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - t0
    criterion("5 two-photon-readout closed form",
              worst <= 1e-9 and elapsed < 60.0,
              f"worst rel dev {worst:.2e}, runtime {elapsed:.1f}s")


def test_criterion_6_optimizer_dominance_and_reduction(optimized):
    t0 = time.perf_counter()
    worst_margin = np.inf
    worst_bound_ratio = 0.0
    for eta in (0.6, 0.8, 0.9):
        for n in range(1, 13):
            outcome = optimized(n, eta)
            _, noon_best = max_qfi_over_k(n, eta, CHI_DEFAULT)
            worst_margin = min(worst_margin, outcome.qfi_star - noon_best)
            worst_bound_ratio = max(worst_bound_ratio,
                                    outcome.qfi_star / linear_loss_bound(n, eta, CHI_DEFAULT))
    worst_rel = 0.0
    for n in range(1, 13):
        outcome = optimized(n, 1.0)
        want = qfi_pure_analytic(n, 0, CHI_DEFAULT)
        worst_rel = max(worst_rel, abs(outcome.qfi_star - want) / want)
    elapsed = time.perf_counter() - t0
    ok = (worst_margin >= -1e-9 and worst_rel <= 1e-6 and worst_bound_ratio <= 1.0
          and elapsed < 300.0)
    criterion("6 optimizer dominance and lossless reduction", ok,
              f"worst dominance margin {worst_margin:.2e}, worst lossless "
              f"rel dev {worst_rel:.2e}, worst qfi / loss bound "
              f"{worst_bound_ratio:.4f}, runtime {elapsed:.0f}s")


def test_criterion_7_persistent_super_heisenberg_scaling(optimized):
    ns = list(range(6, 15))
    values = [optimized(n, 0.6).qfi_star for n in ns]
    slope = float(np.polyfit(np.log(ns), np.log(values), 1)[0])
    criterion("7 super-Heisenberg persistence at eta=0.6",
              slope > 1.0, f"log-log slope on N in [6,14]: {slope:.4f} (> 1)")


def test_criterion_8_readout_saturation_under_loss(optimized):
    ratios = {}
    for eta in (1.0, 0.9):
        inverse = {}
        for n in (11, 15):
            outcome = optimized(n, eta)
            family = PhasedFamily(SuperpositionSpec(n, outcome.alpha_star),
                                  chi=CHI_DEFAULT, eta=eta)
            obs = measurement_mm(n, family.basis)
            inverse[n] = 1.0 / min_delta_phi(family.moment_profile(obs))
        ratios[eta] = inverse[15] / inverse[11]
    criterion("8 readout growth saturates under loss",
              ratios[0.9] < ratios[1.0],
              f"growth ratio eta=0.9: {ratios[0.9]:.4f} < eta=1: {ratios[1.0]:.4f}")


def test_criterion_9_invariant_suite():
    t0 = time.perf_counter()
    failures = []

    # round-trip indexing
    basis = TwoModeBasis(14)
    if not all(basis.index_of(int(n1), int(n2)) == i
               for i, (n1, n2) in enumerate(zip(basis.n1, basis.n2))):
        failures.append("index round-trip")

    # eigendecomposition residuals on random Hermitian matrices
    rng = np.random.default_rng(7)
    for dim in (40, 160):
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        matrix = 0.5 * (raw + raw.conj().T)
        vals, vecs = np.linalg.eigh(matrix)
        residual = np.abs(matrix @ vecs - vecs * vals).max()
        if residual > 1e-10 * np.abs(vals).max() * dim:
            failures.append(f"eigh residual dim {dim}")

    # SLD reconstruction on the support of lossy families
    for n, k, eta in [(3, 1, 0.5), (6, 0, 0.9), (8, 2, 0.7), (10, 3, 0.5)]:
        family = PhasedFamily(NoonLikeSpec(n, k), chi=0.01, eta=eta)
        rho, rhop = oracle.rho(family, 0.2), oracle.rho_prime(family, 0.2)
        sld_op = oracle.sld(rho, rhop)
        residual = rhop.matrix - 0.5 * (sld_op.matrix @ rho.matrix
                                        + rho.matrix @ sld_op.matrix)
        vals, vecs = np.linalg.eigh(rho.matrix)
        support = vecs[:, vals > 1e-12]
        projected = np.abs(support.conj().T @ residual @ support).max()
        if projected > 1e-8 * max(np.abs(rhop.matrix).max(), 1e-30):
            failures.append(f"SLD reconstruction N={n}")

    # analytic derivative vs Richardson finite differences
    for n in (4, 8):
        for eta in (0.5, 0.9):
            spec = SuperpositionSpec.normalized(n, np.ones(spec_length(n)))
            family = PhasedFamily(spec, chi=0.02, eta=eta)
            a = oracle.rho_prime(family, 0.3).matrix
            f = oracle.richardson_rho_prime(family, 0.3, 1e-3)
            if np.abs(a - f).max() > 1e-6 * np.abs(a).max():
                failures.append(f"derivative cross-check N={n} eta={eta}")

    # readout never beats the Cramer-Rao bound
    for spec, eta, m in [(NoonLikeSpec(4, 1), 1.0, 2),
                         (NoonLikeSpec(5, 0), 0.9, 5),
                         (SuperpositionSpec.normalized(6, (1.0, 0.4, 0.2, 0.1)),
                          0.8, 6)]:
        family = PhasedFamily(spec, chi=CHI_DEFAULT, eta=eta)
        obs = measurement_mm(m, family.basis)
        bound = qcrb(family.qfi().qfi)
        best = min_delta_phi(family.moment_profile(obs))
        if best < bound - 1e-9:
            failures.append(f"readout beat the bound for N={spec.N}")

    # deterministic replay of a seeded optimization
    problem = OptimizationProblem(N=5, eta=0.8, chi=CHI_DEFAULT, restarts=4,
                                  seed=42)
    first, second = optimize_alpha(problem), optimize_alpha(problem)
    if not (first.alpha_star == second.alpha_star
            and first.qfi_star == second.qfi_star
            and first.per_restart == second.per_restart):
        failures.append("deterministic replay")

    elapsed = time.perf_counter() - t0
    criterion("9 invariant suite",
              not failures and elapsed < 600.0,
              f"failures: {failures or 'none'}, runtime {elapsed:.1f}s")
