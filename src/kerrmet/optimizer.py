"""Input-state optimization: maximize Fisher information over the real
coefficients of a fixed-N superposition under the normalization constraint.

The objective is evaluated in unconstrained coordinates with the
normalization applied inside, so a plain derivative-free simplex search
works; multiple seeded restarts guard against local maxima, and the
deterministic one-hot start at k = 0 makes the search never report worse
than the plain two-branch state.  The lossy output is quadratic in the
coefficients, which lets the objective precompute one block tensor per
problem and reduce each evaluation to a small contraction plus blockwise
eigendecompositions.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize

from .estimation import _qfi_from_block_pairs, derivative_factors, generator_blocks
from .fock import NumericalError
from .interferometer import SuperpositionSpec, branch_amplitudes, superposition_length
from .loss import cross_lossy_blocks

logger = logging.getLogger(__name__)

RANDOM_GENERATOR = "numpy.random.default_rng (PCG64)"
_SIMPLEX_XATOL = 1e-8


@dataclass(frozen=True)
class OptimizationProblem:
    """Coefficient optimization at one (N, eta, chi) point; the Fisher
    information does not depend on the operating phase."""

    N: int
    eta: float
    chi: float
    restarts: int = 16
    max_evals: int = 20000
    tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be at least 1")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta={self.eta} outside [0, 1]")
        if self.chi < 0:
            raise ValueError("chi must be non-negative")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.max_evals < 1 or self.tol <= 0:
            raise ValueError("max_evals must be positive and tol > 0")

    @property
    def dimension(self) -> int:
        return superposition_length(self.N)


@dataclass
class OptimizationOutcome:
    alpha_star: tuple[float, ...]
    qfi_star: float
    evaluations: int
    converged: bool
    per_restart: list[tuple[int, float]]


class _QuadraticQfiModel:
    """The lossy output is quadratic in alpha: rho = sum_kl alpha_k alpha_l
    rho^(kl).  All phi = 0 cross blocks are built once and flattened into a
    single (S^2, sum_T (T+1)^2) matrix, so one evaluation is one
    vector-matrix product with outer(alpha, alpha), the blockwise
    derivative i[G, rho] and the blockwise QFI reduction."""

    def __init__(self, problem: OptimizationProblem):
        n = problem.N
        length = problem.dimension
        sets = [branch_amplitudes(n, np.eye(length)[k]) for k in range(length)]
        tensors = [np.zeros((length, length, t + 1, t + 1), dtype=complex)
                   for t in range(n + 1)]
        for k in range(length):
            for l in range(length):
                for t, b in cross_lossy_blocks(sets[k], sets[l], n, problem.eta):
                    tensors[t][k, l] = b
        self.block_dims = [t + 1 for t in range(n + 1)]
        sizes = [d * d for d in self.block_dims]
        self.offsets = np.concatenate(([0], np.cumsum(sizes)))
        self.matrix = np.concatenate(
            [r.reshape(length * length, -1) for r in tensors], axis=1)
        self.diag_idx = np.concatenate(
            [off + np.arange(d) * (d + 1)
             for off, d in zip(self.offsets[:-1], self.block_dims)])
        self.factors = derivative_factors(generator_blocks(n, problem.chi))

    def qfi(self, alpha: np.ndarray) -> float:
        weights = np.outer(alpha, alpha).ravel()
        rho_flat = weights @ self.matrix
        trace = rho_flat[self.diag_idx].real.sum()
        if abs(trace - 1.0) > 1e-10:
            raise NumericalError(f"model state trace {trace!r} deviates from 1")
        pairs = []
        for off, d, f in zip(self.offsets[:-1], self.block_dims, self.factors):
            block = rho_flat[off:off + d * d].reshape(d, d)
            block = 0.5 * (block + block.conj().T)
            pairs.append((block, f * block))
        return _qfi_from_block_pairs(pairs).qfi


@lru_cache(maxsize=8)
def _model_for(problem: OptimizationProblem) -> _QuadraticQfiModel:
    return _QuadraticQfiModel(problem)


def qfi_objective(alpha, problem: OptimizationProblem) -> float:
    """Fisher information of the lossy output for raw coefficients alpha.

    The coefficients are normalized inside, so the objective is invariant
    under positive rescaling of alpha.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (problem.dimension,):
        raise ValueError(
            f"alpha must have {problem.dimension} entries, got shape {alpha.shape}")
    weight = SuperpositionSpec.squared_weight(problem.N, alpha)
    if weight <= 0 or not np.isfinite(weight):
        raise ValueError("alpha cannot be normalized")
    return _model_for(problem).qfi(alpha / math.sqrt(weight))


def optimize_alpha(problem: OptimizationProblem) -> OptimizationOutcome:
    """Multi-restart Nelder-Mead search over the input coefficients.

    Start points: the deterministic one-hot vector e_0 (restart index 0)
    plus ``restarts`` random unit vectors with per-restart seed
    ``problem.seed + index``.  Each restart runs its simplex search under
    the per-restart evaluation budget ``max_evals``; the best point over
    all restarts wins, with ties broken toward the earlier restart.
    """
    model = _model_for(problem)
    dim = problem.dimension
    n = problem.N

    def value_at(x: np.ndarray) -> float:
        weight = SuperpositionSpec.squared_weight(n, x)
        if weight <= 0 or not np.isfinite(weight):
            return 0.0
        return model.qfi(np.asarray(x, dtype=float) / math.sqrt(weight))

    def negated(x: np.ndarray) -> float:
        # the objective is flat along the overall-scale ray; the quadratic
        # gauge term vanishes on the normalized manifold and only keeps the
        # simplex from drifting along that ray
        weight = SuperpositionSpec.squared_weight(n, x)
        gauge = (weight - 1.0) ** 2 if np.isfinite(weight) else np.inf
        return -value_at(x) + gauge

    n_starts = problem.restarts + 1
    budget = problem.max_evals
    logger.debug("optimize_alpha N=%d eta=%.3f: %d starts x %d evals, rng=%s",
                 n, problem.eta, n_starts, budget, RANDOM_GENERATOR)

    best_value = -np.inf
    best_x = None
    best_success = False
    evaluations = 0
    per_restart: list[tuple[int, float]] = []
    for index in range(n_starts):
        if index == 0:
            x0 = np.zeros(dim)
            x0[0] = 1.0
        else:
            rng = np.random.default_rng(problem.seed + index)
            x0 = rng.normal(size=dim)
            x0 /= np.linalg.norm(x0)
        res = minimize(negated, x0, method="Nelder-Mead",
                       options={"maxfev": budget, "xatol": _SIMPLEX_XATOL,
                                "fatol": problem.tol, "adaptive": True,
                                "disp": False})
        evaluations += int(res.nfev) + 1
        value = value_at(np.asarray(res.x, dtype=float))
        per_restart.append((problem.seed + index, value))
        if value > best_value:
            best_value = value
            best_x = np.asarray(res.x, dtype=float)
            best_success = bool(res.success)

    weight = SuperpositionSpec.squared_weight(n, best_x)
    alpha_star = best_x / math.sqrt(weight)
    # signs that leave the QFI unchanged are fixed for replay: the global
    # sign, and at even N also the sign of the odd-k part, since exp(i pi n2)
    # maps alpha_k to (-1)^k alpha_k and commutes with the phase and the loss
    stride = 1 if n % 2 else 2
    for start in range(stride):
        part = alpha_star[start::stride]  # a view into alpha_star
        if part[int(np.argmax(np.abs(part)))] < 0:
            part *= -1.0
    return OptimizationOutcome(alpha_star=tuple(float(a) for a in alpha_star),
                               qfi_star=best_value,
                               evaluations=evaluations,
                               converged=best_success,
                               per_restart=per_restart)
