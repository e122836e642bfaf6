"""Input-state optimization: maximize Fisher information over the real
coefficients of a fixed-N superposition under the normalization constraint.

The lossy output is quadratic in the coefficients, rho = sum_kl alpha_k
alpha_l R_kl, and the Fisher information is a maximum over Hermitian L,

    F(alpha) = max_L 2 Tr[rho' L] - Tr[rho L^2],

attained at the symmetric logarithmic derivative.  For fixed L the
right-hand side is the quadratic form alpha^T M(L) alpha, so the see-saw
(Macieszczak, arXiv:1312.1356) alternates L <- SLD of rho(alpha) and
alpha <- top eigenvector of M(L) under the normalization metric, and F
never decreases.  Where the see-saw crawls, quasi-Newton steps with the
exact gradient 2(M alpha - F W alpha) finish the climb.  Multiple seeded
starts guard against local maxima; the deterministic first start sits next
to the best two-branch state, so the search never reports worse than it.
"""

from __future__ import annotations

import math

import numpy as np

from .estimation import BlockPairs, QfiResult, _qfi_from_block_pairs, generator_flat
from .fock import Record, block_diagonal, check_trace, debug
from .interferometer import SuperpositionSpec, ket_fold, superposition_length
from .loss import ChannelMap

RANDOM_GENERATOR = "numpy.random.default_rng (PCG64)"
# weight of the uniform admixture to the best one-hot start, which is
# itself a fixed point of the see-saw
_ADMIXTURE = 0.05
# a see-saw step longer than this fraction of the one before hands over
# to the polish
_CRAWL_RATIO = 0.5
_ARMIJO = 1e-4
_MAX_HALVINGS = 6
# relative round-off of F: close to the maximum a step raises F by less than
# this, and a step that lowers the gradient norm there is still accepted
_VALUE_NOISE = 1e-12


class OptimizationProblem(Record, frozen=True):
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
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @property
    def dimension(self) -> int:
        return superposition_length(self.N)


class OptimizationOutcome(Record):
    alpha_star: tuple[float, ...]
    qfi_star: float
    evaluations: int
    converged: bool
    per_restart: list[tuple[int, float]]


class _QuadraticQfiModel:
    """rho(alpha) is the channel map's scatter of the ket dyads a a^T with
    a = B alpha (B the ket fold), as in ``PhasedFamily``; the see-saw matrix
    is M(L) = B^T A B with A_nm = Tr[C(|n><m|) Z], Z = 2i[L, G] - L^2, one
    gather of the map; Z = 2(g_r - g_c) J + J^2 is real for the SLD L = iJ.
    A dense alpha couples all block indices, so the spectral step runs at stride 1."""

    def __init__(self, problem: OptimizationProblem):
        n = problem.N
        self.fold = ket_fold(n)
        self.channel = ChannelMap(range(n + 1), range(n + 1), n, problem.eta)
        self.diag_idx = block_diagonal(n)
        self.g_flat = generator_flat(n, problem.chi)
        # per block, g_r - g_c: rho' = i[G, rho] = i (g_r - g_c) rho entrywise
        self.factors = [g[:, None] - g[None, :]
                        for g in np.split(self.g_flat, np.cumsum(np.arange(1, n + 1)))]
        # Tr R_kl = W_kl: the metric of SuperpositionSpec.squared_weight
        self.metric = (self.fold ** 2).sum(0)
        self.n = n

    def _rho(self, alpha: np.ndarray) -> np.ndarray:
        a = alpha @ self.fold.T  # the ket amplitudes
        rho_flat = self.channel.scatter((a[..., None] * a[..., None, :]).reshape(*a.shape[:-1], -1))
        for trace in np.atleast_1d(rho_flat[..., self.diag_idx].sum(-1)):
            check_trace(trace, "model state")
        return rho_flat

    def _pairs(self, alpha: np.ndarray) -> BlockPairs:
        """The pairs of rho(alpha), for one point (S,) or a (B, S) stack."""
        return BlockPairs(self._rho(alpha), self.g_flat, self.n, 1)

    def qfi(self, alpha: np.ndarray, with_sld: bool = False) -> QfiResult:
        """The spectral step at alpha, one point (S,) or a (B, S) stack."""
        return _qfi_from_block_pairs(self._pairs(alpha), with_sld)

    def seesaw(self, alpha: np.ndarray):
        """F at normalized alpha, M(L)_kl = Re(2 Tr[rho'_kl L] - Tr[R_kl L^2])
        at the SLD L of rho(alpha), and the gradient 2(M alpha - F W alpha)
        of F(alpha / sqrt(alpha^T W alpha)) there.  A (B, S) stack of points
        is batched at every step, and each result gains a leading axis of
        length B; a point's bits do not depend on its batch.
        """
        points = alpha.reshape(-1, alpha.shape[-1])
        result = self.qfi(points, with_sld=True)
        # Tr[X L] = sum_ij X_ij L_ji; with L = iJ the blocks of Z^T are 2 f J + J J
        duals = np.concatenate(
            [(2.0 * f * j + j @ j).reshape(len(points), -1)
             for f, j in zip(self.factors, result.sld)], axis=1)
        adjoint = self.channel.real_adjoint(duals).reshape(len(points), self.n + 1, -1)
        ms = self.fold.T @ adjoint @ self.fold
        ms = 0.5 * (ms + ms.swapaxes(1, 2))
        gradients = 2.0 * ((ms @ points[:, :, None])[:, :, 0]
                           - np.array(result.qfi)[:, None] * self.metric * points)
        if alpha.ndim == 1:
            return result.qfi[0], ms[0], gradients[0]
        return result.qfi, ms, gradients


def qfi_objective(alpha, problem: OptimizationProblem) -> float:
    """Fisher information of the lossy output for raw coefficients alpha,
    normalized inside, so invariant under positive rescaling of alpha."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (problem.dimension,):
        raise ValueError(
            f"alpha must have {problem.dimension} entries, got shape {alpha.shape}")
    weight = SuperpositionSpec.squared_weight(problem.N, alpha)
    if weight <= 0 or not np.isfinite(weight):
        raise ValueError("alpha cannot be normalized")
    return _QuadraticQfiModel(problem).qfi(alpha / math.sqrt(weight)).qfi


class _Climb(Record):
    """One start's end point, its SLD evaluations and accepted F values."""

    alpha: np.ndarray
    value: float
    evaluations: int
    converged: bool
    history: list[float]


def _climb(metric: np.ndarray, alpha: np.ndarray, budget: int, tol: float):
    """See-saw from alpha, then quasi-Newton steps where the see-saw crawls:
    a generator that yields each normalized point it needs evaluated,
    receives from ``_lockstep`` that point's F, see-saw step and gradient,
    and returns its ``_Climb``.

    Works in u = W^(1/2) alpha on the unit sphere, where the see-saw step
    is the top eigenvector of W^(-1/2) M W^(-1/2) and the gradient is
    tangent.  An accepted step raises F, or, once F moves by less than its
    round-off, stays within round-off of the best F so far and lowers the
    gradient norm.  The climb stops once the gradient norm is within
    tol * max(1, F) (converged), when the budget of SLD evaluations is
    spent, or when no step is accepted.  Norms are np.linalg.norm's own
    math.sqrt(v.dot(v)).
    """
    root = np.sqrt(metric)
    u = root * alpha
    u /= math.sqrt(u.dot(u))
    value, top, g = yield u / root
    evaluations = 1
    history = [value]
    ceiling = value  # the best F so far; accepted steps stay within noise of it

    def accepted(candidate, gain):
        new_value, _, new_g = candidate
        if new_value > value + gain:
            return True
        return (new_value >= ceiling - _VALUE_NOISE * max(1.0, ceiling)
                and math.sqrt(new_g.dot(new_g)) < math.sqrt(g.dot(g)))

    identity = np.eye(u.size)
    inv_hessian = None  # of -F on the tangent space, from BFGS updates
    polishing = False
    last_step = np.inf
    converged = False
    while True:
        if math.sqrt(g.dot(g)) <= tol * max(1.0, value):
            converged = True
            break
        if evaluations >= budget:
            break
        trial = None
        if polishing and inv_hessian is not None:
            tangent = identity - np.outer(u, u)
            direction = tangent @ inv_hessian @ tangent @ g
            # a quasi-Newton step may not outrun the last accepted step twice over
            length = math.sqrt(direction.dot(direction))
            if length > 2.0 * last_step:
                direction *= 2.0 * last_step / length
            ascent = g @ direction
            t = 1.0
            for _ in range(_MAX_HALVINGS):
                if evaluations >= budget:
                    break
                point = u + t * direction
                point /= math.sqrt(point.dot(point))
                candidate = yield point / root
                evaluations += 1
                if accepted(candidate, _ARMIJO * t * ascent):
                    trial = point, candidate
                    break
                t *= 0.5
            else:
                inv_hessian = None  # a see-saw step follows and restarts BFGS
        if trial is None:
            if evaluations >= budget:
                break
            point = top
            if point @ u < 0:
                point = -point
            candidate = yield point / root
            evaluations += 1
            if not accepted(candidate, 0.0):
                break
            trial = point, candidate
            step = point - u
            polishing = polishing or math.sqrt(step.dot(step)) > _CRAWL_RATIO * last_step
        point, (new_value, new_top, new_g) = trial
        # BFGS update of the inverse Hessian of -F, carrying the old
        # gradient to the new tangent space by projection
        s = point - u
        last_step = math.sqrt(s.dot(s))
        s -= point * (point @ s)
        y = -(new_g - (g - point * (point @ g)))
        sy = s @ y
        if sy > 1e-12 * math.sqrt(s.dot(s)) * math.sqrt(y.dot(y)):
            if inv_hessian is None:
                inv_hessian = (sy / (y @ y)) * identity
            v = identity - np.outer(s, y) / sy
            inv_hessian = v @ inv_hessian @ v.T + np.outer(s, s) / sy
        u, value, top, g = point, new_value, new_top, new_g
        ceiling = max(ceiling, value)
        history.append(value)
    return _Climb(alpha=u / root, value=value, evaluations=evaluations,
                  converged=converged, history=history)


def _lockstep(model: _QuadraticQfiModel, climbs: list) -> list[_Climb]:
    """Drive ``_climb`` generators to their ends in lockstep: each round
    sends every pending point to one batched ``seesaw`` call and one batched
    ``eigh`` for their see-saw steps.  A climb's step is a column view of its
    own copy of its eigenvectors, which rounds as a lone ``eigh``'s does."""
    root = np.sqrt(model.metric)
    results = [None] * len(climbs)
    pending = {index: next(climb) for index, climb in enumerate(climbs)}
    while pending:
        values, stack, gradients = model.seesaw(np.array(list(pending.values())))
        stack, gradients = np.linalg.eigh(stack / np.outer(root, root))[1], gradients / root
        sent, pending = pending, {}
        for index, value, vecs, g in zip(sent, values, stack, gradients):
            try:
                pending[index] = climbs[index].send((value, vecs.copy()[:, -1], g))
            except StopIteration as stop:
                results[index] = stop.value
    return results


def optimize_alpha(problem: OptimizationProblem) -> OptimizationOutcome:
    """Multi-start see-saw search over the input coefficients.

    Start 0 is the best one-hot vector e_k (a two-branch state) with a
    small uniform admixture, since e_k itself is a fixed point of the
    see-saw; e_k stays a candidate of start 0, so the result never falls
    below the best two-branch state.  Starts 1..``restarts`` are random
    unit vectors with per-start seed ``problem.seed + index``.  Each start
    may spend ``max_evals`` SLD evaluations; the best end point over all
    starts wins, with ties broken toward the earlier start.  The one-hot
    probes, then the starts, climb in lockstep, one batched evaluation
    per round.
    """
    model = _QuadraticQfiModel(problem)
    dim = problem.dimension
    n = problem.N
    n_starts = problem.restarts + 1
    debug(__name__, "optimize_alpha N=%d eta=%.3f: %d starts x %d evals, rng=%s",
          n, problem.eta, n_starts, problem.max_evals, RANDOM_GENERATOR)

    def scale_of(x):
        return x / math.sqrt(SuperpositionSpec.squared_weight(n, x))

    # one evaluation each: the best two-branch state and its gradient test
    one_hots = _lockstep(model, [_climb(model.metric, scale_of(e), 1, problem.tol)
                                 for e in np.eye(dim)])
    one_hot = max(one_hots, key=lambda climb: climb.value)
    evaluations = dim

    starts = [one_hot.alpha + _ADMIXTURE * scale_of(np.ones(dim))] + [
        np.random.default_rng(problem.seed + index).normal(size=dim)
        for index in range(1, n_starts)]
    climbs = _lockstep(model, [_climb(model.metric, scale_of(x0), problem.max_evals,
                                      problem.tol) for x0 in starts])
    best = None
    per_restart: list[tuple[int, float]] = []
    for index, climb in enumerate(climbs):
        evaluations += climb.evaluations
        if index == 0 and one_hot.value > climb.value:
            climb = one_hot
        per_restart.append((problem.seed + index, climb.value))
        if best is None or climb.value > best.value:
            best = climb

    alpha_star = scale_of(best.alpha)
    # signs that leave the QFI unchanged are fixed for replay: the global
    # sign, and at even N also the sign of the odd-k part, since exp(i pi n2)
    # maps alpha_k to (-1)^k alpha_k and commutes with the phase and the loss
    stride = 1 if n % 2 else 2
    for start in range(stride):
        part = alpha_star[start::stride]  # a view into alpha_star
        if part[int(np.argmax(np.abs(part)))] < 0:
            part *= -1.0
    return OptimizationOutcome(alpha_star=tuple(float(a) for a in alpha_star),
                               qfi_star=best.value,
                               evaluations=evaluations,
                               converged=best.converged,
                               per_restart=per_restart)
