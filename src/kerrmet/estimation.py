"""Metrological quantities for phase estimation.

Quantum Fisher information is computed from the symmetric logarithmic
derivative in the eigenbasis of rho,

    F^2 = sum_{j,k: p_j + p_k > eps} 2 |rho'_{jk}|^2 / (p_j + p_k),

which on a pure unitary family reduces to 4 Var(H).  The quantum
Cramer-Rao bound is delta_phi >= 1/F.  Readout performance is judged by
error propagation, delta_phi = sqrt(Var O) / |d<O>/dphi|, scanned over
operating points phi where the signal slope does not vanish.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    BasisMismatchError,
    BlockStructureError,
    DensityOperator,
    HermitianOperator,
    NumericalError,
    PSD_FLOOR,
    TwoModeBasis,
    assemble_blocks,
    block_split,
    expectation,
    lowering_power,
)
from .interferometer import NoonLikeSpec, SuperpositionSpec, branch_amplitudes
from .loss import cross_lossy_blocks

logger = logging.getLogger(__name__)

# eigenvalues below this fraction of the largest one count as kernel
RANK_CUTOFF_FACTOR = 1e-12
# |d<O>/dphi| below this fraction of ||O|| marks a degenerate operating point
DEGENERACY_FACTOR = 1e-12
# variance below this fraction of <O^2> + <O>^2 is round-off, not signal:
# <O^2> - <O>^2 cancels catastrophically right where the slope vanishes,
# so such points belong to the degenerate neighborhood as well
VARIANCE_FLOOR_FACTOR = 1e-8
GOLDEN_TOL = 1e-10
# delta_phi values this close (relative) tie.  On a flat profile (eta = 1,
# k = 0, m = N) the default grid spreads by round-off up to 9.4e-11 for
# N <= 60, mostly next to the degenerate points, where Var O cancels
TIE_RTOL = 1e-9


class DegenerateOperatingPointError(RuntimeError):
    """The signal slope vanishes, so error propagation is ill-conditioned."""


class UndefinedBoundError(ValueError):
    """The Cramer-Rao bound is undefined at zero Fisher information."""


@dataclass
class QfiResult:
    """Fisher information F^2 (so that (delta phi)^2 >= 1/qfi) plus
    diagnostics, and the SLD blocks when they were asked for."""

    qfi: float
    rank_cutoff: float
    spectrum: np.ndarray
    sld: list[np.ndarray] | None = None


@dataclass
class ReadoutResult:
    """Uncertainty scan of one observable over a phase grid."""

    phi_grid: np.ndarray
    delta_phi: np.ndarray
    min_delta_phi: float
    argmin_phi: float


def spectral_norm(matrix: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(matrix)).max())


def qfi_pure_analytic(N: int, k: int, chi: float) -> float:
    """Closed-form pure-state Fisher information of the two-branch input:
    (N - 2k + chi N^2/2 - chi N k)^2."""
    if not 0 <= k <= N:
        raise ValueError(f"k={k} outside [0, {N}]")
    base = (N - 2 * k) + 0.5 * chi * N * N - chi * N * k
    return base * base


def qcrb(qfi: float) -> float:
    """Cramer-Rao bound on delta_phi: 1/sqrt(qfi)."""
    if qfi <= 0.0:
        raise UndefinedBoundError("bound undefined for non-positive Fisher information")
    return 1.0 / math.sqrt(qfi)


def _clamped_probabilities(values: np.ndarray, context: str) -> np.ndarray:
    lo = values.min() if values.size else 0.0
    if lo < PSD_FLOOR:
        raise ValueError(f"{context}: eigenvalue {lo:.3e} below PSD floor")
    if lo < 0.0:
        logger.debug("%s: clamping %d negative eigenvalues (min %.3e) to 0",
                     context, int((values < 0).sum()), lo)
        values = np.clip(values, 0.0, None)
    return values


def _qfi_from_block_pairs(pairs, with_sld: bool = False) -> QfiResult:
    """QFI from matching (rho block, rho' block) pairs sharing one basis.

    With ``with_sld`` the result also holds the SLD block of each pair,
    L_jk = 2 rho'_jk / (p_j + p_k) in the eigenbasis of rho on the same
    eigenvalue pairs the QFI sum keeps, zero elsewhere.
    """
    decomposed = []
    spectrum = []
    for rho_block, rhop_block in pairs:
        if not rho_block.any():
            # empty block: all probabilities 0, every pair is below cutoff
            spectrum.append(np.zeros(rho_block.shape[0]))
            decomposed.append((None, None, rhop_block))
            continue
        vals, vecs = np.linalg.eigh(rho_block)
        decomposed.append((vals, vecs, rhop_block))
        spectrum.append(vals)
    spectrum = np.sort(np.concatenate(spectrum)) if spectrum else np.zeros(0)
    probs = _clamped_probabilities(spectrum.copy(), "qfi")
    cutoff = RANK_CUTOFF_FACTOR * (probs.max() if probs.size else 0.0)
    total = 0.0
    slds = [] if with_sld else None
    for vals, vecs, rhop_block in decomposed:
        if vals is None:
            if with_sld:
                slds.append(np.zeros_like(rhop_block))
            continue
        p = _clamped_probabilities(vals, "qfi block")
        a = vecs.conj().T @ rhop_block @ vecs
        psum = p[:, None] + p[None, :]
        mask = psum > cutoff
        if mask.any():
            total += float((2.0 * np.abs(a[mask]) ** 2 / psum[mask]).sum())
        if with_sld:
            core = np.zeros_like(a)
            core[mask] = 2.0 * a[mask] / psum[mask]
            block = vecs @ core @ vecs.conj().T
            slds.append(0.5 * (block + block.conj().T))
    return QfiResult(qfi=total, rank_cutoff=cutoff, spectrum=spectrum, sld=slds)


def qfi(rho: DensityOperator, rho_prime: HermitianOperator) -> QfiResult:
    """Fisher information of a state and its phase derivative.

    Uses the total-photon-number block structure when present (every state
    built in this package has it); a full-matrix eigendecomposition is the
    fallback for inputs without it.
    """
    if rho.basis != rho_prime.basis:
        raise BasisMismatchError("rho and rho_prime live on different bases")
    try:
        rho_blocks = block_split(rho)
        rhop_blocks = block_split(rho_prime)
        pairs = [(rb, pb) for (_, rb), (_, pb) in zip(rho_blocks, rhop_blocks)]
    except BlockStructureError:
        logger.debug("qfi falling back to a full-matrix eigendecomposition")
        pairs = [(rho.matrix, rho_prime.matrix)]
    return _qfi_from_block_pairs(pairs)


def sld(rho: DensityOperator, rho_prime: HermitianOperator,
        rank_tol: float | None = None) -> HermitianOperator:
    """Symmetric logarithmic derivative L solving rho' = (L rho + rho L)/2.

    Built in the eigenbasis of rho as L_jk = 2 rho'_jk / (p_j + p_k) on
    eigenvalue pairs above rank_tol (zero elsewhere), then rotated back to
    the computational basis.
    """
    if rho.basis != rho_prime.basis:
        raise BasisMismatchError("rho and rho_prime live on different bases")
    vals, vecs = np.linalg.eigh(rho.matrix)
    probs = _clamped_probabilities(vals, "sld")
    if rank_tol is None:
        rank_tol = RANK_CUTOFF_FACTOR * probs.max()
    a = vecs.conj().T @ rho_prime.matrix @ vecs
    psum = probs[:, None] + probs[None, :]
    core = np.where(psum > rank_tol, 2.0 * a / np.where(psum > rank_tol, psum, 1.0), 0.0)
    matrix = vecs @ core @ vecs.conj().T
    return HermitianOperator(rho.basis, 0.5 * (matrix + matrix.conj().T))


def measurement_mm(m: int, basis: TwoModeBasis) -> HermitianOperator:
    """m-photon coincidence readout: i[(a1^dag)^m a2^m - a1^m (a2^dag)^m].

    At m = 1 this is photon counting up to sign: the photon-count
    difference i(a2^dag a1 - a1^dag a2) is -measurement_mm(1), and
    moments and uncertainties do not depend on the global sign.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    # allocated before the lowering powers: after they are freed it would
    # reuse their heap, which calloc must clear, making every page of O
    # resident (readout-scan 40:45:5 peaks at 63 MB instead of 50 MB)
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    # a^m has at most one entry per row and per column, so x = (a1^m)^dag a2^m
    # has one entry per pair of a1^m and a2^m entries sharing a row: the
    # m-photon shift |n1, n2> -> |n1 + m, n2 - m>.  x and x^dag never overlap
    rows1, cols1, vals1 = _entries(lowering_power(1, m, basis))
    rows2, cols2, vals2 = _entries(lowering_power(2, m, basis))
    _, k1, k2 = np.intersect1d(rows1, rows2, assume_unique=True,
                               return_indices=True)
    x = vals1[k1].conj() * vals2[k2]
    out[cols1[k1], cols2[k2]] = 1j * x
    out[cols2[k2], cols1[k1]] = 1j * -x.conj()
    return HermitianOperator(basis, out)


def _entries(matrix: np.ndarray):
    """Rows, columns and values of a matrix's nonzero entries."""
    rows, cols = np.nonzero(matrix)
    return rows, cols, matrix[rows, cols]


def generator_blocks(N: int, chi: float) -> list[np.ndarray]:
    """Per-T diagonals g = (1 + chi N/2)(n2 - n1)/2 of the phase generator
    on the lossy image of an N-photon input, for T = 0..N.

    On the N-photon shell the Kerr generator (g(n2) - g(n1))/2 with
    g(n) = n + (chi/2) n^2 equals (1 + chi N/2)(n2 - n1)/2, a product of
    single-mode phase rotations, which loss commutes with; so the input's
    N sets the rate on every block, not the block's own T.
    """
    theta = 1.0 + 0.5 * chi * N
    return [0.5 * theta * (t - 2.0 * np.arange(t + 1)) for t in range(N + 1)]


def derivative_factors(g: list[np.ndarray]) -> list[np.ndarray]:
    """Per-block factors i(g_r - g_c), so that rho' = i[G, rho] is the
    elementwise product factor * rho and rho(phi) = exp(phi factor) * rho_0."""
    return [1j * (d[:, None] - d[None, :]) for d in g]


class PhasedFamily:
    """phi-parameterized lossy output family of one fixed-N input.

    Loss commutes with the Kerr phase, so rho(phi) = V rho_0 V^dag with
    V = exp(i phi G): the family holds only the phi = 0 lossy state rho_0
    as total-photon-number blocks and the generator diagonal g.  rho(phi)
    is a blockwise phase rotation, rho'(phi) = i[G, rho(phi)], and the
    Fisher information does not depend on phi.
    """

    def __init__(self, input_spec: SuperpositionSpec, chi: float = 0.0,
                 eta: float = 1.0, basis: TwoModeBasis | None = None):
        if not isinstance(input_spec, SuperpositionSpec):
            raise TypeError(f"unsupported input spec {type(input_spec).__name__}")
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"eta={eta} outside [0, 1]")
        if chi < 0:
            raise ValueError("chi must be non-negative")
        self.input_spec = input_spec
        self.chi = float(chi)
        self.eta = float(eta)
        N = input_spec.N
        self.basis = basis if basis is not None else TwoModeBasis(N)
        if self.basis.n_total_max < N:
            raise ValueError("basis truncation below the input photon number")
        branches = branch_amplitudes(N, input_spec.alpha)
        self.rho0 = [0.5 * (b + b.conj().T)
                     for _, b in cross_lossy_blocks(branches, branches, N, self.eta)]
        trace = sum(b.trace().real for b in self.rho0)
        if abs(trace - 1.0) > 1e-10:
            raise NumericalError(f"family state trace {trace!r} deviates from 1")
        self.g = generator_blocks(N, self.chi)

    def rho_blocks(self, phi: float) -> list[np.ndarray]:
        return [b * np.exp(phi * f)
                for b, f in zip(self.rho0, derivative_factors(self.g))]

    def rho(self, phi: float) -> DensityOperator:
        return DensityOperator(self.basis, assemble_blocks(
            self.basis, enumerate(self.rho_blocks(phi))))

    def rho_prime(self, phi: float) -> HermitianOperator:
        blocks = zip(self.rho_blocks(phi), derivative_factors(self.g))
        return HermitianOperator(self.basis, assemble_blocks(
            self.basis, ((t, f * b) for t, (b, f) in enumerate(blocks))))

    def qfi(self) -> QfiResult:
        return _qfi_from_block_pairs(
            [(b, f * b) for b, f in zip(self.rho0, derivative_factors(self.g))])

    def moment_profile(self, obs: HermitianOperator) -> "MomentProfile":
        """Exact scan machinery: <O>(phi) = Re sum_j w_j e^{i phi theta j}
        with theta = 1 + chi N/2 and w_j = sum_T sum_{c-r=j} rho_0[r, c] O[c, r],
        and likewise for <O^2>."""
        if obs.basis != self.basis:
            raise BasisMismatchError("observable basis does not match the family")
        N = self.input_spec.N
        o_blocks = [b for _, b in block_split(obs)]
        # a power of two keeps O/scale and its square finite (|O| reaches N!,
        # whose square overflows from N = 99) and scales exactly
        obs_norm = max(spectral_norm(b) for b in o_blocks)
        scale = math.ldexp(1.0, math.frexp(obs_norm)[1])
        o_blocks = [b / scale for b in o_blocks]
        w_mean = np.zeros(2 * N + 1, dtype=complex)
        w_sq = np.zeros(2 * N + 1, dtype=complex)
        for t, (rho_block, o_block) in enumerate(zip(self.rho0, o_blocks)):
            offset = (np.arange(t + 1)[None, :] - np.arange(t + 1)[:, None] + N).ravel()
            for w, o in ((w_mean, o_block), (w_sq, o_block @ o_block)):
                terms = (rho_block * o.T).ravel()
                w += (np.bincount(offset, terms.real, 2 * N + 1)
                      + 1j * np.bincount(offset, terms.imag, 2 * N + 1))
        freqs = (1.0 + 0.5 * self.chi * N) * np.arange(-N, N + 1)
        return MomentProfile(freqs, w_mean, w_sq, obs_norm / scale, scale)


class MomentProfile:
    """<O>(phi) = Re sum_j w_j e^{i phi d_j} and friends, exact per family.

    The weights and ``obs_norm`` belong to O/scale; ``mean``,
    ``second_moment`` and ``variance`` multiply the scale back, while
    delta_phi does not depend on it.
    """

    def __init__(self, freqs: np.ndarray, w_mean: np.ndarray,
                 w_sq: np.ndarray, obs_norm: float, scale: float):
        self.freqs = freqs
        self.w_mean = w_mean.astype(complex)
        self.w_sq = w_sq.astype(complex)
        self.obs_norm = obs_norm
        self.scale = scale
        self.slope_floor = DEGENERACY_FACTOR * obs_norm

    def _phases(self, phi):
        return np.exp(1j * np.multiply.outer(np.asarray(phi, dtype=float),
                                             self.freqs))

    def _unscaled(self, values, power: int):
        """values * scale**power, exact; OverflowError past the float range."""
        with np.errstate(over="ignore"):
            out = np.ldexp(values, power * (math.frexp(self.scale)[1] - 1))
        if not np.isfinite(out).all():
            raise OverflowError(f"moment of order {power} of the observable "
                                f"exceeds the float range (scale {self.scale:.3e})")
        return out

    def mean(self, phi):
        return self._unscaled((self._phases(phi) @ self.w_mean).real, 1)

    def second_moment(self, phi):
        return self._unscaled((self._phases(phi) @ self.w_sq).real, 2)

    def _checked_variance(self, mean, second):
        """Var of O/scale from its mean and second moment; the floor is
        PSD_FLOOR * max(1, |O|^2) in the units of O/scale."""
        var = second - mean ** 2
        lo = np.min(var)
        if lo < PSD_FLOOR * max(1.0 / self.scale, self.obs_norm) ** 2:
            raise NumericalError(f"variance {lo:.3e} below round-off floor")
        if lo < 0.0:
            logger.debug("clamping %d negative variances (min %.3e) to 0",
                         int(np.sum(var < 0)), lo)
        return np.clip(var, 0.0, None)

    def variance(self, phi):
        phases = self._phases(phi)
        return self._unscaled(self._checked_variance(
            (phases @ self.w_mean).real, (phases @ self.w_sq).real), 2)

    def delta_phi(self, phi):
        """sqrt(Var)/|slope| with NaN at degenerate operating points.

        A point counts as degenerate when the signal slope falls below its
        threshold or the variance falls below its round-off floor; for the
        sinusoidal readouts here both happen in the same neighborhoods.  A
        variance negative beyond round-off raises NumericalError.
        """
        phases = self._phases(phi)
        mean = (phases @ self.w_mean).real
        second = (phases @ self.w_sq).real
        slope = np.abs((phases @ (1j * self.freqs * self.w_mean)).real)
        var = self._checked_variance(mean, second)
        good = (slope >= self.slope_floor) & (
            var >= VARIANCE_FLOOR_FACTOR * (np.abs(second) + mean ** 2))
        out = np.full(np.shape(phi), np.nan, dtype=float)
        np.divide(np.sqrt(var), slope, out=out, where=good)
        return out


def richardson_rho_prime(family: PhasedFamily, phi: float,
                         step: float) -> np.ndarray:
    """Richardson-extrapolated central difference of rho(phi), the
    reference the analytic derivative is checked against."""
    if step < 100 * np.finfo(float).eps * max(1.0, abs(phi)):
        raise NumericalError(f"finite-difference step {step:.3e} too small; "
                             "cancellation would dominate")
    def at(x):
        return family.rho(x).matrix
    coarse = (at(phi + step) - at(phi - step)) / (2 * step)
    fine = (at(phi + step / 2) - at(phi - step / 2)) / step
    return (4.0 * fine - coarse) / 3.0


def max_qfi_over_k(N: int, eta: float, chi: float) -> tuple[int, float]:
    """Scan the branch index k of the two-branch family and return the
    maximizing (k, qfi); ties break toward smaller k, and k and N - k name
    the same state, so the scan stops at N/2."""
    if N < 1:
        raise ValueError("N must be at least 1")
    best_k, best = 0, -np.inf
    for k in range(N // 2 + 1):
        value = PhasedFamily(NoonLikeSpec(N, k), chi=chi, eta=eta).qfi().qfi
        if value > best:
            best_k, best = k, value
    return best_k, best


def delta_phi(family: PhasedFamily, obs: HermitianOperator, phi: float) -> float:
    """Error-propagation uncertainty sqrt(Var O)/|d<O>/dphi| at one phi.

    Raises at degenerate operating points: vanishing signal slope, or a
    variance so small that its computed value is round-off noise.
    """
    if obs.basis != family.basis:
        raise BasisMismatchError("observable basis does not match the family")
    rho = family.rho(phi)
    mean = expectation(rho, obs)
    second = expectation(rho, HermitianOperator(obs.basis,
                                                obs.matrix @ obs.matrix))
    variance = max(second - mean * mean, 0.0)
    rhop = family.rho_prime(phi)
    slope = float(np.sum(rhop.matrix * obs.matrix.T).real)
    if abs(slope) < DEGENERACY_FACTOR * spectral_norm(obs.matrix):
        raise DegenerateOperatingPointError(
            f"|d<O>/dphi| = {abs(slope):.3e} at phi={phi}; no operating point")
    if variance < VARIANCE_FLOOR_FACTOR * (abs(second) + mean * mean):
        raise DegenerateOperatingPointError(
            f"variance {variance:.3e} at phi={phi} is below its round-off floor")
    return math.sqrt(variance) / abs(slope)


def _golden_section(f, lo: float, hi: float, tol: float):
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    best_x, best_f = lo, f(lo)
    for x in (hi,):
        fx = f(x)
        if fx < best_f:
            best_x, best_f = x, fx
    a, b = lo, hi
    c, d = b - inv * (b - a), a + inv * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        for x, fx in ((c, fc), (d, fd)):
            if fx < best_f:
                best_x, best_f = x, fx
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = f(d)
    return best_x, best_f


def min_delta_phi(profile: MomentProfile,
                  grid: np.ndarray | None = None) -> ReadoutResult:
    """Scan a readout's delta_phi over a grid (default: 2001 points on
    [0, pi]), skip degenerate points, and refine the best bracket by
    golden section.

    The operating point is the smallest grid phi whose delta_phi ties with
    the grid minimum to a relative TIE_RTOL, unless the refinement improves
    on the minimum by more than that: on a flat profile round-off would
    otherwise pick the point.
    """
    if grid is None:
        grid = np.linspace(0.0, np.pi, 2001)
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be non-empty")
    deltas = profile.delta_phi(grid)
    if not np.isfinite(deltas).any():
        raise DegenerateOperatingPointError(
            "the signal slope vanishes on every grid point")
    i_best = int(np.nanargmin(deltas))
    f_grid = deltas[i_best]
    lo = grid[max(i_best - 1, 0)]
    hi = grid[min(i_best + 1, grid.size - 1)]
    guarded = lambda x: np.nan_to_num(
        float(profile.delta_phi(np.atleast_1d(x))[0]), nan=np.inf)
    if hi > lo:
        x_star, f_star = _golden_section(guarded, lo, hi, GOLDEN_TOL)
    else:
        x_star, f_star = float(grid[i_best]), float(f_grid)
    if f_star > f_grid:
        x_star, f_star = float(grid[i_best]), float(f_grid)
    if f_star >= f_grid * (1.0 - TIE_RTOL):
        x_star = float(grid[np.argmax(deltas <= f_grid * (1.0 + TIE_RTOL))])
    return ReadoutResult(phi_grid=grid, delta_phi=deltas,
                         min_delta_phi=float(f_star), argmin_phi=float(x_star))
