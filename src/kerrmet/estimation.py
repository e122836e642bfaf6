"""Metrological quantities for phase estimation.

Quantum Fisher information is computed from the symmetric logarithmic
derivative in the eigenbasis of each total-photon-number block T of rho,

    F^2 = sum_T sum_{j,k: p_j + p_k > eps_T} 2 |rho'_{jk}|^2 / (p_j + p_k),

with eps_T relative to the block's largest eigenvalue, which on a pure
unitary family reduces to 4 Var(H).  Each block is itself block-diagonal
over the residue classes of its index mod the branch stride of the input,
so the eigenbasis is found class by class, one batched eigh per class
size.  The quantum Cramer-Rao bound is delta_phi >= 1/F.  Readout
performance is judged by error propagation,
delta_phi = sqrt(Var O) / |d<O>/dphi|, which for the coincidence readouts
is smallest at the operating point phi = 0 (see ``min_delta_phi``).
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import (
    BasisMismatchError,
    FlatBlocks,
    HermitianOperator,
    NumericalError,
    PSD_FLOOR,
    TwoModeBasis,
    block_diagonal,
    block_offsets,
    lowering_power,
)
from .interferometer import NoonLikeSpec, SuperpositionSpec, branch_amplitudes
from .loss import cross_lossy_blocks

logger = logging.getLogger(__name__)

# eigenvalue pairs below this fraction of their block's largest eigenvalue
# count as kernel
RANK_CUTOFF_FACTOR = 1e-12
# |d<O>/dphi| at most this fraction of the largest slope the profile can
# reach, sum_j |d_j w_j|, marks a degenerate operating point
DEGENERACY_FACTOR = 1e-12
# variance below this fraction of <O^2> + <O>^2 is round-off, not signal:
# <O^2> - <O>^2 cancels catastrophically right where the slope vanishes,
# so such points belong to the degenerate neighborhood as well.  Var O
# carries a relative round-off of about eps (|<O^2>| + <O>^2) / Var, so
# above this floor delta_phi moves by round-off at most ~1e-10
VARIANCE_FLOOR_FACTOR = 1e-6


class DegenerateOperatingPointError(RuntimeError):
    """The signal slope vanishes, so error propagation is ill-conditioned."""


class UndefinedBoundError(ValueError):
    """The Cramer-Rao bound is undefined at zero Fisher information."""


@dataclass
class QfiResult:
    """Fisher information F^2 (so that (delta phi)^2 >= 1/qfi) plus
    diagnostics, and the SLD blocks when they were asked for.

    ``rank_cutoff`` is relative and per block: an eigenvalue pair of a
    residue class enters the sum and the SLD only if p_j + p_k exceeds
    rank_cutoff times the largest eigenvalue of the class's block T.
    ``spectrum`` holds the eigenvalues of every class, unclamped and
    sorted: as a multiset, the spectra of the blocks T = 0..N.  ``sld``
    holds one (T+1) x (T+1) block per T, exactly zero between classes: the
    real antisymmetric J of the SLD L = iJ, with no complex copy of L.  For
    a batch of B points ``qfi`` is a list of B values, and ``spectrum`` and
    each SLD block gain a leading axis of length B.
    """

    qfi: float | list[float]
    rank_cutoff: float
    spectrum: np.ndarray
    sld: list[np.ndarray] | None = None


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


class BlockPairs(Sequence):
    """The (rho block, rho' block) pairs of a state whose blocks T = 0..N
    lie in one flat float64 buffer (laid out by ``block_offsets``), with
    rho' = i[G, rho] for a diagonal generator G.

    The inputs and the Kraus elements are real, so rho is real symmetric
    and rho' = iK with K real antisymmetric.  ``g_flat`` holds G's diagonal
    per block, block T from T(T+1)/2 on.  ``stride`` is a common divisor of
    the index offsets i - j of all nonzero entries (i, j) of every block, 0
    when every block is diagonal.  ``rho_flat`` may carry a leading axis of
    B points, (B, size), that share G and the stride; the items then run
    point by point.  Item i, built on demand, is the symmetric part of
    block T = i mod (N + 1) of its point, as the spectral step uses it,
    and rho'.
    """

    def __init__(self, rho_flat: np.ndarray, g_flat: np.ndarray, n_max: int,
                 stride: int):
        self.rho_flat = rho_flat
        self.g_flat = g_flat
        self.n_max = n_max
        self.stride = stride

    def __len__(self) -> int:
        return (self.n_max + 1) * math.prod(self.rho_flat.shape[:-1])

    def __getitem__(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        point, t = divmod(range(len(self))[i], self.n_max + 1)
        rho = self.rho_flat.reshape(-1, self.rho_flat.shape[-1])[point]
        t, block = FlatBlocks(rho, self.n_max)[t]
        block = 0.5 * (block + block.T)
        g = self.g_flat[t * (t + 1) // 2:(t + 1) * (t + 2) // 2]
        return block, 1j * (g[:, None] - g[None, :]) * block


@lru_cache(maxsize=4)
def _residue_classes(n_max: int, stride: int):
    """The spectral step's index tables for the state's blocks: block
    T = 0..n_max split into the classes {r, r + stride, ...} of its index
    mod ``stride`` (singletons at stride 0), stacked by class size: one
    stack per size s = 1, 2, ..., none missing, each in (T, r) order.

    A stack of c classes is the triple (blocks, gather, diag): the block T
    of each class (c,), the positions of the class entries in the flat
    block buffer (c, s, s), and those of the class indices in the generator
    diagonal (c, s).  The classes are listed and ordered by size in one
    pass; each stack then only broadcasts its slice of that list.
    """
    step = stride if 0 < stride <= n_max else n_max + 1
    t, r = np.nonzero(np.arange(step) <= np.arange(n_max + 1)[:, None])
    sizes = (t - r) // step + 1
    order = np.argsort(sizes, kind="stable")
    t, r = t[order], r[order]
    corner = block_offsets(n_max)[t] + r * (t + 2)  # entry (r, r) of block T
    first = t * (t + 1) // 2 + r  # index r of block T in the generator diagonal
    ends = np.cumsum(np.bincount(sizes))  # classes of size at most s: ends[s]
    stacks = []
    for s in range(1, ends.size):
        cls = slice(ends[s - 1], ends[s])
        span = step * np.arange(s)
        rows = corner[cls, None] + span * (t[cls, None] + 1)
        stacks.append((t[cls], rows[:, :, None] + span, first[cls, None] + span))
    return tuple(stacks)


def _qfi_from_block_pairs(pairs: BlockPairs, with_sld: bool = False) -> QfiResult:
    """Real-arithmetic QFI of the (rho block, rho' block) pairs, by class.

    Block T of rho is block-diagonal over the residue classes of its index
    mod ``pairs.stride``, and so is rho' = iK with K = (g_r - g_c) rho:
    each class is eigendecomposed on its own, and the classes of one size
    are stacked across all blocks, and across the points of a batch, into a
    single batched real eigh.  In the class eigenbasis V, rho' = i a with
    a = V^T K V real, and the sum over classes of 2 a_jk^2 / (p_j + p_k)
    equals the blockwise Fisher information.  Batched eigh and matmul solve
    one matrix at a time and each point's terms are summed on their own,
    so a point's result does not depend on the other points of its batch.

    An eigenvalue pair counts as kernel when p_j + p_k is at most
    RANK_CUTOFF_FACTOR times the largest eigenvalue of its block T (over
    all of the block's classes): eigh's error in a block scales with the
    block's own norm, and under heavy loss the blocks that carry the branch
    coherence lie wholly below any cutoff taken from the largest eigenvalue
    over all blocks.

    With ``with_sld`` the result also holds each block T of the SLD L = iJ
    as the real antisymmetric J = V (2 a_jk / (p_j + p_k)) V^T on the
    eigenvalue pairs the QFI sum keeps, zero elsewhere (also between classes).
    """
    lead = pairs.rho_flat.shape[:-1]  # () for one point, (B,) for a batch
    size = pairs.rho_flat.shape[-1]
    n_points = math.prod(lead)
    rho_flat = pairs.rho_flat.reshape(-1)

    stacks = _residue_classes(pairs.n_max, pairs.stride)
    if n_points > 1:
        # the points enter each stack as extra classes, point-major, with
        # indices into the flat buffer of all points' blocks (and of their
        # blocks' largest eigenvalues); G is the same at every point
        def per_point(index, step):
            shift = step * np.arange(n_points).reshape((-1,) + (1,) * index.ndim)
            return (index + shift).reshape((-1,) + index.shape[1:])

        stacks = [(per_point(blocks, pairs.n_max + 1), per_point(gather, size),
                   per_point(diag, 0)) for blocks, gather, diag in stacks]

    def classes(gather):  # symmetric parts of the class matrices of a stack
        x = rho_flat[gather]
        return 0.5 * (x + x.swapaxes(1, 2))

    # stack 0 holds the 1 x 1 classes: each is its own eigenbasis, with
    # rho' entry (g_r - g_r) rho_rr = 0, so no Fisher information
    solved = [np.linalg.eigh(classes(gather)) for _, gather, _ in stacks[1:]]
    spectrum = [rho_flat[stacks[0][1]][:, 0]] + [vals for vals, _ in solved]
    probs = [_clamped_probabilities(vals, "qfi block") for vals in spectrum]
    # largest eigenvalue of each block of each point, over all of its classes
    top = np.zeros(n_points * (pairs.n_max + 1))
    np.maximum.at(top, np.concatenate([blocks for blocks, _, _ in stacks]),
                  np.concatenate([p[:, -1] for p in probs]))
    totals = [0.0] * n_points
    sld_flat = np.zeros_like(rho_flat) if with_sld else None
    for (blocks, gather, diag), (_, vecs), p in zip(stacks[1:], solved, probs[1:]):
        g = pairs.g_flat[diag]
        vecs_t = vecs.swapaxes(1, 2)
        a = vecs_t @ ((g[:, :, None] - g[:, None, :]) * classes(gather)) @ vecs
        psum = p[:, :, None] + p[:, None, :]
        mask = psum > (RANK_CUTOFF_FACTOR * top[blocks])[:, None, None]
        terms = 2.0 * a[mask] ** 2 / psum[mask]
        if n_points == 1:
            totals[0] += float(terms.sum())
        else:  # the kept terms lie point after point: one in-order sum per point
            ends = np.cumsum(mask.reshape(n_points, -1).sum(axis=1))
            for point, (start, end) in enumerate(zip([0, *ends[:-1]], ends)):
                totals[point] += float(terms[start:end].sum())
        if with_sld:
            core = np.zeros_like(a)
            core[mask] = 2.0 * a[mask] / psum[mask]
            block = vecs @ core @ vecs_t
            sld_flat[gather] = 0.5 * (block - block.swapaxes(1, 2))
    spectrum = np.sort(np.concatenate([vals.reshape(*lead, -1) for vals in spectrum], axis=-1))
    slds = None
    if with_sld:
        sld_flat = sld_flat.reshape(*lead, size)
        offsets = block_offsets(pairs.n_max)
        slds = [sld_flat[..., offsets[t]:offsets[t + 1]].reshape(*lead, t + 1, t + 1)
                for t in range(pairs.n_max + 1)]
    return QfiResult(qfi=totals if lead else totals[0], rank_cutoff=RANK_CUTOFF_FACTOR,
                     spectrum=spectrum, sld=slds)


def measurement_mm(m: int, basis: TwoModeBasis) -> HermitianOperator:
    """m-photon coincidence readout: i[(a1^dag)^m a2^m - a1^m (a2^dag)^m].

    At m = 1 this is photon counting up to sign: the photon-count
    difference i(a2^dag a1 - a1^dag a2) is -measurement_mm(1), and
    moments and uncertainties do not depend on the global sign.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    # x = (a1^m)^dag a2^m takes |n1, n2> to |n1 + m, n2 - m> with the a2^m
    # amplitude of the source times the a1^m amplitude of the target.  Each
    # x is at most N!/(N-m)!, so it is finite whenever the amplitudes are
    a1 = lowering_power(1, m, basis)
    a2 = lowering_power(2, m, basis)
    src = np.flatnonzero(basis.n2 >= m)
    x = np.zeros(basis.dim)
    x[src] = a1[src + m] * a2[src]
    return HermitianOperator(basis, m, x)


def generator_flat(N: int, chi: float) -> np.ndarray:
    """Diagonal g = (1 + chi N/2)(n2 - n1)/2 of the phase generator on the
    lossy image of an N-photon input, over the blocks T = 0..N in the
    order of TwoModeBasis(N) (block T from T(T+1)/2 on).

    On the N-photon shell the Kerr generator (g(n2) - g(n1))/2 with
    g(n) = n + (chi/2) n^2 equals (1 + chi N/2)(n2 - n1)/2, a product of
    single-mode phase rotations, which loss commutes with; so the input's
    N sets the rate on every block, not the block's own T.
    """
    basis = TwoModeBasis(N)
    return 0.5 * (1.0 + 0.5 * chi * N) * (basis.total - 2.0 * basis.n1)


class PhasedFamily:
    """phi-parameterized lossy output family of one fixed-N input.

    Loss commutes with the Kerr phase, so rho(phi) = V rho_0 V^dag with
    V = exp(i phi G): the family holds only the phi = 0 lossy state rho_0,
    its blocks T = 0..N in one flat float64 buffer, and the generator
    diagonal.  rho(phi) is a blockwise phase rotation, rho'(phi) =
    i[G, rho(phi)], and the Fisher information does not depend on phi.

    ``stride`` is the gcd of the differences of the branch occupations n1
    (0 for a single ket): every block entry (i, j) of rho_0 has i - j equal
    to one such difference, so each block splits exactly into the residue
    classes of its index mod ``stride``, which the spectral step
    eigendecomposes separately.
    """

    def __init__(self, input_spec: SuperpositionSpec, chi: float = 0.0,
                 eta: float = 1.0):
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
        self.basis = TwoModeBasis(N)
        branches = branch_amplitudes(N, input_spec.alpha)
        self.stride = math.gcd(*(n1 - branches[0][0] for n1, _, _ in branches))
        self.rho0_flat = cross_lossy_blocks(branches, branches, N, self.eta).flat
        trace = self.rho0_flat[block_diagonal(N)].sum()
        if abs(trace - 1.0) > 1e-10:
            raise NumericalError(f"family state trace {trace!r} deviates from 1")
        self.g_flat = generator_flat(N, self.chi)

    def _pairs(self) -> BlockPairs:
        return BlockPairs(self.rho0_flat, self.g_flat, self.input_spec.N, self.stride)

    def qfi(self) -> QfiResult:
        return _qfi_from_block_pairs(self._pairs())

    def moment_profile(self, obs: HermitianOperator) -> "MomentProfile":
        """Exact scan machinery: <O>(phi) = Re sum_j w_j e^{i phi theta j}
        with theta = 1 + chi N/2 and w_j = sum_T sum_{c-r=j} rho_0[r, c] O[c, r],
        and likewise for <O^2>.

        O = iA with A[r + m, r] = x_r = -A[r, r + m] on each block's index r,
        so only j = +-m (of <O>) and j = 0, +-2m (of <O^2>) carry terms, read
        off the band state by state.  Summed per (T, j) in r order, then the
        rows in T order, they give a block-by-block bincount's sums, less
        zeros.  The weights belong to O/scale, with scale = 2^e taken from
        the band's largest amplitude f 2^e, 0.5 <= f < 1.
        """
        if obs.basis != self.basis:
            raise BasisMismatchError("observable basis does not match the family")
        N, m = self.input_spec.N, obs.m
        # a power of two scales exactly and keeps O/scale and its square
        # finite (|O| reaches N!, whose square overflows from N = 99): each
        # |x/scale| < 1, and a row of O holds at most two of them
        scale = math.ldexp(1.0, math.frexp(np.abs(obs.matrix).max())[1])
        x = obs.matrix / scale  # the band of O/scale, exact
        total, diag = self.basis.total, block_diagonal(N)
        # the states the band shifts up (n2 >= m: the only nonzero x), and
        # those whose target it shifts up again (n2 >= 2m)
        up = np.flatnonzero(self.basis.n2 >= m)
        up2 = np.flatnonzero(self.basis.n2 >= 2 * m)

        def rho(states, j):  # rho_0's symmetrized entry (r, r + j) at each state r
            at = diag[states]
            return 0.5 * (self.rho0_flat[at + j] + self.rho0_flat[at + j * (total[states] + 1)])

        # <O> reads x_r at (r, r +- m); O^2 = -A^2 holds x_r^2 + x_{r-m}^2 at
        # (r, r), two rounded squares added, and -x_r x_{r+m} at (r, r +- 2m)
        mean = rho(up, m) * x[up]
        far = rho(up2, 2 * m) * -(x[up2] * x[up2 + m])
        near = self.rho0_flat[diag] * (x * x + np.bincount(up + m, x[up] * x[up], x.size))
        # the terms of j = -2m, -m, 0, m, 2m, each in state order
        slots = [(up2, far), (up, -mean), (np.arange(x.size), near), (up, mean), (up2, far)]
        bins = np.concatenate([total[states] * 5 + slot for slot, (states, _) in enumerate(slots)])
        sums = np.bincount(bins, np.concatenate([terms for _, terms in slots]), 5 * (N + 1))
        sums = sums.reshape(N + 1, 5).sum(axis=0)  # the rows in T order
        odd = np.arange(5) % 2 == 1
        return MomentProfile((1.0 + 0.5 * self.chi * N) * (m * np.arange(-2, 3)),
                             0.0 + 1j * np.where(odd, sums, 0.0), np.where(odd, 0.0, sums),
                             scale)


class MomentProfile:
    """<O>(phi) = Re sum_j w_j e^{i phi d_j} and friends, exact per family.

    The weights belong to O/scale, a power of two; ``mean``,
    ``second_moment`` and ``variance`` multiply the scale back, while
    delta_phi does not depend on it.  ``variance_floor`` (in the units of
    O/scale) is PSD_FLOOR * max(1, scale/2)^2 in those of O: a variance
    below it is negative beyond round-off.  For a profile of
    PhasedFamily.moment_profile, scale/2 <= max |x| <= ||O||, so it is
    never looser than PSD_FLOOR * max(1, ||O||^2).
    """

    def __init__(self, freqs: np.ndarray, w_mean: np.ndarray,
                 w_sq: np.ndarray, scale: float):
        w_mean = np.asarray(w_mean, dtype=complex)
        w_sq = np.asarray(w_sq, dtype=complex)
        # a frequency whose weights are both zero adds exact zeros: drop it
        keep = (w_mean != 0) | (w_sq != 0)
        self.freqs, self.w_mean, self.w_sq = np.asarray(freqs)[keep], w_mean[keep], w_sq[keep]
        self.scale = scale
        self.variance_floor = PSD_FLOOR * max(1.0 / scale, 0.5) ** 2
        # relative to the signal, not to ||O||: under heavy loss the branch
        # coherence, and with it every slope, lies many orders below ||O||
        self.slope_floor = DEGENERACY_FACTOR * float(np.abs(self.freqs * self.w_mean).sum())

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
        """Var of O/scale from its mean and second moment; NumericalError
        below ``variance_floor``, negative values above it clamped to 0."""
        var = second - mean ** 2
        lo = np.min(var)
        if lo < self.variance_floor:
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
        good = (slope > self.slope_floor) & (
            var >= VARIANCE_FLOOR_FACTOR * (np.abs(second) + mean ** 2))
        out = np.full(np.shape(phi), np.nan, dtype=float)
        np.divide(np.sqrt(var), slope, out=out, where=good)
        return out


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


def min_delta_phi(profile: MomentProfile) -> float:
    """The readout's smallest delta_phi over all operating points: its
    value at phi = 0, where it is reached.

    Every input has real coefficients and both arms lose equally, so rho_0
    is real symmetric, and the readout is O = iA with A real antisymmetric.
    With u = theta m phi, <O> = a sin u and <O^2> = c + 2f cos 2u, so

        delta_phi^2 = (P - Q sin^2 u) / (a theta m cos u)^2,

    with P = c + 2f and Q = 4f + a^2.  Its derivative in sin^2 u has the
    sign of P - Q, which is Var O at u = pi/2 and so never negative: the
    minimum lies where sin u = 0, at phi = 0 (and each multiple of
    pi / (theta m)), and the profile is flat when P = Q.  A degenerate
    phi = 0 (a = 0: the readout cannot see the branch coherence, and the
    slope vanishes at every phi) raises DegenerateOperatingPointError.

    The profile must come from PhasedFamily.moment_profile of a
    measurement_mm readout: other weights need not have their minimum at
    phi = 0.
    """
    value = float(profile.delta_phi(np.zeros(1))[0])
    if math.isnan(value):
        raise DegenerateOperatingPointError("the signal slope vanishes at phi = 0")
    return value
