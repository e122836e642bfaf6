"""Metrological quantities for phase estimation.

Quantum Fisher information is computed from the symmetric logarithmic
derivative in the eigenbasis of each total-photon-number block T of rho,

    F^2 = sum_T sum_{j,k: p_j + p_k > eps_T} 2 |rho'_{jk}|^2 / (p_j + p_k),

with eps_T relative to the block's largest eigenvalue, which on a pure
unitary family reduces to 4 Var(H).  Each block is itself block-diagonal
over the residue classes of its index mod the branch stride of the input,
so the eigenbasis is found class by class: 2 x 2 classes in closed form,
larger ones by one batched eigh per size.  The quantum Cramer-Rao bound
is delta_phi >= 1/F.  Readout performance is judged by error propagation,
delta_phi = sqrt(Var O) / |d<O>/dphi|, which for the coincidence readouts
is smallest at the operating point phi = 0 (see ``MomentProfile``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from .fock import (
    BasisMismatchError,
    FlatBlocks,
    HermitianOperator,
    NumericalError,
    PSD_FLOOR,
    Record,
    TwoModeBasis,
    block_diagonal,
    block_offsets,
    check_trace,
    debug,
    lowering_power,
)
from .interferometer import SuperpositionSpec, branch_amplitudes
from .loss import cross_lossy_blocks, dyad_terms

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


class QfiResult(Record):
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
    each SLD block gain a leading axis of length B; a k-scan (``KScanPairs``)
    gives its list of values and no spectrum.
    """

    qfi: float | list[float]
    rank_cutoff: float
    spectrum: np.ndarray | None
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


def check_eta_chi(eta: float, chi: float) -> None:
    """ValueError unless 0 <= eta <= 1 and chi >= 0; a NaN fails either test."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta={eta} outside [0, 1]")
    if not chi >= 0.0:
        raise ValueError("chi must be non-negative")


def _clamped_probabilities(values: np.ndarray, context: str) -> np.ndarray:
    lo = values.min() if values.size else 0.0
    if lo < PSD_FLOOR:
        raise ValueError(f"{context}: eigenvalue {lo:.3e} below PSD floor")
    if lo < 0.0:
        debug(__name__, "%s: clamping %d negative eigenvalues (min %.3e) to 0",
              context, int((values < 0).sum()), lo)
        values = np.clip(values, 0.0, None)
    return values


def _packed_classes(n_max: int, blocks: np.ndarray, rows: np.ndarray, steps: np.ndarray):
    """Classes {r, r + step, ...} of blocks point * (N + 1) + T, given in (point, T, r)
    order, packed row-major by size (stably): the order, sizes and starts (and end), and a
    stack (block ids, slice of the run, generator indices) for size 1 and each size held."""
    sizes = (blocks % (n_max + 1) - rows) // steps + 1
    order = np.argsort(sizes, kind="stable")
    blocks, rows, steps, sizes = blocks[order], rows[order], steps[order], sizes[order]
    starts = np.concatenate([[0], np.cumsum(sizes * sizes)])
    t = blocks % (n_max + 1)
    first = t * (t + 1) // 2 + rows  # index r of block T in the generator diagonal
    ends = np.searchsorted(sizes, np.arange(1, sizes[-1] + 2))
    return order, sizes, starts, [
        (blocks[lo:hi], slice(starts[lo], starts[hi]),
         first[lo:hi, None] + steps[lo:hi, None] * np.arange(s))
        for s, lo, hi in zip(range(1, ends.size), ends, ends[1:]) if s == 1 or hi > lo]


def _class_step(n_max: int, stride: int) -> int:
    """A block's residue-class step: the stride, or n_max + 1 if it is 0 or larger."""
    return stride if 0 < stride <= n_max else n_max + 1


def _class_entries(n_max: int, t: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Where the entries of classes (block T, generator indices) lie in a flat buffer."""
    rows = diag - (t * (t + 1) // 2)[:, None]  # the class's indices in block T
    starts = block_offsets(n_max)[t][:, None] + rows * (t + 1)[:, None]
    return starts[:, :, None] + rows[:, None, :]


@lru_cache(maxsize=4)
def _block_classes(n_max: int, stride: int):
    """Stacks of all residue classes of a state's blocks, gathered in its flat buffer."""
    step = _class_step(n_max, stride)
    t, r = np.nonzero(np.arange(step) <= np.arange(n_max + 1)[:, None])
    *_, stacks = _packed_classes(n_max, t, r, np.full(t.size, step))
    return tuple((t, _class_entries(n_max, t, diag), diag) for t, _, diag in stacks)


class BlockPairs(Sequence):
    """The (rho block, rho' block) pairs of a state whose blocks T = 0..N
    lie in one flat float64 buffer (laid out by ``block_offsets``), with
    rho' = i[G, rho] for a diagonal generator G.

    The inputs and the Kraus elements are real, so rho is real symmetric
    (bit for bit, as ``dyad_terms`` builds it) and rho' = iK with K real
    antisymmetric.  ``g_flat`` holds G's diagonal per block, block T from
    T(T+1)/2 on.  ``stride`` is a common divisor of the index offsets i - j
    of all nonzero entries (i, j) of every block, 0 when every block is
    diagonal.  ``rho_flat`` may carry a leading axis of B points, (B, size),
    that share G and the stride; ``rows`` holds it as (points, size), and
    the spectral step gathers every row with one point's class stacks,
    point-major (block ids point * (N + 1) + T).  Item i, built on demand,
    is block T = i mod (N + 1) of its point, and rho'.
    """

    def __init__(self, rho_flat: np.ndarray, g_flat: np.ndarray, n_max: int,
                 stride: int):
        self.rho_flat, self.g_flat, self.n_max = rho_flat, g_flat, n_max
        self.lead = rho_flat.shape[:-1]  # () for one point, (B,) for a batch
        self.rows = rho_flat.reshape(-1, rho_flat.shape[-1])
        self.n_points = len(self.rows)
        self.stacks = _block_classes(n_max, stride)
        if self.n_points > 1:  # only the block ids and generator indices repeat per point
            shift = (n_max + 1) * np.arange(self.n_points)[:, None]
            self.stacks = [((shift + blocks).ravel(), gather, np.tile(diag, (self.n_points, 1)))
                           for blocks, gather, diag in self.stacks]

    def __len__(self) -> int:
        return (self.n_max + 1) * self.n_points

    def __getitem__(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        point, t = divmod(range(len(self))[i], self.n_max + 1)
        block = self._block(point, t)
        g = self.g_flat[t * (t + 1) // 2:(t + 1) * (t + 2) // 2]
        return block, 1j * (g[:, None] - g[None, :]) * block

    def _block(self, point: int, t: int) -> np.ndarray:
        return FlatBlocks(self.rows[point], self.n_max)[t][1]


class KScanPairs(BlockPairs):
    """The pairs of NoonLikeSpec(N, k), k <= N/2, from (k, branch amplitude a),
    one point each: every ``dyad_terms`` term of the dyads of {k, N - k},
    times a^2, lands at (n1 - q, m1 - q) of block T = N - q - p.  ``rho_flat``
    packs the classes holding a nonzero term, each entry the sum of its terms
    (two at most), bit for bit the family's; its stacks span all points, so
    ``rows`` is that buffer as one row."""

    lead = None  # the points hold different classes: no spectrum is formed
    unpacked = None, None  # the point whose flat buffer an item read last

    def __init__(self, g_flat: np.ndarray, n_max: int, eta: float, points: list):
        self.g_flat, self.n_max, self.n_points = g_flat, n_max, len(points)
        N, n = n_max, n_max + 1
        steps = np.array([_class_step(N, N - 2 * k) for k, _ in points])
        # each point's dyads (n1, m1) of {k, N - k}, point by point
        point, kets, bras = np.array([(i, n1, m1) for i, (k, _) in enumerate(points)
                                      for n1 in dict.fromkeys((k, N - k))
                                      for m1 in dict.fromkeys((k, N - k))]).T
        dyad, q, line, p, values = dyad_terms(kets, bras, N, eta)
        n1, m1, point = kets[dyad], bras[dyad], point[dyad]
        values *= np.array([a * a for _, a in points])[point][line]
        for trace in np.bincount(point[line], values * (n1 == m1)[line], len(points)):
            check_trace(trace, "family state")
        kept = values != 0  # a zero term adds an exact 0 and packs no class
        values, line, p = values[kept], line[kept], p[kept]
        (row, r), col = np.divmod(n1 - q, steps[point]), (m1 - q) // steps[point]
        key = ((point * n + N - q) * n + r)[line] - n * p  # each term's class (k, T, r)
        rank = np.zeros(len(points) * n * n, dtype=np.int32)  # of each class held, by size
        rank[key] = 1
        blocks, rows = np.divmod(np.flatnonzero(rank), n)  # in (k, T, r) order
        perm, sizes, starts, self.stacks = _packed_classes(N, blocks, rows, steps[blocks // n])
        rank[(blocks * n + rows)[perm]] = np.arange(perm.size)
        at = rank[key]
        self.rho_flat = np.bincount(starts[at] + row[line] * sizes[at] + col[line], values,
                                    starts[-1])
        self.rows = self.rho_flat[None]

    def _block(self, point: int, t: int) -> np.ndarray:
        if self.unpacked[0] != point:  # scatter the point's classes to its flat buffer
            n, flat = self.n_max + 1, np.zeros(block_offsets(self.n_max)[-1])
            for blocks, run, diag in self.stacks:  # each lists its classes in point order
                lo, hi = np.searchsorted(blocks, (point * n, point * n + n))
                flat[_class_entries(self.n_max, blocks[lo:hi] % n, diag[lo:hi])] = (
                    self.rho_flat[run].reshape(diag.shape + diag.shape[-1:])[lo:hi])
            self.unpacked = point, FlatBlocks(flat, self.n_max)
        return self.unpacked[1][t][1]


def _qfi_from_block_pairs(pairs: BlockPairs, with_sld: bool = False) -> QfiResult:
    """Real-arithmetic QFI of the (rho block, rho' block) pairs, by class.

    Block T of rho is block-diagonal over the residue classes of its index
    mod the stride, and so is rho' = iK with K = (g_r - g_c) rho:
    each class is eigendecomposed on its own, and the classes of one size
    are stacked across all blocks, and across the points of a batch, into a
    single batched real eigh.  In the class eigenbasis V, rho' = i a with
    a = V^T K V real, and the sum over classes of 2 a_jk^2 / (p_j + p_k)
    equals the blockwise Fisher information.  Batched eigh and matmul solve
    one matrix at a time and each point's terms are summed on their own,
    so a point's result does not depend on the other points of its batch.

    A 2 x 2 class [[a, b], [b, d]] needs no eigh: p_-+ = (a + d)/2 -+
    hypot((a - d)/2, b), and K = kappa Omega with kappa = (g_0 - g_1) b and
    Omega = [[0, 1], [-1, 0]].  As V^T Omega V = det(V) Omega, the class
    adds one term 4 kappa^2 / (p_- + p_+) and J = (2 kappa / (p_- + p_+)) Omega.

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
    n_points, stacks, rows = pairs.n_points, pairs.stacks, pairs.rows

    def classes(gather, diag):  # the class matrices of a stack, row after row
        return rows[:, gather].reshape(diag.shape + diag.shape[-1:])

    def solve(gather, diag):  # eigenvalues, and V or (2 x 2 classes) kappa = (g_0 - g_1) b
        if diag.shape[1] > 2:
            return np.linalg.eigh(classes(gather, diag))
        (a, b, _, d), g = classes(gather, diag).reshape(-1, 4).T, pairs.g_flat[diag]
        mid, radius = 0.5 * (a + d), np.hypot(0.5 * (a - d), b)
        return np.stack([mid - radius, mid + radius], axis=1), (g[:, 0] - g[:, 1]) * b

    # stack 0 holds the 1 x 1 classes: each is its own eigenbasis, with
    # rho' entry (g_r - g_r) rho_rr = 0, so no Fisher information
    solved = [solve(gather, diag) for _, gather, diag in stacks[1:]]
    spectrum = [classes(*stacks[0][1:]).reshape(-1, 1)] + [vals for vals, _ in solved]
    probs = [_clamped_probabilities(vals, "qfi block") for vals in spectrum]
    # largest eigenvalue of each block of each point, over all of its classes
    top = np.zeros(n_points * (pairs.n_max + 1))
    np.maximum.at(top, np.concatenate([blocks for blocks, _, _ in stacks]),
                  np.concatenate([p[:, -1] for p in probs]))
    totals = [0.0] * n_points
    sld_flat = np.zeros_like(rows) if with_sld else None
    for (blocks, gather, diag), (_, vecs), p in zip(stacks[1:], solved, probs[1:]):
        cutoff = RANK_CUTOFF_FACTOR * top[blocks]
        if vecs.ndim == 1:  # kappa: one term 4 kappa^2 / (p_0 + p_1) per kept class
            psum = p[:, 0] + p[:, 1]
            mask = psum > cutoff
            terms, counts = 4.0 * vecs[mask] ** 2 / psum[mask], mask
        else:
            g = pairs.g_flat[diag]
            vecs_t = vecs.swapaxes(1, 2)
            a = vecs_t @ ((g[:, :, None] - g[:, None, :]) * classes(gather, diag)) @ vecs
            psum = p[:, :, None] + p[:, None, :]
            mask = psum > cutoff[:, None, None]
            terms, counts = 2.0 * a[mask] ** 2 / psum[mask], mask.sum(axis=(1, 2))
        if n_points == 1:
            totals[0] += float(terms.sum())
        else:  # the kept terms lie point after point: one in-order sum per point
            kept = np.bincount(blocks // (pairs.n_max + 1), counts, n_points)
            ends = np.cumsum(kept).astype(int)
            for point in np.flatnonzero(kept):
                totals[point] += float(terms[ends[point] - int(kept[point]):ends[point]].sum())
        if with_sld and vecs.ndim == 1:  # J = (2 kappa / (p_0 + p_1)) Omega
            core = np.zeros_like(psum)
            core[mask] = 2.0 * vecs[mask] / psum[mask]
            sld = core[:, None, None] * np.array([[0.0, 1.0], [-1.0, 0.0]])
            sld_flat[:, gather] = sld.reshape(len(rows), *gather.shape)
        elif with_sld:
            core = np.zeros_like(a)
            core[mask] = 2.0 * a[mask] / psum[mask]
            sld = vecs @ core @ vecs_t
            sld_flat[:, gather] = (0.5 * (sld - sld.swapaxes(1, 2))).reshape(
                len(rows), *gather.shape)
    lead = pairs.lead  # None for a k-scan: no spectrum
    spectrum = None if lead is None else np.sort(
        np.concatenate([vals.reshape(*lead, -1) for vals in spectrum], axis=-1))
    slds = None
    if with_sld:
        sld_flat = sld_flat.reshape(*lead, -1)
        offsets = block_offsets(pairs.n_max)
        slds = [sld_flat[..., offsets[t]:offsets[t + 1]].reshape(*lead, t + 1, t + 1)
                for t in range(pairs.n_max + 1)]
    return QfiResult(qfi=totals if lead != () else totals[0], rank_cutoff=RANK_CUTOFF_FACTOR,
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
        check_eta_chi(eta, chi)
        self.input_spec = input_spec
        self.chi = float(chi)
        self.eta = float(eta)
        N = input_spec.N
        self.basis = TwoModeBasis(N)
        branches = branch_amplitudes(N, input_spec.alpha)
        self.stride = math.gcd(*(n1 - branches[0][0] for n1, _, _ in branches))
        self.rho0_flat = cross_lossy_blocks(branches, branches, N, self.eta).flat
        check_trace(self.rho0_flat[block_diagonal(N)].sum(), "family state")
        self.g_flat = generator_flat(N, self.chi)

    def _pairs(self) -> BlockPairs:
        return BlockPairs(self.rho0_flat, self.g_flat, self.input_spec.N, self.stride)

    def qfi(self) -> QfiResult:
        return _qfi_from_block_pairs(self._pairs())

    def moment_profile(self, obs: HermitianOperator) -> "MomentProfile":
        """The readout's ``MomentProfile``, rate = (1 + chi N/2) m, read off
        the band state by state: O = iA with A[r + m, r] = x_r = -A[r, r + m]
        on each block's index r, so a, c and f read rho_0 at offsets m, 0
        and 2m, each summed per T in r order, then over the rows in T order.
        They belong to O/scale, with scale = 2^e taken from the band's
        largest amplitude f 2^e, 0.5 <= f < 1."""
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
        # <O> reads x_r at (r, r +- m); O^2 = -A^2 holds x_r^2 + x_{r-m}^2 at
        # (r, r), two rounded squares added, and -x_r x_{r+m} at (r, r +- 2m);
        # rho_0 is exactly symmetric, so its entry (r, r + j) lies at diag[r] + j
        mean = self.rho0_flat[diag[up] + m] * x[up]
        near = self.rho0_flat[diag] * (x * x + np.bincount(up + m, x[up] * x[up], x.size))
        far = self.rho0_flat[diag[up2] + 2 * m] * -(x[up2] * x[up2 + m])
        slots = [(up, mean), (np.arange(x.size), near), (up2, far)]
        bins = np.concatenate([total[states] * 3 + slot for slot, (states, _) in enumerate(slots)])
        sums = np.bincount(bins, np.concatenate([terms for _, terms in slots]), 3 * (N + 1))
        half_a, c, f = sums.reshape(N + 1, 3).sum(axis=0)  # the rows in T order
        return MomentProfile((1.0 + 0.5 * self.chi * N) * m, -2.0 * half_a, c, f, scale)


class MomentProfile:
    """<O>(phi) = a sin u and <O^2>(phi) = c + 2f cos 2u with u = rate phi.

    rho(phi)'s block entry (r, r + j) turns with phi at the rate theta j,
    and the readout O = iA connects r with r +- m, so <O> holds e^{+-iu}
    and <O^2> holds 1 and e^{+-2iu}.  Every input has real coefficients
    and both arms lose equally, so rho_0 is real symmetric, and A is real
    antisymmetric: the weights of e^{+-iu} are -+ia/2 and those of
    e^{+-2iu} are both f.  The slope is d<O>/dphi = a rate cos u, and

        delta_phi^2 = (P - Q sin^2 u) / (a rate cos u)^2,

    with P = c + 2f and Q = 4f + a^2.  Its derivative in sin^2 u has the
    sign of P - Q, which is Var O at u = pi/2 and so never negative: the
    minimum lies where sin u = 0, at phi = 0 (and each multiple of
    pi / rate), and the profile is flat when P = Q.  With a = 0 the readout
    cannot see the branch coherence, and the slope vanishes at every phi.

    a, c and f belong to O/scale, a power of two; ``mean``,
    ``second_moment`` and ``variance`` multiply the scale back, while
    delta_phi does not depend on it.  ``variance_floor`` (in the units of
    O/scale) is PSD_FLOOR * max(1, scale/2)^2 in those of O: a variance
    below it is negative beyond round-off.  For a profile of
    PhasedFamily.moment_profile, scale/2 <= max |x| <= ||O||, so it is
    never looser than PSD_FLOOR * max(1, ||O||^2).
    """

    def __init__(self, rate: float, a: float, c: float, f: float, scale: float):
        self.rate, self.a, self.c, self.f, self.scale = map(float, (rate, a, c, f, scale))
        self.variance_floor = PSD_FLOOR * max(1.0 / scale, 0.5) ** 2
        # relative to the signal, not to ||O||: under heavy loss the branch
        # coherence, and with it every slope, lies many orders below ||O||
        self.slope_floor = DEGENERACY_FACTOR * abs(self.a * self.rate)

    @property
    def freqs(self) -> np.ndarray:
        """The frequencies j rate, |j| <= 2, of nonzero weight (f, a, c, a, f)."""
        j = np.arange(-2, 3)
        return self.rate * j[np.array([self.f, self.a, self.c, self.a, self.f]) != 0]

    def _moments(self, phi):
        """u = rate phi, and <O> and <O^2> of O/scale at phi."""
        u = self.rate * np.asarray(phi, dtype=float)
        wave = self.f * np.cos(2.0 * u)
        # <O^2> adds its terms in the order j = -2, 0, 2; + 0.0 makes a zero mean +0
        return u, self.a * np.sin(u) + 0.0, (wave + self.c) + wave

    def _unscaled(self, values, power: int):
        """values * scale**power, exact; OverflowError past the float range."""
        with np.errstate(over="ignore"):
            out = np.ldexp(values, power * (math.frexp(self.scale)[1] - 1))
        if not np.isfinite(out).all():
            raise OverflowError(f"moment of order {power} of the observable "
                                f"exceeds the float range (scale {self.scale:.3e})")
        return out

    def mean(self, phi):
        return self._unscaled(self._moments(phi)[1], 1)

    def second_moment(self, phi):
        return self._unscaled(self._moments(phi)[2], 2)

    def _checked_variance(self, mean, second):
        """Var of O/scale from its mean and second moment; NumericalError
        below ``variance_floor``, negative values above it clamped to 0."""
        var = second - mean ** 2
        lo = np.min(var)
        if lo < self.variance_floor:
            raise NumericalError(f"variance {lo:.3e} below round-off floor")
        if lo < 0.0:
            debug(__name__, "clamping %d negative variances (min %.3e) to 0",
                  int(np.sum(var < 0)), lo)
        return np.clip(var, 0.0, None)

    def variance(self, phi):
        return self._unscaled(self._checked_variance(*self._moments(phi)[1:]), 2)

    def delta_phi(self, phi):
        """sqrt(Var)/|slope| with NaN at degenerate operating points.

        A point counts as degenerate when the signal slope falls below its
        threshold or the variance falls below its round-off floor; for
        these sinusoidal profiles both happen in the same neighborhoods.  A
        variance negative beyond round-off raises NumericalError.
        """
        u, mean, second = self._moments(phi)
        slope = np.abs(self.a * self.rate * np.cos(u))
        var = self._checked_variance(mean, second)
        good = (slope > self.slope_floor) & (
            var >= VARIANCE_FLOOR_FACTOR * (np.abs(second) + mean ** 2))
        out = np.full(np.shape(phi), np.nan, dtype=float)
        np.divide(np.sqrt(var), slope, out=out, where=good)
        return out


def qfi_over_k(N: int, eta: float, chi: float, ks) -> list[float]:
    """PhasedFamily(NoonLikeSpec(N, k), chi, eta).qfi().qfi for each k of
    ``ks``, bit for bit, by one spectral step per chunk of k's: at most
    max(flat buffer, 2^18) entries, sixteen per term of the k's dyads and
    ceil((T + 1) / step) rows for each class of a block T.  Each k enters as
    min(k, N - k) with its ket's amplitude, 2^-1/2, or 1 at k = N/2."""
    if N < 1:
        raise ValueError("N must be at least 1")
    check_eta_chi(eta, chi)
    g_flat, rows, budget = generator_flat(N, chi), np.arange(1, N + 2), max(
        block_offsets(N)[-1], 1 << 18)
    values, chunk, held = [], [], 0
    for k in ks:
        if not 0 <= k <= N:
            raise ValueError(f"branch index k={k} outside [0, {N}]")
        k, amp = min(k, N - k), 1.0 if 2 * k == N else 1.0 / math.sqrt(2.0)  # k <= N/2
        terms = (k + 1) ** 2 if 2 * k == N else 2 * (k + 1) * (N + 2)  # of the k's dyads
        cost = 16 * terms + int((rows * -(-rows // _class_step(N, N - 2 * k))).sum())
        if chunk and held + cost > budget:
            values += _qfi_from_block_pairs(KScanPairs(g_flat, N, eta, chunk)).qfi
            chunk, held = [], 0
        chunk.append((k, amp))
        held += cost
    return values + _qfi_from_block_pairs(KScanPairs(g_flat, N, eta, chunk)).qfi


def max_qfi_over_k(N: int, eta: float, chi: float) -> tuple[int, float]:
    """Scan the branch index k of the two-branch family and return the
    maximizing (k, qfi); ties break toward smaller k, and k and N - k name
    the same state, so the scan stops at N/2."""
    values = qfi_over_k(N, eta, chi, range(N // 2 + 1))
    return max(enumerate(values), key=lambda item: item[1])  # the first maximum


def min_delta_phi(profile: MomentProfile) -> float:
    """The readout's smallest delta_phi over all operating points: its
    value at phi = 0, where it is reached for any profile whose variance is
    nowhere negative (see ``MomentProfile``).  A degenerate phi = 0
    (a = 0) raises DegenerateOperatingPointError."""
    value = float(profile.delta_phi(np.zeros(1))[0])
    if math.isnan(value):
        raise DegenerateOperatingPointError("the signal slope vanishes at phi = 0")
    return value
