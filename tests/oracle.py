"""Dense reference implementations the blockwise package is tested against.

Everything here works on full dim x dim matrices over a TwoModeBasis and
shares no code path with the per-total-photon-number chain in
``kerrmet``: operators are dense matrices (``DenseOperator``, with a
banded Hermiticity check, and ``block_split`` back into blocks), lowering
powers are dense matrices, states are dense vectors and matrices, loss is
the generic Kraus composition (which also covers unequal arms), the phase
is applied to the pure input before the channel, and the SLD, the Fisher
information and the pointwise readout uncertainty come from one
full-matrix eigendecomposition.  ``obs_blocks`` and ``dense`` turn the
package's banded coincidence readout into dense blocks and a dense
operator, and ``rho0_blocks`` gives a family's rho_0 block by block.  The
costs grow as dim^3 with dim ~ N^2/2, so these are meant for N of order
ten.  The one blockwise reference is ``blockwise_qfi``, the spectral step
before its residue-class split: one dense eigh per total-photon-number
block.
``model_rows`` is the see-saw model before its channel map: one dense row
of lossy blocks per coefficient pair, built by ``cross_lossy_blocks``.
``moment_profile`` is the readout's moment profile from dense blocks: one
dense ``spectral_norm``, product ``O @ O`` and bincount per block.
``scan_delta_phi`` searches a profile's operating points, the check on
``min_delta_phi``'s closed form: delta_phi on a phase grid, refined around
the best grid point by golden section.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from kerrmet.estimation import (
    DEGENERACY_FACTOR,
    RANK_CUTOFF_FACTOR,
    VARIANCE_FLOOR_FACTOR,
    DegenerateOperatingPointError,
    PhasedFamily,
    QfiResult,
    _clamped_probabilities,
)
from kerrmet import fock
from kerrmet.fock import (
    PSD_FLOOR,
    BasisMismatchError,
    HermitianOperator,
    NumericalError,
    FlatBlocks,
    TwoModeBasis,
    falling_factorial,
)
from kerrmet.interferometer import SuperpositionSpec, branch_amplitudes, superposition_length
from kerrmet.loss import cross_lossy_blocks

HERMITICITY_ATOL = 1e-12
NORM_ATOL = 1e-12
TRACE_ATOL = 1e-10
# entries per row band in the banded Hermiticity check
_BAND_ENTRIES = 1 << 18


class BlockStructureError(ValueError):
    """A matrix expected to be block-diagonal in total photon number is not."""


# ---------------------------------------------------------------- operators


def _band_rows(dim: int) -> int:
    """Rows per band of the Hermiticity check: about 2^18 entries a band."""
    return max(1, _BAND_ENTRIES // max(dim, 1))


def _check_hermitian(matrix: np.ndarray, what: str) -> None:
    """Compare each band of rows with the conjugate of the matching band of
    columns, so the check needs no dim x dim temporary."""
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{what} is not a square matrix: shape {matrix.shape}")
    dim = matrix.shape[0]
    band = _band_rows(dim)
    dev = 0.0
    for i in range(0, dim, band):
        dev = max(dev, np.abs(matrix[i:i + band]
                              - matrix[:, i:i + band].conj().T).max(initial=0.0))
    if dev > HERMITICITY_ATOL:
        raise ValueError(f"{what} is not Hermitian: max deviation {dev:.3e}")


@dataclass(eq=False)
class DenseOperator:
    """Hermitian dim x dim matrix over a basis (observables, generators, SLDs)."""

    basis: TwoModeBasis
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        dim = self.basis.dim
        if self.matrix.shape != (dim, dim):
            raise ValueError(f"matrix shape {self.matrix.shape} does not match dim {dim}")
        _check_hermitian(self.matrix, "operator")


def assemble_blocks(basis: TwoModeBasis, blocks) -> np.ndarray:
    """Direct sum of (T, block) pairs back into a dense matrix."""
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    for t, block in blocks:
        sl = basis.block_slice(t)
        out[sl, sl] = block
    return out


def obs_blocks(op: HermitianOperator) -> list[tuple[int, np.ndarray]]:
    """The (T, block) pairs of a package HermitianOperator: each amplitude x
    of its band written as i x at in-block position (n1 + m, n1) and as
    -i x at (n1, n1 + m)."""
    basis, m = op.basis, op.m
    blocks = []
    for t in range(basis.n_total_max + 1):
        block = np.zeros((t + 1, t + 1), dtype=complex)
        n1 = np.arange(t + 1 - m)
        x = op.matrix[basis.block_slice(t)][n1]
        block[n1 + m, n1] = 1j * x
        block[n1, n1 + m] = 1j * -x.conj()
        blocks.append((t, block))
    return blocks


def dense(op) -> DenseOperator:
    """A package HermitianOperator (a band) as a dense operator; a
    DenseOperator passes through."""
    if isinstance(op, HermitianOperator):
        return DenseOperator(op.basis, assemble_blocks(op.basis, obs_blocks(op)))
    return op


def block_split(rho) -> list[tuple[int, np.ndarray]]:
    """Split a dense operator (anything with ``basis`` and ``matrix``) into
    total-photon-number blocks.

    Off-block elements must vanish to 1e-12; the returned blocks reassemble
    the matrix exactly (any off-block mass below tolerance is discarded).
    """
    basis, matrix = rho.basis, rho.matrix
    blocks = []
    off = 0.0
    for t in range(basis.n_total_max + 1):
        sl = basis.block_slice(t)
        rows = matrix[sl]
        off = max(off, np.abs(rows[:, :sl.start]).max(initial=0.0),
                  np.abs(rows[:, sl.stop:]).max(initial=0.0))
        blocks.append((t, rows[:, sl].copy()))
    if off > 1e-12:
        raise BlockStructureError(
            f"matrix is not block-diagonal in total photon number "
            f"(off-block magnitude {off:.3e})")
    return blocks


def lowering_power(mode: int, m: int, basis: TwoModeBasis) -> np.ndarray:
    """Dense matrix of a^m in the chosen mode: the package's amplitude of
    each column written at its target row |n - m> in that mode."""
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    occ = basis.n1 if mode == 1 else basis.n2
    src = np.flatnonzero(occ >= m)
    total = basis.total[src] - m
    n1 = basis.n1[src] - (m if mode == 1 else 0)
    out[total * (total + 1) // 2 + n1, src] = fock.lowering_power(mode, m, basis)[src]
    return out


# ---------------------------------------------------------------- states


@dataclass(eq=False)
class PureState:
    """Normalized state vector over a TwoModeBasis."""

    basis: TwoModeBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (self.basis.dim,):
            raise ValueError(
                f"amplitude vector has shape {self.amplitudes.shape}, "
                f"basis dim is {self.basis.dim}")
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {NORM_ATOL}")

    def to_density(self) -> "DensityOperator":
        return DensityOperator(self.basis, np.outer(self.amplitudes,
                                                    self.amplitudes.conj()))


class DensityOperator(DenseOperator):
    """Hermitian, trace-one, positive-semidefinite operator over a basis;
    the PSD check is one dense eigvalsh."""

    def __post_init__(self):
        super().__post_init__()
        tr = self.matrix.trace()
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"trace {tr!r} deviates from 1 beyond {TRACE_ATOL}")
        lo = np.linalg.eigvalsh(self.matrix).min()
        if lo < PSD_FLOOR:
            raise ValueError(f"matrix has eigenvalue {lo:.3e} below PSD floor {PSD_FLOOR}")

    def purity(self) -> float:
        return float(np.sum(self.matrix * self.matrix.T).real)


def expectation(state, obs) -> float:
    """<O> in a PureState or DensityOperator; the tiny imaginary residue
    left by rounding is asserted below 1e-10 and discarded."""
    obs = dense(obs)
    if state.basis != obs.basis:
        raise BasisMismatchError("state and observable live on different bases")
    if isinstance(state, PureState):
        value = np.vdot(state.amplitudes, obs.matrix @ state.amplitudes)
    elif isinstance(state, DensityOperator):
        value = np.sum(state.matrix * obs.matrix.T)
    else:
        raise TypeError(f"unsupported state type {type(state).__name__}")
    if abs(value.imag) > 1e-10:
        raise NumericalError(f"expectation has imaginary residue {value.imag:.3e}")
    return float(value.real)


# ---------------------------------------------------------------- phase


def g_tilde(n: int, chi: float) -> float:
    """Kerr phase per photon-number eigenstate: n + (chi/2) n^2."""
    if n < 0:
        raise ValueError("photon number must be non-negative")
    return n + 0.5 * chi * n * n


def generator_diagonal(basis: TwoModeBasis, chi: float) -> np.ndarray:
    g = np.array([g_tilde(int(n), chi) for n in range(basis.n_total_max + 1)])
    return 0.5 * (g[basis.n2] - g[basis.n1])


def generator_h(basis: TwoModeBasis, chi: float) -> DenseOperator:
    """Relative-phase generator: diagonal with (g_tilde(n2) - g_tilde(n1))/2."""
    return DenseOperator(basis, np.diag(generator_diagonal(basis, chi)))


def apply_phase(state: PureState, phi: float, chi: float) -> PureState:
    """Evolve through the arms: each |n1, n2> picks up exp(i phi h(n1, n2))
    with h the generator diagonal.  Norm is untouched."""
    phases = np.exp(1j * phi * generator_diagonal(state.basis, chi))
    return PureState(state.basis, state.amplitudes * phases)


def superposition_state(spec: SuperpositionSpec, basis: TwoModeBasis) -> PureState:
    """State vector with amplitude alpha_k on |N-k, k> and |k, N-k>."""
    if spec.N > basis.n_total_max:
        raise ValueError(f"N={spec.N} exceeds basis truncation {basis.n_total_max}")
    amps = np.zeros(basis.dim, dtype=complex)
    for n1, n2, amp in branch_amplitudes(spec.N, spec.alpha):
        amps[basis.index_of(n1, n2)] = amp
    return PureState(basis, amps)


# ---------------------------------------------------------------- loss


@dataclass(frozen=True)
class LossParams:
    """Transmissivities of the fictitious loss beam splitters (1 = no loss)."""

    eta_a: float
    eta_b: float

    def __post_init__(self):
        for name, eta in (("eta_a", self.eta_a), ("eta_b", self.eta_b)):
            if not 0.0 <= eta <= 1.0:
                raise ValueError(f"{name}={eta} outside [0, 1]")

    @classmethod
    def equal(cls, eta: float) -> "LossParams":
        return cls(eta, eta)


def log_falling_factorial(n: int, m: int) -> float:
    """log(n!/(n-m)!); -inf when m > n."""
    if n < 0 or m < 0:
        raise ValueError(f"log_falling_factorial needs n, m >= 0, got ({n}, {m})")
    if m > n:
        return -math.inf
    if n <= 20:
        return math.log(falling_factorial(n, m)) if m > 0 else 0.0
    return math.lgamma(n + 1) - math.lgamma(n - m + 1)


def kraus_amplitude(n: int, q: int, eta: float) -> float:
    """Amplitude for |n> -> |n-q| under loss of q photons at transmissivity eta."""
    if q > n:
        return 0.0
    if eta == 1.0:
        return 1.0 if q == 0 else 0.0
    if eta == 0.0:
        return 1.0 if q == n else 0.0
    log_amp = 0.5 * (q * math.log1p(-eta) + (n - q) * math.log(eta)
                     + log_falling_factorial(n, q) - math.lgamma(q + 1))
    return math.exp(log_amp)


def kraus_element(mode: int, q: int, eta: float, basis: TwoModeBasis) -> np.ndarray:
    """Matrix of the q-photon loss Kraus operator on the chosen mode."""
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode}")
    if q < 0:
        raise ValueError("q must be non-negative")
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    occ = basis.n1 if mode == 1 else basis.n2
    for src in range(basis.dim):
        n = int(occ[src])
        if n < q:
            continue
        n1, n2 = int(basis.n1[src]), int(basis.n2[src])
        tgt = (n1 - q, n2) if mode == 1 else (n1, n2 - q)
        out[basis.index_of(*tgt), src] = kraus_amplitude(n, q, eta)
    return out


def apply_loss(rho: DensityOperator, loss: LossParams) -> DensityOperator:
    """Generic Kraus composition of loss on both arms."""
    basis = rho.basis
    n_max = basis.n_total_max
    k1 = [kraus_element(1, q, loss.eta_a, basis) for q in range(n_max + 1)]
    k2 = [kraus_element(2, p, loss.eta_b, basis) for p in range(n_max + 1)]
    out = np.zeros_like(rho.matrix)
    for q in range(n_max + 1):
        for p in range(n_max + 1):
            k = k1[q] @ k2[p]
            out += k @ rho.matrix @ k.conj().T
    return DensityOperator(basis, 0.5 * (out + out.conj().T))


# ---------------------------------------------------------------- family


def derivative_factors(g_flat: np.ndarray, n_max: int) -> list[np.ndarray]:
    """Per-block factors i(g_r - g_c) of the blocks T = 0..n_max from the
    generator diagonal ``g_flat`` (laid out as by ``generator_flat``), so
    that rho' = i[G, rho] is the elementwise product factor * rho and
    rho(phi) = exp(phi factor) * rho_0."""
    basis = TwoModeBasis(n_max)
    return [1j * (d[:, None] - d[None, :])
            for d in (g_flat[basis.block_slice(t)] for t in range(n_max + 1))]


def rho0_blocks(family: PhasedFamily) -> list[np.ndarray]:
    """The blocks T = 0..N of a family's rho_0 (symmetric parts)."""
    return [0.5 * (b + b.T) for _, b in FlatBlocks(family.rho0_flat, family.input_spec.N)]


def _factors(family: PhasedFamily) -> list[np.ndarray]:
    return derivative_factors(family.g_flat, family.input_spec.N)


def rho_blocks(family: PhasedFamily, phi: float) -> list[np.ndarray]:
    """Blocks of rho(phi) = exp(phi factor) * rho_0, elementwise per T."""
    return [b * np.exp(phi * f)
            for b, f in zip(rho0_blocks(family), _factors(family))]


def rho(family: PhasedFamily, phi: float) -> DensityOperator:
    return DensityOperator(family.basis, assemble_blocks(
        family.basis, enumerate(rho_blocks(family, phi))))


def rho_prime(family: PhasedFamily, phi: float) -> DenseOperator:
    blocks = zip(rho_blocks(family, phi), _factors(family))
    return DenseOperator(family.basis, assemble_blocks(
        family.basis, ((t, f * b) for t, (b, f) in enumerate(blocks))))


def richardson_rho_prime(family: PhasedFamily, phi: float,
                         step: float) -> np.ndarray:
    """Richardson-extrapolated central difference of rho(phi)."""
    if step < 100 * np.finfo(float).eps * max(1.0, abs(phi)):
        raise NumericalError(f"finite-difference step {step:.3e} too small; "
                             "cancellation would dominate")
    def at(x):
        return rho(family, x).matrix
    coarse = (at(phi + step) - at(phi - step)) / (2 * step)
    fine = (at(phi + step / 2) - at(phi - step / 2)) / step
    return (4.0 * fine - coarse) / 3.0


# ---------------------------------------------------------------- estimation


def sld(rho: DensityOperator, rho_prime: DenseOperator,
        rank_tol: float | None = None) -> DenseOperator:
    """Symmetric logarithmic derivative L solving rho' = (L rho + rho L)/2.

    Built in the eigenbasis of the full matrix rho as
    L_jk = 2 rho'_jk / (p_j + p_k) on eigenvalue pairs above rank_tol
    (zero elsewhere), then rotated back to the computational basis.
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
    return DenseOperator(rho.basis, 0.5 * (matrix + matrix.conj().T))


def blockwise_qfi(pairs, with_sld: bool = False) -> QfiResult:
    """QFI from (rho block, rho' block) pairs with one eigh per whole block
    and the per-block rank cutoff, the same sum the package takes over
    residue classes; with ``with_sld`` also the SLD block of each pair."""
    spectrum = []
    total = 0.0
    slds = [] if with_sld else None
    for rho_block, rhop_block in pairs:
        if not rho_block.any():
            # empty block: all probabilities 0, every pair is below cutoff
            spectrum.append(np.zeros(rho_block.shape[0]))
            if with_sld:
                slds.append(np.zeros_like(rhop_block))
            continue
        vals, vecs = np.linalg.eigh(rho_block)
        spectrum.append(vals)
        p = _clamped_probabilities(vals, "qfi block")
        a = vecs.conj().T @ rhop_block @ vecs
        psum = p[:, None] + p[None, :]
        mask = psum > RANK_CUTOFF_FACTOR * p.max()
        if mask.any():
            total += float((2.0 * np.abs(a[mask]) ** 2 / psum[mask]).sum())
        if with_sld:
            core = np.zeros_like(a)
            core[mask] = 2.0 * a[mask] / psum[mask]
            block = vecs @ core @ vecs.conj().T
            slds.append(0.5 * (block + block.conj().T))
    spectrum = np.sort(np.concatenate(spectrum)) if spectrum else np.zeros(0)
    return QfiResult(qfi=total, rank_cutoff=RANK_CUTOFF_FACTOR, spectrum=spectrum,
                     sld=slds)


def qfi(rho: DensityOperator, rho_prime: DenseOperator) -> float:
    """Fisher information Tr[rho' L] with L the full-matrix SLD."""
    return float(np.sum(rho_prime.matrix * sld(rho, rho_prime).matrix.T).real)


def spectral_norm(matrix: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(matrix)).max())


@dataclass
class BlockwiseProfile:
    """The weights of a moment profile at every frequency j = -N..N,
    zeros included, with the profile's scale, the power of two just above
    ||O||."""

    freqs: np.ndarray
    w_mean: np.ndarray
    w_sq: np.ndarray
    scale: float


def moment_profile(family: PhasedFamily, obs: HermitianOperator) -> BlockwiseProfile:
    """The moment profile block by block, from dense blocks: ||O|| from one
    dense eigvalsh per block, O^2 from one dense product per block, and the
    weights from one bincount per block, added in T order."""
    N = family.input_spec.N
    blocks = obs_blocks(obs)
    scale = math.ldexp(1.0, math.frexp(max(spectral_norm(b) for _, b in blocks))[1])
    w_mean = np.zeros(2 * N + 1, dtype=complex)
    w_sq = np.zeros(2 * N + 1, dtype=complex)
    for t, (rho_block, (_, o_block)) in enumerate(zip(rho0_blocks(family), blocks)):
        o_block = o_block / scale
        offset = (np.arange(t + 1)[None, :] - np.arange(t + 1)[:, None] + N).ravel()
        for w, o in ((w_mean, o_block), (w_sq, o_block @ o_block)):
            terms = (rho_block * o.T).ravel()
            w += (np.bincount(offset, terms.real, 2 * N + 1)
                  + 1j * np.bincount(offset, terms.imag, 2 * N + 1))
    freqs = (1.0 + 0.5 * family.chi * N) * np.arange(-N, N + 1)
    return BlockwiseProfile(freqs, w_mean, w_sq, scale)


def delta_phi(family: PhasedFamily, obs, phi: float) -> float:
    """Error-propagation uncertainty sqrt(Var O)/|d<O>/dphi| at one phi from
    the dense rho(phi) and rho'(phi).

    Raises at degenerate operating points: vanishing signal slope, or a
    variance so small that its computed value is round-off noise.
    """
    obs = dense(obs)
    if obs.basis != family.basis:
        raise BasisMismatchError("observable basis does not match the family")
    state = rho(family, phi)
    mean = expectation(state, obs)
    second = expectation(state, DenseOperator(obs.basis, obs.matrix @ obs.matrix))
    variance = max(second - mean * mean, 0.0)
    slope = float(np.sum(rho_prime(family, phi).matrix * obs.matrix.T).real)
    if abs(slope) < DEGENERACY_FACTOR * spectral_norm(obs.matrix):
        raise DegenerateOperatingPointError(
            f"|d<O>/dphi| = {abs(slope):.3e} at phi={phi}; no operating point")
    if variance < VARIANCE_FLOOR_FACTOR * (abs(second) + mean * mean):
        raise DegenerateOperatingPointError(
            f"variance {variance:.3e} at phi={phi} is below its round-off floor")
    return math.sqrt(variance) / abs(slope)


GOLDEN_TOL = 1e-10


@dataclass
class ReadoutResult:
    """Uncertainty scan of one moment profile over a phase grid."""

    delta_phi: np.ndarray
    min_delta_phi: float
    argmin_phi: float


def _golden_section(f, lo: float, hi: float, tol: float):
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    best_f, best_x = min((f(lo), lo), (f(hi), hi))  # a tie keeps lo
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


def scan_delta_phi(profile, grid=None) -> ReadoutResult:
    """Scan a profile's delta_phi over a grid (default: 2001 points on
    [0, pi]), skip degenerate points, and refine the bracket around the best
    grid point by golden section; the first best grid point stands unless
    the refinement improves on it."""
    grid = np.linspace(0.0, np.pi, 2001) if grid is None else np.asarray(grid, dtype=float)
    deltas = profile.delta_phi(grid)
    if not np.isfinite(deltas).any():
        raise DegenerateOperatingPointError("the signal slope vanishes on every grid point")
    i_best = int(np.nanargmin(deltas))
    x_star, f_star = float(grid[i_best]), float(deltas[i_best])
    lo, hi = grid[max(i_best - 1, 0)], grid[min(i_best + 1, grid.size - 1)]

    def guarded(x):
        value = float(profile.delta_phi(np.atleast_1d(x))[0])
        return math.inf if math.isnan(value) else value

    if hi > lo:
        x, f = _golden_section(guarded, lo, hi, GOLDEN_TOL)
        if f < f_star:
            x_star, f_star = float(x), float(f)
    return ReadoutResult(delta_phi=deltas, min_delta_phi=f_star, argmin_phi=x_star)


# ---------------------------------------------------------------- optimizer


def model_rows(N: int, eta: float) -> np.ndarray:
    """The see-saw model as one dense (S^2, sum_T (T+1)^2) matrix: row
    k S + l holds the flat blocks of R_kl, the channel output of the
    one-hot branch sets e_k and e_l from ``cross_lossy_blocks``."""
    sets = [branch_amplitudes(N, e) for e in np.eye(superposition_length(N))]
    return np.array([cross_lossy_blocks(ket, bra, N, eta).flat
                     for ket in sets for bra in sets])


def seesaw_matrix(rows: np.ndarray, slds, g_flat: np.ndarray, N: int) -> np.ndarray:
    """M(L)_kl = Re(2 Tr[rho'_kl L] - Tr[R_kl L^2]) from the dense model
    rows, with L given by its blocks T = 0..N."""
    dual = np.concatenate([(2.0 * f * sld.T - (sld @ sld).T).ravel()
                           for f, sld in zip(derivative_factors(g_flat, N), slds)])
    length = superposition_length(N)
    m = (rows @ dual).real.reshape(length, length)
    return 0.5 * (m + m.T)
