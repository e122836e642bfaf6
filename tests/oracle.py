"""Dense reference implementations the blockwise package is tested against.

Everything here works on full dim x dim matrices over a TwoModeBasis and
shares no code path with the per-total-photon-number chain in
``kerrmet``: operators are dense matrices (``DenseOperator``, with a
banded Hermiticity check, and ``block_split`` back into blocks), lowering
powers are dense matrices, states are dense vectors and matrices, loss is
the generic Kraus composition (which also covers unequal arms), the phase
is applied to the pure input before the channel, and the SLD, the Fisher
information and the pointwise readout uncertainty come from one
full-matrix eigendecomposition.  ``dense`` turns the package's flat-block
observables into dense operators.  The costs grow as dim^3 with
dim ~ N^2/2, so these are meant for N of order ten.  The one blockwise
reference is ``blockwise_qfi``, the spectral step before its
residue-class split: one dense eigh per total-photon-number block.
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
    derivative_factors,
    spectral_norm,
)
from kerrmet import fock
from kerrmet.fock import (
    HERMITICITY_ATOL,
    PSD_FLOOR,
    BasisMismatchError,
    HermitianOperator,
    NumericalError,
    TwoModeBasis,
    falling_factorial,
)
from kerrmet.interferometer import SuperpositionSpec, branch_amplitudes

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


def dense(op) -> DenseOperator:
    """A package HermitianOperator (flat blocks) as a dense operator; a
    DenseOperator passes through."""
    if isinstance(op, HermitianOperator):
        return DenseOperator(op.basis, assemble_blocks(op.basis, op.blocks))
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


def _factors(family: PhasedFamily) -> list[np.ndarray]:
    return derivative_factors(family.g_flat, family.input_spec.N)


def rho_blocks(family: PhasedFamily, phi: float) -> list[np.ndarray]:
    """Blocks of rho(phi) = exp(phi factor) * rho_0, elementwise per T."""
    return [b * np.exp(phi * f)
            for b, f in zip(family.rho0, _factors(family))]


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
