"""Nonlinear phase dynamics and input states.

The Kerr medium makes each arm imprint a phase generated by
g_tilde(n) = n + (chi/2) n^2 on n photons.  With the symmetric arm
convention (phase -phi/2 in arm 1, +phi/2 in arm 2) the relative-phase
generator is diagonal in the Fock basis, so evolution is a pure
phase rotation of the amplitudes and never mixes total-photon-number
blocks.  The signal is carried by phi = kbar * x; with the default
kbar = 1 phase and displacement uncertainties coincide numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .fock import (
    HermitianOperator,
    PureState,
    TwoModeBasis,
    lowering_power,
)

NORMALIZATION_ATOL = 1e-12


@dataclass(frozen=True)
class InterferometerParams:
    """Kerr strength chi (phase per photon) and wave number kbar."""

    chi: float = 0.0
    kbar: float = 1.0

    def __post_init__(self):
        if self.chi < 0:
            raise ValueError("chi must be non-negative")
        if self.kbar <= 0:
            raise ValueError("kbar must be positive")

    def displacement(self, phi: float) -> float:
        """Arm-length signal x corresponding to a relative phase phi."""
        return phi / self.kbar


def superposition_length(N: int) -> int:
    """Number of independent coefficients: tau + 1 with tau = (N-1)//2
    for odd N and N/2 for even N."""
    return ((N - 1) // 2 if N % 2 else N // 2) + 1


@dataclass(frozen=True)
class SuperpositionSpec:
    """Fixed-N input sum_k alpha_k {|N-k, k> + |k, N-k>} with real alpha.

    For even N the k = N/2 term contributes the single ket |N/2, N/2>
    with amplitude 2 alpha_{N/2}, so the normalization constraint reads
    sum_{k < N/2} 2 alpha_k^2 + 4 alpha_{N/2}^2 = 1.
    """

    N: int
    alpha: tuple[float, ...]

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be at least 1")
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        expected = superposition_length(self.N)
        if len(self.alpha) != expected:
            raise ValueError(
                f"alpha must have {expected} entries for N={self.N}, "
                f"got {len(self.alpha)}")
        weight = self.squared_weight(self.N, self.alpha)
        if abs(weight - 1.0) > NORMALIZATION_ATOL:
            raise ValueError(f"coefficients not normalized: weight {weight!r}")

    @staticmethod
    def squared_weight(N: int, alpha) -> float:
        weight = 0.0
        for k, a in enumerate(alpha):
            weight += (4.0 if 2 * k == N else 2.0) * a * a
        return weight

    @classmethod
    def normalized(cls, N: int, alpha) -> "SuperpositionSpec":
        alpha = np.asarray(alpha, dtype=float)
        weight = cls.squared_weight(N, alpha)
        if weight == 0.0:
            raise ValueError("cannot normalize an all-zero coefficient vector")
        return cls(N, tuple(alpha / math.sqrt(weight)))

    @property
    def tau(self) -> int:
        return len(self.alpha) - 1


def NoonLikeSpec(N: int, k: int) -> SuperpositionSpec:
    """Two-branch input (|N-k, k> + |k, N-k>)/sqrt(2), k in [0, N], as a
    one-hot SuperpositionSpec.

    k and N - k name the same state.  The degenerate even-N midpoint
    k = N/2 renormalizes to the single ket |N/2, N/2>.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    if not 0 <= k <= N:
        raise ValueError(f"branch index k={k} outside [0, {N}]")
    alpha = [0.0] * superposition_length(N)
    alpha[min(k, N - k)] = 0.5 if 2 * k == N else 1.0 / math.sqrt(2.0)
    return SuperpositionSpec(N, tuple(alpha))


def branch_amplitudes(N: int, alpha) -> list[tuple[int, int, float]]:
    """Kets and real amplitudes of sum_k alpha_k {|N-k, k> + |k, N-k>}
    as (n1, n2, amplitude); alpha need not be normalized.

    The two branch slots of a degenerate k = N/2 term point at the same
    ket, so their amplitudes accumulate.
    """
    acc: dict[tuple[int, int], float] = {}
    for k, a in enumerate(alpha):
        for ket in ((N - k, k), (k, N - k)):
            acc[ket] = acc.get(ket, 0.0) + a
    return [(n1, n2, amp) for (n1, n2), amp in sorted(acc.items()) if amp != 0.0]


def g_tilde(n: int, chi: float) -> float:
    """Kerr phase per photon-number eigenstate: n + (chi/2) n^2."""
    if n < 0:
        raise ValueError("photon number must be non-negative")
    return n + 0.5 * chi * n * n


def generator_diagonal(basis: TwoModeBasis, chi: float) -> np.ndarray:
    g = np.array([g_tilde(int(n), chi) for n in range(basis.n_total_max + 1)])
    return 0.5 * (g[basis.n2] - g[basis.n1])


def generator_h(basis: TwoModeBasis, chi: float) -> HermitianOperator:
    """Relative-phase generator: diagonal with (g_tilde(n2) - g_tilde(n1))/2."""
    return HermitianOperator(basis, np.diag(generator_diagonal(basis, chi)))


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


def _beam_splitter_unitary(basis: TwoModeBasis) -> np.ndarray:
    # 50:50 convention a1 -> (a1 + i a2)/sqrt(2), a2 -> (i a1 + a2)/sqrt(2),
    # i.e. exp(i pi/4 (a1^dag a2 + a2^dag a1)), exponentiated block by block.
    a1 = lowering_power(1, 1, basis)
    a2 = lowering_power(2, 1, basis)
    x = a1.conj().T @ a2 + a2.conj().T @ a1
    u = np.zeros_like(x)
    for t in range(basis.n_total_max + 1):
        sl = basis.block_slice(t)
        u[sl, sl] = expm(1j * (np.pi / 4) * x[sl, sl])
    return u


def beam_splitter(obj):
    """Apply the fixed 50:50 beam-splitter convention.

    Maps internal-mode descriptions to input/output-port descriptions;
    states transform as psi -> U psi, observables as O -> U O U^dag.
    All metrology computations stay in internal modes, this is exposed
    for reporting port states only.
    """
    u = _beam_splitter_unitary(obj.basis)
    if isinstance(obj, PureState):
        return PureState(obj.basis, u @ obj.amplitudes)
    if isinstance(obj, HermitianOperator):
        transformed = u @ obj.matrix @ u.conj().T
        return HermitianOperator(obj.basis, 0.5 * (transformed + transformed.conj().T))
    raise TypeError(f"unsupported object {type(obj).__name__}")
