"""Input states of the nonlinear interferometer.

The Kerr medium makes each arm imprint a phase generated by
g(n) = n + (chi/2) n^2 on n photons.  With the symmetric arm
convention (phase -phi/2 in arm 1, +phi/2 in arm 2) the relative-phase
generator is diagonal in the Fock basis, so evolution is a pure
phase rotation of the amplitudes and never mixes total-photon-number
blocks.  The signal is carried by phi = kbar * x; the CLI fixes
kbar = 1, so phase and displacement uncertainties coincide numerically.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import Record

NORMALIZATION_ATOL = 1e-12


def superposition_length(N: int) -> int:
    """Number of independent coefficients alpha_0..alpha_{N//2}."""
    return N // 2 + 1


class SuperpositionSpec(Record, frozen=True):
    """Fixed-N input sum_k alpha_k {|N-k, k> + |k, N-k>} with real alpha, ket
    amplitudes B alpha (B = ``ket_fold(N)``) and squared_weight |B alpha|^2 = 1."""

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
        if not abs(weight - 1.0) <= NORMALIZATION_ATOL:  # a NaN weight fails too
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
        # a power-of-two rescale is exact and keeps the squared weight in range
        alpha = np.ldexp(alpha, -math.frexp(np.abs(alpha).max(initial=0.0))[1])
        weight = cls.squared_weight(N, alpha)
        if weight == 0.0:
            raise ValueError("cannot normalize an all-zero coefficient vector")
        if not math.isfinite(weight):
            raise ValueError("cannot normalize a non-finite coefficient vector")
        return cls(N, tuple(alpha / math.sqrt(weight)))


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


def ket_fold(N: int) -> np.ndarray:
    """The (N+1) x S matrix B taking alpha to the amplitudes B alpha of the
    kets |n1, N - n1>, n1 = 0..N: alpha_k enters n1 = k and n1 = N - k, one
    ket at the even-N midpoint k = N/2, whose amplitude is so 2 alpha_k."""
    eye = np.eye(N + 1)[:, :superposition_length(N)]
    return eye + eye[::-1]


def branch_amplitudes(N: int, alpha) -> list[tuple[int, int, float]]:
    """Kets and real amplitudes of sum_k alpha_k {|N-k, k> + |k, N-k>}
    as (n1, n2, amplitude), the nonzero entries of ket_fold(N) @ alpha in
    ascending n1; alpha need not be normalized."""
    amplitudes = ket_fold(N) @ np.asarray(alpha, dtype=float)
    return [(int(n1), N - int(n1), float(amplitudes[n1]))
            for n1 in np.flatnonzero(amplitudes)]
