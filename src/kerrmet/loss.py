"""Photon loss as a beam-splitter channel on each arm.

Two mutually validating routes are provided.  ``apply_loss`` applies the
generic Kraus map K_{1,q} K_{2,p} rho K^dag terms with dense operator
matrices and works for unequal arm transmissivities; it is the oracle.
``cross_lossy_blocks`` builds the channel output of fixed-N branch dyads
in closed form: losing (q, p) photons maps each input ket |n1, n2> to
|n1-q, n2-p> with survival amplitude
sqrt((1-eta)^q eta^(n1-q) n1!/((n1-q)! q!)) per mode, and summing the
resulting rank-one contributions over (q, p) reproduces the channel
exactly.  The closed form assumes equal loss in both arms.  Loss
commutes with the Kerr phase, so the closed form needs no phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy

from .fock import (
    DensityOperator,
    TwoModeBasis,
    log_falling_factorial,
)


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
        n1, n2 = basis.state_of(src)
        tgt = (n1 - q, n2) if mode == 1 else (n1, n2 - q)
        out[basis.index_of(*tgt), src] = kraus_amplitude(n, q, eta)
    return out


def apply_loss(rho: DensityOperator, loss: LossParams,
               basis: TwoModeBasis | None = None) -> DensityOperator:
    """Generic Kraus composition of loss on both arms (the channel oracle)."""
    if basis is not None and basis != rho.basis:
        raise ValueError("explicit basis disagrees with the state's basis")
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


def survival_table(n_max: int, eta: float) -> np.ndarray:
    """kappa[n, q] = single-mode amplitude for keeping n-q of n photons.

    The same amplitude as ``kraus_amplitude``, for all n, q <= n_max at
    once; xlogy makes 0 * log(0) = 0, so eta = 0 and eta = 1 are exact.
    """
    n = np.arange(n_max + 1)[:, None]
    q = np.arange(n_max + 1)[None, :]
    kept = np.maximum(n - q, 0)
    log_amp = 0.5 * (gammaln(n + 1) - gammaln(q + 1) - gammaln(kept + 1)
                     + xlogy(q, 1.0 - eta) + xlogy(kept, eta))
    return np.where(q <= n, np.exp(log_amp), 0.0)


def cross_lossy_blocks(ket_branches, bra_branches, N: int, eta: float):
    """Closed-form channel output for a ket/bra pair of branch lists.

    Each branch is (n1, n2, amplitude) with n1 + n2 = N.  The result is
    the list of total-photon-number blocks (T, block) of
    sum_{q,p} K_qp |ket><bra| K_qp^dag.

    Losing (q, p) photons from the dyad |n1, n2><m1, m2| lands on the
    block T = N - q - p at entry (n1 - q, m1 - q), so for fixed s = q + p
    one branch pair fills a single diagonal of one block; the loop runs
    per (pair, s) with the q-sweep vectorized.
    """
    kappa = survival_table(N, eta)
    blocks = [np.zeros((t + 1, t + 1), dtype=complex) for t in range(N + 1)]
    for kn1, kn2, kamp in ket_branches:
        for bn1, bn2, bamp in bra_branches:
            weight = kamp * bamp
            qmax = min(kn1, bn1)
            pmax = min(kn2, bn2)
            for s in range(qmax + pmax + 1):
                q = np.arange(max(0, s - pmax), min(qmax, s) + 1)
                p = s - q
                blocks[N - s][kn1 - q, bn1 - q] += weight * (
                    kappa[kn1, q] * kappa[bn1, q] * kappa[kn2, p] * kappa[bn2, p])
    return list(enumerate(blocks))
