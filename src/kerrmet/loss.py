"""Photon loss as a beam-splitter channel on each arm, in closed form.

``cross_lossy_blocks`` builds the channel output of fixed-N branch dyads:
losing (q, p) photons maps each input ket |n1, n2> to |n1-q, n2-p> with
survival amplitude sqrt((1-eta)^q eta^(n1-q) n1!/((n1-q)! q!)) per mode,
and summing the resulting rank-one contributions over (q, p) reproduces
the channel exactly.  The closed form assumes equal loss in both arms.
Loss commutes with the Kerr phase, so the closed form needs no phase.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import FlatBlocks, block_offsets


def _xlog(count: np.ndarray, x: float) -> np.ndarray:
    """count * log(x) with 0 * log(0) = 0."""
    if x > 0.0:
        return count * math.log(x)
    return np.where(count > 0, -np.inf, 0.0)


def survival_table(n_max: int, eta: float) -> np.ndarray:
    """kappa[n, q] = single-mode amplitude for losing q of n photons,
    sqrt(C(n, q) (1-eta)^q eta^(n-q)), for all n, q <= n_max at once;
    0 * log(0) counts as 0, so eta = 0 and eta = 1 are exact.
    """
    log_fact = np.array([math.lgamma(k + 1) for k in range(n_max + 1)])
    n = np.arange(n_max + 1)[:, None]
    q = np.arange(n_max + 1)[None, :]
    kept = np.maximum(n - q, 0)
    log_amp = 0.5 * (log_fact[n] - log_fact[q] - log_fact[kept]
                     + _xlog(q, 1.0 - eta) + _xlog(kept, eta))
    return np.where(q <= n, np.exp(log_amp), 0.0)


def cross_lossy_blocks(ket_branches, bra_branches, N: int, eta: float) -> FlatBlocks:
    """Closed-form channel output for a ket/bra pair of branch lists.

    Each branch is (n1, n2, amplitude) with n1 + n2 = N.  The result holds
    the total-photon-number blocks (T, block) of
    sum_{q,p} K_qp |ket><bra| K_qp^dag in one flat buffer.

    Losing (q, p) photons from the dyad |n1, n2><m1, m2| lands on the
    block T = N - q - p at entry (n1 - q, m1 - q), so one branch pair fills
    entries at index offset n1 - m1 only, and each (q, p) a distinct one:
    the whole (q, p) sweep of a pair is one vectorized scatter.
    """
    kappa = survival_table(N, eta)
    offsets = block_offsets(N)
    flat = np.zeros(offsets[-1], dtype=complex)
    for kn1, kn2, kamp in ket_branches:
        for bn1, bn2, bamp in bra_branches:
            q = np.arange(min(kn1, bn1) + 1)[:, None]
            p = np.arange(min(kn2, bn2) + 1)[None, :]
            t = N - q - p
            flat[offsets[t] + (kn1 - q) * (t + 1) + (bn1 - q)] += kamp * bamp * (
                kappa[kn1, q] * kappa[bn1, q] * kappa[kn2, p] * kappa[bn2, p])
    return FlatBlocks(flat, N)
