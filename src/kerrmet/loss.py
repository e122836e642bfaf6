"""Photon loss as a beam-splitter channel on each arm, in closed form.

Losing (q, p) photons maps each input ket |n1, n2> to |n1-q, n2-p> with
survival amplitude sqrt((1-eta)^q eta^(n1-q) n1!/((n1-q)! q!)) per mode,
and summing the resulting rank-one contributions over (q, p) reproduces
the channel exactly.  ``ChannelMap`` lists those terms for fixed-N ket
dyads once.  The closed form assumes equal loss in both arms, and loss
commutes with the Kerr phase, so it needs no phase.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .fock import FlatBlocks, block_offsets


def _xlog(count: np.ndarray, x: float) -> np.ndarray:
    """count * log(x) with 0 * log(0) = 0."""
    if x > 0.0:
        return count * math.log(x)
    return np.where(count > 0, -np.inf, 0.0)


@lru_cache(maxsize=4)
def survival_table(n_max: int, eta: float) -> np.ndarray:
    """kappa[n, q] = single-mode amplitude for losing q of n photons,
    sqrt(C(n, q) (1-eta)^q eta^(n-q)), for all n, q <= n_max at once;
    0 * log(0) counts as 0, so eta = 0 and eta = 1 are exact.  Built once
    per (n_max, eta) and read-only, so the families of a k-scan share it.
    """
    log_fact = np.array([math.lgamma(k + 1) for k in range(n_max + 1)])
    n = np.arange(n_max + 1)[:, None]
    q = np.arange(n_max + 1)[None, :]
    kept = np.maximum(n - q, 0)
    log_amp = 0.5 * (log_fact[n] - log_fact[q] - log_fact[kept]
                     + _xlog(q, 1.0 - eta) + _xlog(kept, eta))
    table = np.where(q <= n, np.exp(log_amp), 0.0)
    table.flags.writeable = False
    return table


class ChannelMap:
    """The channel on the dyads |n1, N-n1><m1, N-m1|, dyad i * len(bras) + j
    for the mode-1 occupations n1 = kets[i], m1 = bras[j].  Losing (q, p)
    photons from a dyad lands on block T = N - q - p at entry (n1 - q, m1 - q)
    with kappa[n1, q] kappa[m1, q] kappa[N - n1, p] kappa[N - m1, p]: each term
    records that flat position, its dyad and that product, dyad by dyad."""

    def __init__(self, kets, bras, N: int, eta: float):
        kappa = survival_table(N, eta)
        offsets = block_offsets(N)
        positions, products = [], []
        for n1 in kets:
            for m1 in bras:
                q = np.arange(min(n1, m1) + 1)[:, None]
                p = np.arange(N - max(n1, m1) + 1)[None, :]
                t = N - q - p
                positions.append((offsets[t] + (n1 - q) * (t + 1) + (m1 - q)).ravel())
                products.append((kappa[n1, q] * kappa[m1, q]
                                 * kappa[N - n1, p] * kappa[N - m1, p]).ravel())
        self.positions = np.concatenate(positions)
        self.kappa = np.concatenate(products)
        self.dyads = np.repeat(np.arange(len(positions)), [x.size for x in positions])
        self.size = int(offsets[-1])

    def scatter(self, weights: np.ndarray) -> np.ndarray:
        """Flat float64 blocks T = 0..N of the output for the real
        combination sum_d weights[d] |dyad d>: one in-order sum of the terms."""
        return np.bincount(self.positions, weights[self.dyads] * self.kappa, self.size)

    def real_adjoint(self, dual: np.ndarray) -> np.ndarray:
        """Tr[C(|dyad d>) Z] for each dyad d (every dyad has a q = p = 0
        term), with ``dual`` the flat real blocks of Z^T."""
        return np.bincount(self.dyads, dual[self.positions] * self.kappa)


def cross_lossy_blocks(ket_branches, bra_branches, N: int, eta: float) -> FlatBlocks:
    """Blocks T = 0..N of sum_{q,p} K_qp |ket><bra| K_qp^dag in one flat
    float64 buffer, for ket and bra lists of branches (n1, n2, real
    amplitude) with n1 + n2 = N: the channel map's scatter of the dyads."""
    kets, _, ket_amps = zip(*ket_branches)
    bras, _, bra_amps = zip(*bra_branches)
    channel = ChannelMap(kets, bras, N, eta)
    return FlatBlocks(channel.scatter(np.outer(ket_amps, bra_amps).ravel()), N)
