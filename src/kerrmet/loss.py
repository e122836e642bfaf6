"""Photon loss as a beam-splitter channel on each arm, in closed form.

Losing (q, p) photons maps each input ket |n1, n2> to |n1-q, n2-p> with
survival amplitude sqrt((1-eta)^q eta^(n1-q) n1!/((n1-q)! q!)) per mode,
and summing the resulting rank-one contributions over (q, p) reproduces
the channel exactly.  ``dyad_terms`` lists those terms for any list of
fixed-N dyads, the one reader of ``survival_table``, for ``ChannelMap`` and
the k-scan alike.  Equal loss in both arms is assumed; loss commutes with
the Kerr phase, so no phase enters.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .fock import FlatBlocks, block_offsets, runs


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
    per (n_max, eta) and read-only, so all chunks of a k-scan share it.
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


def dyad_terms(n1: np.ndarray, m1: np.ndarray, N: int, eta: float):
    """The terms of the dyads |n1[d], N - n1[d]><m1[d], N - m1[d]| in (dyad, q, p)
    order: losing q mode-1 and p mode-2 photons puts (kappa[n1, q] kappa[m1, q])
    (kappa[N - n1, p] kappa[N - m1, p]) at (n1 - q, m1 - q) of block T = N - q - p.
    Each factor is unchanged when n1 and m1 swap, so a dyad and its mirror give
    the same bits, and every state summed from them is exactly symmetric.
    Returns each line (dyad, q) as dyad and q, and each term's line, p and product."""
    n, kappa = N + 1, survival_table(N, eta).ravel()
    dyad, q = runs(np.minimum(n1, m1) + 1)
    n1, m1 = n1[dyad], m1[dyad]
    line, p = runs(N + 1 - np.maximum(n1, m1))
    values = kappa[((N - n1) * n)[line] + p]
    values *= kappa[((N - m1) * n)[line] + p]
    values *= (kappa[n1 * n + q] * kappa[m1 * n + q])[line]
    return dyad, q, line, p, values


class ChannelMap:
    """The channel on the dyads |n1, N-n1><m1, N-m1|, dyad i * len(bras) + j
    for the mode-1 occupations n1 = kets[i], m1 = bras[j]: for each of their
    ``dyad_terms``, in its order, the flat position, the dyad and the product."""

    def __init__(self, kets, bras, N: int, eta: float):
        n1, m1 = np.repeat(kets, len(bras)), np.tile(bras, len(kets))
        dyad, q, line, t, self.kappa = dyad_terms(n1, m1, N, eta)
        t = (N - q)[line] - t  # each term's block T = N - q - p; p's array is freed
        offsets = block_offsets(N)
        self.positions = offsets[t] + (n1[dyad] - q)[line] * (t + 1) + (m1[dyad] - q)[line]
        self.dyads = dyad[line]
        self.size, self.n_dyads = int(offsets[-1]), len(kets) * len(bras)
        # rows per bincount of <= 2**12 terms; two rows cost more than two calls
        rows = 2 ** 12 // self.kappa.size
        self.chunk = rows if rows > 2 else 1

    def scatter(self, weights: np.ndarray) -> np.ndarray:
        """Flat float64 blocks T = 0..N of the output for the real combination
        sum_d weights[d] |dyad d>, row by row for a (B, dyads) stack of
        weights: one in-order sum of the terms."""
        return self._binned(weights, self.dyads, self.positions, self.size)

    def real_adjoint(self, dual: np.ndarray) -> np.ndarray:
        """Tr[C(|dyad d>) Z] for each dyad d, with ``dual`` the flat real
        blocks of Z^T, row by row for a (B, size) stack."""
        return self._binned(dual, self.positions, self.dyads, self.n_dyads)

    def _binned(self, rows: np.ndarray, take, into, length: int) -> np.ndarray:
        """np.bincount(into, rows[take] * kappa, length) for one row, or for
        each row of a (B, n) stack: there one bincount per chunk of rows, with
        per-row offsets, sums each bin's terms in the row's own order."""
        if rows.ndim == 1:
            return np.bincount(into, rows[take] * self.kappa, length)
        if self.chunk == 1:  # a large map: each row's own call, no offset copy
            return np.array([self._binned(row, take, into, length) for row in rows])
        step = np.arange(min(self.chunk, len(rows)))[:, None]
        take, into = take + rows.shape[1] * step, into + length * step
        out = np.empty(len(rows) * length)
        for start in range(0, len(rows), self.chunk):
            part = rows[start:start + self.chunk]
            values = (part.ravel()[take[:len(part)]] * self.kappa).ravel()
            out[start * length:(start + len(part)) * length] = np.bincount(
                into[:len(part)].ravel(), values, len(part) * length)
        return out.reshape(len(rows), length)


def cross_lossy_blocks(ket_branches, bra_branches, N: int, eta: float) -> FlatBlocks:
    """Blocks T = 0..N of sum_{q,p} K_qp |ket><bra| K_qp^dag in one flat
    float64 buffer, for ket and bra lists of branches (n1, n2, real
    amplitude) with n1 + n2 = N: the channel map's scatter of the dyads."""
    kets, _, ket_amps = zip(*ket_branches)
    bras, _, bra_amps = zip(*bra_branches)
    channel = ChannelMap(kets, bras, N, eta)
    return FlatBlocks(channel.scatter(np.outer(ket_amps, bra_amps).ravel()), N)
