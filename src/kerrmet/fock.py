"""Truncated two-mode Fock-space algebra.

Two bosonic modes are truncated at a maximum total photon number and laid
out in a graded basis: all states with total photon number T come before
the states with total T + 1, and within a block the occupation of mode 1
ascends.  Every operator built in this package (phase evolution, photon
loss, coincidence observables) either conserves or only lowers the total
photon number, so density matrices and observables stay block-diagonal in
T.  Both keep their blocks T = 0..N one after another in a single flat
buffer (``FlatBlocks``; an observable is a ``HermitianOperator`` over
such a buffer), and no dim x dim matrix is built: a lowering power a^m,
which shifts every state by m photons in one mode, is held as one
amplitude per column.  The spectral step splits each block of a state
further into the residue classes of its index modulo the branch stride
of the input (see ``kerrmet.estimation``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

HERMITICITY_ATOL = 1e-12
PSD_FLOOR = -1e-10

# above this occupation, scalar combinatorics switch to log-gamma floats
_EXACT_FACTORIAL_LIMIT = 20


class TruncationError(ValueError):
    """A Fock occupation lies outside the truncated basis."""


class BasisMismatchError(ValueError):
    """Objects defined on different bases were combined."""


class NumericalError(RuntimeError):
    """A numerical routine failed to deliver a trustworthy result."""


def falling_factorial(n: int, m: int) -> float:
    """n! / (n - m)! as a float, zero when m exceeds n.

    Exact integer arithmetic is used for n <= 20; larger arguments go
    through log-gamma so that occupations of order 100 do not overflow.
    """
    if n < 0 or m < 0:
        raise ValueError(f"falling_factorial needs n, m >= 0, got ({n}, {m})")
    if m > n:
        return 0.0
    if n <= _EXACT_FACTORIAL_LIMIT:
        out = 1
        for j in range(n - m + 1, n + 1):
            out *= j
        return float(out)
    return math.exp(math.lgamma(n + 1) - math.lgamma(n - m + 1))


class TwoModeBasis:
    """Graded two-mode Fock basis truncated at n1 + n2 <= n_total_max.

    Flat index of |n1, n2> is T(T+1)/2 + n1 with T = n1 + n2, so each
    total-photon-number block occupies a contiguous slice and block T has
    T + 1 states.
    """

    def __init__(self, n_total_max: int):
        if n_total_max < 0:
            raise ValueError("n_total_max must be non-negative")
        self.n_total_max = int(n_total_max)
        self.dim = (self.n_total_max + 1) * (self.n_total_max + 2) // 2
        totals = np.repeat(np.arange(self.n_total_max + 1),
                           np.arange(1, self.n_total_max + 2))
        starts = totals * (totals + 1) // 2
        self.n1 = np.arange(self.dim) - starts
        self.n2 = totals - self.n1
        self.total = totals

    def index_of(self, n1: int, n2: int) -> int:
        if n1 < 0 or n2 < 0:
            raise TruncationError(f"occupations must be non-negative, got ({n1}, {n2})")
        total = n1 + n2
        if total > self.n_total_max:
            raise TruncationError(
                f"|{n1}, {n2}> has total {total} > truncation {self.n_total_max}")
        return total * (total + 1) // 2 + n1

    def block_slice(self, total: int) -> slice:
        if total < 0 or total > self.n_total_max:
            raise TruncationError(f"no block for total photon number {total}")
        start = total * (total + 1) // 2
        return slice(start, start + total + 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, TwoModeBasis) and other.n_total_max == self.n_total_max

    def __hash__(self) -> int:
        return hash(("TwoModeBasis", self.n_total_max))

    def __repr__(self) -> str:
        return f"TwoModeBasis(n_total_max={self.n_total_max})"


def block_offsets(n_max: int) -> np.ndarray:
    """Start of each block T = 0..n_max in a flat buffer that holds the
    (T+1) x (T+1) blocks one after another, row-major:
    sum_{t<T} (t+1)^2 = T(T+1)(2T+1)/6.  The last entry is the length."""
    t = np.arange(n_max + 2)
    return t * (t + 1) * (2 * t + 1) // 6


def block_diagonal(n_max: int) -> np.ndarray:
    """Positions of the diagonal entries of blocks 0..n_max in such a
    flat buffer, block by block."""
    t = np.repeat(np.arange(n_max + 1), np.arange(1, n_max + 2))
    i = np.arange(t.size) - t * (t + 1) // 2
    return block_offsets(n_max)[t] + i * (t + 2)


class FlatBlocks(Sequence):
    """Blocks T = 0..n_max of a block-diagonal operator, held in one flat
    buffer laid out by ``block_offsets``; item T is the pair (T, block)
    with the block a view into ``flat``."""

    def __init__(self, flat: np.ndarray, n_max: int):
        self.flat = flat
        self.n_max = n_max
        self.offsets = block_offsets(n_max)

    def __len__(self) -> int:
        return self.n_max + 1

    def __getitem__(self, t: int) -> tuple[int, np.ndarray]:
        t = range(self.n_max + 1)[t]
        start = self.offsets[t]
        return t, self.flat[start:start + (t + 1) ** 2].reshape(t + 1, t + 1)


@dataclass(eq=False)
class HermitianOperator:
    """Hermitian operator that conserves the total photon number
    (observables), held as its blocks T = 0..n_total_max in one flat buffer
    laid out by ``block_offsets``; ``matrix`` is that buffer and ``blocks``
    views it block by block."""

    basis: TwoModeBasis
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        size = block_offsets(self.basis.n_total_max)[-1]
        if self.matrix.shape != (size,):
            raise ValueError(f"block buffer shape {self.matrix.shape} does not match "
                             f"length {size}")
        dev = max(np.abs(b - b.conj().T).max() for _, b in self.blocks)
        if dev > HERMITICITY_ATOL:
            raise ValueError(f"operator is not Hermitian: max deviation {dev:.3e}")

    @property
    def blocks(self) -> FlatBlocks:
        return FlatBlocks(self.matrix, self.basis.n_total_max)


def lowering_power(mode: int, m: int, basis: TwoModeBasis) -> np.ndarray:
    """Amplitudes of a^m in the chosen mode (1 or 2), one per basis state.

    a^m has at most one nonzero entry per column: it takes |n> to |n - m>
    in that mode with amplitude sqrt(n!/(n-m)!), and annihilates states
    with n < m, whose amplitude here is 0.  Entry j is the amplitude of
    column j; the row it sits in follows from the shift.
    """
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode}")
    if m < 0:
        raise ValueError("power m must be non-negative")
    n_max = basis.n_total_max
    amplitude = np.zeros(n_max + 1)
    try:
        amplitude[m:] = np.sqrt([falling_factorial(n, m) for n in range(m, n_max + 1)])
    except OverflowError:
        raise OverflowError(f"a^m amplitudes sqrt(n!/(n-m)!) exceed the float range "
                            f"at N = {n_max}, m = {m}") from None
    return amplitude[basis.n1 if mode == 1 else basis.n2]
