"""
Phase sensitivity of fixed-photon-number states
===============================================

A Kerr medium inside a two-arm interferometer makes each arm imprint a
phase that grows quadratically with the photon number, g(n) = n +
(chi/2) n^2.  For a two-branch input (|N-k, k> + |k, N-k>)/sqrt(2) the
Fisher information has the closed form (N - 2k + chi N^2/2 - chi N k)^2,
so the k = 0 branch pair is the best probe and its Cramer-Rao bound
improves like 1/(chi N^2) once chi N is large.

This script sweeps the branch index and the Kerr strength and compares
the numerical Fisher information of the simulated family against the
closed form.
"""

import numpy as np

from kerrmet import (
    NoonLikeSpec,
    PhasedFamily,
    qcrb,
    qfi_pure_analytic,
)

# ----------------------------------------------------------------------
# Branch dependence at fixed N: the information drops from N^2 at k = 0
# to zero at the balanced point k = N/2.

N = 10
chi = 0.1
print(f"N = {N}, chi = {chi}")
print(f"{'k':>3} {'qfi (numerical)':>18} {'qfi (closed form)':>18} {'qcrb':>10}")
for k in range(N + 1):
    family = PhasedFamily(NoonLikeSpec(N, k), chi=chi, eta=1.0)
    numerical = family.qfi().qfi
    analytic = qfi_pure_analytic(N, k, chi)
    bound = qcrb(numerical) if numerical > 0 else float("inf")
    print(f"{k:>3} {numerical:>18.10f} {analytic:>18.10f} {bound:>10.5f}")

# ----------------------------------------------------------------------
# Kerr enhancement at k = 0: the bound crosses over from the 1/N
# Heisenberg scaling to 1/(chi N^2) once chi N >> 1.

print("\nbound at k = 0 vs N (chi = 0.1):")
for n in (5, 10, 20, 40, 80):
    value = qfi_pure_analytic(n, 0, chi)
    print(f"  N = {n:>3}: qcrb = {qcrb(value):.3e}   "
          f"linear part 1/N = {1 / n:.3e}   kerr part 2/(chi N^2) = {2 / (chi * n * n):.3e}")
