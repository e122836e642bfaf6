"""
Reading out the phase: photon counting vs multi-photon coincidences
===================================================================

The Cramer-Rao bound is readout-independent, but an actual detector
scheme may not reach it.  Error propagation through an observable O
gives delta_phi = sqrt(Var O) / |d<O>/dphi|, evaluated at an operating
point where the signal slope does not vanish.

Photon-count difference (the readout of a standard interferometer) only
responds to the near-balanced branch pair, and its best uncertainty
sqrt(A)/(C1 theta) stays a factor ~sqrt(2N)/ (N+1) above the bound.  The
N-photon coincidence observable fixes this in the lossless case: its
uncertainty is flat in phi and saturates the bound exactly.  Under loss,
the same readout applied to loss-optimized inputs degrades quickly with
N, so the achievable uncertainty saturates even though the bound keeps
improving.
"""

import math

import numpy as np

from kerrmet import (
    NoonLikeSpec,
    OptimizationProblem,
    PhasedFamily,
    SuperpositionSpec,
    measurement_m,
    measurement_mm,
    min_delta_phi,
    optimize_alpha,
    qcrb,
)

chi = 0.0

# ----------------------------------------------------------------------
# Photon-count difference on the near-balanced branch pair (odd N).

print("photon-count difference, eta = 1:")
print(f"{'N':>3} {'min delta_phi':>14} {'closed form':>12} {'qcrb':>8}")
for n in (3, 5, 7, 9):
    family = PhasedFamily(NoonLikeSpec(n, (n - 1) // 2), chi=chi, eta=1.0)
    scan = min_delta_phi(family, measurement_m(family.basis))
    a = (n * n + 2 * n - 1) / 2
    c1 = (n + 1) / 2
    print(f"{n:>3} {scan.min_delta_phi:>14.6f} {math.sqrt(a) / c1:>12.6f} "
          f"{qcrb(family.qfi().qfi):>8.4f}")

# ----------------------------------------------------------------------
# N-photon coincidence on the k = 0 probe saturates the bound.

print("\nN-photon coincidence, eta = 1:")
for n in (2, 4, 6):
    family = PhasedFamily(NoonLikeSpec(n, 0), chi=chi, eta=1.0)
    scan = min_delta_phi(family, measurement_mm(n, family.basis))
    print(f"  N = {n}: min delta_phi = {scan.min_delta_phi:.9f}, "
          f"qcrb = {qcrb(family.qfi().qfi):.9f}")

# ----------------------------------------------------------------------
# Under 10% loss the same readout of loss-optimized inputs saturates:
# 1/delta_phi stops growing even though the bound does not.

print("\nN-photon coincidence of optimized inputs, eta = 0.9 (chi = 1e-8):")
for n in (5, 8, 11):
    outcome = optimize_alpha(OptimizationProblem(N=n, eta=0.9, chi=1e-8))
    family = PhasedFamily(SuperpositionSpec(n, outcome.alpha_star),
                          chi=1e-8, eta=0.9)
    scan = min_delta_phi(family, measurement_mm(n, family.basis))
    print(f"  N = {n:>2}: 1/delta_phi = {1 / scan.min_delta_phi:8.4f}   "
          f"1/qcrb = {math.sqrt(outcome.qfi_star):8.4f}")
