"""
Photon loss and the collapse of the quadratic advantage
=======================================================

Loss in each arm is modelled as a beam splitter with transmissivity eta
that leaks photons into an unmonitored mode.  Losing q photons from a
mode holding n keeps each Fock component with the amplitude
sqrt(C(n, q) (1-eta)^q eta^(n-q)), so the lossy output of a
fixed-photon-number input is block-diagonal in the surviving total
photon number T.  Loss commutes with the Kerr phase, so the family builds
those blocks once, at phi = 0, and every phase follows by rotation.  (The
tests check the closed form against the generic Kraus composition.)

Losing even 10% of the photons destroys the quadratic scaling of the
best two-branch probe: the maximized Fisher information grows only
linearly in N.
"""

import numpy as np

from kerrmet import NoonLikeSpec, PhasedFamily, max_qfi_over_k
from kerrmet.fock import FlatBlocks

# ----------------------------------------------------------------------
# The lossy state block by block: weight and purity.

N, k, eta, chi = 6, 1, 0.7, 1e-2
family = PhasedFamily(NoonLikeSpec(N, k), chi=chi, eta=eta)
# rho_0 holds its blocks T = 0..N one after another in one flat buffer
blocks = [block for _, block in FlatBlocks(family.rho0_flat, N)]
print(f"N = {N}, k = {k}, eta = {eta}: weight of each surviving photon number T")
for t, block in enumerate(blocks):
    print(f"  T = {t}: {block.trace().real:.6f}")
trace = sum(block.trace().real for block in blocks)
# Tr rho^2 = sum_T sum_ij |rho_T[i, j]|^2, since each block is Hermitian
purity = sum(np.sum(np.abs(block) ** 2) for block in blocks)
print(f"trace = {trace:.15f}, purity = {purity:.6f}")

# ----------------------------------------------------------------------
# Scaling of the loss-optimized two-branch probe: quadratic at eta = 1,
# linear at eta = 0.9.

print("\nmax-over-k Fisher information (chi = 1e-8):")
ns = list(range(20, 101, 20))
for eta in (1.0, 0.9):
    values = [max_qfi_over_k(n, eta, 1e-8)[1] for n in ns]
    slope = np.polyfit(np.log(ns), np.log(values), 1)[0]
    row = "  ".join(f"{v:10.1f}" for v in values)
    print(f"  eta = {eta}:  {row}   log-log slope = {slope:.3f}")
print("  N        " + "  ".join(f"{n:10d}" for n in ns))
