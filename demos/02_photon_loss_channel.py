"""
Photon loss and the collapse of the quadratic advantage
=======================================================

Loss in each arm is modelled as a beam splitter with transmissivity eta
that leaks photons into an unmonitored mode.  The package provides two
independent routes to the lossy output state: the generic Kraus
composition and a closed form that sums the survival amplitudes of each
branch pair directly.  Loss commutes with the Kerr phase, so the closed
form is built once at phi = 0 and rotated to any phi.  They agree elementwise to near machine precision,
which is the main correctness check of the channel model.

Losing even 10% of the photons destroys the quadratic scaling of the
best two-branch probe: the maximized Fisher information grows only
linearly in N.
"""

import numpy as np

from kerrmet import (
    LossParams,
    NoonLikeSpec,
    PhasedFamily,
    apply_loss,
    apply_phase,
    max_qfi_over_k,
    superposition_state,
)

# ----------------------------------------------------------------------
# Closed form vs generic Kraus composition.

N, k, eta, phi, chi = 6, 1, 0.7, 0.4, 1e-2
family = PhasedFamily(NoonLikeSpec(N, k), chi=chi, eta=eta)
closed = family.rho(phi)
evolved = apply_phase(superposition_state(NoonLikeSpec(N, k), family.basis), phi, chi)
oracle = apply_loss(evolved.to_density(), LossParams.equal(eta))
gap = np.abs(closed.matrix - oracle.matrix).max()
print(f"closed form vs Kraus composition: max |difference| = {gap:.3e}")
print(f"trace = {closed.matrix.trace().real:.15f}, purity = {closed.purity():.6f}")

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
