#!/usr/bin/env python3
"""Transfer-matrix diagnostics and a staged quasi-ballistic construction.

Shows the Lyapunov exponent on and off the spectrum, the agreement of the
transfer-matrix and density-of-states routes at complex energy, the
transport-criterion integral that separates ballistic from gapped energy
regions, and a three-stage nested-ball construction whose final potential
beats the moment-growth threshold at every certified time. Every ball has a
proved radius: the Duhamel bound ||psi_V(T) - psi_W(T)|| <= T ||V - W||_inf
turns the margin of the computed moments into a radius, with no sampling.
"""

import numpy as np

from blochdyn.limitperiodic import (
    dt_criterion,
    finite_lyapunov,
    generic_builder,
    growth_certificate,
    periodic_lyapunov,
    thouless_check,
)

print("== Lyapunov exponent of the free chain ==")
print("E       L(1000, E)   (0 on the spectrum [-2, 2], positive outside)")
energies = np.array([0.0, 1.0, 1.9, 2.1, 3.0, 4.0])
for E, L in zip(energies, finite_lyapunov(1000, energies, [0.0])):
    print(f"{E:4.1f}   {L:10.6f}")
print(f"exact asymptotic at E=3: {periodic_lyapunov(3.0, [0.0]):.6f} "
      f"= log((3+sqrt(5))/2) = {np.log((3 + np.sqrt(5)) / 2):.6f}")

print("\n== two routes to the exponent at complex energy ==")
for z, w in [(3.0j, [0.0]), (0.5 + 0.2j, [1.0, -1.0])]:
    res = thouless_check(z, w, grid_size=2048)
    print(f"period {len(w)}, z = {z}: transfer route {res.lhs:.8f}, "
          f"band-measure route {res.rhs:.8f}, gap {res.gap:.1e}")

print("\n== transport criterion integral ==")
free_val = dt_criterion([0.0], 0.0, 2.0, 100.0, 1.0)
gap_val = dt_criterion([3.0, -3.0], 1.0, 1.0, 100.0, 1.0)
print(f"free chain over [-2, 2]:      {free_val:.4f}   (order one: transport)")
print(f"gapped chain over [-1, 1]:    {gap_val:.2e}   (transfer matrices explode)")

print("\n== growth certificate for the zero potential ==")
cert = growth_certificate([0.0], 2.0, 1)
print(f"battery: {cert.battery}")
print(f"per-packet certified times: {cert.packet_times}")
print(f"overall time {cert.time}, proved perturbation radius {cert.radius:.6e}")

print("\n== three-stage nested construction ==")
con = generic_builder(3, 2.0, 1)
print("stage  period  proved radius  T     potential")
for rec in con.records:
    pot = np.array2string(rec.potential, precision=6)
    print(f"{rec.stage}      {rec.period}       {rec.delta:.6e}   {rec.time:5.1f}  {pot}")
print("verification with the final potential:")
for row in con.verification:
    print(f"stage {row.stage}: moment {row.worst_moment:.2f} > threshold "
          f"{row.threshold:.2f} at T = {row.time}: {row.ok}")
