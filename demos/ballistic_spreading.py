#!/usr/bin/env python3
"""Wave-packet spreading under periodic operators is ballistic.

Evolves a point mass, tracks position moments, estimates the transport
exponents, and checks the Hilbert-space form of the ballistic limit:
X(t) psi / t converges to the asymptotic velocity operator applied to psi.
"""

from blochdyn import (
    WavePacket,
    apply_q,
    build_operator,
    check_ballistic_limit,
    moment_trajectory,
    scalar_spec,
    transport_exponents,
)

psi = WavePacket.delta_scalar(0, 1)
times = [12.5, 25.0, 50.0, 100.0, 200.0]

for name, J, law in [
    ("free Laplacian", build_operator(scalar_spec([0.0])), "2 t^2 exactly"),
    ("period-2 chain", build_operator(scalar_spec([1.0, -1.0])), "c t^2 asymptotically"),
]:
    traj = moment_trajectory(J, psi, 2.0, times)
    est = transport_exponents(J, psi, 2.0, times)
    print(f"\n== {name}: second moment ({law}) ==")
    print("t        <|X|^2>       moment/t^2")
    for t, v in zip(traj.times, traj.values):
        print(f"{t:6.1f}  {v:12.4f}  {v / t**2:12.6f}")
    print(f"exponent estimates: beta- = {est.beta_minus_hat:.4f}, "
          f"beta+ = {est.beta_plus_hat:.4f} (ballistic = 1)")

print("\n== Hilbert-space ballistic limit, period-2 chain ==")
J = build_operator(scalar_spec([1.0, -1.0]))
qpsi = apply_q(J, psi, grid_size=512)
print(f"velocity operator applied to the point mass: norm {qpsi.packet.norm():.6f}, "
      f"quadrature error {qpsi.quadrature_error:.1e}")
errs = check_ballistic_limit(J, psi, [25.0, 50.0, 100.0, 200.0], grid_size=512)
print("t       ||X(t)psi/t - Q psi||")
for t, e in zip([25.0, 50.0, 100.0, 200.0], errs):
    print(f"{t:6.1f}  {e:.6f}")
print("errors shrink like 1/t: the packet rides the band velocities.")
