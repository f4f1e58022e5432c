#!/usr/bin/env python3
"""Propagation bounds in the anisotropic XY chain.

The chain's Jordan-Wigner operators evolve through a one-particle block
Jacobi matrix. This script verifies the reduction to machine precision on a
small chain, evaluates the commutator lower and upper bounds that sandwich
the spin dynamics between one-particle propagator entries, and reports the
velocity lower bound together with a measured commutator light cone. The
upper bound's commutator norm is the largest singular value from a dense SVD;
the lower bound's is that of the commutator restricted to a Krylov space, a
lower bound of the norm for any Hamiltonian and the norm itself to roundoff
for this quadratic one. So each bound holds to roundoff.
"""

import numpy as np

from blochdyn.xychain import (
    SpinChain,
    XYChainSpec,
    free_fermion_residual,
    lr_velocity_bound,
    propagation_lower_bound,
    propagation_upper_bound,
)

spec = XYChainSpec(mu=[1.0], gamma=[0.5], nu=[1.0])
chain = SpinChain(spec, (1, 6))

print("== free-fermion reduction on 6 sites ==")
for t in (0.5, 1.0, 2.0):
    res = free_fermion_residual(chain, 3, t)
    print(f"t={t}: residual {res:.2e} (identity is exact; this is rounding)")

print("\n== commutator lower bounds: P_t >= |propagator entry| ==")
print("case   t     commutator   entry      slack")
for case in (1, 2, 3, 4):
    for t in (0.5, 1.0):
        chk = propagation_lower_bound(chain, 2, 4, t, case)
        print(f"{case}    {t:4.1f}  {chk.commutator:10.6f}  {chk.entry_abs:9.6f}"
              f"  {chk.commutator - chk.entry_abs:+.6f}")

print("\n== string-observable upper bounds ==")
for t in (0.5, 1.0, 2.0):
    chk = propagation_upper_bound(chain, 2, 5, t)
    print(f"t={t}: ||[tau_t(a_2), sigma^x_5]|| = {chk.lhs:.6f} <= {chk.rhs:.6f}")

v0 = lr_velocity_bound(spec)
print(f"\nvelocity lower bound from the one-particle bands: v0 = {v0:.6f}")
print("(any propagation bound for this chain needs velocity >= v0)")

print("\n== measured light cone on 8 sites (isotropic chain, v0 = 4) ==")
iso = XYChainSpec(mu=[1.0], gamma=[0.0], nu=[0.0])
chain8 = SpinChain(iso, (1, 8))
print("distance   first t with commutator >= 0.1")
for r in (4, 5, 6, 7):
    for t in np.arange(0.1, 3.01, 0.1):
        # case 1 is ||[tau_t(c_2), sigma^+_r]||
        if propagation_lower_bound(chain8, 2, r, t, 1).commutator >= 0.1:
            print(f"{r - 2:6d}     {t:.1f}")
            break
