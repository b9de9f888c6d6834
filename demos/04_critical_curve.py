"""Trace the optimal-state and critical-state concurrence curves.

For each tilt: the entanglement of the state violating maximally (which drops
below maximal as soon as the tilt exceeds 1) and the largest entanglement that
can violate at all (the critical curve, defined past the maximally-entangled
cutoff), with its closed-form cap.  Run with:
python demos/04_critical_curve.py
"""

import math

import numpy as np

import bellbound as bb

cutoff = bb.TAU_MAXENT_CUTOFF
print(f"maximally-entangled cutoff tilt: {cutoff:.6f}")
print()
print(f"{'tilt':>7} {'S_q':>10} {'cap':>10} {'C(opt)':>8} {'C_cr':>8} {'C_cr cap':>9}")
for tau in np.linspace(1.0, 1.49, 8):
    t = float(tau)
    cap = bb.max_value_cap(t)
    if t >= cutoff:
        point = bb.critical_gamma(t)  # carries the optimum it started from
        optimum = point.optimum
        c_cr = f"{point.c_cr:8.5f}"
        c_cap = f"{bb.upper_bound_analytic(t):9.5f}"
    else:
        optimum = bb.global_max_violation(t)
        c_cr, c_cap = f"{'(all)':>8}", f"{'-':>9}"
    print(f"{t:7.4f} {optimum.s_q:10.6f} {cap:10.6f} "
          f"{math.sin(2.0 * optimum.gamma_star):8.5f} {c_cr} {c_cap}")

print()
print("The same curves are emitted as CSV by:  bellbound curves --grid 25 --output out/")
