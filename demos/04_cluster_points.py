"""Limit points, ideal cluster points, level sets, and convergence.

The 0/1 indicator of the powers of two is the guiding example: it clusters
at both letters ordinarily, but modulo the density ideal only at 0 — so it
density-converges to 0 without converging.

Run:  python demos/04_cluster_points.py
"""

from fractions import Fraction

from idealconv import (AnalysisParams, RadiusSchedule, builtin,
                       gamma_estimate, ideal_convergence_check,
                       lambda_q_estimate, limit_points_estimate, u_frak,
                       zoo)
from idealconv.submeasure import RunningDensity

params = AnalysisParams(horizon=1 << 14)
Z = builtin("density-zero")


def show(label, report):
    pts = ", ".join(str(p[0]) for p in sorted(report.points()))
    print(f"{label:34s} {{{pts}}}")


x = zoo.char_powers2()
show("limit points of char:powers2", limit_points_estimate(x, params))
show("density clusters of char:powers2", gamma_estimate(x, Z, params))

y = zoo.char_evens()
show("density clusters of char:evens", gamma_estimate(y, Z, params))
show("quarter-level set of char:evens",
     lambda_q_estimate(y, Z, Fraction(1, 4), params))
show("quarter-level set of char:powers2",
     lambda_q_estimate(x, Z, Fraction(1, 4), params))

print("\nthe limiting norm behind the level sets:")
u = u_frak(y, (Fraction(1),), RunningDensity(), params)
print("  u(evens indicator at 1) =", u.value(), "(exact:", u.exact, ")")
u0 = u_frak(x, (Fraction(1),), RunningDensity(), params)
print("  u(powers indicator at 1) =", u0.value())

print("\ntwo-route convergence checks:")
for seq, handle, ell in ((x, Z, 0), (y, Z, 0), (zoo.harmonic(), Z, 0)):
    c = ideal_convergence_check(seq, handle, (Fraction(ell),), params)
    print(f"  {seq.name:14s} ->_{handle.name} {ell}: {c.verdict}"
          f"  (primary {c.primary}, cluster route {c.cross})")

print("\na dense sequence: every grid cell of [0,1] clusters")
rp = AnalysisParams(horizon=1 << 14, schedule=RadiusSchedule.dyadic(6),
                    pitch=Fraction(1, 64))
rep = gamma_estimate(zoo.rationals(), Z, rp)
print(f"  rationals: {len(rep.points())} of {len(rep.candidates)} cells"
      f" are density clusters")
