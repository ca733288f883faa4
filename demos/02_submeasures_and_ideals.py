"""Submeasures, limit norms, and three-valued ideal membership.

Every certificate is an exact rational; the numeric path is a tail-trend
estimate that refuses to guess.

Run:  python demos/02_submeasures_and_ideals.py
"""

from fractions import Fraction

from idealconv import (Cofinite, PowersOf, Progression, RunningDensity,
                       builtin, builtin_names, decide_membership,
                       norm_estimate, phi)
from idealconv.ideals import DecisionParams
from idealconv.submeasure import TREND_SLACK, classify_trend, default_cuts

rd = RunningDensity()
print("phi(evens, prefix 100) =", phi(rd, Progression(2, 2), 100))
print("phi(powers of 2, prefix 10^6) =", phi(rd, PowersOf(2), 10 ** 6))

print("\n== limit norms with trend diagnostics ==")
horizon = 1 << 20
for s, label in ((Progression(2, 2), "evens"), (PowersOf(2), "powers"),
                 (Cofinite([5]), "cofinite")):
    # corrected tail values past N/2, 3N/4 and 7N/8, as exact pairs
    [values] = norm_estimate(rd, s.prefix(horizon)[None], default_cuts(horizon))
    numeric = Fraction(*values[-1])
    print(f"{label:9s} exact={rd.exact_norm(s)}  numeric={float(numeric):.6f}  "
          f"trend={classify_trend(values, TREND_SLACK)}")

print("\n== membership in the built-in ideals ==")
Z = builtin("density-zero")
summ = builtin("summable")
fxf = builtin("fin-x-fin")
params = DecisionParams(horizon=1 << 17)
cases = [("powers of 2", PowersOf(2)), ("evens", Progression(2, 2)),
         ("odds", Progression(1, 2)), ("arithmetic 7 mod 5", Progression(7, 5))]
for label, s in cases:
    row = [f"{h.name}: {decide_membership(h, s, params).verdict.value}"
           for h in (Z, summ, fxf)]
    print(f"{label:18s} " + "   ".join(row))

print("\nbuilt-ins:", ", ".join(builtin_names()))
print("the product ideal has no submeasure capability:",
      builtin("fin-x-fin").lscsm is None)
