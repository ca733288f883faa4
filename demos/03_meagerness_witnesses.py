"""Witness intervals: blocks that certify non-membership, and the
separating cutoff sets on the other side.

Run:  python demos/03_meagerness_witnesses.py
"""

from fractions import Fraction

from idealconv import (BlockUnion, Cofinite, DecisionParams, Finite, PowersOf,
                       Progression, build_witness, builtin, decide_membership,
                       fk_holds, verify_witness)

Z = builtin("density-zero")
w = build_witness(Z, Fraction(1, 2), 1 << 20)
print("density witness boundaries:", w.boundary_prefix(8))
print("rule:", w.rule, " certified block mass:", w.q0)

print("\nany set holding infinitely many blocks is out of the ideal:")
covered = BlockUnion(w, Progression(2, 2))
dec = decide_membership(Z, covered, DecisionParams(horizon=1 << 20))
print("  every-2nd-block union:", dec.verdict.value, "| basis:", dec.reason)

print("\nthe dual side: a set passes cutoff k when no block of index >= k"
      " fits inside it")
for s, label in ((Finite([1, 2, 3]), "{1,2,3}"), (PowersOf(2), "powers"),
                 (Cofinite([]), "all of N")):
    row = [fk_holds(w, s, k, 1 << 16) for k in (1, 2, 5)]
    print(f"  {label:8s} k=1,2,5 ->", row)

print("\nrandomized verification (block unions plus noise, and members):")
report = verify_witness(Z, w, trials=30, horizon=1 << 18, seed=11)
print("  samples all avoid In:", all(s.verdict.value != "in"
                                     for s in report.samples))
print("  smallest density estimate:", float(report.min_estimate))
print("  members pass a cutoff at k <=",
      max(m.first_k for m in report.members))
print("  cofinite sets fail every cutoff:", report.cofinite_all_fail)

fxf = builtin("fin-x-fin")
wx = build_witness(fxf, Fraction(1, 2), 10 ** 5)
print("\nproduct-ideal witness (row coverage):", wx.boundary_prefix(6))
print("block n spans every 2-adic valuation row up to n.")
