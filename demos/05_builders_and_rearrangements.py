"""Constructive reindexings: cover witness blocks, add a cluster point,
or preserve the whole cluster set — with exact audits either way.

Run:  python demos/05_builders_and_rearrangements.py
"""

from fractions import Fraction

from idealconv import (AnalysisParams, PowersOf, Progression, RadiusSchedule,
                       build_witness, builtin, cluster_adding_sigma,
                       cluster_preserving_pi, cluster_preserving_sigma,
                       generic_permutation, generic_subsequence,
                       limit_witness_extraction, preimage, zoo)
from idealconv.natset import FULL
from idealconv.submeasure import RunningDensity
from idealconv.transforms import HypothesisFailed

Z = builtin("density-zero")
fin = builtin("fin")

print("== generic block covering ==")
w = build_witness(Z, Fraction(1, 2), 1 << 12)
res = generic_subsequence(PowersOf(2), w, FULL, 1 << 12)
print("blocks covered by a powers-of-two source:", res.covered_blocks())
print("map values at 1..6:", [res.map.value(n) for n in range(1, 7)])

print("\n== the neighbour swap falls out of the singleton witness ==")
wf = build_witness(fin, Fraction(1, 2), 512)
pi = generic_permutation(Progression(2, 2), wf, FULL, 64)
print("pi(1..8) =", [pi.map.value(n) for n in range(1, 9)])

print("\n== adding a cluster point ==")
params = AnalysisParams(horizon=1 << 12)
add = cluster_adding_sigma(zoo.char_powers2(), (Fraction(1),), Z, w, params)
pre = preimage(add.map, PowersOf(2), 1 << 12)
print("blocks routed into the powers:", len(add.blocks),
      "| certified targets:", {t.verdict for t in add.targets})
print("preimage now holds whole dyadic blocks -> density cluster at 1")

print("\n== preserving the cluster set ==")
w4 = build_witness(Z, Fraction(1, 4), 1 << 20)
keep = cluster_preserving_sigma(zoo.char_evens(), Z, w4,
                                AnalysisParams(horizon=1 << 14))
print("char:evens selector: preserved =", keep.gamma_preserved,
      "| blocks:", len(keep.blocks))
keep_pi = cluster_preserving_pi(
    zoo.char_evens(), Z, w4,
    AnalysisParams(horizon=1 << 14, schedule=RadiusSchedule.dyadic(6),
                   pitch=Fraction(1, 64)))
print("char:evens rearrangement: preserved =", keep_pi.gamma_preserved,
      "| payload blocks:", len(keep_pi.blocks))

try:
    cluster_preserving_sigma(zoo.char_powers2(), Z, w4,
                             AnalysisParams(horizon=1 << 14))
except HypothesisFailed as exc:
    print("char:powers2 refused (cluster set is a strict subset of the"
          " limit points):")
    print("   ", exc)

print("\n== greedy mass blocks inside shrinking neighborhoods ==")
cert = limit_witness_extraction(zoo.char_evens(), None, (Fraction(1),),
                                Fraction(1, 4), RunningDensity(),
                                AnalysisParams(horizon=1 << 14))
for k, members, mass, eps in cert.blocks[:4]:
    head = ", ".join(map(str, members[:4]))
    print(f"  level {k}: eps={eps}  mass={mass}  members=[{head}, ...]")
print("recomputed norm bound on the union:", cert.norm_lower_bound())
