"""Symbolic subsets of N: exact membership, prefixes, counting, three values.

Run:  python demos/01_integer_set_algebra.py
"""

from idealconv import (BlockUnion, Cofinite, Complement, Finite,
                       Intersection, PowersOf, PrefixBitmap, Progression,
                       Union, partition_from_tag)

print("== leaves ==")
evens = Progression(2, 2)
powers = PowersOf(2)
print("evens ∋ 10:", evens.member(10))
print("powers of 2 ∋ 12:", powers.member(12))
print("evens count up to 100:", evens.count_up_to(100), "(closed form)")
print("powers count up to 1000:", powers.count_up_to(1000))

print("\n== boolean trees obey the algebra exactly ==")
odds = Complement(evens)
both = Union((evens, odds))
print("evens ∪ odds prefix(8):", both.prefix(8).astype(int).tolist())
lhs = Complement(Union((evens, powers)))
rhs = Intersection((Complement(evens), Complement(powers)))
print("De Morgan agree on [1, 64]:",
      (lhs.prefix(64) == rhs.prefix(64)).all())

print("\n== three-valued membership ==")
short = PrefixBitmap([1, 0, 1, 1])
print("bitmap ∋ 3:", short.member(3))
print("bitmap ∋ 9:", short.member(9), " (beyond its horizon: unknown)")

print("\n== block unions over an interval partition ==")
dyadic = partition_from_tag({"kind": "pow2"})       # blocks [2^n, 2^(n+1))
half = BlockUnion(dyadic, Progression(2, 2))
print("every second dyadic block, prefix(32):",
      half.prefix(32).astype(int).tolist())
print("certified infinite:", half.is_infinite())

print("\n== lossless JSON round trip ==")
expr = Union((Finite([3]), Intersection((Cofinite([7]), Progression(1, 3)))))
print(expr.dumps())
from idealconv.natset import loads
print("round trip equal:", loads(expr.dumps()).dumps() == expr.dumps())
