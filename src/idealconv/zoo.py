"""Named sequences used throughout the tests, demos, and the command line.

Spec strings:

    char:evens          0/1 indicator of the even integers
    char:odds           0/1 indicator of the odd integers
    char:powers2        0/1 indicator of the powers of two
    charblocks:K        0/1 indicator of every K-th dyadic block [2^n, 2^(n+1))
    cycle:a,b,c         periodic sequence through the listed rationals
    const:v             constant sequence
    harmonic            x_n = 1/n
    rationals           a fixed enumeration of Q ∩ [0, 1] by denominator
    alphabet:<json>     letters plus symbolic index sets, fully custom
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import natset as ns
from .sequences import Alphabet, Point, SequenceSpec, as_point


def _char_sequence(name: str, one_on: ns.NatSet, zero_on: ns.NatSet) -> SequenceSpec:
    alpha = Alphabet(letters=[(Fraction(0),), (Fraction(1),)],
                     index_sets=[zero_on, one_on])
    def point(n: int) -> Point:
        m = one_on.member(n)
        if m is None:
            raise ns.HorizonExceeded(f"{name} undecided at {n}")
        return (Fraction(1),) if m else (Fraction(0),)
    return SequenceSpec(dim=1, bound=Fraction(1), point_fn=point,
                        alphabet=alpha, name=name)


def char_evens() -> SequenceSpec:
    return _char_sequence("char:evens", ns.Progression(2, 2), ns.Progression(1, 2))


def char_odds() -> SequenceSpec:
    return _char_sequence("char:odds", ns.Progression(1, 2), ns.Progression(2, 2))


def char_powers2() -> SequenceSpec:
    p = ns.PowersOf(2)
    return _char_sequence("char:powers2", p, ns.Complement(p))


def char_blocks(k: int) -> SequenceSpec:
    part = ns.partition_from_tag({"kind": "pow2"})
    ones = ns.BlockUnion(part, ns.Progression(k, k))
    zeros = ns.Union((
        ns.BlockUnion(part, ns.Complement(ns.Progression(k, k))),
        ns.Finite([1]),          # below the first block boundary
    )) if k > 1 else ns.Finite([1])
    return _char_sequence(f"charblocks:{k}", ones, zeros)


def cycle(values: list) -> SequenceSpec:
    pts = [as_point(Fraction(v)) for v in values]
    k = len(pts)
    if k < 1:
        raise ValueError("cycle needs at least one value")
    # identical values must share one index set to keep the partition exact
    distinct: list[Point] = []
    sets: list[list[int]] = []
    for i, p in enumerate(pts):
        if p in distinct:
            sets[distinct.index(p)].append(i + 1)
        else:
            distinct.append(p)
            sets.append([i + 1])
    index_sets = []
    for residues in sets:
        progs = [ns.Progression(r, k) for r in residues]
        index_sets.append(progs[0] if len(progs) == 1 else ns.Union(progs))
    bound = max(abs(c) for p in distinct for c in p)
    alpha = Alphabet(letters=distinct, index_sets=index_sets)
    return SequenceSpec(dim=1, bound=max(bound, Fraction(1)),
                        point_fn=lambda n: pts[(n - 1) % k], alphabet=alpha,
                        name="cycle:" + ",".join(str(p[0]) for p in pts))


def const(value) -> SequenceSpec:
    return cycle([value])


def harmonic() -> SequenceSpec:
    def point(n: int) -> Point:
        return (Fraction(1, n),)

    def ball(center: Point, eps: Fraction) -> ns.NatSet:
        # |1/n - c| < eps  <=>  1/(c + eps) < n < 1/(c - eps), where the
        # upper end applies only when c > eps: a tail or a finite interval
        c = center[0]
        if c + eps <= 0:
            return ns.EMPTY
        tail = ns.Progression(math.floor(1 / (c + eps)) + 1, 1)
        if c <= eps:
            return tail
        stop = math.ceil(1 / (c - eps))        # the least n past the interval
        if stop <= tail.first:
            return ns.EMPTY
        return ns.Intersection((tail, ns.Complement(ns.Progression(stop, 1))))

    def batch(horizon: int) -> np.ndarray:
        return 1.0 / np.arange(1, horizon + 1, dtype=np.float64)

    return SequenceSpec(dim=1, bound=Fraction(1), point_fn=point,
                        ball_fn=ball, batch_fn=batch, name="harmonic")


@lru_cache(maxsize=4)
def _rational_enum(count: int) -> tuple[np.ndarray, np.ndarray]:
    """First ``count`` rationals of [0, 1]: 0, 1, then by denominator."""
    nums = [np.array([0, 1], dtype=np.int64)]
    dens = [np.array([1, 1], dtype=np.int64)]
    total = 2
    d = 2
    while total < count:
        p = np.arange(1, d, dtype=np.int64)
        p = p[np.gcd(p, d) == 1]
        nums.append(p)
        dens.append(np.full(p.size, d, dtype=np.int64))
        total += p.size
        d += 1
    return np.concatenate(nums)[:count], np.concatenate(dens)[:count]


def rationals() -> SequenceSpec:
    def point(n: int) -> Point:
        num, den = _rational_enum(1 << max(12, n.bit_length()))
        return (Fraction(int(num[n - 1]), int(den[n - 1])),)

    def ball(center: Point, eps: Fraction) -> ns.NatSet:
        p0, q0 = center[0].numerator, center[0].denominator
        e1, e2 = eps.numerator, eps.denominator

        def inside(p, q):       # |p/q - p0/q0| < e1/e2, in integers
            return abs(p * q0 - p0 * q) * e2 < e1 * q * q0

        def bits(horizon: int) -> np.ndarray:
            num, den = _rational_enum(1 << max(12, horizon.bit_length()))
            p, q = num[:horizon], den[:horizon]
            # 0 <= p <= q <= q[-1] (denominators never decrease), which
            # bounds every product; past int64 compare in Python ints
            qmax = int(q[-1])
            if max(qmax * (abs(p0) + q0) * e2, e1 * qmax * q0) >= 1 << 63:
                p, q = p.astype(object), q.astype(object)
            return inside(p, q).astype(bool, copy=False)

        return ns.Tested(bits, lambda n: inside(*point(n)[0].as_integer_ratio()))

    def batch(horizon: int) -> np.ndarray:
        num, den = _rational_enum(1 << max(12, horizon.bit_length()))
        return num[:horizon] / den[:horizon]

    return SequenceSpec(dim=1, bound=Fraction(1), point_fn=point,
                        ball_fn=ball, batch_fn=batch, name="rationals")


def alphabet_from_json(body: dict) -> SequenceSpec:
    letters = []
    for entry in body["letters"]:
        if isinstance(entry, list):
            letters.append(tuple(Fraction(v) for v in entry))
        else:
            letters.append((Fraction(entry),))
    dims = {len(p) for p in letters}
    if len(dims) != 1:
        raise ValueError("letters must share one dimension")
    sets = [ns.from_json(s) for s in body["sets"]]
    alpha = Alphabet(letters=letters, index_sets=sets)
    bound = Fraction(body.get("bound", "1"))

    def point(n: int) -> Point:
        return letters[alpha.letter_index(n)]

    return SequenceSpec(dim=dims.pop(), bound=bound, point_fn=point,
                        alphabet=alpha, name=body.get("name", "alphabet"))


def get_sequence(spec: str) -> SequenceSpec:
    """Resolve a zoo spec string to a sequence."""
    spec = spec.strip()
    if spec == "char:evens":
        return char_evens()
    if spec == "char:odds":
        return char_odds()
    if spec == "char:powers2":
        return char_powers2()
    if spec.startswith("charblocks:"):
        return char_blocks(int(spec.split(":", 1)[1]))
    if spec.startswith("cycle:"):
        return cycle(spec.split(":", 1)[1].split(","))
    if spec.startswith("const:"):
        return const(spec.split(":", 1)[1])
    if spec == "harmonic":
        return harmonic()
    if spec == "rationals":
        return rationals()
    if spec.startswith("alphabet:"):
        return alphabet_from_json(json.loads(spec.split(":", 1)[1]))
    raise ValueError(f"unknown sequence spec {spec!r}")


ZOO_NAMES = ["char:evens", "char:odds", "char:powers2", "charblocks:K",
             "cycle:a,b,...", "const:v", "harmonic", "rationals",
             "alphabet:<json>"]
