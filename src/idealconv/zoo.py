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
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence

from ._lazy import lazy_numpy
from . import natset as ns
from .sequences import Alphabet, Point, SequenceSpec, as_point

np = lazy_numpy()

# the values of harmonic and rationals, and so their limit points, lie in [0, 1]
UNIT_BOX = ((Fraction(0), Fraction(1)),)


def _char_sequence(name: str, one_on: ns.NatSet, zero_on: ns.NatSet) -> SequenceSpec:
    alpha = Alphabet(letters=[(Fraction(0),), (Fraction(1),)],
                     index_sets=[zero_on, one_on])
    def point(n: int) -> Point:
        m = one_on.member(n)
        if m is None:
            raise ns.HorizonExceeded(f"{name} undecided at {n}")
        return (Fraction(1),) if m else (Fraction(0),)
    return SequenceSpec(dim=1, point_fn=point, alphabet=alpha, name=name)


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
    alpha = Alphabet(letters=distinct, index_sets=index_sets)
    return SequenceSpec(dim=1, point_fn=lambda n: pts[(n - 1) % k],
                        alphabet=alpha,
                        name="cycle:" + ",".join(str(p[0]) for p in pts))


def const(value) -> SequenceSpec:
    return cycle([value])


def _harmonic_bounds(center: Point,
                     eps: Fraction) -> Optional[tuple[int, Optional[int]]]:
    """The ball {n : |1/n - c| < eps} as first <= n < stop (stop None: no
    upper end), or None when it is empty.

    |1/n - c| < eps  <=>  1/(c + eps) < n < 1/(c - eps), where the upper
    end applies only when c > eps: a tail or a finite interval.  With c =
    p/q and eps = e/d, c -+ eps = (p d -+ e q)/(q d)."""
    p, q = center[0].numerator, center[0].denominator
    e, d = eps.numerator, eps.denominator
    up, low, den = p * d + e * q, p * d - e * q, q * d
    if up <= 0:
        return None
    first = den // up + 1
    if low <= 0:
        return first, None
    stop = -(-den // low)                      # the least n past the interval
    return None if stop <= first else (first, stop)


def harmonic() -> SequenceSpec:
    def point(n: int) -> Point:
        return (Fraction(1, n),)

    def ball(center: Point, eps: Fraction) -> ns.NatSet:
        bounds = _harmonic_bounds(center, eps)
        if bounds is None:
            return ns.EMPTY
        first, stop = bounds
        tail = ns.Progression(first, 1)
        if stop is None:
            return tail
        return ns.Intersection((tail, ns.Complement(ns.Progression(stop, 1))))

    def rows(centers: Sequence[Point], eps: Fraction,
             idx: np.ndarray) -> np.ndarray:
        # each ball's bounds, clipped to the largest index read, so they
        # compare in int64; an empty ball is the empty range [1, 1)
        cap = int(idx.max()) + 1
        ends = np.ones((len(centers), 2), dtype=np.int64)
        for k, c in enumerate(centers):
            bounds = _harmonic_bounds(c, eps)
            if bounds is not None:
                first, stop = bounds
                ends[k] = (min(first, cap),
                           cap if stop is None else min(stop, cap))
        return (idx >= ends[:, :1]) & (idx < ends[:, 1:])

    return SequenceSpec(dim=1, point_fn=point, box=UNIT_BOX, ball_fn=ball,
                        rows_fn=rows, name="harmonic")


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


class _RationalEnum:
    """The enumeration as one ``rationals()`` sequence reads it: nothing is
    built before the first read, and a read past the end rebuilds it to the
    least power of 2 (at least 4096) not below the index, so a power-of-2
    horizon builds no more than it reads.  It lives as long as its
    sequence, so one command's enumeration serves no other."""

    nums = dens = ()

    def through(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The enumeration holding the first n rationals."""
        if len(self.nums) < n:
            self.nums, self.dens = _rational_enum(
                1 << max(12, (n - 1).bit_length()))
        return self.nums, self.dens


class _FareyBlocks:
    """The enumeration's blocks, one per denominator q >= 2: ``starts[q]``,
    the index of block q's first fraction, is 3 + the sum of phi(j) for 2 <=
    j < q (indices 1 and 2 are 0/1 and 1/1), and ``coprimes`` ranks a
    numerator inside its block.  Nothing is built before the first walk,
    and the table doubles as walks reach further."""

    def __init__(self):
        self.starts: list[int] = []
        self._signed: dict[int, list[int]] = {}

    def through(self, q: int, n: int = 0) -> list[int]:
        """The table, holding starts[q + 1] and some start past index n."""
        while len(self.starts) < q + 2 or self.starts[-1] <= n:
            qmax = max(64, 2 * len(self.starts))
            phi = list(range(qmax + 1))
            for p in range(2, qmax + 1):
                if phi[p] == p:                     # p is prime
                    for m in range(p, qmax + 1, p):
                        phi[m] -= phi[m] // p
            self.starts = [3, 3, *accumulate(phi[2:], initial=3)]
        return self.starts

    def coprimes(self, q: int, n: int) -> int:
        """How many p in [1, n] are coprime to q: the sum of mu(d) (n // d)
        over the squarefree divisors d of q, each kept as mu(d) d."""
        signed = self._signed.get(q)
        if signed is None:
            signed, m, f = [1], q, 2
            while f * f <= m:
                if m % f == 0:
                    signed += [-d * f for d in signed]
                    while m % f == 0:
                        m //= f
                f += 1
            if m > 1:
                signed += [-d * m for d in signed]
            self._signed[q] = signed
        return sum(n // d if d > 0 else -(n // -d) for d in signed)


def _inside(p, q, p0, q0, e1, e2):
    """|p/q - p0/q0| < e1/e2 in integers, for Python ints or broadcast
    arrays of them: the one exact test of a rationals ball."""
    return abs(p * q0 - p0 * q) * e2 < e1 * q * q0


def _rational_rows(enum: _RationalEnum, centers: Sequence[Point],
                   eps: Fraction, idx: np.ndarray) -> np.ndarray:
    """Row k, column j: whether the idx[j]-th rational of ``enum`` lies in
    the radius-eps ball around centers[k].  A centre whose products stay
    below 2^63 is tested in int64, with the others; past that, in Python
    ints."""
    nums, dens = enum.through(int(idx.max()))
    p, q = nums[idx - 1], dens[idx - 1]
    e1, e2 = eps.numerator, eps.denominator
    # 0 <= p <= q <= qmax bounds every product of the test
    qmax = int(q.max())
    ratios = [c[0].as_integer_ratio() for c in centers]
    small = [max(qmax * (abs(p0) + q0) * e2, e1 * qmax * q0) < 1 << 63
             for p0, q0 in ratios]
    out = np.empty((len(centers), idx.size), dtype=bool)
    for fits, dtype in ((True, np.int64), (False, object)):
        ks = [k for k, s in enumerate(small) if s is fits]
        if ks:
            p0, q0 = np.array([ratios[k] for k in ks],
                              dtype=dtype).T[:, :, None]
            out[ks] = _inside(p.astype(dtype, copy=False),
                              q.astype(dtype, copy=False), p0, q0, e1, e2)
    return out


def rationals() -> SequenceSpec:
    enum, farey = _RationalEnum(), _FareyBlocks()

    def point(n: int) -> Point:
        num, den = enum.through(n)
        return (Fraction(int(num[n - 1]), int(den[n - 1])),)

    def rows(centers: Sequence[Point], eps: Fraction,
             idx: np.ndarray) -> np.ndarray:
        return _rational_rows(enum, centers, eps, idx)

    def ball(center: Point, eps: Fraction) -> ns.NatSet:
        """The indices of the points in (a, b) = (c - eps, c + eps).

        Empty when b <= 0 or a >= 1; all of N but the ends 0/1 (index 1)
        and 1/1 (index 2) that (a, b) misses when it covers (0, 1);
        otherwise the exact integer test, with the certified natural
        density d = min(b, 1) - max(a, 0), where 0 < d < 1.  The density is
        a theorem, not an estimate, because Farey fractions are
        equidistributed (H. Niederreiter, "The distribution of Farey
        points", Math. Ann. 201 (1973); Hardy & Wright, Thm 330): block q
        of the enumeration holds the phi(q) reduced fractions p/q in (0, 1),
        of which d phi(q) + O(2^omega(q)) lie in (a, b).  Up to block Q
        there are Phi(Q) ~ 3 Q^2 / pi^2 indices, d Phi(Q) + O(Q log Q) of
        them in the ball, and a partial block adds at most Q = O(sqrt N)
        indices, so the count up to N is d N + o(N).
        """
        p0, q0 = center[0].numerator, center[0].denominator
        e1, e2 = eps.numerator, eps.denominator
        # (a, b) = (c - eps, c + eps) times den = q0 e2, clipped to [0, den]
        a, b, den = p0 * e2 - e1 * q0, p0 * e2 + e1 * q0, q0 * e2
        lo, hi = max(a, 0), min(b, den)
        if lo >= hi:
            return ns.EMPTY
        if hi - lo == den:
            return ns.Cofinite(([1] if a == 0 else [])
                               + ([2] if b == den else []))

        def inside(p, q):
            return _inside(p, q, p0, q0, e1, e2)

        def bits(horizon: int) -> np.ndarray:
            return rows((center,), eps,
                        np.arange(1, horizon + 1, dtype=np.int64))[0]

        def take(start: int, want: int, stop: Optional[int]) -> list[int]:
            """The members from ``start`` on, up to ``SCAN_LIMIT``, read Farey
            block by block: block q holds the reduced p/q with lo q < p den <
            hi q at consecutive indices, from its start plus the number of
            p' < p coprime to q for the least such p."""
            out: list[int] = []
            limit = ns.SCAN_LIMIT

            def done() -> bool:
                return len(out) >= want or (stop is not None and bool(out)
                                            and out[-1] > stop)

            for n, (p, q) in ((1, (0, 1)), (2, (1, 1))):
                if start <= n <= limit and not done() and inside(p, q):
                    out.append(n)
            if start > limit or done():
                return out
            starts = farey.through(2, start)
            q = max(2, bisect_right(starts, start) - 1)
            while True:
                if len(starts) < q + 2:
                    starts = farey.through(q)
                if starts[q] > limit:
                    return out
                pmin = max(1, lo * q // den + 1)
                pmax = min(q - 1, (hi * q - 1) // den)
                if pmin <= pmax and starts[q + 1] > start:
                    first = starts[q]
                    run = range(max(start, first + farey.coprimes(q, pmin - 1)),
                                min(limit + 1, first + farey.coprimes(q, pmax)))
                    need = want - len(out)
                    if stop is not None:
                        need = min(need, max(0, stop - run.start + 1) + 1)
                    out += run[:need]
                    if done():
                        return out
                q += 1

        return ns.Tested(bits, lambda n: inside(*point(n)[0].as_integer_ratio()),
                         density=Fraction(hi - lo, den), take=take)

    return SequenceSpec(dim=1, point_fn=point, box=UNIT_BOX, ball_fn=ball,
                        rows_fn=rows, name="rationals")


def alphabet_from_json(body: dict, horizon: int = 1 << 16) -> SequenceSpec:
    """Letters and their index sets from a JSON body.  The sets must
    partition N, which is checked here, before any analysis: for all of N
    where every letter has a periodic form, else over [1, horizon]."""
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
    alpha.validate_partition(horizon)

    def point(n: int) -> Point:
        return letters[alpha.letter_index(n)]

    return SequenceSpec(dim=dims.pop(), point_fn=point, alphabet=alpha,
                        name=body.get("name", "alphabet"))


def get_sequence(spec: str, horizon: int = 1 << 16) -> SequenceSpec:
    """Resolve a zoo spec string to a sequence.  The zoo's own alphabets
    partition N by construction; an ``alphabet:<json>`` one is checked up
    to ``horizon`` where its letters have no periodic form."""
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
        return alphabet_from_json(json.loads(spec.split(":", 1)[1]), horizon)
    raise ValueError(f"unknown sequence spec {spec!r}")
