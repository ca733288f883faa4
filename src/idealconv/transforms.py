"""Subsequence selectors, rearrangements, and the constructive builders.

Maps are finite tables with a declared tail rule.  The builders route fresh
members of target index sets into witness blocks: the generic builder covers
every selected block with one set, the cluster-adding builder drives one
point into the cluster set of the reindexed sequence, and the preserving
builders round-robin over a candidate family with radii that shrink along
the blocks.  Every builder returns its map together with an audit that
recomputes the claimed containments exactly.

Rearrangements route values the same way but must stay bijective: after a
payload block the displaced integers are flushed, in order, into the
following positions, and a payload is only accepted when its flush provably
completes inside the horizon, so every returned table is a permutation of
an initial segment.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import islice
from math import gcd
from operator import lt
from typing import Optional, Sequence, Union as TUnion

from ._lazy import lazy_numpy
from . import natset as ns
from . import submeasure as sm
from .ideals import DecisionParams, IdealHandle, Verdict, decide_membership
from .meager import WitnessIntervals, WitnessRefuted
from .sequences import (NOT_CLUSTER, AnalysisParams, Alphabet, Point,
                        SequenceSpec, as_point, distance, format_point,
                        gamma_estimate, indicator_set, limit_points_estimate)

np = lazy_numpy()


class ExhaustedA(Exception):
    """The source set ran out of usable members below the horizon."""


class NotALimitPoint(Exception):
    pass


class HypothesisFailed(Exception):
    """Cluster set differs from the limit-point set at this resolution."""


class BijectivityOverflow(Exception):
    pass


class MassUnavailable(Exception):
    def __init__(self, k: int, msg: str = ""):
        super().__init__(msg or f"no block of the requested mass at level {k}")
        self.k = k


# ---------------------------------------------------------------------------
# Maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailRule:
    kind: str            # "identity-shift" | "arith" | "none"
    param: int = 0

    def to_json(self) -> dict:
        return {"kind": self.kind, "param": self.param}


IDENTITY_TAIL = TailRule("identity-shift", 0)
NO_TAIL = TailRule("none")


def _int_list(table: Sequence[int]) -> list:
    """A map's table as a list; an array's entries become Python ints once
    here, so ``to_json`` copies the list as it is.  Arrays are known by
    their ``tolist``, which reads no attribute of the lazy numpy module."""
    return table.tolist() if hasattr(table, "tolist") else list(table)


class SubsequenceMap:
    """Strictly increasing reindexing: explicit prefix plus a tail rule."""

    def __init__(self, table: Sequence[int] = (), tail: TailRule = IDENTITY_TAIL,
                 horizon: Optional[int] = None):
        self.table = _int_list(table)
        self.tail = tail
        self.horizon = horizon
        m = len(self.table)
        if m and (self.table[0] < 1 or not all(
                map(lt, self.table, islice(self.table, 1, None)))):
            raise ValueError("table must be strictly increasing and >= 1")
        if m and tail.kind == "identity-shift":
            if m + 1 + tail.param <= int(self.table[-1]):
                raise ValueError("identity-shift tail clashes with the table")
        if tail.kind == "arith" and tail.param < 1:
            raise ValueError("arithmetic tail needs a positive step")

    def __len__(self) -> int:
        return len(self.table)

    def value(self, n: int) -> int:
        if n < 1:
            raise ValueError("positions start at 1")
        m = len(self.table)
        if n <= m:
            return int(self.table[n - 1])
        if self.horizon is not None and n > self.horizon:
            raise ns.HorizonExceeded(f"map valid up to {self.horizon}")
        if self.tail.kind == "identity-shift":
            return n + self.tail.param
        if self.tail.kind == "arith":
            anchor = int(self.table[-1]) if m else 0
            return anchor + self.tail.param * (n - m)
        raise ns.HorizonExceeded(f"map table ends at {m}")

    __call__ = value

    @cached_property
    def _array(self) -> np.ndarray:
        """The table's values below 2^62 (a prefix: the table increases) as
        one read-only int64 array, built on the first read."""
        arr = np.asarray(self.table[:bisect_left(self.table, 1 << 62)],
                         dtype=np.int64)
        arr.flags.writeable = False
        return arr

    def values_up_to(self, count: int):
        """Values at positions 1..count: an int64 array while they stay
        below 2^62, else a list of Python ints."""
        m = len(self.table)
        if m >= count:
            if 0 < count <= self._array.size:
                return self._array[:count]
            return self.table[:count]
        if self.horizon is not None and count > self.horizon:
            raise ns.HorizonExceeded(f"map valid up to {self.horizon}")
        if self.tail.kind == "none":
            raise ns.HorizonExceeded(f"map table ends at {m}")
        # the values increase, so the last one bounds them all
        if self.value(count) >= (1 << 62):
            return [self.value(n) for n in range(1, count + 1)]
        head = self._array
        tail_n = np.arange(m + 1, count + 1, dtype=np.int64)
        if self.tail.kind == "identity-shift":
            rest = tail_n + self.tail.param
        else:
            anchor = int(self.table[-1]) if m else 0
            rest = anchor + self.tail.param * (tail_n - m)
        return np.concatenate([head, rest])

    def affine(self) -> Optional[tuple[int, int]]:
        """(base, step) with value(n) = base + step * n, when that is exact."""
        if len(self.table) == 0:
            if self.tail.kind == "identity-shift":
                return (self.tail.param, 1)
            if self.tail.kind == "arith":
                return (0, self.tail.param)
        return None

    def to_json(self) -> dict:
        return {"type": "sigma",
                "table": list(self.table),
                "tail": self.tail.to_json(),
                "horizon": self.horizon}

    def __repr__(self) -> str:
        return (f"SubsequenceMap(len={len(self.table)}, tail={self.tail.kind}, "
                f"horizon={self.horizon})")


def identity_sigma() -> SubsequenceMap:
    return SubsequenceMap((), IDENTITY_TAIL)


class PermutationMap:
    """Bijective reindexing: a permutation of [1, m] plus an identity tail,
    or the named block rule swapping each odd/even pair."""

    def __init__(self, table: Sequence[int] = (), rule: Optional[str] = None,
                 horizon: Optional[int] = None):
        if rule is not None and rule != "odd-even-swap":
            raise ValueError(f"unknown permutation rule {rule!r}")
        self.rule = rule
        self.table = _int_list(table)
        self.horizon = horizon
        if rule is None and len(self.table):
            arr = self._array
            inverse = np.zeros(arr.size + 1, dtype=np.int64)
            if arr.min() < 1 or arr.max() != arr.size:
                raise ValueError("table must permute an initial segment")
            inverse[arr] = np.arange(1, arr.size + 1)
            if np.any(inverse[1:] == 0):
                raise ValueError("table is not a bijection")

    def __len__(self) -> int:
        return len(self.table)

    def value(self, n: int) -> int:
        if n < 1:
            raise ValueError("positions start at 1")
        if self.rule == "odd-even-swap":
            return n - 1 if n % 2 == 0 else n + 1
        if n <= len(self.table):
            return int(self.table[n - 1])
        return n

    __call__ = value

    @cached_property
    def _array(self) -> np.ndarray:
        """The table as one read-only int64 array, built on the first read."""
        arr = np.asarray(self.table, dtype=np.int64)
        arr.flags.writeable = False
        return arr

    def values_up_to(self, count: int) -> np.ndarray:
        if self.rule == "odd-even-swap":
            n = np.arange(1, count + 1, dtype=np.int64)
            out = n + 1
            out[1::2] = n[1::2] - 1
            return out
        m = len(self.table)
        if count <= m:
            return self._array[:count]
        return np.concatenate([self._array,
                               np.arange(m + 1, count + 1, dtype=np.int64)])

    def to_json(self) -> dict:
        return {"type": "pi",
                "rule": self.rule,
                "table": list(self.table),
                "horizon": self.horizon}

    def __repr__(self) -> str:
        return (f"PermutationMap(rule={self.rule}, len={len(self.table)}, "
                f"horizon={self.horizon})")


AnyMap = TUnion[SubsequenceMap, PermutationMap]


def odd_even_swap() -> PermutationMap:
    return PermutationMap(rule="odd-even-swap")


# ---------------------------------------------------------------------------
# apply and preimage
# ---------------------------------------------------------------------------

def preimage(t: AnyMap, s: ns.NatSet) -> ns.NatSet:
    """The index set {n : t(n) in s}: symbolic where the map's form allows,
    else tested lazily through the map's values (None past its table)."""
    sym = None
    if isinstance(t, SubsequenceMap):
        aff = t.affine()
        if aff == (0, 1):
            return s
        if aff is not None:
            sym = ns.map_leaves(s, partial(_affine_preimage, *aff))
    elif t.rule is None and len(t.table) == 0:
        return s
    elif t.rule == "odd-even-swap":
        sym = ns.map_leaves(s, _swap_preimage)
    if sym is not None:
        return sym
    return ns.Tested(lambda N: ns.prefix_gather(s, t.values_up_to(N)),
                     lambda n: s.member(t(n)))


def _affine_preimage(base: int, step: int,
                     s: ns.NatSet) -> Optional[ns.NatSet]:
    """{n >= 1 : base + step * n in s} for a finite, cofinite or
    progression leaf s."""
    if isinstance(s, ns.Finite):
        pre = [(v - base) // step for v in s.members
               if v > base and (v - base) % step == 0]
        return ns.Finite([n for n in pre if n >= 1])
    if isinstance(s, ns.Cofinite):
        pre = [(v - base) // step for v in s.excluded
               if v > base and (v - base) % step == 0]
        return ns.Cofinite([n for n in pre if n >= 1])
    if isinstance(s, ns.Progression):
        g = gcd(step, s.step)
        if (s.first - base) % g != 0:
            return ns.EMPTY
        # base + step * n hits s exactly for n = n0 (mod mod), n >= n_min
        mod = s.step // g
        n0 = (s.first - base) // g * pow(step // g, -1, mod) % mod
        n_min = max(1, -((base - s.first) // step))
        return ns.Progression(n_min + (n0 - n_min) % mod, mod)
    return None


def _swap_preimage(s: ns.NatSet) -> Optional[ns.NatSet]:
    """The odd-even swap's preimage of a finite, cofinite or parity leaf."""
    if isinstance(s, ns.Progression) and s.step == 2:
        if s.first == 1:
            return ns.Progression(2, 2)
        if s.first == 2:
            return ns.Progression(1, 2)
    if isinstance(s, ns.Finite):
        return ns.Finite([v + 1 if v % 2 else v - 1 for v in s.members])
    if isinstance(s, ns.Cofinite):
        return ns.Cofinite([v + 1 if v % 2 else v - 1 for v in s.excluded])
    return None


def apply(t: AnyMap, x: SequenceSpec) -> SequenceSpec:
    """The reindexed sequence; alphabet structure survives a symbolic
    preimage of every letter, else each ball is the preimage of x's ball.
    The image takes no value x does not take, so it keeps x's box; one that
    loses its alphabet takes the range of x's letters.

    Under a map read through its table (neither affine nor the odd-even
    swap) every such preimage is a ``Tested`` set, and the image's rows are
    x's rows at the map's values, where ``ns.prefix_gather`` would read one
    prefix of x's ball: int64 values up to max(SCAN_LIMIT, 4 * count).
    """
    alphabet = None
    if x.alphabet is not None:
        sets = [preimage(t, s) for s in x.alphabet.index_sets]
        if not any(isinstance(p, ns.Tested) for p in sets):
            alphabet = Alphabet(letters=list(x.alphabet.letters), index_sets=sets)

    def point(n: int) -> Point:
        return x.point(t.value(n))

    ball = rows = None
    box = x.box
    if alphabet is None:
        if box is None:
            box = [(min(c), max(c)) for c in zip(*x.alphabet.letters)]
        x_ball = x.ball_fn or (lambda center, eps:
                               indicator_set(x, center, eps))

        def ball(center: Point, eps: Fraction) -> ns.NatSet:
            return preimage(t, x_ball(center, eps))

        tested = (t.affine() is None if isinstance(t, SubsequenceMap)
                  else t.rule is None and len(t.table) > 0)
        if tested and x.rows_fn is not None:
            def rows(centers: Sequence[Point], eps: Fraction,
                     idx: np.ndarray) -> Optional[np.ndarray]:
                values = t.values_up_to(int(idx.max()))
                if (isinstance(values, list)
                        or values.max() > max(ns.SCAN_LIMIT, 4 * values.size)):
                    return None
                return x.rows_fn(centers, eps, values[idx - 1])

    kind = "sigma" if isinstance(t, SubsequenceMap) else "pi"
    return SequenceSpec(dim=x.dim, point_fn=point, alphabet=alphabet, box=box,
                        ball_fn=ball, rows_fn=rows,
                        tested_balls=rows is not None, name=f"{kind}({x.name})")


# ---------------------------------------------------------------------------
# Member supplies: increasing fresh members of an index set
# ---------------------------------------------------------------------------

class MemberSupply:
    """Stream of indices n with x_n inside a fixed ball, in increasing order:
    each call resumes the ball's member walk above its floor, or at the last
    member drawn when the floor falls below it."""

    def __init__(self, x: SequenceSpec, center: Point, eps: Fraction):
        self.ball = indicator_set(x, center, eps)
        self._last = 0

    def run(self, length: int, floor: int,
            stop: Optional[int] = None) -> list[int]:
        """The next ``length`` members above floor in one batched take,
        ending early after the first member past ``stop``; a walk that ends
        first raises ExhaustedA."""
        vals = ns.take_members(self.ball, max(floor + 1, self._last),
                               length, stop)
        if vals:
            self._last = vals[-1]
        if len(vals) < length and (stop is None or not vals
                                   or vals[-1] <= stop):
            raise ExhaustedA(f"supply exhausted after {self._last}")
        return vals


# ---------------------------------------------------------------------------
# Audit records
# ---------------------------------------------------------------------------

@dataclass
class BlockFill:
    block: int
    lo: int
    hi: int
    candidate: Optional[Point]
    radius_index: Optional[int]
    verified: bool
    source: Optional[ns.NatSet] = None    # the set the block was drawn from


@dataclass
class TargetCert:
    candidate: Point
    eps: Fraction
    certified_subset: Optional[dict]      # symbolic block-union, when available
    verdict: str                          # decision on the indicator set


@dataclass
class BuildResult:
    map: AnyMap
    blocks: list[BlockFill]
    targets: list[TargetCert] = field(default_factory=list)
    gamma_preserved: Optional[bool] = None
    meta: dict = field(default_factory=dict)

    def covered_blocks(self) -> list[int]:
        return [b.block for b in self.blocks if b.verified]

    def to_json(self) -> dict:
        return {
            "map": self.map.to_json(),
            "blocks": [{"block": b.block, "lo": b.lo, "hi": b.hi,
                        "candidate": None if b.candidate is None
                        else format_point(b.candidate),
                        "radius_index": b.radius_index,
                        "verified": b.verified} for b in self.blocks],
            "targets": [{"candidate": format_point(t.candidate),
                         "eps": str(t.eps),
                         "certified_subset": t.certified_subset,
                         "verdict": t.verdict} for t in self.targets],
            "gamma_preserved": self.gamma_preserved,
            "meta": self.meta,
        }


# ---------------------------------------------------------------------------
# Shared by the builders: routing, audit, the preserving hypothesis
# ---------------------------------------------------------------------------

class _Route:
    """Routing of the cluster builders: the j-th filled block draws from the
    ball around centre (j - 1) mod L at radius index min(ceil(j /
    per_level), K), whatever its block index k.

    The preserving builders route over their L candidates with per_level L,
    the adding builders around ell alone with per_level 2.  Each (centre,
    radius index) ball is built once, and a draw hands it back with its
    members, so each fill keeps the set it was drawn from.
    """

    def __init__(self, x: SequenceSpec, centres: list[Point],
                 schedule: list[Fraction], per_level: int):
        self.x, self.centres, self.schedule = x, centres, schedule
        self.per_level = per_level
        self._supplies: dict[tuple[int, int], MemberSupply] = {}

    def __call__(self, k: int, j: int, length: int, floor: int):
        i = (j - 1) % len(self.centres)
        m = min(-(-j // self.per_level), len(self.schedule))
        supply = self._supplies.get((i, m))
        if supply is None:
            supply = self._supplies[i, m] = MemberSupply(
                self.x, self.centres[i], self.schedule[m - 1])
        return supply.run(length, floor), self.centres[i], m, supply.ball

    def families(self, fills: list[BlockFill]):
        """(centre, eps_m, first, L) for each centre and each radius index m
        up to the highest it reached over ``fills``: the slots first,
        first + L, ... are routed to that centre at radius index m or finer.
        The sigma builders fill every block, so slot j is block j."""
        L, top = len(self.centres), _top_radius(fills)
        for i, centre in enumerate(self.centres):
            for m in range(1, top.get(centre, 0) + 1):
                # the least slot j = i + 1 (mod L) with ceil(j / per_level) >= m
                first = i + 1 + L * -((i - self.per_level * (m - 1)) // L)
                yield centre, self.schedule[m - 1], first, L


class _SetSupply:
    """Fresh members of a symbolic set, ascending, restartable by floor."""

    def __init__(self, a: ns.NatSet):
        self._set = a
        self._last = 0

    def draw_many(self, count: int, floor: int) -> list[int]:
        out = ns.take_members(self._set, max(self._last, floor) + 1, count)
        if out:
            self._last = out[-1]
        if len(out) < count:
            raise ExhaustedA(f"source exhausted after {self._last}")
        return out


def _selected(a: ns.NatSet, selector: ns.NatSet):
    """Routing of the generic builders: every block whose index lies in
    ``selector`` draws the next fresh members of ``a``; an undecided selector
    stops the build."""
    if a.is_infinite() is False:
        raise ExhaustedA("source set is finite")
    supply = _SetSupply(a)

    def draw(k: int, j: int, length: int, floor: int):
        sel = selector.member(k)
        if sel is None:
            raise ns.HorizonExceeded(f"selector undecided at block {k}")
        return (supply.draw_many(length, floor), None, None, a) if sel else None
    return draw


def _audit(t: AnyMap, fills: list[BlockFill]) -> None:
    """Exact containment check: each fill's table segment lies in the set it
    was drawn from, membership recomputed value by value.  Selector tables
    are gathered as Python ints (their values can pass int64, e.g. powers of
    2); permutation tables as int64.
    """
    dtype = object if isinstance(t, SubsequenceMap) else np.int64
    for f in fills:
        seg = np.asarray(t.table[f.lo - 1: f.hi - 1], dtype=dtype)
        f.verified = bool(np.all(ns.prefix_gather(f.source, seg)))
        if not f.verified:
            raise AssertionError(f"audit failed on block {f.block}")


def _preserving_candidates(x: SequenceSpec, handle: IdealHandle,
                           params: AnalysisParams):
    """The preserving builders' hypothesis (cluster set equal to the limit
    points at this resolution), their candidates (the cluster points), and
    ``gamma_preserved``: True when every grid candidate outside the cluster
    set has a ball certified finite (route ``infiniteness``), else None."""
    gset = set(gamma_estimate(x, handle, params, records=False).points())
    limits = limit_points_estimate(x, params)
    lset = set(limits.points())
    if gset != lset:
        raise HypothesisFailed(
            f"cluster set != limit points; limit points outside the cluster "
            f"set: {_named(lset - gset)}; cluster points outside the limit "
            f"points: {_named(gset - lset)}")
    preserved = all(
        any(r.verdict == NOT_CLUSTER and r.reason == "infiniteness"
            for r in c.radii)
        for c in limits.candidates if c.point not in lset) or None
    return sorted(gset), preserved


def _named(points: set) -> str:
    """The first 16 of ``points`` in order, as ``format_point`` writes them,
    then their count."""
    shown = ", ".join(map(format_point, sorted(points)[:16])) or "none"
    more = ", ..." if len(points) > 16 else ""
    return f"{shown}{more} ({len(points)} in all)"


def _top_radius(fills: list[BlockFill]) -> dict:
    """Each routed candidate's highest radius index over the fills."""
    top: dict = {}
    for f in fills:
        top[f.candidate] = max(top.get(f.candidate, 0), f.radius_index)
    return top


# ---------------------------------------------------------------------------
# The block filler: one table for subsequences and rearrangements
# ---------------------------------------------------------------------------

def _fill_table(w: WitnessIntervals, horizon: int, draw,
                bijective: bool) -> tuple[list[int], list[BlockFill]]:
    """Fill positions 1..horizon, routing witness blocks through ``draw``.

    A block is a payload candidate only when the cursor reaches its first
    position.  ``draw(k, j, block_len, frontier)`` returns (values,
    candidate, radius_index, source) for block k, the j-th block filled, the
    values strictly increasing, all above ``frontier`` (the largest value
    used so far) and drawn from ``source``, or None to leave the block to
    the filler.  Every other position takes the next value above the
    frontier.

    A subsequence skips the values a payload passes over, so every complete
    block is drawn at its start and every payload is accepted.  A
    permutation flushes them: the displaced integers below the new frontier
    follow the payload in ascending order, and a payload is accepted only
    if that flush ends inside the horizon, keeping the table a permutation
    of [1, horizon].
    """
    table: list[int] = []
    fills: list[BlockFill] = []
    frontier = 0            # the largest value used so far
    blocks = iter(w.blocks_within(horizon))
    nxt = next(blocks, None)
    p = 1
    while p <= horizon:
        # the first block whose start the cursor has not passed
        while nxt is not None and nxt[1] < p:
            nxt = next(blocks, None)
        if nxt is not None and nxt[1] == p:
            k, lo, hi = nxt
            spec = draw(k, len(fills) + 1, hi - lo, frontier)
            if spec is not None:
                drawn, candidate, radius_index, source = spec
                # test affordability before listing the displaced range:
                # drawn[-1] can be astronomically large for sparse sources
                flush_len = ((drawn[-1] - frontier) - (hi - lo)
                             if bijective else 0)
                if hi + flush_len - 1 <= horizon:
                    table.extend(drawn)
                    # the displaced values are the gaps between drawn ones
                    gaps = zip((frontier, *drawn), drawn) if bijective else ()
                    for a, b in gaps:
                        if b > a + 1:
                            table.extend(range(a + 1, b))
                    frontier = drawn[-1]
                    fills.append(BlockFill(k, lo, hi, candidate,
                                           radius_index, False, source))
                    p = hi + flush_len
                    continue
            # the cursor enters this block: frontier values up to the next one
            nxt = next(blocks, None)
        end = horizon + 1 if nxt is None else min(nxt[1], horizon + 1)
        table.extend(range(frontier + 1, frontier + 1 + end - p))
        frontier += end - p
        p = end
    return table, fills


def _filled_map(w: WitnessIntervals, horizon: int, draw,
                bijective: bool) -> tuple[AnyMap, list[BlockFill]]:
    """The audited map of ``_fill_table``'s table and its fills: a
    subsequence, or a permutation when the table permutes [1, horizon]."""
    table, fills = _fill_table(w, horizon, draw, bijective)
    if not bijective:
        t = SubsequenceMap(table, NO_TAIL, horizon=horizon)
    else:
        try:
            t = PermutationMap(table, horizon=horizon)
        except ValueError:
            t = None
        if t is None or len(table) != horizon:
            raise BijectivityOverflow("flush did not complete inside the horizon")
    _audit(t, fills)
    return t, fills


# ---------------------------------------------------------------------------
# Subsequence builders
# ---------------------------------------------------------------------------

def generic_subsequence(a: ns.NatSet, w: WitnessIntervals,
                        selector: ns.NatSet, horizon: int) -> BuildResult:
    """A strictly increasing map whose preimage of ``a`` contains every
    selected witness block inside the horizon.

    Selected block positions take the next fresh members of ``a``; positions
    between blocks take the smallest integers keeping strict monotonicity,
    so the output is canonical and the audit is a pure recomputation.
    """
    sigma, fills = _filled_map(w, horizon, _selected(a, selector), False)
    return BuildResult(sigma, fills,
                       meta={"kind": "generic-subsequence", "horizon": horizon})


def _certified_targets(handle: IdealHandle, w: WitnessIntervals,
                       x_new: SequenceSpec, horizon: int,
                       params: AnalysisParams, families) -> list[TargetCert]:
    """Per (candidate, radius) certificates for a block-filled map.

    Each of ``families`` (``_Route.families``) names the arithmetic family of
    blocks routed to a candidate at radii at least as fine as eps; the
    certified subset is the corresponding block union, which the ideal's
    witness rule decides NotIn, and which the audit has verified to sit
    inside the actual neighborhood indicator.
    """
    certs: list[TargetCert] = []
    for cand, eps, first_k, step_k in families:
        subset = ns.BlockUnion(w, ns.Progression(first_k, step_k))
        ind_bits = indicator_set(x_new, cand, eps)
        combined = ns.Union((subset, ind_bits)) if not isinstance(
            ind_bits, (ns.Cofinite,)) else ind_bits
        dec = decide_membership(handle, combined,
                                DecisionParams(horizon, params.theta))
        certs.append(TargetCert(cand, eps, subset.to_json(), dec.verdict.value))
        if dec.verdict is not Verdict.NOT_IN:
            raise AssertionError(
                f"certified subset for {format_point(cand)} at {eps} "
                f"did not decide NotIn")
    return certs


def cluster_adding_sigma(x: SequenceSpec, ell, handle: IdealHandle,
                         w: WitnessIntervals,
                         params: AnalysisParams) -> BuildResult:
    """Drive ``ell`` into the cluster set of the reindexed sequence.

    Witness block k is filled from the neighborhood of radius index
    ceil(k / 2) (clamped to the schedule), so every radius receives
    cofinally many blocks and each neighborhood indicator of the new
    sequence provably contains a block union outside the ideal.
    """
    ell = as_point(ell, x.dim)
    horizon = params.horizon
    route = _Route(x, [ell], list(params.schedule), 2)
    try:
        sigma, fills = _filled_map(w, horizon, route, False)
    except ExhaustedA:
        raise NotALimitPoint(f"{format_point(ell)} has too few close hits")
    targets = _certified_targets(handle, w, apply(sigma, x), horizon,
                                 params, route.families(fills))
    return BuildResult(sigma, fills, targets,
                       meta={"kind": "cluster-adding-sigma",
                             "ell": format_point(ell), "horizon": horizon})


def cluster_preserving_sigma(x: SequenceSpec, handle: IdealHandle,
                             w: WitnessIntervals,
                             params: AnalysisParams) -> BuildResult:
    """Round-robin diagonalization keeping the cluster set intact.

    Requires the cluster set to equal the limit-point set at this resolution;
    the blocks round-robin over the candidates with shrinking radii as
    ``_Route`` routes them (a subsequence fills every block, so block k is
    the k-th filled).  The targets certify the forward inclusion: each
    candidate's blocks give a NotIn subset of every neighborhood indicator.
    The reverse inclusion is the theorem's, with no reading of the image: a
    subsequence adds no limit point and every ideal holds fin, so a ball
    certified finite stays out of every image's cluster set.
    """
    horizon = params.horizon
    cands, preserved = _preserving_candidates(x, handle, params)
    if not cands:
        return BuildResult(identity_sigma(), [], meta={"kind": "trivial"})
    route = _Route(x, cands, list(params.schedule), len(cands))
    sigma, fills = _filled_map(w, horizon, route, False)
    targets = _certified_targets(handle, w, apply(sigma, x), horizon, params,
                                 route.families(fills))
    return BuildResult(sigma, fills, targets, gamma_preserved=preserved,
                       meta={"kind": "cluster-preserving-sigma",
                             "candidates": [format_point(c) for c in cands],
                             "horizon": horizon})


# ---------------------------------------------------------------------------
# Permutation builders: payload blocks plus displaced-value flushes
# ---------------------------------------------------------------------------

def generic_permutation(a: ns.NatSet, w: WitnessIntervals,
                        selector: ns.NatSet, horizon: int) -> BuildResult:
    """A permutation whose preimage of ``a`` contains the covered blocks.

    Covered blocks are the selected ones reachable with no flush backlog and
    an affordable flush; with a singleton witness and a co-infinite source
    this degenerates to the familiar neighbour-swap pattern.
    """
    pi, fills = _filled_map(w, horizon, _selected(a, selector), True)
    if not fills:
        raise BijectivityOverflow("no selected block could be covered")
    return BuildResult(pi, fills,
                       meta={"kind": "generic-permutation", "horizon": horizon})


def cluster_preserving_pi(x: SequenceSpec, handle: IdealHandle,
                          w: WitnessIntervals,
                          params: AnalysisParams) -> BuildResult:
    """Permutation analogue of the preserving builder.

    Payload blocks (in the order they become affordable) round-robin over the
    candidates with shrinking radii; displaced integers flush right after
    each payload.  The audit checks the payload containments exactly, and a
    payload for every candidate at every radius certifies the forward
    inclusion.  The reverse inclusion is the theorem's, as for subsequences:
    a permutation keeps the limit points, so the rearrangement is not read.
    """
    horizon = params.horizon
    cands, preserved = _preserving_candidates(x, handle, params)
    if not cands:
        return BuildResult(PermutationMap(), [], meta={"kind": "trivial"})
    schedule = list(params.schedule)
    route = _Route(x, cands, schedule, len(cands))
    pi, fills = _filled_map(w, horizon, route, True)
    # every candidate needs a payload at every radius level
    reached = _top_radius(fills)
    for cand in cands:
        top = reached.get(cand, 0)
        if top < len(schedule):
            raise ExhaustedA(
                f"candidate {format_point(cand)} only reached radius index "
                f"{top} of {len(schedule)} inside the horizon")
    return BuildResult(pi, fills, gamma_preserved=preserved,
                       meta={"kind": "cluster-preserving-pi",
                             "candidates": [format_point(c) for c in cands],
                             "horizon": horizon})


def cluster_adding_pi(x: SequenceSpec, ell, handle: IdealHandle,
                      w: WitnessIntervals, params: AnalysisParams) -> BuildResult:
    """Permutation that makes ``ell`` a cluster point of the rearrangement."""
    ell = as_point(ell, x.dim)
    horizon = params.horizon
    route = _Route(x, [ell], list(params.schedule), 2)
    try:
        pi, fills = _filled_map(w, horizon, route, True)
    except ExhaustedA:
        raise NotALimitPoint(f"{format_point(ell)} has too few close hits")
    if not fills:
        raise NotALimitPoint(f"no affordable payload for {format_point(ell)}")
    return BuildResult(pi, fills,
                       meta={"kind": "cluster-adding-pi",
                             "ell": format_point(ell), "horizon": horizon})


# ---------------------------------------------------------------------------
# Greedy mass extraction along shrinking radii
# ---------------------------------------------------------------------------

class _GreedyMass:
    """Incrementally collect members until phi of the batch reaches q."""

    def __init__(self, m: sm.Lscsm, q: Fraction):
        self.m = m
        self.q = q
        self.members: list[int] = []
        self._sum = Fraction(0)

    def add(self, v: int) -> bool:
        self.members.append(v)
        if isinstance(self.m, sm.RunningDensity):
            return Fraction(len(self.members), v) >= self.q
        if isinstance(self.m, sm.CountingCap):
            return Fraction(min(1, len(self.members))) >= self.q
        if isinstance(self.m, sm.WeightedSum):
            self._sum = min(self.m.cap, self._sum + self.m.weight(v))
            return self._sum >= self.q
        return self.m.phi_points(self.members) >= self.q


@dataclass
class ExtractionCertificate:
    tau: SubsequenceMap
    blocks: list[tuple[int, list[int], Fraction, Fraction]]  # (k, F_k, phi, eps)

    def norm_lower_bound(self) -> Fraction:
        return min(phi for _, _, phi, _ in self.blocks)

    def to_json(self) -> dict:
        return {"tau": self.tau.to_json(),
                "blocks": [{"k": k, "members": F, "phi": str(phi),
                            "eps": str(eps)}
                           for k, F, phi, eps in self.blocks]}


def limit_witness_extraction(x: SequenceSpec, sigma: Optional[SubsequenceMap],
                             ell, q: Fraction, m: sm.Lscsm,
                             params: AnalysisParams) -> ExtractionCertificate:
    """Greedy finite blocks of phi mass q inside shrinking neighborhoods.

    Block k is drawn from the indices hitting the radius-k neighborhood of
    ell (after reindexing by sigma), starts beyond the previous block, and
    stops as soon as its exact phi reaches q.  The enumeration of the union
    is the witness map; its certificate replays every inequality.
    """
    ell = as_point(ell, x.dim)
    q = Fraction(q)
    x_eff = apply(sigma, x) if sigma is not None else x
    blocks: list[tuple[int, list[int], Fraction, Fraction]] = []
    floor = 0
    for k, eps in enumerate(params.schedule, start=1):
        greedy = _GreedyMass(m, q)
        try:
            for v in ns.iter_members(indicator_set(x_eff, ell, eps), floor + 1):
                if v > params.horizon:
                    raise MassUnavailable(k)
                if greedy.add(v):
                    break
            else:
                raise MassUnavailable(k)
        except ns.HorizonExceeded:
            raise MassUnavailable(k)
        phi_val = m.phi_points(greedy.members)
        blocks.append((k, greedy.members, phi_val, eps))
        floor = greedy.members[-1]
    flat = [v for _, F, _, _ in blocks for v in F]
    tau = SubsequenceMap(flat, NO_TAIL, horizon=len(flat))
    # replay the certificate: separation, mass, and membership distances
    prev_max = 0
    for k, F, phi_val, eps in blocks:
        if not (F[0] > prev_max and phi_val >= q):
            raise WitnessRefuted(f"extraction block {k} overlaps its "
                                 f"predecessor or carries mass below {q}")
        prev_max = F[-1]
        for v in F:
            if not distance(x_eff.point(v), ell) < eps:
                raise WitnessRefuted(f"extraction block {k}: index {v} lies "
                                     f"outside the radius-{eps} ball")
    return ExtractionCertificate(tau, blocks)


# ---------------------------------------------------------------------------
# Seeded random maps (diagnostics only; outputs are labeled heuristic)
# ---------------------------------------------------------------------------

def random_sigma(seed: int, *, length: int = 256) -> SubsequenceMap:
    """Reproducible random strictly increasing map (table of given length)
    whose gaps are geometric with parameter 1/2."""
    rng = random.Random(("sigma", seed, "geometric:1/2", length).__repr__())
    table = []
    v = 0
    for _ in range(length):
        gap = 1
        while rng.random() > 0.5:
            gap += 1
        v += gap
        table.append(v)
    return SubsequenceMap(table, NO_TAIL, horizon=length)


def random_pi(seed: int, *, length: int = 256) -> PermutationMap:
    """Reproducible random bijection on [1, length] that shuffles each
    window of 16 positions."""
    rng = random.Random(("pi", seed, 16, length).__repr__())
    table: list[int] = []
    base = 0
    while base < length:
        w = min(16, length - base)
        chunk = list(range(base + 1, base + w + 1))
        rng.shuffle(chunk)
        table.extend(chunk)
        base += w
    return PermutationMap(table, horizon=length)
