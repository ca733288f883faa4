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
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterator, Optional, Sequence, Union as TUnion

import numpy as np

from . import natset as ns
from . import submeasure as sm
from .ideals import DecisionParams, IdealHandle, Verdict, decide_membership
from .meager import WitnessIntervals, WitnessRefuted
from .sequences import (AnalysisParams, Alphabet, Point, SequenceSpec,
                        as_point, distance, format_point, gamma_estimate,
                        indicator_set, limit_points_estimate, CLUSTER)


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

    @staticmethod
    def from_json(body: dict) -> "TailRule":
        return TailRule(body["kind"], body.get("param", 0))


IDENTITY_TAIL = TailRule("identity-shift", 0)
NO_TAIL = TailRule("none")


class SubsequenceMap:
    """Strictly increasing reindexing: explicit prefix plus a tail rule."""

    def __init__(self, table: Sequence[int] = (), tail: TailRule = IDENTITY_TAIL,
                 horizon: Optional[int] = None):
        self.table = list(table)
        self.tail = tail
        self.horizon = horizon
        m = len(self.table)
        last = 0
        for v in self.table:
            if v <= last:
                raise ValueError("table must be strictly increasing and >= 1")
            last = v
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

    def values_up_to(self, count: int):
        """Values at positions 1..count; int64 array unless entries overflow."""
        m = len(self.table)
        if m >= count:
            head = self.table[:count]
            if head and head[-1] < (1 << 62):
                return np.asarray(head, dtype=np.int64)
            return list(head)
        if self.horizon is not None and count > self.horizon:
            raise ns.HorizonExceeded(f"map valid up to {self.horizon}")
        if self.tail.kind == "none":
            raise ns.HorizonExceeded(f"map table ends at {m}")
        if m and self.table[-1] >= (1 << 62):
            return [self.value(n) for n in range(1, count + 1)]
        head = np.asarray(self.table, dtype=np.int64)
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
                "table": [int(v) for v in self.table],
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
        self.table = list(table)
        self.horizon = horizon
        if rule is None and len(self.table):
            arr = np.asarray(self.table, dtype=np.int64)
            inverse = np.zeros(arr.size + 1, dtype=np.int64)
            if arr.min() < 1 or arr.max() != arr.size:
                raise ValueError("table must permute an initial segment")
            inverse[arr] = np.arange(1, arr.size + 1)
            if np.any(inverse[1:] == 0):
                raise ValueError("table is not a bijection")
            self._inverse = inverse
        else:
            self._inverse = None

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

    def inverse_value(self, v: int) -> int:
        if self.rule == "odd-even-swap":
            return self.value(v)
        if v <= len(self.table):
            return int(self._inverse[v])
        return v

    def values_up_to(self, count: int) -> np.ndarray:
        n = np.arange(1, count + 1, dtype=np.int64)
        if self.rule == "odd-even-swap":
            out = n + 1
            out[1::2] = n[1::2] - 1
            return out
        m = len(self.table)
        head = np.asarray(self.table[:min(m, count)], dtype=np.int64)
        return np.concatenate([head, n[m:]]) if count > m else head

    def to_json(self) -> dict:
        return {"type": "pi",
                "rule": self.rule,
                "table": [int(v) for v in self.table],
                "horizon": self.horizon}

    def __repr__(self) -> str:
        return (f"PermutationMap(rule={self.rule}, len={len(self.table)}, "
                f"horizon={self.horizon})")


AnyMap = TUnion[SubsequenceMap, PermutationMap]


def map_from_json(body: dict) -> AnyMap:
    if body["type"] == "sigma":
        return SubsequenceMap(body["table"], TailRule.from_json(body["tail"]),
                              body.get("horizon"))
    return PermutationMap(body["table"], body.get("rule"), body.get("horizon"))


def odd_even_swap() -> PermutationMap:
    return PermutationMap(rule="odd-even-swap")


# ---------------------------------------------------------------------------
# apply and preimage
# ---------------------------------------------------------------------------

def preimage(t: AnyMap, s: ns.NatSet) -> ns.NatSet:
    """The index set {n : t(n) in s}: symbolic where the map's form allows,
    else tested lazily through the map's values (None past its table)."""
    if isinstance(t, SubsequenceMap):
        aff = t.affine()
        if aff == (0, 1):
            return s
        if aff is not None:
            sym = _affine_preimage(aff, s)
            if sym is not None:
                return sym
    if isinstance(t, PermutationMap):
        if t.rule is None and len(t.table) == 0:
            return s
        if t.rule == "odd-even-swap":
            sym = _swap_preimage(s)
            if sym is not None:
                return sym
    return ns.Tested(lambda N: ns.prefix_gather(s, t.values_up_to(N)),
                     lambda n: s.member(t(n)))


def _affine_preimage(aff: tuple[int, int], s: ns.NatSet) -> Optional[ns.NatSet]:
    base, step = aff
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
        mod = s.step // g
        inv = pow(step // g, -1, mod) if mod > 1 else 0
        n0 = (((s.first - base) // g) * inv) % mod if mod > 1 else 1
        if n0 == 0:
            n0 = mod
        n_min = max(1, -((base - s.first) // step))
        while n_min * step + base < s.first:
            n_min += 1
        first = n0 if mod > 1 else n_min
        if mod > 1:
            while first < n_min:
                first += mod
        return ns.Progression(first, mod if mod > 1 else 1)
    if isinstance(s, ns.Union):
        parts = [_affine_preimage(aff, p) for p in s.parts]
        if any(p is None for p in parts):
            return None
        return ns.Union(tuple(parts))
    if isinstance(s, ns.Intersection):
        parts = [_affine_preimage(aff, p) for p in s.parts]
        if any(p is None for p in parts):
            return None
        return ns.Intersection(tuple(parts))
    if isinstance(s, ns.Complement):
        inner = _affine_preimage(aff, s.part)
        return None if inner is None else ns.Complement(inner)
    return None


def _swap_preimage(s: ns.NatSet) -> Optional[ns.NatSet]:
    if isinstance(s, ns.Progression) and s.step == 2:
        if s.first == 1:
            return ns.Progression(2, 2)
        if s.first == 2:
            return ns.Progression(1, 2)
    if isinstance(s, ns.Finite):
        return ns.Finite([v + 1 if v % 2 else v - 1 for v in s.members])
    if isinstance(s, ns.Cofinite):
        return ns.Cofinite([v + 1 if v % 2 else v - 1 for v in s.excluded])
    if isinstance(s, ns.Union):
        parts = [_swap_preimage(p) for p in s.parts]
        return None if any(p is None for p in parts) else ns.Union(tuple(parts))
    if isinstance(s, ns.Complement):
        inner = _swap_preimage(s.part)
        return None if inner is None else ns.Complement(inner)
    return None


def apply(t: AnyMap, x: SequenceSpec) -> SequenceSpec:
    """The reindexed sequence; alphabet structure survives a symbolic
    preimage of every letter, else each ball is the preimage of x's ball."""
    alphabet = None
    if x.alphabet is not None:
        sets = [preimage(t, s) for s in x.alphabet.index_sets]
        if not any(isinstance(p, ns.Tested) for p in sets):
            alphabet = Alphabet(letters=list(x.alphabet.letters), index_sets=sets)

    def point(n: int) -> Point:
        return x.point(t.value(n))

    ball = None
    batch = None
    if alphabet is None:
        def ball(center: Point, eps: Fraction) -> ns.NatSet:
            return preimage(t, indicator_set(x, center, eps))
        if x.batch_fn is not None:
            def batch(N: int) -> np.ndarray:
                values = t.values_up_to(N)
                return np.asarray(x.batch_fn(int(values.max())))[values - 1]

    kind = "sigma" if isinstance(t, SubsequenceMap) else "pi"
    return SequenceSpec(dim=x.dim, bound=x.bound, point_fn=point,
                        alphabet=alphabet, ball_fn=ball, batch_fn=batch,
                        name=f"{kind}({x.name})")


# ---------------------------------------------------------------------------
# Member supplies: increasing fresh members of an index set
# ---------------------------------------------------------------------------

class MemberSupply:
    """Stream of indices n with x_n inside a fixed ball, in increasing order."""

    def __init__(self, x: SequenceSpec, center: Point, eps: Fraction,
                 scan_limit: int = 1 << 24):
        self.x = x
        self.center = as_point(center, x.dim)
        self.eps = Fraction(eps)
        self.scan_limit = scan_limit
        self._iter: Optional[Iterator[int]] = None
        self._last = 0
        if x.alphabet is not None:
            self._iter = ns.iter_members(
                indicator_set(x, self.center, self.eps), 1)
        else:
            self._bits = np.zeros(0, dtype=bool)
            self._pos = 0

    def next_after(self, floor: int) -> int:
        """Least member strictly greater than floor (monotone floors only)."""
        if self._iter is not None:
            v = self._last
            while v <= floor:
                try:
                    v = next(self._iter)
                except (StopIteration, ns.HorizonExceeded):
                    raise ExhaustedA(f"supply exhausted after {self._last}")
            self._last = v
            return v
        pos = max(self._pos, floor)
        while True:
            if pos >= self._bits.size:
                new_size = max(1 << 12, 2 * self._bits.size, pos + 1)
                if new_size > self.scan_limit:
                    raise ExhaustedA(f"supply scan limit {self.scan_limit} hit")
                self._bits = self.x.hit_bits(self.center, self.eps, new_size)
            # argmax stops at the first hit, so a call reads only the bits
            # up to the member it returns (or, finding none, to the end)
            i = pos + int(np.argmax(self._bits[pos:]))
            if self._bits[i]:
                self._pos = i + 1
                return self._pos
            pos = self._bits.size


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

def _draw_run(supply: MemberSupply, length: int, floor: int) -> list[int]:
    """The next ``length`` members of ``supply``, each above the one before,
    the first above ``floor``."""
    out: list[int] = []
    for _ in range(length):
        floor = supply.next_after(floor)
        out.append(floor)
    return out


def _round_robin(x: SequenceSpec, cands: list[Point], schedule: list[Fraction]):
    """Routing of the preserving builders: slot j draws from the ball around
    candidate (j - 1) mod L at radius index min(ceil(j / L), K)."""
    L, K = len(cands), len(schedule)
    supplies: dict[tuple[int, int], MemberSupply] = {}

    def draw(j: int, length: int, floor: int):
        key = ((j - 1) % L, min((j + L - 1) // L, K))
        if key not in supplies:
            supplies[key] = MemberSupply(x, cands[key[0]], schedule[key[1] - 1])
        return _draw_run(supplies[key], length, floor), cands[key[0]], key[1]
    return draw


def _toward_ell(x: SequenceSpec, ell: Point, schedule: list[Fraction]):
    """Routing of the adding builders: slot j draws from the ball around ell
    at radius index min(ceil(j / 2), K)."""
    K = len(schedule)
    supplies: dict[int, MemberSupply] = {}

    def draw(j: int, length: int, floor: int):
        m_index = min((j + 1) // 2, K)
        if m_index not in supplies:
            supplies[m_index] = MemberSupply(x, ell, schedule[m_index - 1])
        try:
            return _draw_run(supplies[m_index], length, floor), ell, m_index
        except ExhaustedA:
            raise NotALimitPoint(f"{format_point(ell)} has too few close hits")
    return draw


class _SetSupply:
    """Fresh members of a symbolic set, ascending, restartable by floor."""

    def __init__(self, a: ns.NatSet):
        self._iter = ns.iter_members(a, 1)
        self._last = 0

    def draw_many(self, count: int, floor: int) -> list[int]:
        out: list[int] = []
        while len(out) < count:
            try:
                self._last = next(self._iter)
            except (StopIteration, ns.HorizonExceeded):
                raise ExhaustedA(f"source exhausted after {self._last}")
            if self._last > floor:
                out.append(self._last)
        return out


def _selected(a: ns.NatSet, selector: ns.NatSet):
    """Routing of the generic builders: every block whose index lies in
    ``selector`` draws the next fresh members of ``a``; an undecided selector
    stops the build."""
    if a.is_infinite() is False:
        raise ExhaustedA("source set is finite")
    supply = _SetSupply(a)

    def draw(k: int, length: int, floor: int):
        sel = selector.member(k)
        if sel is None:
            raise ns.HorizonExceeded(f"selector undecided at block {k}")
        return (supply.draw_many(length, floor), None, None) if sel else None
    return draw


def _audit(t: AnyMap, fills: list[BlockFill], target) -> None:
    """Exact containment check: each fill's table segment lies in
    ``target(fill)``.  Selector tables are gathered as Python ints (their
    values can pass int64, e.g. powers of 2); permutation tables as int64.
    """
    dtype = object if isinstance(t, SubsequenceMap) else np.int64
    for f in fills:
        seg = np.asarray(t.table[f.lo - 1: f.hi - 1], dtype=dtype)
        f.verified = bool(np.all(ns.prefix_gather(target(f), seg)))
        if not f.verified:
            raise AssertionError(f"audit failed on block {f.block}")


def _ball(x: SequenceSpec, schedule: list[Fraction]):
    """Audit target of the cluster builders: the neighbourhood a fill was
    routed to."""
    return lambda f: indicator_set(x, f.candidate,
                                   schedule[f.radius_index - 1])


def _preserving_candidates(x: SequenceSpec, handle: IdealHandle,
                           params: AnalysisParams,
                           candidates: Optional[Sequence]):
    """The preserving builders' hypothesis (cluster set equal to the limit
    points at this resolution) and their candidate list."""
    gamma = gamma_estimate(x, handle, params)
    limits = limit_points_estimate(x, params)
    gset, lset = set(gamma.points()), set(limits.points())
    if gset != lset:
        raise HypothesisFailed(
            f"cluster set {sorted(gset)} != limit points {sorted(lset)}")
    cands = ([as_point(c, x.dim) for c in candidates]
             if candidates is not None else sorted(gset))
    return gamma, gset, cands


def _no_new_cluster(x_new: SequenceSpec, handle: IdealHandle,
                    params: AnalysisParams, gamma, gset: set) -> bool:
    """Reverse inclusion: no candidate outside the original cluster set is a
    cluster point of the reindexed sequence."""
    outside = [c.point for c in gamma.candidates if c.point not in gset]
    if not outside:
        return True
    gamma_out = gamma_estimate(x_new, handle, params, candidates=outside)
    return all(c.classification != CLUSTER for c in gamma_out.candidates)


# ---------------------------------------------------------------------------
# Block-filling subsequence builders
# ---------------------------------------------------------------------------

def _fill_sigma_table(w: WitnessIntervals, horizon: int, draw) -> tuple[
        list[int], list[BlockFill]]:
    """Fill positions 1..horizon, routing witness blocks through ``draw``.

    ``draw(k, block_len, floor)`` returns (values, candidate, radius_index)
    for block k, values increasing and above ``floor``, or None to leave the
    block to the filler.  Every other position takes the smallest value
    keeping strict monotonicity.
    """
    table: list[int] = []
    fills: list[BlockFill] = []

    def fill_to(n: int) -> None:
        prev = table[-1] if table else 0
        table.extend(range(prev + 1, prev + 1 + n - len(table)))

    for k, lo, hi in w.blocks_within(horizon):
        fill_to(lo - 1)
        spec = draw(k, hi - lo, table[-1] if table else 0)
        if spec is not None:
            table.extend(spec[0])
            fills.append(BlockFill(k, lo, hi, spec[1], spec[2], False))
    fill_to(horizon)
    return table, fills


def generic_subsequence(a: ns.NatSet, w: WitnessIntervals,
                        selector: ns.NatSet, horizon: int) -> BuildResult:
    """A strictly increasing map whose preimage of ``a`` contains every
    selected witness block inside the horizon.

    Selected block positions take the next fresh members of ``a``; positions
    between blocks take the smallest integers keeping strict monotonicity,
    so the output is canonical and the audit is a pure recomputation.
    """
    table, fills = _fill_sigma_table(w, horizon, _selected(a, selector))
    sigma = SubsequenceMap(table, NO_TAIL, horizon=horizon)
    _audit(sigma, fills, lambda f: a)
    return BuildResult(sigma, fills,
                       meta={"kind": "generic-subsequence", "horizon": horizon})


def _certified_targets(handle: IdealHandle, w: WitnessIntervals,
                       x_new: SequenceSpec, horizon: int,
                       assignment) -> list[TargetCert]:
    """Per (candidate, radius) certificates for a block-filled map.

    ``assignment(candidate, radius_index)`` names the arithmetic family of
    blocks routed to that candidate at radii at least as fine; the certified
    subset is the corresponding block union, which the ideal's witness rule
    decides NotIn, and which the audit has verified to sit inside the actual
    neighborhood indicator.
    """
    certs: list[TargetCert] = []
    for cand, m_index, eps, first_k, step_k in assignment:
        subset = ns.BlockUnion(w, ns.Progression(first_k, step_k))
        ind_bits = indicator_set(x_new, cand, eps)
        combined = ns.Union((subset, ind_bits)) if not isinstance(
            ind_bits, (ns.Cofinite,)) else ind_bits
        dec = decide_membership(handle, combined,
                                DecisionParams(horizon=horizon))
        certs.append(TargetCert(cand, eps, subset.to_json(), dec.verdict.value))
        if dec.verdict is not Verdict.NOT_IN:
            raise AssertionError(
                f"certified subset for {format_point(cand)} at {eps} "
                f"did not decide NotIn")
    return certs


def cluster_adding_sigma(x: SequenceSpec, ell, handle: IdealHandle,
                         w: WitnessIntervals, params: AnalysisParams,
                         horizon: Optional[int] = None) -> BuildResult:
    """Drive ``ell`` into the cluster set of the reindexed sequence.

    Witness block k is filled from the neighborhood of radius index
    ceil(k / 2) (clamped to the schedule), so every radius receives
    cofinally many blocks and each neighborhood indicator of the new
    sequence provably contains a block union outside the ideal.
    """
    ell = as_point(ell, x.dim)
    horizon = horizon or params.horizon
    schedule = list(params.schedule)
    table, fills = _fill_sigma_table(w, horizon, _toward_ell(x, ell, schedule))
    sigma = SubsequenceMap(table, NO_TAIL, horizon=horizon)
    _audit(sigma, fills, _ball(x, schedule))
    # for radius index m the blocks k >= 2m - 1 all use radii <= eps_m
    assignment = [(ell, m, schedule[m - 1], 2 * m - 1, 1)
                  for m in range(1, len(schedule) + 1)
                  if any(f.radius_index >= m for f in fills)]
    targets = _certified_targets(handle, w, apply(sigma, x), horizon,
                                 assignment)
    return BuildResult(sigma, fills, targets,
                       meta={"kind": "cluster-adding-sigma",
                             "ell": format_point(ell), "horizon": horizon})


def cluster_preserving_sigma(x: SequenceSpec, handle: IdealHandle,
                             w: WitnessIntervals, params: AnalysisParams,
                             candidates: Optional[Sequence] = None,
                             horizon: Optional[int] = None) -> BuildResult:
    """Round-robin diagonalization keeping the cluster set intact.

    Requires the cluster set to equal the limit-point set at this resolution;
    block k goes to candidate k mod |L| at radius index ceil(k / |L|).  The
    audit certifies both inclusions: each candidate's blocks give a NotIn
    subset of every neighborhood indicator, and the reindexed sequence grows
    no new cluster candidates at the grid resolution.
    """
    horizon = horizon or params.horizon
    gamma, gset, cands = _preserving_candidates(x, handle, params, candidates)
    if not cands:
        return BuildResult(identity_sigma(), [], meta={"kind": "trivial"})
    L = len(cands)
    schedule = list(params.schedule)
    table, fills = _fill_sigma_table(w, horizon,
                                     _round_robin(x, cands, schedule))
    sigma = SubsequenceMap(table, NO_TAIL, horizon=horizon)
    x_new = apply(sigma, x)
    _audit(sigma, fills, _ball(x, schedule))

    assignment = []
    for ci, cand in enumerate(cands):
        for m in range(1, len(schedule) + 1):
            # candidate ci's blocks are k = ci + 1, ci + 1 + L, ...;
            # radii reach index m from block L (m - 1) + 1 onward
            first = ci + 1
            while (first + L - 1) // L < m:
                first += L
            if any(f.candidate == cand and f.radius_index >= m for f in fills):
                assignment.append((cand, m, schedule[m - 1], first, L))
    targets = _certified_targets(handle, w, x_new, horizon, assignment)
    # forward inclusion is certified by the targets above
    return BuildResult(sigma, fills, targets,
                       gamma_preserved=_no_new_cluster(x_new, handle, params,
                                                       gamma, gset),
                       meta={"kind": "cluster-preserving-sigma",
                             "candidates": [format_point(c) for c in cands],
                             "horizon": horizon})


# ---------------------------------------------------------------------------
# Permutation builders: payload blocks plus displaced-value flushes
# ---------------------------------------------------------------------------

def _fill_pi_table(w: WitnessIntervals, horizon: int, draw) -> tuple[
        list[int], list[BlockFill]]:
    """Bijective analogue of the block filler.

    A block is a payload candidate only when the cursor reaches its first
    position with no flush backlog.  ``draw(k, payload_index, block_len,
    frontier)`` returns (values, candidate, radius_index) for block k, the
    values strictly increasing and all above ``frontier``, or None to skip.
    After a payload the displaced integers below the new frontier are flushed
    in ascending order; a payload is accepted only if that flush ends inside
    the horizon, keeping the final table a permutation of [1, horizon].
    """
    table: list[int] = []
    fills: list[BlockFill] = []
    frontier = 0            # values used so far are exactly [1, frontier]
    blocks = iter(w.blocks_within(horizon))
    nxt = next(blocks, None)
    p = 1
    while p <= horizon:
        while nxt is not None and nxt[2] <= p:
            nxt = next(blocks, None)
        if nxt is not None and nxt[1] == p:
            k, lo, hi = nxt
            spec = draw(k, len(fills) + 1, hi - lo, frontier)
            if spec is not None:
                drawn = spec[0]
                # test affordability before listing the displaced range:
                # drawn[-1] can be astronomically large for sparse sources
                flush_len = (drawn[-1] - frontier) - (hi - lo)
                if hi + flush_len - 1 <= horizon:
                    used = set(drawn)
                    table.extend(drawn)
                    table.extend(v for v in range(frontier + 1, drawn[-1])
                                 if v not in used)
                    frontier = drawn[-1]
                    fills.append(BlockFill(k, lo, hi, spec[1], spec[2], False))
                    p = hi + flush_len
                    continue
        table.append(frontier + 1)
        frontier += 1
        p += 1
    return table, fills


def _pi_result(table: list[int], horizon: int) -> PermutationMap:
    if len(table) != horizon or sorted(table) != list(range(1, horizon + 1)):
        raise BijectivityOverflow(
            "flush did not complete inside the horizon")
    return PermutationMap(table, horizon=horizon)


def generic_permutation(a: ns.NatSet, w: WitnessIntervals,
                        selector: ns.NatSet, horizon: int) -> BuildResult:
    """A permutation whose preimage of ``a`` contains the covered blocks.

    Covered blocks are the selected ones reachable with no flush backlog and
    an affordable flush; with a singleton witness and a co-infinite source
    this degenerates to the familiar neighbour-swap pattern.
    """
    draw = _selected(a, selector)
    table, fills = _fill_pi_table(
        w, horizon, lambda k, j, length, frontier: draw(k, length, frontier))
    pi = _pi_result(table, horizon)
    _audit(pi, fills, lambda f: a)
    if not fills:
        raise BijectivityOverflow("no selected block could be covered")
    return BuildResult(pi, fills,
                       meta={"kind": "generic-permutation", "horizon": horizon})


def cluster_preserving_pi(x: SequenceSpec, handle: IdealHandle,
                          w: WitnessIntervals, params: AnalysisParams,
                          candidates: Optional[Sequence] = None,
                          horizon: Optional[int] = None) -> BuildResult:
    """Permutation analogue of the preserving builder.

    Payload blocks (in the order they become affordable) round-robin over the
    candidates with shrinking radii; displaced integers flush right after
    each payload.  The audit checks the payload containments exactly and that
    the rearranged sequence keeps the same cluster set at this resolution.
    """
    horizon = horizon or params.horizon
    gamma, gset, cands = _preserving_candidates(x, handle, params, candidates)
    if not cands:
        return BuildResult(PermutationMap(), [], meta={"kind": "trivial"})
    schedule = list(params.schedule)
    route = _round_robin(x, cands, schedule)
    table, fills = _fill_pi_table(
        w, horizon, lambda k, j, length, frontier: route(j, length, frontier))
    pi = _pi_result(table, horizon)
    _audit(pi, fills, _ball(x, schedule))
    # every candidate needs a payload at every radius level
    for cand in cands:
        reached = max([f.radius_index for f in fills if f.candidate == cand],
                      default=0)
        if reached < len(schedule):
            raise ExhaustedA(
                f"candidate {format_point(cand)} only reached radius index "
                f"{reached} of {len(schedule)} inside the horizon")
    # payload coverage at every radius (enforced above) certifies the
    # forward inclusion
    return BuildResult(pi, fills,
                       gamma_preserved=_no_new_cluster(apply(pi, x), handle,
                                                       params, gamma, gset),
                       meta={"kind": "cluster-preserving-pi",
                             "candidates": [format_point(c) for c in cands],
                             "horizon": horizon})


def cluster_adding_pi(x: SequenceSpec, ell, handle: IdealHandle,
                      w: WitnessIntervals, params: AnalysisParams,
                      horizon: Optional[int] = None) -> BuildResult:
    """Permutation that makes ``ell`` a cluster point of the rearrangement."""
    ell = as_point(ell, x.dim)
    horizon = horizon or params.horizon
    schedule = list(params.schedule)
    route = _toward_ell(x, ell, schedule)
    table, fills = _fill_pi_table(
        w, horizon, lambda k, j, length, frontier: route(j, length, frontier))
    pi = _pi_result(table, horizon)
    _audit(pi, fills, _ball(x, schedule))
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
                             params: AnalysisParams,
                             horizon: Optional[int] = None) -> ExtractionCertificate:
    """Greedy finite blocks of phi mass q inside shrinking neighborhoods.

    Block k is drawn from the indices hitting the radius-k neighborhood of
    ell (after reindexing by sigma), starts beyond the previous block, and
    stops as soon as its exact phi reaches q.  The enumeration of the union
    is the witness map; its certificate replays every inequality.
    """
    ell = as_point(ell, x.dim)
    q = Fraction(q)
    horizon = horizon or params.horizon
    x_eff = apply(sigma, x) if sigma is not None else x
    blocks: list[tuple[int, list[int], Fraction, Fraction]] = []
    floor = 0
    for k, eps in enumerate(params.schedule, start=1):
        sup = MemberSupply(x_eff, ell, eps)
        greedy = _GreedyMass(m, q)
        try:
            v = sup.next_after(floor)
            while not greedy.add(v):
                if v > horizon:
                    raise MassUnavailable(k)
                v = sup.next_after(v)
        except ExhaustedA:
            raise MassUnavailable(k)
        if v > horizon:
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

def random_sigma(seed: int, gap_law: str = "geometric:1/2",
                 length: int = 256) -> SubsequenceMap:
    """Reproducible random strictly increasing map (table of given length)."""
    rng = random.Random(("sigma", seed, gap_law, length).__repr__())
    kind, _, param = gap_law.partition(":")
    table = []
    v = 0
    for _ in range(length):
        if kind == "geometric":
            p = float(Fraction(param or "1/2"))
            gap = 1
            while rng.random() > p:
                gap += 1
        elif kind == "uniform":
            gap = rng.randint(1, int(param or 4))
        else:
            raise ValueError(f"unknown gap law {gap_law!r}")
        v += gap
        table.append(v)
    return SubsequenceMap(table, NO_TAIL, horizon=length)


def random_pi(seed: int, window: int = 16, length: int = 256) -> PermutationMap:
    """Reproducible windowed random bijection on [1, length]."""
    if window < 1:
        raise ValueError("window must be >= 1")
    rng = random.Random(("pi", seed, window, length).__repr__())
    table: list[int] = []
    base = 0
    while base < length:
        w = min(window, length - base)
        chunk = list(range(base + 1, base + w + 1))
        rng.shuffle(chunk)
        table.extend(chunk)
        base += w
    return PermutationMap(table, horizon=length)
