"""Meagerness witnesses: interval partitions whose blocks certify non-membership.

A witness for an ideal is a strictly increasing boundary sequence such that
any set containing infinitely many of the blocks ``[iota(n), iota(n+1))``
lies outside the ideal.  Three certifying rules are supported: a density
ratio per block (density-style ideals), a phi mass per block (ideals given
by a submeasure), and valuation-row coverage (the product ideal).  The dual
side is the family of closed separating sets indexed by a cutoff k: a set
passes cutoff k when it contains no block of index >= k.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import natset as ns
from . import submeasure as sm
from .ideals import (DecisionParams, IdealHandle, NotRepresentable, Verdict,
                     decide_membership, valuation_rows)


class BlockSearchExceeded(Exception):
    pass


class WitnessRefuted(Exception):
    """A sampled set violated the witness certification — an implementation bug."""


class WitnessIntervals(ns.BlockPartition):
    """Block partition plus the rule and mass that make it a witness."""

    def __init__(self, rule: str, q0: Fraction, partition: ns.BlockPartition):
        # adopt the partition's generator and the boundaries it has so far
        super().__init__(fn=partition._fn, prefix=partition._iota,
                         tag=partition.tag,
                         lengths_unbounded=partition.lengths_unbounded)
        if rule not in ("density-ratio", "phi-block", "row-coverage"):
            raise ValueError(f"unknown witness rule {rule!r}")
        self.rule = rule
        self.q0 = Fraction(q0)
        if self.q0 <= 0:
            raise ValueError("certified mass must be positive")

    def certify_block(self, n: int, lscsm: Optional[sm.Lscsm] = None) -> bool:
        """Exact check of the certifying inequality on block n."""
        lo, hi = self.block(n)
        if self.rule == "density-ratio":
            return Fraction(hi - lo, hi) >= self.q0
        if self.rule == "phi-block":
            if lscsm is None:
                raise ValueError("phi-block certification needs the lscsm")
            return _interval_mass_cmp(lscsm, lo, hi, self.q0) >= 0
        # row-coverage: block n contains an integer of 2-adic valuation r
        # for every r <= n
        for r in range(0, n + 1):
            step = 1 << (r + 1)
            first = ((lo - (1 << r) + step - 1) // step) * step + (1 << r)
            if first >= hi:
                return False
        return True

    def to_json(self) -> dict:
        body = super().to_json()
        body["rule"] = self.rule
        body["q0"] = str(self.q0)
        return body

    @staticmethod
    def from_json(body: dict) -> "WitnessIntervals":
        return WitnessIntervals(body["rule"], Fraction(body["q0"]),
                                ns.BlockPartition.from_json(body))

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def _phi_interval(m: sm.Lscsm, lo: int, hi: int) -> Fraction:
    """phi of the full interval [lo, hi), exact and without materializing it."""
    if isinstance(m, sm.CountingCap):
        return sm.ONE if hi > lo else sm.ZERO
    if isinstance(m, sm.WeightedSum):
        return min(m.cap, m.scale * sm.sum_unit_fractions(range(lo, hi)))
    if isinstance(m, sm.DensityFamily):
        best = Fraction(0)
        for n, blo, bhi in m.partition.blocks(hi - 1):
            cnt = max(0, min(hi, bhi) - max(lo, blo))
            if cnt:
                best = max(best, m.weight(n) * Fraction(cnt, bhi - blo))
        return best
    if isinstance(m, sm.RunningDensity):
        # sup of count/n over the interval peaks at its right end
        return Fraction(hi - lo, hi - 1) if hi - 1 >= lo else Fraction(0)
    raise NotImplementedError(m.name)


def _interval_mass_cmp(m: sm.Lscsm, lo: int, hi: int, q: Fraction) -> int:
    """Sign of phi([lo, hi)) - q, exact.

    A harmonic sum is decided from its fixed-point enclosure and summed
    exactly only when the enclosure straddles q (or hi is too large for it).
    """
    if not isinstance(m, sm.WeightedSum):
        v = _phi_interval(m, lo, hi)
        d = v.numerator * q.denominator - q.numerator * v.denominator
        return (d > 0) - (d < 0)
    if m.cap < q:
        return -1
    # scale * S >= q  <=>  per * S >= need
    per = m.scale.numerator * q.denominator
    need = q.numerator * m.scale.denominator
    sign = None
    if hi <= sm.INT64_SAFE:
        a, b = sm.unit_fraction_bounds(lo, hi)
        target = need << sm.FIXED_BITS
        if per * a > target:
            sign = 1
        elif per * b < target:
            sign = -1
    if sign is None:
        p, den = sm.sum_unit_fractions_raw(range(lo, hi))
        sign = (per * p > need * den) - (per * p < need * den)
    # phi = min(cap, scale * S): a cap equal to q never rises above it
    return min(sign, 0) if m.cap == q else sign


def _phi_search_partition(handle: IdealHandle, q: Fraction) -> ns.BlockPartition:
    m = handle.lscsm
    tag = {"kind": "phi-search", "ideal": handle.name, "q": str(q)}
    if handle.params_json is not None:
        tag["params"] = handle.params_json
    cache = [1]

    def fn(n: int) -> int:
        while len(cache) < n:
            lo = cache[-1]
            # exponential probe then bisect for the least right end with mass q
            hi = lo + 1
            while _interval_mass_cmp(m, lo, hi, q) < 0:
                hi = 2 * hi - lo
                if hi - lo > 1 << 40:
                    raise BlockSearchExceeded(
                        f"no block of mass {q} starting at {lo}")
            a, b = lo + 1, hi
            while a < b:
                mid = (a + b) // 2
                if _interval_mass_cmp(m, lo, mid, q) >= 0:
                    b = mid
                else:
                    a = mid + 1
            cache.append(a)
        return cache[n - 1]

    return ns.BlockPartition(
        fn=fn, tag=tag,
        lengths_unbounded=not isinstance(m, sm.CountingCap))


def build_witness(handle: IdealHandle, q: Fraction,
                  horizon: int = 1 << 20) -> WitnessIntervals:
    """Construct the witness for a built-in ideal at mass level q.

    density-ratio: next boundary is the least one making the block-to-end
    ratio at least q.  phi-block: the least right end giving the block phi
    mass at least q.  row-coverage: blocks of length 2^(n+1), so block n
    meets every valuation row up to n.
    """
    q = Fraction(q)
    if handle.witness_rule == "row-coverage":
        rule, q = "row-coverage", Fraction(1)
        part = ns.partition_from_tag({"kind": "valuation-cover"})
    elif handle.lscsm is None:
        raise NotRepresentable(f"{handle.name} has no witness capability")
    elif not 0 < q < 1:
        raise ValueError("q must lie in (0, 1)")
    elif handle.witness_rule == "density-ratio":
        rule = "density-ratio"
        part = ns.partition_from_tag({"kind": "pow2"} if q == Fraction(1, 2)
                                     else {"kind": "ratio-search", "q": str(q)})
    else:
        rule = "phi-block"
        part = (ns.partition_from_tag({"kind": "singletons"})
                if isinstance(handle.lscsm, sm.CountingCap)
                else _phi_search_partition(handle, q))
    w = WitnessIntervals(rule, q, part)
    if rule == "row-coverage" or isinstance(handle.lscsm, sm.CountingCap):
        # certified by construction: row coverage, or singleton blocks of
        # counting mass 1 >= q
        return w
    for n, lo, hi in w.blocks_within(horizon):
        if not w.certify_block(n, handle.lscsm):
            raise WitnessRefuted(f"block {n} = [{lo}, {hi}) fails {w.rule}")
    return w


# ---------------------------------------------------------------------------
# The closed separating sets F_k
# ---------------------------------------------------------------------------

def _decidable_horizon(s: ns.NatSet, horizon: int) -> int:
    if isinstance(s, ns.PrefixBitmap):
        return min(horizon, s.horizon)
    if isinstance(s, (ns.Union, ns.Intersection)):
        return min(_decidable_horizon(p, horizon) for p in s.parts)
    if isinstance(s, ns.Complement):
        return _decidable_horizon(s.part, horizon)
    return horizon


def _never_two_consecutive(s: ns.NatSet, beyond: int = 0) -> bool:
    """Certifies that past ``beyond`` the set never holds two neighbours."""
    if isinstance(s, ns.Progression):
        return s.step >= 2
    if isinstance(s, ns.PowersOf):
        return True
    if isinstance(s, ns.Intersection):
        return any(_never_two_consecutive(p, beyond) for p in s.parts)
    if isinstance(s, ns.Union):
        # sound only when at most one part survives past the bound
        loose = []
        for p in s.parts:
            bound = ns.finite_upper_bound(p)
            if bound is not None and bound <= beyond:
                continue
            loose.append(p)
        return (len(loose) <= 1
                and all(_never_two_consecutive(p, beyond) for p in loose))
    return False


def _min_late_block_length(w: ns.BlockPartition, beyond: int) -> int:
    """Certified lower bound on the length of blocks starting past ``beyond``."""
    tag = w.tag or {}
    kind = tag.get("kind")
    if kind in ("pow2", "valuation-cover"):
        return 2 if beyond >= 1 else 1
    if kind == "geometric" and Fraction(tag["ratio"]) >= 2:
        return max(1, beyond)
    if kind == "ratio-search":
        q = Fraction(tag["q"])
        # block length >= lo * q/(1-q); certified >= 2 once lo is large enough
        if Fraction(beyond) * q / (1 - q) >= 2:
            return 2
    if kind == "phi-search":
        q = Fraction(tag["q"])
        # a singleton block {a} needs phi({a}) >= q, impossible late:
        # harmonic weights give phi({a}) = scale/a; the default geometric
        # density family gives phi({a}) <= 2/a
        if tag["ideal"] == "summable" and Fraction(beyond) * q >= 2:
            return 2
        if tag["ideal"] == "gdi" and "params" not in tag \
                and Fraction(beyond) * q >= 4:
            return 2
    return 1


def _contains_late_block_certified(w: ns.BlockPartition, s: ns.NatSet,
                                   k: int) -> Optional[bool]:
    """Does s contain some block of index >= k, beyond any horizon?"""
    if s.is_cofinite() is True:
        return True
    if isinstance(s, ns.BlockUnion) and (s.partition is w
                                         or (w.tag is not None
                                             and s.partition.tag == w.tag)):
        sel_inf = s.selector.is_infinite()
        if sel_inf is True:
            return True
    if isinstance(s, ns.Union):
        if any(_contains_late_block_certified(w, p, k) for p in s.parts):
            return True
    if w.max_block_singleton():
        inf = s.is_infinite()
        if inf is True:
            return True
        if isinstance(s, ns.Finite):
            # only an explicit finite set attains its own maximum; an upper
            # bound on a derived set proves nothing about attained members
            return bool(s.members) and s.members[-1] >= w.iota(k)
        return None
    return None


def fk_holds(w: ns.BlockPartition, s: ns.NatSet, k: int,
             horizon: int) -> Optional[bool]:
    """Whether s avoids every witness block of index >= k (tri-state).

    False as soon as one block is contained; True only when the blocks inside
    the horizon are all avoided and the structure of s rules out containment
    of any later block; None otherwise.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    late = _contains_late_block_certified(w, s, k)
    if late is True:
        return False

    eff = _decidable_horizon(s, horizon)
    bits = s.prefix(eff)
    counts = np.cumsum(bits, dtype=np.int64)

    def contained(lo: int, hi: int) -> bool:
        total = int(counts[hi - 2]) - (int(counts[lo - 2]) if lo >= 2 else 0)
        return total == hi - lo

    if w.max_block_singleton():
        start = w.iota(k)
        if start <= eff and bool(bits[start - 1:].any()):
            return False
    else:
        for n, lo, hi in w.blocks_within(eff, start=k):
            if contained(lo, hi):
                return False

    if late is False:
        return True
    bound = ns.finite_upper_bound(s)
    if s.is_infinite() is False and bound is not None and bound <= eff:
        return True
    if _never_two_consecutive(s, eff) and _min_late_block_length(w, eff) >= 2:
        # remaining blocks inside the horizon were checked above; later ones
        # are intervals of length >= 2 and s never holds two neighbours
        return True
    return None


# ---------------------------------------------------------------------------
# Randomized verification
# ---------------------------------------------------------------------------

@dataclass
class WitnessSample:
    description: str
    verdict: Verdict
    estimate: Optional[Fraction]


@dataclass
class MemberSample:
    description: str
    first_k: Optional[int]


@dataclass
class WitnessReport:
    ideal: str
    rule: str
    q0: Fraction
    samples: list[WitnessSample]
    members: list[MemberSample]
    cofinite_all_fail: bool

    @property
    def min_estimate(self) -> Optional[Fraction]:
        vals = [s.estimate for s in self.samples if s.estimate is not None]
        return min(vals) if vals else None

    def to_json(self) -> dict:
        return {
            "ideal": self.ideal, "rule": self.rule, "q0": str(self.q0),
            "samples": [{"description": s.description,
                         "verdict": s.verdict.value,
                         "estimate": None if s.estimate is None else str(s.estimate)}
                        for s in self.samples],
            "members": [{"description": m.description, "first_k": m.first_k}
                        for m in self.members],
            "cofinite_all_fail": self.cofinite_all_fail,
        }


def _random_infinite_selector(rng: random.Random) -> ns.NatSet:
    k = rng.choice([1, 2, 3, 5])
    style = rng.randrange(3)
    base = ns.Progression(k, k)
    if style == 0:
        return base
    if style == 1:
        adds = ns.Finite(sorted(rng.sample(range(1, 64), rng.randrange(1, 4))))
        return ns.Union((base, adds))
    removed = ns.Finite(sorted(rng.sample(range(k, 64 * k, k),
                                          rng.randrange(1, 4))))
    return ns.Intersection((base, ns.Complement(removed)))


def _member_samples(handle: IdealHandle, rng: random.Random,
                    horizon: int) -> list[tuple[str, ns.NatSet]]:
    out: list[tuple[str, ns.NatSet]] = []
    if isinstance(handle.lscsm, sm.CountingCap):
        # the singleton witness separates a finite set at k = max + 1
        pool = range(1, 19)
        for i in range(4):
            pick = sorted(rng.sample(pool, rng.randrange(1, 6)))
            out.append((f"finite{pick}", ns.Finite(pick)))
        return out
    for i in range(3):
        pick = sorted(rng.sample(range(1, horizon), rng.randrange(2, 8)))
        out.append((f"finite#{i}", ns.Finite(pick)))
    out.append(("powers2", ns.PowersOf(2)))
    out.append(("powers3", ns.PowersOf(3)))
    out.append(("powers2+finite",
                ns.Union((ns.PowersOf(2), ns.Finite([7, 11, 13])))))
    if handle.special_rule == "fin-x-fin":
        out.append(("odds", ns.Progression(1, 2)))
        out.append(("row1", ns.Progression(2, 4)))
    return out


def verify_witness(handle: IdealHandle, w: WitnessIntervals, trials: int,
                   horizon: int, seed: int,
                   params: Optional[DecisionParams] = None) -> WitnessReport:
    """Sample block unions (plus noise) and ideal members against the witness.

    Every sampled block union must decide NotIn (an Undecided answer is
    tolerated only with a non-vanishing estimate); every sampled member must
    pass some separating cutoff k <= 20; no cofinite set may pass any.
    Violations raise WitnessRefuted.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if params is None:
        params = DecisionParams(horizon=horizon)
    rng = random.Random(seed)

    samples: list[WitnessSample] = []
    for i in range(trials):
        sel = _random_infinite_selector(rng)
        noise = ns.Finite(sorted(rng.sample(range(1, horizon),
                                            rng.randrange(1, 16))))
        sample = ns.Union((ns.BlockUnion(w, sel), noise))
        dec = decide_membership(handle, sample, params)
        est = _sample_estimate(handle, sample, params)
        if dec.verdict is Verdict.IN:
            raise WitnessRefuted(f"sample {i} decided In: {sample.dumps()}")
        if dec.verdict is Verdict.UNDECIDED:
            if est is None or est < w.q0 - Fraction(1, 20):
                raise WitnessRefuted(f"sample {i} undecided with estimate {est}")
        samples.append(WitnessSample(sel.to_json().__repr__(), dec.verdict, est))

    members: list[MemberSample] = []
    for desc, mset in _member_samples(handle, rng, horizon):
        first = None
        for k in range(1, 21):
            if fk_holds(w, mset, k, horizon) is True:
                first = k
                break
        if first is None:
            raise WitnessRefuted(f"member {desc} fails every cutoff <= 20")
        members.append(MemberSample(desc, first))

    cof = ns.Cofinite([3, 5])
    cof_fail = all(fk_holds(w, cof, k, horizon) is False for k in range(1, 21))
    if not cof_fail:
        raise WitnessRefuted("a cofinite set passed a separating cutoff")

    return WitnessReport(ideal=handle.name, rule=w.rule, q0=w.q0,
                         samples=samples, members=members,
                         cofinite_all_fail=cof_fail)


def _sample_estimate(handle: IdealHandle, sample: ns.NatSet,
                     params: DecisionParams) -> Optional[Fraction]:
    if handle.lscsm is not None:
        est = sm.norm_estimate(handle.lscsm, sample, params.horizon,
                               cuts=params.cut_points(), slack=params.slack,
                               head=True)
        return est.best
    # product ideal: fraction of valuation rows r <= 10 hit inside the horizon
    hit = valuation_rows(sample, min(params.horizon, 1 << 17))
    return Fraction(len([r for r in range(11) if r in hit]), 11)
