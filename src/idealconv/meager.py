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

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ._lazy import lazy_numpy
from . import natset as ns
from . import submeasure as sm
from .ideals import (DecisionParams, IdealHandle, NotRepresentable, Verdict,
                     decide_membership, valuation_rows)

np = lazy_numpy()


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
                         lengths_unbounded=partition.guarantees.lengths_unbounded)
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
            return lscsm.interval_mass_cmp(lo, hi, self.q0) >= 0
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


def _phi_search_partition(handle: IdealHandle, q: Fraction) -> ns.BlockPartition:
    m = handle.lscsm
    tag = {"kind": "phi-search", "ideal": handle.name, "q": str(q)}
    if handle.params_json is not None:
        tag["params"] = handle.params_json
    cache = [1]

    def fn(n: int) -> int:
        while len(cache) < n:
            lo = cache[-1]
            # the least right end giving the block mass at least q
            length = m.mass_length(lo, q, 1 << 40)
            if length is None:
                raise BlockSearchExceeded(
                    f"no block of mass {q} starting at {lo}")
            cache.append(lo + length)
        return cache[n - 1]

    return ns.BlockPartition(fn=fn, tag=tag)


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
    certify_witness(handle, w, horizon)
    return w


def certify_witness(handle: IdealHandle, w: WitnessIntervals,
                    horizon: int) -> None:
    """Check the witness's rule exactly on every block inside the horizon;
    WitnessRefuted names the first that fails.  Singleton blocks all have
    counting mass 1, so under a counting cap block 1 stands for the rest.

    blocks() reads the block past the horizon, as a block union's prefix
    does, so a boundary list that stops before it is a ValueError.
    """
    alike = (w.rule == "phi-block" and w.guarantees.singletons
             and isinstance(handle.lscsm, sm.CountingCap))
    try:
        for n, lo, hi in w.blocks(horizon):
            if hi - 1 <= horizon and not w.certify_block(n, handle.lscsm):
                raise WitnessRefuted(f"block {n} = [{lo}, {hi}) fails {w.rule}")
            if alike:
                return
    except ns.HorizonExceeded as exc:
        raise ValueError(f"the witness boundary list stops before the block "
                         f"past horizon {horizon} ({exc})") from None


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
    if w.guarantees.singletons:
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

    if w.guarantees.singletons:
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
    pairs_from = w.guarantees.pairs_from
    if (pairs_from is not None and eff >= pairs_from
            and _never_two_consecutive(s, eff)):
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
    m = handle.lscsm
    if m is not None:
        h = params.horizon
        cuts = [0] + sm.default_cuts(h)
        # phi is monotone: with every tail correction 1, the best corrected
        # tail is the whole prefix's
        if all(m.tail_correction(t, h) == 1 for t in cuts):
            return sm.phi(m, sample, h)
        [row] = sm.norm_estimate(m, sample.prefix(h)[None], cuts)
        return max(Fraction(*v) for v in row)
    # product ideal: fraction of valuation rows r <= 10 hit inside the horizon
    hit = valuation_rows(sample, min(params.horizon, 1 << 17))
    return Fraction(len([r for r in range(11) if r in hit]), 11)
