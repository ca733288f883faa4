"""Ideal handles: membership decision over symbolic sets.

A handle couples a name with its capabilities: an lscsm when the ideal is an
analytic P-ideal (membership = vanishing limit norm), a special row rule for
the product ideal decided by 2-adic valuations, and a lazily built witness
partition certifying meagerness.  Decisions are three-valued and every In /
NotIn answer is backed by either a closed-form norm, a structural rule, a
witness-containment certificate, or an explicit tail trend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional

import numpy as np

from . import natset as ns
from . import submeasure as sm


class Verdict(Enum):
    IN = "in"
    NOT_IN = "not-in"
    UNDECIDED = "undecided"


@dataclass
class Decision:
    verdict: Verdict
    estimate: Optional[Fraction] = None
    exact: Optional[Fraction] = None
    reason: str = ""
    trend: Optional[str] = None

    def __bool__(self) -> bool:
        return self.verdict is Verdict.IN


@dataclass(frozen=True)
class DecisionParams:
    horizon: int = 1 << 20
    theta: Fraction = Fraction(1, 100)
    slack: Fraction = Fraction(1, 200)
    cuts: Optional[tuple[int, ...]] = None

    def cut_points(self) -> list[int]:
        if self.cuts is not None:
            return list(self.cuts)
        return sm.default_cuts(self.horizon)


DEFAULT_PARAMS = DecisionParams()


class UnknownIdeal(Exception):
    pass


class NotRepresentable(Exception):
    """The handle has no capability supporting the requested construction."""


def nu2(n: int) -> int:
    """2-adic valuation of a positive integer."""
    if n < 1:
        raise ValueError("positive integers only")
    return (n & -n).bit_length() - 1


def valuation_rows(s: ns.NatSet, horizon: int) -> dict[int, int]:
    """How many members of s in [1, horizon] lie in each valuation row
    {n : nu2(n) = r}, keyed by r (rows without members are left out)."""
    members = np.flatnonzero(s.prefix(horizon)) + 1
    # n & -n is 2^nu2(n), whose binary exponent frexp reads off as nu2 + 1
    counts = np.bincount(np.frexp(members & -members)[1] - 1)
    return {r: c for r, c in enumerate(counts.tolist()) if c}


# ---------------------------------------------------------------------------
# Handle
# ---------------------------------------------------------------------------

@dataclass
class IdealHandle:
    name: str
    lscsm: Optional[sm.Lscsm] = None
    special_rule: Optional[str] = None          # "fin-x-fin"
    witness_rule: str = "phi-block"             # density-ratio | phi-block | row-coverage
    default_q: Fraction = Fraction(1, 2)
    params_json: Optional[dict] = None          # construction body, for round trips
    _witness: Optional[object] = field(default=None, repr=False, compare=False)

    @property
    def analytic_p(self) -> bool:
        return self.lscsm is not None

    def witness(self, q: Optional[Fraction] = None, horizon: int = 1 << 20):
        """The meagerness witness for this ideal (built once per q)."""
        from . import meager
        if q is None and self._witness is not None:
            return self._witness
        w = meager.build_witness(self, q if q is not None else self.default_q,
                                 horizon)
        if q is None:
            self._witness = w
        return w

    def decide(self, s: ns.NatSet,
               params: DecisionParams = DEFAULT_PARAMS) -> Decision:
        return decide_membership(self, s, params)


# ---------------------------------------------------------------------------
# Fin x Fin: row rules on structured variants
# ---------------------------------------------------------------------------

def _finxfin_structural(s: ns.NatSet, depth: int = 0) -> Optional[Verdict]:
    if depth > 8:
        return None
    if s.is_infinite() is False:
        return Verdict.IN
    form = ns.periodic_form(s)
    if form is not None:
        # the class r + kP keeps the valuation of r when nu2(r) < nu2(P) and
        # meets every later row when r (0 too) is a multiple of P's 2-part
        low = form.period & -form.period
        spread = any((r + form.offset) % low == 0 for r in form.residues())
        return Verdict.NOT_IN if spread else Verdict.IN
    if isinstance(s, ns.PowersOf):
        # at most one member per valuation row
        return Verdict.IN
    if (isinstance(s, ns.BlockUnion) and s.partition.lengths_unbounded
            and s.selector.is_infinite() is True):
        # blocks of unbounded length meet every valuation row cofinally
        return Verdict.NOT_IN
    if isinstance(s, ns.Union):
        sub = [_finxfin_structural(p, depth + 1) for p in s.parts]
        if any(v is Verdict.NOT_IN for v in sub):
            return Verdict.NOT_IN
        if all(v is Verdict.IN for v in sub):
            return Verdict.IN
    if isinstance(s, ns.Intersection) and any(
            _finxfin_structural(p, depth + 1) is Verdict.IN for p in s.parts):
        return Verdict.IN
    if isinstance(s, ns.Complement) and (s.part.is_infinite() is False
                                         or isinstance(s.part, ns.PowersOf)):
        # stripping a finite set, or one point per row, leaves every row
        # infinite
        return Verdict.NOT_IN
    return None


def _finxfin_decide(s: ns.NatSet, params: DecisionParams) -> Decision:
    v = _finxfin_structural(s)
    if v is Verdict.IN:
        return Decision(Verdict.IN, exact=Fraction(0), reason="row-rule")
    if v is Verdict.NOT_IN:
        return Decision(Verdict.NOT_IN, exact=Fraction(1), reason="row-rule")
    try:
        horizon = min(params.horizon, 1 << 17)
        rows = valuation_rows(s, horizon)
    except ns.HorizonExceeded:
        rows = {}
    busy = sum(1 for c in rows.values() if c >= 8)
    return Decision(Verdict.UNDECIDED, estimate=Fraction(busy, max(len(rows), 1)),
                    reason=f"rows-at-horizon={len(rows)} busy={busy}")


# ---------------------------------------------------------------------------
# Witness containment: a certified positive lower bound on the norm
# ---------------------------------------------------------------------------

def _partition_ratio_bound(part: ns.BlockPartition) -> Optional[Fraction]:
    """Certified lower bound on (hi - lo) / hi over every block of part."""
    rule = getattr(part, "rule", None)
    q0 = getattr(part, "q0", None)
    if rule == "density-ratio" and q0 is not None:
        return q0
    tag = part.tag or {}
    kind = tag.get("kind")
    if kind == "pow2":
        return Fraction(1, 2)
    if kind == "ratio-search":
        return Fraction(tag["q"])
    if kind == "geometric":
        ratio = Fraction(tag["ratio"])
        if ratio.denominator == 1 and ratio >= 2:
            return 1 - 1 / ratio
    return None


def _witness_rule_bound(handle: IdealHandle,
                        part: ns.BlockPartition) -> Optional[Fraction]:
    """Certified norm bound for sets holding infinitely many blocks of part.

    A per-block density ratio bounds the upper density outright, and for the
    harmonic weight family it also bounds the tail sums (an interval's unit-
    fraction sum is at least its length over its right end).  Mass blocks of
    the ideal's own search witness bound its norm directly.
    """
    ratio = _partition_ratio_bound(part)
    if ratio is not None:
        if isinstance(handle.lscsm, sm.RunningDensity):
            return ratio
        if isinstance(handle.lscsm, sm.WeightedSum) and handle.lscsm.harmonic:
            return min(handle.lscsm.cap, handle.lscsm.scale * ratio)
        if isinstance(handle.lscsm, sm.CountingCap):
            return Fraction(1)
    rule = getattr(part, "rule", None)
    q0 = getattr(part, "q0", None)
    if rule == "phi-block" and q0 is not None:
        if isinstance(handle.lscsm, sm.CountingCap):
            return q0
        tag = part.tag or {}
        if tag.get("kind") == "phi-search" and tag.get("ideal") == handle.name:
            return q0
    return None


def witness_lower_bound(handle: IdealHandle, s: ns.NatSet) -> Optional[Fraction]:
    """q0 when s provably contains infinitely many blocks of a valid witness."""

    def covers(x: ns.NatSet, depth: int = 0) -> Optional[Fraction]:
        if depth > 8:
            return None
        if isinstance(x, ns.BlockUnion) and x.selector.is_infinite() is True:
            return _witness_rule_bound(handle, x.partition)
        if isinstance(x, ns.Union):
            for p in x.parts:
                b = covers(p, depth + 1)
                if b is not None:
                    return b
        return None

    return covers(s)


# ---------------------------------------------------------------------------
# Decision procedure
# ---------------------------------------------------------------------------

def decide_membership(handle: IdealHandle, s: ns.NatSet,
                      params: DecisionParams = DEFAULT_PARAMS,
                      _depth: int = 0) -> Decision:
    """Three-valued membership of s in the ideal.

    In requires a certified zero norm or a vanishing tail trend; NotIn a
    certified positive norm, witness containment, or a persistent tail;
    anything else stays Undecided.
    """
    if handle.special_rule == "fin-x-fin":
        return _finxfin_decide(s, params)
    if handle.lscsm is None:
        raise NotRepresentable(f"{handle.name} has no decision capability")

    m = handle.lscsm
    exact = m.exact_norm(s)
    if exact is not None:
        if exact == 0:
            return Decision(Verdict.IN, exact=exact, reason="exact-norm")
        return Decision(Verdict.NOT_IN, exact=exact, reason="exact-norm")

    wb = witness_lower_bound(handle, s)
    if wb is not None:
        return Decision(Verdict.NOT_IN, estimate=wb, reason="witness-blocks")

    if _depth < 4:
        structural = _structural_decision(handle, s, params, _depth)
        if structural is not None:
            return structural

    # trend estimation, corroborated one octave down: a set lumped into
    # sparse exponential blocks can leave every tail window of one horizon
    # empty, but then the half-horizon windows catch the previous lump.
    # Both read one prefix: the half-horizon prefix is its first half.
    def trend_verdict(horizon: int) -> tuple[Optional[Verdict], object]:
        cuts = params.cut_points() if horizon == params.horizon else None
        est = sm.norm_estimate(m, s, horizon, cuts=cuts, slack=params.slack,
                               bits=bits[:horizon], exact=exact)
        if est.trend in ("zero", "decreasing") and est.numeric < params.theta:
            return Verdict.IN, est
        if est.trend == "non-decreasing" and est.numeric >= params.theta:
            return Verdict.NOT_IN, est
        return None, est

    try:
        bits = s.prefix(params.horizon)
        v1, est = trend_verdict(params.horizon)
        v2 = v1
        if params.horizon >= 64:
            v2, _ = trend_verdict(params.horizon // 2)
    except ns.HorizonExceeded:
        return Decision(Verdict.UNDECIDED, reason="horizon-exceeded")

    if v1 is not None and v1 == v2:
        return Decision(v1, estimate=est.numeric, reason="tail-trend",
                        trend=est.trend)
    return Decision(Verdict.UNDECIDED, estimate=est.numeric,
                    reason="tail-trend", trend=est.trend)


def _structural_decision(handle: IdealHandle, s: ns.NatSet,
                         params: DecisionParams, depth: int) -> Optional[Decision]:
    if isinstance(s, ns.Union):
        sub = [decide_membership(handle, p, params, depth + 1) for p in s.parts]
        if any(d.verdict is Verdict.NOT_IN for d in sub):
            bad = next(d for d in sub if d.verdict is Verdict.NOT_IN)
            return Decision(Verdict.NOT_IN, estimate=bad.estimate,
                            exact=None, reason="superset-of-nonmember")
        if all(d.verdict is Verdict.IN for d in sub):
            return Decision(Verdict.IN, reason="finite-union-of-members")
    if isinstance(s, ns.Intersection):
        sub = [decide_membership(handle, p, params, depth + 1) for p in s.parts]
        if any(d.verdict is Verdict.IN for d in sub):
            return Decision(Verdict.IN, reason="subset-of-member")
    return None


# ---------------------------------------------------------------------------
# Built-in ideals
# ---------------------------------------------------------------------------

_ALIASES = {
    "fin": "fin",
    "density-zero": "density-zero",
    "z": "density-zero",
    "summable": "summable",
    "gdi": "gdi",
    "fin-x-fin": "fin-x-fin",
    "finxfin": "fin-x-fin",
}


def builtin(name: str, gdi_spec: Optional[dict] = None) -> IdealHandle:
    """Construct a built-in ideal handle by name.

    fin, density-zero (alias z), summable, gdi (generalized density, blocks
    and weights optionally from a JSON body), fin-x-fin.
    """
    key = _ALIASES.get(name.strip().lower())
    if key is None:
        raise UnknownIdeal(f"unknown ideal {name!r}")
    if key == "fin":
        return IdealHandle("fin", lscsm=sm.CountingCap(),
                           witness_rule="phi-block")
    if key == "density-zero":
        return IdealHandle("density-zero", lscsm=sm.RunningDensity(),
                           witness_rule="density-ratio")
    if key == "summable":
        return IdealHandle("summable",
                           lscsm=sm.normalize(sm.WeightedSum(cap=Fraction(1),
                                                             harmonic=True)),
                           witness_rule="phi-block")
    if key == "gdi":
        if gdi_spec is None:
            part = ns.partition_from_tag({"kind": "geometric", "ratio": "2"})
            fam = sm.DensityFamily(partition=part, tail_weight=Fraction(1))
        else:
            part = ns.BlockPartition.from_json(gdi_spec["partition"])
            fam = sm.DensityFamily(
                partition=part,
                head_weights=tuple(Fraction(w) for w in gdi_spec.get("head_weights", [])),
                tail_weight=Fraction(gdi_spec.get("tail_weight", "1")))
        return IdealHandle("gdi", lscsm=sm.normalize(fam),
                           witness_rule="phi-block", params_json=gdi_spec)
    if key == "fin-x-fin":
        return IdealHandle("fin-x-fin", lscsm=None, special_rule="fin-x-fin",
                           witness_rule="row-coverage")
    raise UnknownIdeal(name)


def builtin_names() -> list[str]:
    return ["fin", "density-zero", "summable", "gdi", "fin-x-fin"]
