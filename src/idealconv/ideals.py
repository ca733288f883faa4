"""Ideal handles: membership decision over symbolic sets.

A handle couples a name with its capabilities: an lscsm when the ideal is an
analytic P-ideal (membership = vanishing limit norm), a special row rule for
the product ideal decided by 2-adic valuations, and a lazily built witness
partition certifying meagerness.  Decisions are three-valued and every In /
NotIn answer is backed by either a closed-form norm, a structural rule, a
witness-containment certificate, or an explicit tail trend.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from ._lazy import lazy_numpy
from . import natset as ns
from . import submeasure as sm

np = lazy_numpy()


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


DEFAULT_PARAMS = DecisionParams()


class UnknownIdeal(Exception):
    pass


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
    lscsm: Optional[sm.Lscsm] = None            # None: fin-x-fin's row rules
    params_json: Optional[dict] = None          # construction body, for round trips

    @property
    def analytic_p(self) -> bool:
        return self.lscsm is not None

    @property
    def special_rule(self) -> Optional[str]:
        return "fin-x-fin" if self.lscsm is None else None

    @property
    def witness_rule(self) -> str:
        """How a witness's blocks are certified: density-ratio, phi-block or
        row-coverage."""
        if self.lscsm is None:
            return "row-coverage"
        if isinstance(self.lscsm, sm.RunningDensity):
            return "density-ratio"
        return "phi-block"


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
        # meets every later row when r + offset (0 too) is a multiple of P's
        # 2-part: OR the tail mask's halves down to that 2-part, not the period
        low = form.period & -form.period
        mask, width = form.masks[-1], low
        while width < mask.bit_length():
            width *= 2
        while width > low:
            width //= 2
            mask = (mask & ((1 << width) - 1)) | (mask >> width)
        spread = mask >> (-form.offset % low) & 1
        return Verdict.NOT_IN if spread else Verdict.IN
    if isinstance(s, ns.PowersOf):
        # at most one member per valuation row
        return Verdict.IN
    if (isinstance(s, ns.BlockUnion) and s.partition.guarantees.lengths_unbounded
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


def _finxfin_decide(s: ns.NatSet) -> Decision:
    """The row rule's certified verdict; a set no row rule decides stays
    Undecided with no estimate (fin x Fin is no Exh(phi), so no prefix can
    certify anything about it)."""
    v = _finxfin_structural(s)
    if v is Verdict.IN:
        return Decision(Verdict.IN, exact=Fraction(0), reason="row-rule")
    if v is Verdict.NOT_IN:
        return Decision(Verdict.NOT_IN, exact=Fraction(1), reason="row-rule")
    return Decision(Verdict.UNDECIDED, reason="row-profile")


# ---------------------------------------------------------------------------
# Witness containment: a certified positive lower bound on the norm
# ---------------------------------------------------------------------------

def _witness_rule_bound(handle: IdealHandle,
                        part: ns.BlockPartition) -> Optional[Fraction]:
    """Certified norm bound for sets holding infinitely many blocks of part,
    read off the partition's block guarantees.

    A per-block density ratio bounds the upper density outright, and for the
    weighted sum it also bounds the tail sums (an interval's unit-fraction
    sum is at least its length over its right end).  Mass blocks of a phi
    search bound the norm of the ideal that searched them: the same name
    with the same construction parameters.
    """
    g = part.guarantees
    m = handle.lscsm
    if g.ratio is not None:
        if isinstance(m, sm.RunningDensity):
            return g.ratio
        if isinstance(m, sm.WeightedSum):
            return min(m.cap, m.scale * g.ratio)
    if g.mass is not None and g.mass_ideal == (handle.name, handle.params_json):
        return g.mass
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
    """Three-valued membership of s in the ideal, from the first route that
    answers: the exact norm, witness blocks, the structure of a union or
    intersection, then the tail verdict (``sm.tail_verdicts``: a vanishing
    or persistent tail); a set no route decides stays Undecided.  The
    one-set case of ``decide_each``.
    """
    return decide_each(handle, (s,), params, _depth)[0]


def decide_each(handle: IdealHandle, sets: Sequence[ns.NatSet],
                params: DecisionParams = DEFAULT_PARAMS,
                _depth: int = 0) -> list[Decision]:
    """``decide_membership`` of each set, in order.

    The symbolic routes run set by set; the prefixes of the sets they leave
    open go to ``tail_decisions``, ``sm.tail_rows`` of them at a time.  A
    set whose prefix raises HorizonExceeded gets its own
    ``horizon-exceeded`` decision.
    """
    if handle.lscsm is None:
        return [_finxfin_decide(s) for s in sets]

    out: list = []
    open_ = []          # the sets no symbolic route decides, by position
    for s in sets:
        d = _symbolic_decision(handle, s, params, _depth)
        if d is None:
            open_.append(len(out))
        out.append(d)
    step = sm.tail_rows(params.horizon)
    for lo in range(0, len(open_), step):
        read, rows = [], []
        for i in open_[lo:lo + step]:
            try:
                rows.append(sets[i].prefix(params.horizon))
            except ns.HorizonExceeded:
                out[i] = Decision(Verdict.UNDECIDED, reason="horizon-exceeded")
                continue
            read.append(i)
        if read:
            for i, d in zip(read, tail_decisions(handle, rows, params)):
                out[i] = d
    return out


def tail_decisions(handle: IdealHandle, rows, params: DecisionParams
                   ) -> list[Decision]:
    """The ``tail-trend`` decision of each prefix on [1, params.horizon] in
    ``rows``, a (K, N) bit matrix or a list of 1-D prefixes, from one
    ``sm.tail_verdicts`` call; K should be at most ``sm.tail_rows(N)``.
    The sets the rows come from must be ones no symbolic route decides."""
    bits = rows if isinstance(rows, np.ndarray) else np.stack(rows)
    return [Decision(Verdict.UNDECIDED if vanishes is None
                     else Verdict.IN if vanishes else Verdict.NOT_IN,
                     estimate=numeric, reason="tail-trend", trend=trend)
            for vanishes, numeric, trend
            in sm.tail_verdicts(handle.lscsm, bits, params.theta)]


def _symbolic_decision(handle: IdealHandle, s: ns.NatSet,
                       params: DecisionParams, depth: int) -> Optional[Decision]:
    """The exact norm, witness blocks or structure of s, or None."""
    exact = handle.lscsm.exact_norm(s)
    if exact is not None:
        if exact == 0:
            return Decision(Verdict.IN, exact=exact, reason="exact-norm")
        return Decision(Verdict.NOT_IN, exact=exact, reason="exact-norm")

    wb = witness_lower_bound(handle, s)
    if wb is not None:
        return Decision(Verdict.NOT_IN, estimate=wb, reason="witness-blocks")

    if depth < 4:
        return _structural_decision(handle, s, params, depth)
    return None


def _structural_decision(handle: IdealHandle, s: ns.NatSet,
                         params: DecisionParams, depth: int) -> Optional[Decision]:
    # a union's or intersection's parts are decided together, so their tail
    # reads share kernel passes
    if isinstance(s, ns.Union):
        sub = decide_each(handle, s.parts, params, depth + 1)
        if any(d.verdict is Verdict.NOT_IN for d in sub):
            bad = next(d for d in sub if d.verdict is Verdict.NOT_IN)
            return Decision(Verdict.NOT_IN, estimate=bad.estimate,
                            exact=None, reason="superset-of-nonmember")
        if all(d.verdict is Verdict.IN for d in sub):
            return Decision(Verdict.IN, reason="finite-union-of-members")
    if isinstance(s, ns.Intersection):
        sub = decide_each(handle, s.parts, params, depth + 1)
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
        return IdealHandle("fin", lscsm=sm.CountingCap())
    if key == "density-zero":
        return IdealHandle("density-zero", lscsm=sm.RunningDensity())
    if key == "summable":
        return IdealHandle("summable",
                           lscsm=sm.normalize(sm.WeightedSum(cap=Fraction(1))))
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
        return IdealHandle("gdi", lscsm=sm.normalize(fam), params_json=gdi_spec)
    if key == "fin-x-fin":
        return IdealHandle("fin-x-fin")
    raise UnknownIdeal(name)


def builtin_names() -> list[str]:
    return ["fin", "density-zero", "summable", "gdi", "fin-x-fin"]
