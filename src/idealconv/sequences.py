"""Point sequences in rational boxes and their cluster structure.

A sequence is a total generator n -> point with rational coordinates inside
[-B, B]^d under the sup metric.  Every neighborhood indicator, the index set
{n : d(x_n, c) < eps}, comes from one of two sources: a sequence over a
finite alphabet unions the symbolic index sets of the letters inside the
ball, and any other sequence gives the set from its ``ball_fn`` (a closed
form where one exists, else a set known through an exact membership test).
Sets without a closed form are decided by the three-valued tail machinery.

Classifications computed here: ordinary limit points, cluster points modulo
an ideal, the limiting-norm functional of shrinking neighborhoods, its
q-level sets, and two-route convergence checking.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from . import natset as ns
from . import submeasure as sm
from .ideals import (DecisionParams, IdealHandle, Verdict,
                     decide_membership)

Point = tuple[Fraction, ...]

CLUSTER = "cluster"
NOT_CLUSTER = "not-cluster"
UNDECIDED = "undecided"
MAX_GRID_POINTS = 1 << 20       # candidate grids larger than this are refused


class NotAnalyticP(Exception):
    """The operation needs a submeasure-backed (analytic P) ideal."""


def as_point(value, dim: int = 1) -> Point:
    if isinstance(value, tuple):
        pt = tuple(Fraction(v) for v in value)
    else:
        pt = (Fraction(value),)
    if len(pt) != dim:
        raise ValueError(f"expected a point of dimension {dim}")
    return pt


def distance(a: Point, b: Point) -> Fraction:
    return max(abs(x - y) for x, y in zip(a, b))


def format_point(p: Point) -> str:
    if len(p) == 1:
        return str(p[0])
    return "(" + ", ".join(str(c) for c in p) + ")"


@dataclass(frozen=True)
class RadiusSchedule:
    radii: tuple[Fraction, ...]

    def __init__(self, radii):
        radii = tuple(Fraction(r) for r in radii)
        if not radii or radii[-1] <= 0:
            raise ValueError("radii must be positive")
        if any(b >= a for a, b in zip(radii, radii[1:])):
            raise ValueError("radii must be strictly decreasing")
        object.__setattr__(self, "radii", radii)

    @staticmethod
    def dyadic(depth: int = 10) -> "RadiusSchedule":
        return RadiusSchedule([Fraction(1, 2 ** k) for k in range(1, depth + 1)])

    @property
    def smallest(self) -> Fraction:
        return self.radii[-1]

    def __iter__(self):
        return iter(self.radii)

    def __len__(self):
        return len(self.radii)


@dataclass
class Alphabet:
    """Finitely many letter values whose index sets partition N."""

    letters: list[Point]
    index_sets: list[ns.NatSet]

    def __post_init__(self):
        if len(self.letters) != len(self.index_sets) or not self.letters:
            raise ValueError("letters and index sets must align")

    def validate_partition(self, horizon: int) -> None:
        total = np.zeros(horizon, dtype=np.int64)
        for s in self.index_sets:
            total += s.prefix(horizon)
        if not bool(np.all(total == 1)):
            raise ValueError("index sets do not partition [1, horizon]")

    def letter_index(self, n: int) -> int:
        for i, s in enumerate(self.index_sets):
            if s.member(n):
                return i
        raise ValueError(f"no letter covers index {n}")


@dataclass
class SequenceSpec:
    """Generator-backed sequence with the index sets of its balls.

    An alphabet sequence's balls are unions of its letters' index sets;
    any other sequence needs ``ball_fn(center, eps)``, which returns the
    exact index set {n : d(x_n, center) < eps} as a NatSet.
    """

    dim: int
    bound: Fraction
    point_fn: Callable[[int], Point]
    alphabet: Optional[Alphabet] = None
    batch_fn: Optional[Callable[[int], np.ndarray]] = None
    name: str = "sequence"
    ball_fn: Optional[Callable[[Point, Fraction], ns.NatSet]] = None
    # not a field, so the constructor refuses it: nothing here calls it, but
    # the benchmark's tracer still reads and wraps the name on zoo specs
    indicator_fn = None

    def __post_init__(self):
        if self.alphabet is None and self.ball_fn is None:
            raise ValueError(f"{self.name} needs an alphabet or a ball_fn")

    def point(self, n: int) -> Point:
        if n < 1:
            raise ValueError("indices start at 1")
        p = self.point_fn(n)
        return p if isinstance(p, tuple) else (Fraction(p),)

    def hit_bits(self, center: Point, eps: Fraction, horizon: int) -> np.ndarray:
        return indicator_set(self, center, eps).prefix(horizon)

    def sample_box(self, horizon: int) -> list[tuple[Fraction, Fraction]]:
        """Per-coordinate value range, for candidate grids."""
        if self.alphabet is not None:
            cols = list(zip(*self.alphabet.letters))
            return [(min(c), max(c)) for c in cols]
        if self.batch_fn is not None:
            vals = np.atleast_2d(self.batch_fn(horizon))
            if vals.shape[0] == horizon:
                vals = vals.T
            return [(Fraction(float(c.min())).limit_denominator(1 << 30),
                     Fraction(float(c.max())).limit_denominator(1 << 30))
                    for c in vals]
        probe = min(horizon, 2048)
        pts = [self.point(n) for n in range(1, probe + 1)]
        cols = list(zip(*pts))
        return [(min(c), max(c)) for c in cols]


def indicator_set(x: SequenceSpec, center: Point, eps: Fraction) -> ns.NatSet:
    """The index set {n : d(x_n, center) < eps} as a symbolic set.

    Exact letter unions for alphabet sequences (all letters inside the ball
    collapse to the cofinite full set, none to the empty set), else the
    sequence's own ``ball_fn`` set.
    """
    return _ball_index_set(x, center, eps, inside=True)


def complement_indicator_set(x: SequenceSpec, center: Point,
                             eps: Fraction) -> ns.NatSet:
    """Exact complement {n : d(x_n, center) >= eps} (letter unions stay exact)."""
    return _ball_index_set(x, center, eps, inside=False)


def _ball_index_set(x: SequenceSpec, center: Point, eps: Fraction,
                    inside: bool) -> ns.NatSet:
    center = as_point(center, x.dim)
    eps = Fraction(eps)
    if x.alphabet is not None:
        chosen = [i for i, L in enumerate(x.alphabet.letters)
                  if (distance(L, center) < eps) == inside]
        if not chosen:
            return ns.EMPTY
        if len(chosen) == len(x.alphabet.letters):
            return ns.FULL
        if len(chosen) == 1:
            return x.alphabet.index_sets[chosen[0]]
        return ns.Union(tuple(x.alphabet.index_sets[i] for i in chosen))
    ball = x.ball_fn(center, eps)
    return ball if inside else ns.Complement(ball)


# ---------------------------------------------------------------------------
# Analysis parameters and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalysisParams:
    horizon: int = 1 << 16
    schedule: RadiusSchedule = field(default_factory=RadiusSchedule.dyadic)
    pitch: Fraction = Fraction(1, 1 << 10)
    hit_min: int = 16
    theta: Fraction = Fraction(1, 100)
    q_grid: tuple[Fraction, ...] = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2))
    q_margin: Fraction = Fraction(1, 100)

    def __post_init__(self):
        if self.horizon < 2:
            raise ValueError("horizon must be >= 2")
        if self.pitch > self.schedule.smallest:
            raise ValueError("grid pitch must not exceed the smallest radius")

    def decision(self) -> DecisionParams:
        return DecisionParams(horizon=self.horizon, theta=self.theta)


@dataclass
class RadiusRecord:
    eps: Fraction
    verdict: str
    exact: Optional[Fraction] = None
    numeric: Optional[Fraction] = None
    reason: str = ""               # the route that decided it, if any


def count_routes(reasons) -> dict[str, int]:
    """How many decisions each route took; the fin-x-fin row profile's
    reasons carry their counts, so they are pooled as ``row-profile``."""
    return dict(Counter("row-profile" if r.startswith("rows-at-horizon")
                        else r for r in reasons if r))


@dataclass
class CandidateRecord:
    point: Point
    classification: str
    radii: list[RadiusRecord] = field(default_factory=list)


@dataclass
class ClusterReport:
    mode: str                      # limit-points | gamma | lambda-q | lambda
    sequence: str
    ideal: Optional[str]
    q: Optional[Fraction]
    candidates: list[CandidateRecord]
    params: AnalysisParams

    def points(self, classification: str = CLUSTER) -> list[Point]:
        return [c.point for c in self.candidates
                if c.classification == classification]

    def route_counts(self) -> dict[str, int]:
        return count_routes(r.reason for c in self.candidates for r in c.radii)

    @property
    def undecided_share(self) -> Fraction:
        if not self.candidates:
            return Fraction(0)
        bad = sum(1 for c in self.candidates if c.classification == UNDECIDED)
        return Fraction(bad, len(self.candidates))

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "sequence": self.sequence,
            "ideal": self.ideal,
            "q": None if self.q is None else str(self.q),
            "horizon": self.params.horizon,
            "pitch": str(self.params.pitch),
            "radii": [str(r) for r in self.params.schedule],
            "candidates": [{
                "point": format_point(c.point),
                "classification": c.classification,
                "radii": [{"eps": str(r.eps), "verdict": r.verdict,
                           "exact": None if r.exact is None else str(r.exact),
                           "numeric": None if r.numeric is None else str(r.numeric)}
                          for r in c.radii],
            } for c in self.candidates],
        }

    def csv_rows(self) -> list[list[str]]:
        rows = [["candidate", "eps", "exact", "numeric", "class"]]
        for c in self.candidates:
            for r in c.radii:
                rows.append([format_point(c.point), str(r.eps),
                             "" if r.exact is None else str(r.exact),
                             "" if r.numeric is None else str(r.numeric),
                             c.classification])
        return rows


def candidate_grid(x: SequenceSpec, params: AnalysisParams,
                   extra: Sequence[Point] = ()) -> list[Point]:
    """Alphabet letters, or a pitch grid over the observed value box."""
    if x.alphabet is not None:
        out = list(x.alphabet.letters)
    else:
        spans = [((max(lo, -x.bound) / params.pitch).__floor__(),
                  (min(hi, x.bound) / params.pitch).__ceil__())
                 for lo, hi in x.sample_box(params.horizon)]
        size = math.prod(stop - start + 1 for start, stop in spans)
        if size > MAX_GRID_POINTS:
            raise ValueError(f"candidate grid of {size} points exceeds the "
                             f"limit of {MAX_GRID_POINTS}; raise --pitch")
        axes = [[params.pitch * k for k in range(start, stop + 1)]
                for start, stop in spans]
        out = [()]
        for axis in axes:
            out = [p + (v,) for p in out for v in axis]
    for p in extra:
        p = as_point(p, x.dim)
        if p not in out:
            out.append(p)
    return out


# ---------------------------------------------------------------------------
# Limit points and ideal cluster points
# ---------------------------------------------------------------------------

def limit_points_estimate(x: SequenceSpec, params: AnalysisParams,
                          extra: Sequence[Point] = (),
                          candidates: Optional[Sequence[Point]] = None) -> ClusterReport:
    """Ordinary limit points: every neighborhood hit cofinally.

    Alphabet route is exact (a letter is a limit point iff its ball's index
    set is infinite); otherwise a candidate needs at least ``hit_min`` hits
    in the tail (horizon/2, horizon] at every radius.
    """
    cands = (list(candidates) if candidates is not None
             else candidate_grid(x, params, extra))
    half = params.horizon // 2
    records = []
    for c in cands:
        radii: list[RadiusRecord] = []
        verdicts: list[str] = []
        for eps in params.schedule:
            ind = indicator_set(x, c, eps)
            inf = ind.is_infinite()
            if inf is True:
                v = CLUSTER
            elif inf is False:
                v = NOT_CLUSTER
            else:
                try:
                    hits = int(ind.prefix(params.horizon)[half:].sum())
                    v = CLUSTER if hits >= params.hit_min else NOT_CLUSTER
                except ns.HorizonExceeded:
                    v = UNDECIDED
            verdicts.append(v)
            radii.append(RadiusRecord(eps, v))
        if any(v == NOT_CLUSTER for v in verdicts):
            cls = NOT_CLUSTER
        elif all(v == CLUSTER for v in verdicts):
            cls = CLUSTER
        else:
            cls = UNDECIDED
        records.append(CandidateRecord(c, cls, radii))
    return ClusterReport("limit-points", x.name, None, None, records, params)


def gamma_estimate(x: SequenceSpec, handle: IdealHandle, params: AnalysisParams,
                   extra: Sequence[Point] = (),
                   candidates: Optional[Sequence[Point]] = None) -> ClusterReport:
    """Cluster points modulo the ideal: every neighborhood's index set NotIn."""
    cands = (list(candidates) if candidates is not None
             else candidate_grid(x, params, extra))
    dparams = params.decision()
    records = []
    for c in cands:
        radii: list[RadiusRecord] = []
        verdicts: list[Verdict] = []
        for eps in params.schedule:
            ind = indicator_set(x, c, eps)
            dec = decide_membership(handle, ind, dparams)
            verdicts.append(dec.verdict)
            radii.append(RadiusRecord(eps, dec.verdict.value,
                                      exact=dec.exact, numeric=dec.estimate,
                                      reason=dec.reason))
        if any(v is Verdict.IN for v in verdicts):
            cls = NOT_CLUSTER
        elif all(v is Verdict.NOT_IN for v in verdicts):
            cls = CLUSTER
        else:
            cls = UNDECIDED
        records.append(CandidateRecord(c, cls, radii))
    return ClusterReport("gamma", x.name, handle.name, None, records, params)


# ---------------------------------------------------------------------------
# The limiting-norm functional and its level sets
# ---------------------------------------------------------------------------

@dataclass
class UFrakResult:
    per_radius: list[tuple[Fraction, sm.NormEstimate]]
    exact: Optional[Fraction]
    numeric: Fraction

    def value(self) -> Fraction:
        return self.exact if self.exact is not None else self.numeric


def u_frak(x: SequenceSpec, sigma, ell, m: sm.Lscsm,
           params: AnalysisParams) -> UFrakResult:
    """Limit of the tail norms of shrinking neighborhood indicators.

    ``sigma`` (None = identity) reindexes the sequence first.  The reported
    value is the estimate at the smallest radius; the per-radius sequence is
    the convergence diagnostic (non-increasing when everything is exact).
    """
    if sigma is not None:
        from . import transforms
        x = transforms.apply(sigma, x)
    ell = as_point(ell, x.dim)
    per: list[tuple[Fraction, sm.NormEstimate]] = []
    for eps in params.schedule:
        ind = indicator_set(x, ell, eps)
        per.append((eps, sm.norm_estimate(m, ind, params.horizon)))
    last = per[-1][1]
    return UFrakResult(per, last.exact, last.numeric)


def lambda_q_estimate(x: SequenceSpec, handle: IdealHandle, q: Fraction,
                      params: AnalysisParams,
                      extra: Sequence[Point] = ()) -> ClusterReport:
    """The q-level set of the limiting norm: points where it reaches q."""
    return _limiting_norm_report(
        "lambda-q", x, handle, q, params, extra,
        lambda u, q: _classify_u(u, q, params.q_margin))


def _classify_u(u: UFrakResult, q: Fraction, margin: Fraction) -> str:
    if u.exact is not None:
        return CLUSTER if u.exact >= q else NOT_CLUSTER
    # the margin band cannot extend past the normalized ceiling of 1
    if u.numeric >= min(q + margin, Fraction(1)):
        return CLUSTER
    if u.numeric <= q - margin:
        return NOT_CLUSTER
    return UNDECIDED


def lambda_estimate(x: SequenceSpec, handle: IdealHandle,
                    params: AnalysisParams,
                    extra: Sequence[Point] = ()) -> ClusterReport:
    """Union of the q-level sets over the configured q grid.

    Each candidate's limiting norm is evaluated once and classified against
    every level; membership at any level puts the point in the union.
    """
    def classify(u: UFrakResult, _q) -> str:
        per_q = [_classify_u(u, q, params.q_margin)
                 for q in sorted(params.q_grid)]
        if CLUSTER in per_q:
            return CLUSTER
        if all(v == NOT_CLUSTER for v in per_q):
            return NOT_CLUSTER
        return UNDECIDED

    return _limiting_norm_report("lambda", x, handle, None, params, extra,
                                 classify)


def _limiting_norm_report(mode: str, x: SequenceSpec, handle: IdealHandle,
                          q: Optional[Fraction], params: AnalysisParams,
                          extra: Sequence[Point], classify) -> ClusterReport:
    """The candidate loop of the lambda routes: ``classify(u, q)`` turns each
    candidate's limiting norm into its classification."""
    if handle.lscsm is None:
        raise NotAnalyticP(f"{handle.name} carries no submeasure")
    if q is not None:
        q = Fraction(q)
        if not 0 < q <= 1:
            raise ValueError("q must lie in (0, 1]")
    records = []
    for c in candidate_grid(x, params, extra):
        try:
            u = u_frak(x, None, c, handle.lscsm, params)
        except ns.HorizonExceeded:
            records.append(CandidateRecord(c, UNDECIDED, []))
            continue
        cls = classify(u, q)
        radii = [RadiusRecord(eps, cls, est.exact, est.numeric,
                              "exact-norm" if est.exact is not None
                              else "tail-trend")
                 for eps, est in u.per_radius]
        records.append(CandidateRecord(c, cls, radii))
    return ClusterReport(mode, x.name, handle.name, q, records, params)


# ---------------------------------------------------------------------------
# Convergence modulo an ideal, two independent routes
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceReport:
    verdict: str                   # converges | diverges | undecided
    primary: str
    cross: str
    agree: bool
    ell: Point
    ideal: str
    # route counts of each leg's decisions; run statistics, not report
    routes: dict[str, dict[str, int]] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "primary": self.primary,
                "cross": self.cross, "agree": self.agree,
                "ell": format_point(self.ell), "ideal": self.ideal}


def ideal_convergence_check(x: SequenceSpec, handle: IdealHandle, ell,
                            params: AnalysisParams) -> ConvergenceReport:
    """Convergence to ell modulo the ideal, checked two ways.

    Primary route: the complement of every neighborhood indicator lies in the
    ideal.  Cross route: the cluster-point set is the singleton {ell} (the
    bounded box is compact, so the two agree in the limit).  Disagreement or
    an undecided leg yields Undecided, never a guess.
    """
    ell = as_point(ell, x.dim)
    dparams = params.decision()
    prim_verdicts = []
    prim_reasons = []
    for eps in params.schedule:
        comp = complement_indicator_set(x, ell, eps)
        dec = decide_membership(handle, comp, dparams)
        prim_verdicts.append(dec.verdict)
        prim_reasons.append(dec.reason)
    if all(v is Verdict.IN for v in prim_verdicts):
        primary = "converges"
    elif any(v is Verdict.NOT_IN for v in prim_verdicts):
        primary = "diverges"
    else:
        primary = "undecided"

    gamma = gamma_estimate(x, handle, params, extra=[ell])
    tol = params.schedule.smallest
    ell_cls = None
    stray = False
    undecided = False
    for c in gamma.candidates:
        near = distance(c.point, ell) <= tol
        if c.point == ell:
            ell_cls = c.classification
        if c.classification == CLUSTER and not near:
            stray = True
        if c.classification == UNDECIDED:
            undecided = True
    if ell_cls == CLUSTER and not stray and not undecided:
        cross = "converges"
    elif ell_cls == NOT_CLUSTER or stray:
        cross = "diverges"
    else:
        cross = "undecided"

    agree = primary == cross
    verdict = primary if agree and primary != "undecided" else "undecided"
    routes = {"primary": count_routes(prim_reasons),
              "cross": gamma.route_counts()}
    return ConvergenceReport(verdict, primary, cross, agree, ell, handle.name,
                             routes)
