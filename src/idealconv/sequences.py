"""Point sequences in rational boxes and their cluster structure.

A sequence is a total generator n -> point with rational coordinates under
the sup metric.  Every neighborhood indicator, the index set
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
from functools import cached_property
from fractions import Fraction
from typing import Callable, Optional, Sequence

from ._lazy import lazy_numpy
from . import natset as ns
from . import submeasure as sm
from .ideals import (DecisionParams, IdealHandle, Verdict, decide_each,
                     tail_decisions)

np = lazy_numpy()

Point = tuple[Fraction, ...]

CLUSTER = "cluster"
NOT_CLUSTER = "not-cluster"
UNDECIDED = "undecided"
MAX_GRID_POINTS = 1 << 20       # candidate grids larger than this are refused
# an estimated limiting norm must clear a level q by this much either way
Q_MARGIN = Fraction(1, 100)


class NotAnalyticP(Exception):
    """The operation needs a submeasure-backed (analytic P) ideal."""


def as_point(value, dim: int = 1) -> Point:
    if isinstance(value, tuple):
        # a tuple of Fractions is a point already
        pt = (value if all(type(v) is Fraction for v in value)
              else tuple(Fraction(v) for v in value))
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
        radii = tuple(r if type(r) is Fraction else Fraction(r) for r in radii)
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
    """Finitely many letter values whose index sets partition N.

    A set of letters is named by its bitmask over letter positions (bit i
    for letter i); ``union`` keeps one index set per mask, so a ball's
    periodic form and prefix are built once per letter subset however many
    centers and radii give that ball.  The index sets are not to change
    once a ball has been built.
    """

    letters: list[Point]
    index_sets: list[ns.NatSet]
    _unions: dict[int, ns.NatSet] = field(default_factory=dict, init=False,
                                          repr=False, compare=False)

    def __post_init__(self):
        if len(self.letters) != len(self.index_sets) or not self.letters:
            raise ValueError("letters and index sets must align")

    def union(self, mask: int) -> ns.NatSet:
        """The index set of the letters in ``mask``: EMPTY, FULL, a letter's
        own set, or a Union of the letters' sets, one object per mask."""
        s = self._unions.get(mask)
        if s is None:
            chosen = [t for i, t in enumerate(self.index_sets) if mask >> i & 1]
            if not chosen:
                s = ns.EMPTY
            elif len(chosen) == len(self.index_sets):
                s = ns.FULL
            elif len(chosen) == 1:
                s = chosen[0]
            else:
                s = ns.Union(tuple(chosen))
            self._unions[mask] = s
        return s

    def validate_partition(self, horizon: int) -> None:
        """Refuse index sets that do not partition N, naming the first index
        no letter covers or more than one covers.

        Past the last segment start of the letters' periodic forms every
        letter repeats with the lcm of their periods, so where each letter
        has a form, the window through one such period decides all of N
        (read when it ends within ``PERIODIC_BITS``).  Otherwise the check
        reads [1, horizon], or the longest window [1, horizon / 2^j] every
        letter decides.
        """
        sets = self.index_sets
        forms = [ns.periodic_form(s) for s in sets]
        if None not in forms:
            end = (max(f.starts[-1] for f in forms)
                   + math.lcm(*(f.period for f in forms)) - 1)
            if end <= ns.PERIODIC_BITS:
                horizon = end
        while horizon >= 1:
            # the count at an index never exceeds the number of letters
            total = np.zeros(horizon, np.min_scalar_type(len(sets)))
            try:
                for s in sets:
                    total += s.prefix(horizon)
                break
            except ns.HorizonExceeded:
                horizon //= 2
        else:
            return
        bad = np.flatnonzero(total != 1)
        if bad.size:
            covers = int(total[bad[0]])
            raise ValueError(
                f"letter index sets do not partition N: index {bad[0] + 1} "
                + ("is not covered" if covers == 0
                   else f"is covered by {covers} letters"))

    def letter_index(self, n: int) -> int:
        for i, s in enumerate(self.index_sets):
            if s.member(n):
                return i
        raise ValueError(f"no letter covers index {n}")


@dataclass
class SequenceSpec:
    """Generator-backed sequence with the index sets of its balls.

    An alphabet sequence's balls are unions of its letters' index sets,
    and its letters are its candidates.  Any other sequence needs
    ``ball_fn(center, eps)``, which returns the exact index set
    {n : d(x_n, center) < eps} as a NatSet, and a ``box``: per coordinate a
    closed range (lo, hi) holding every value, hence every limit point,
    whose pitch lattice is its candidate grid.

    ``rows_fn(centers, eps, idx)``, where given, is the same exact test over
    many centres at once: the (K, len(idx)) bits of the K balls at the
    positive indices of the int64 array ``idx``, or None where a map image
    reads its balls one member at a time (``transforms.apply``).
    ``tested_balls`` says that ``rows_fn`` reads balls that are ``Tested``
    sets without density, which only their bits decide.
    """

    dim: int
    point_fn: Callable[[int], Point]
    alphabet: Optional[Alphabet] = None
    box: Optional[Sequence[tuple[Fraction, Fraction]]] = None
    name: str = "sequence"
    ball_fn: Optional[Callable[[Point, Fraction], ns.NatSet]] = None
    rows_fn: Optional[Callable[[Sequence[Point], Fraction, np.ndarray],
                               Optional[np.ndarray]]] = None
    tested_balls: bool = False
    # not a field, so the constructor refuses it: nothing here calls it, but
    # the benchmark's tracer still reads and wraps the name on zoo specs
    indicator_fn = None

    def __post_init__(self):
        if self.alphabet is None and (self.ball_fn is None or self.box is None):
            raise ValueError(f"{self.name} needs an alphabet, or a ball_fn "
                             "and a box")

    def point(self, n: int) -> Point:
        if n < 1:
            raise ValueError("indices start at 1")
        p = self.point_fn(n)
        return p if isinstance(p, tuple) else (Fraction(p),)

    def hit_bits(self, center: Point, eps: Fraction, horizon: int) -> np.ndarray:
        return indicator_set(self, center, eps).prefix(horizon)


def indicator_set(x: SequenceSpec, center: Point, eps: Fraction) -> ns.NatSet:
    """The index set {n : d(x_n, center) < eps} as a symbolic set.

    Exact letter unions for alphabet sequences (all letters inside the ball
    collapse to the cofinite full set, none to the empty set), else the
    sequence's own ``ball_fn`` set.
    """
    return Balls(x, center).set(Fraction(eps))


def complement_indicator_set(x: SequenceSpec, center: Point,
                             eps: Fraction) -> ns.NatSet:
    """Exact complement {n : d(x_n, center) >= eps} (letter unions stay exact)."""
    return Balls(x, center).set(Fraction(eps), inside=False)


class Balls:
    """The balls of a sequence around one center, radius by radius.

    For an alphabet sequence the letter distances are taken once: a radius
    only picks the letters nearer than it, and ``key`` names them (or the
    letters outside) as a mask for ``Alphabet.union``.  The distances are
    kept in order as integer pairs (numerator, denominator), which ``key``
    compares with the radius by cross-products.  A sequence without an
    alphabet has no key, and its balls come from ``ball_fn`` at the center
    converted here.
    """

    def __init__(self, x: SequenceSpec, center: Point):
        self.x = x
        self.center = center = as_point(center, x.dim)
        self._near: Optional[list[tuple[int, int]]] = None
        if x.alphabet is not None:
            dists = [distance(L, center) for L in x.alphabet.letters]
            order = sorted(range(len(dists)), key=dists.__getitem__)
            # the k nearest letters are masks[k]: the ball of radius eps
            # holds the letters of the distances below eps, a prefix of order
            self._near = [dists[i].as_integer_ratio() for i in order]
            self._masks = [0]
            for i in order:
                self._masks.append(self._masks[-1] | 1 << i)

    def key(self, eps: Fraction, inside: bool = True) -> Optional[int]:
        if self._near is None:
            return None
        e, f = eps.numerator, eps.denominator
        k = 0
        for n, d in self._near:
            if n * f >= e * d:
                break
            k += 1
        near = self._masks[k]
        return near if inside else self._masks[-1] ^ near

    def set(self, eps: Fraction, inside: bool = True) -> ns.NatSet:
        key = self.key(eps, inside)
        if key is None:
            ball = self.x.ball_fn(self.center, eps)
            return ball if inside else ns.Complement(ball)
        return self.x.alphabet.union(key)


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

    def __post_init__(self):
        if self.horizon < 2:
            raise ValueError("horizon must be >= 2")
        if self.pitch > self.schedule.smallest:
            raise ValueError("grid pitch must not exceed the smallest radius")
        # the rule lambda_q_estimate applies to its q, level by level
        if not self.q_grid or not all(0 < q <= 1 for q in self.q_grid):
            raise ValueError("q_grid must be a non-empty list of q in (0, 1]")

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
    """How many decisions each route took."""
    return dict(Counter(r for r in reasons if r))


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

    @cached_property
    def _texts(self) -> list[tuple[str, list[tuple]]]:
        """Each candidate's point and each of its radius records as text,
        formatted once for both ``to_json`` and ``csv_rows``: (eps,
        verdict, exact, numeric), None for a missing value."""
        return [(format_point(c.point),
                 [(str(r.eps), r.verdict,
                   None if r.exact is None else str(r.exact),
                   None if r.numeric is None else str(r.numeric))
                  for r in c.radii])
                for c in self.candidates]

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
                "point": point,
                "classification": c.classification,
                "radii": [{"eps": eps, "verdict": verdict, "exact": exact,
                           "numeric": numeric}
                          for eps, verdict, exact, numeric in radii],
            } for c, (point, radii) in zip(self.candidates, self._texts)],
        }

    def csv_rows(self) -> list[list[str]]:
        rows = [["candidate", "eps", "exact", "numeric", "class"]]
        for c, (point, radii) in zip(self.candidates, self._texts):
            for eps, _, exact, numeric in radii:
                rows.append([point, eps, exact or "", numeric or "",
                             c.classification])
        return rows


def candidate_grid(x: SequenceSpec, params: AnalysisParams,
                   extra: Sequence[Point] = ()) -> list[Point]:
    """Alphabet letters, or the pitch lattice over the declared box."""
    if x.alphabet is not None:
        out = list(x.alphabet.letters)
    else:
        spans = [((lo / params.pitch).__floor__(), (hi / params.pitch).__ceil__())
                 for lo, hi in x.box]
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
# The candidate walk and the fold of its readings
# ---------------------------------------------------------------------------

def _walk(x: SequenceSpec, cands: Sequence[Point],
          read: Callable[[Fraction, list[Balls]], list],
          radii: RadiusSchedule, inside: bool = True,
          keep: Optional[Callable[[object], bool]] = None):
    """Each candidate with its ``Balls`` and its readings, the pairs (eps,
    reading) in the order of ``radii``, or None once ``keep`` rejects one.

    The radii go from the smallest up, and at each the balls of the
    candidates still walking (their complements with ``inside`` false) are
    read by one ``read(eps, balls)`` call, a reading per ``Balls``.  A ball
    of letters is read once per letter subset for the whole walk, which is
    one analysis leg: the call that fixes the sequence, the handle and the
    parameters.  Balls without a key (no alphabet) are read every time.
    """
    balls = [Balls(x, c) for c in cands]
    keys: list = [[] for _ in balls]    # each one's memo keys, radius up
    walking = list(zip(balls, keys))
    memo: dict = {}
    for j, eps in enumerate(reversed(radii.radii)):
        fresh = {}
        for b, ks in walking:
            k = b.key(eps, inside)
            ks.append((j, b) if k is None else k)
            if ks[-1] not in memo:
                fresh[ks[-1]] = b
        if fresh:
            memo.update(zip(fresh, read(eps, [*fresh.values()])))
        if keep is not None:
            walking = [w for w in walking if keep(memo[w[1][-1]])]
            if not walking:
                break
    # a dropped candidate's last reading is the one keep rejected
    return [(c, b, None if keep is not None and not keep(memo[ks[-1]])
             else [(eps, memo[k]) for eps, k in zip(radii, reversed(ks))])
            for c, b, ks in zip(cands, balls, keys)]


def _fold(verdicts, keep, drop) -> str:
    """A candidate's class from its radius verdicts, in three values:
    NOT_CLUSTER once one verdict is ``drop``, CLUSTER when every one is
    ``keep``, else UNDECIDED."""
    seen = set(verdicts)
    if drop in seen:
        return NOT_CLUSTER
    return CLUSTER if seen == {keep} else UNDECIDED


def _radius_records(x: SequenceSpec, cands: Sequence[Point], read, record,
                    params: AnalysisParams, keep, drop) -> list[CandidateRecord]:
    """Every candidate with a ``record(eps, reading)`` per radius, classified
    by the fold of the records' verdicts."""
    out = []
    for c, _, readings in _walk(x, cands, read, params.schedule):
        radii = [record(eps, r) for eps, r in readings]
        out.append(CandidateRecord(
            c, _fold((r.verdict for r in radii), keep, drop), radii))
    return out


# ---------------------------------------------------------------------------
# Limit points and ideal cluster points
# ---------------------------------------------------------------------------

def limit_points_estimate(x: SequenceSpec,
                          params: AnalysisParams) -> ClusterReport:
    """Ordinary limit points: every neighborhood hit cofinally.

    A radius is exact where the ball's index set knows whether it is
    infinite (route ``infiniteness``); otherwise it needs at least
    ``hit_min`` hits in the tail (horizon/2, horizon] (``hit-count``), or
    is undecided where that tail cannot be read (``horizon-exceeded``).
    """
    half = params.horizon // 2

    def hit_verdict(ind: ns.NatSet) -> tuple[str, str]:
        inf = ind.is_infinite()
        if inf is not None:
            return (CLUSTER if inf else NOT_CLUSTER), "infiniteness"
        try:
            hits = int(ind.prefix(params.horizon)[half:].sum())
        except ns.HorizonExceeded:
            return UNDECIDED, "horizon-exceeded"
        return (CLUSTER if hits >= params.hit_min else NOT_CLUSTER), "hit-count"

    records = _radius_records(
        x, candidate_grid(x, params),
        lambda eps, balls: [hit_verdict(b.set(eps)) for b in balls],
        lambda eps, r: RadiusRecord(eps, r[0], reason=r[1]),
        params, CLUSTER, NOT_CLUSTER)
    return ClusterReport("limit-points", x.name, None, None, records, params)


def gamma_estimate(x: SequenceSpec, handle: IdealHandle, params: AnalysisParams,
                   extra: Sequence[Point] = (),
                   candidates: Optional[Sequence[Point]] = None,
                   records: bool = True) -> ClusterReport:
    """Cluster points modulo the ideal: every neighborhood's index set NotIn.

    A radius's balls are decided at once, from their rows where
    ``_row_decisions`` can, else by one ``decide_each`` call.  With
    ``records=False`` only the cluster points are found: a candidate drops
    out at its first verdict other than NotIn (the smallest ball, read
    first, is the likeliest to be In or undecided), and the report holds
    the cluster candidates alone, without radius records.  Its ``points()``
    equal the full report's, and each of its labels was decided.
    """
    cands = (list(candidates) if candidates is not None
             else candidate_grid(x, params, extra))
    dparams = params.decision()

    def decide(eps: Fraction, balls: list[Balls]) -> list:
        return (_row_decisions(x, [b.center for b in balls], eps, handle,
                               dparams)
                or decide_each(handle, [b.set(eps) for b in balls], dparams))

    if records:
        out = _radius_records(
            x, cands, decide,
            lambda eps, d: RadiusRecord(eps, d.verdict.value, d.exact,
                                        d.estimate, d.reason),
            params, Verdict.NOT_IN.value, Verdict.IN.value)
    else:
        out = [CandidateRecord(c, CLUSTER, [])
               for c, _, decs in _walk(
                   x, cands, decide, params.schedule,
                   keep=lambda d: d.verdict is Verdict.NOT_IN)
               if decs is not None]
    return ClusterReport("gamma", x.name, handle.name, None, out, params)


def _row_decisions(x: SequenceSpec, centers: list[Point], eps: Fraction,
                   handle: IdealHandle, dparams: DecisionParams):
    """The decisions of the radius-eps balls around ``centers``, read from
    x's rows when its balls are tested sets without density: no exact
    norm, witness block or structural rule decides one, so each decision is
    its tail trend, and ``sm.tail_rows`` balls share one kernel call and one
    tail pass.  None, for ``decide_each`` to decide the balls, under an ideal
    without lscsm (fin-x-fin, whose row rules read no prefix) or where the
    rows raise HorizonExceeded or are not known."""
    if not x.tested_balls or handle.lscsm is None:
        return None
    idx = np.arange(1, dparams.horizon + 1, dtype=np.int64)
    step = sm.tail_rows(dparams.horizon)
    out = []
    for lo in range(0, len(centers), step):
        try:
            rows = x.rows_fn(centers[lo:lo + step], eps, idx)
        except ns.HorizonExceeded:
            return None
        if rows is None:
            return None
        out += tail_decisions(handle, rows, dparams)
    return out


# ---------------------------------------------------------------------------
# The limiting-norm functional and its level sets
# ---------------------------------------------------------------------------

@dataclass
class UFrakResult:
    per_radius: list[tuple[Fraction, Optional[Fraction], Optional[Fraction]]]
    exact: Optional[Fraction]
    numeric: Optional[Fraction]          # None where exact is set
    # exact is taken for the limiting norm, not only an upper bound on it
    settled: bool

    def value(self) -> Fraction:
        return self.exact if self.exact is not None else self.numeric


def _norm_reader(m: sm.Lscsm, horizon: int):
    """A ball's norm as (exact, numeric): the exact norm where known (no
    prefix, no tail value, so numeric None), else the corrected tail value
    at the deepest default cut; None past the horizon."""
    deepest = sm.default_cuts(horizon)[-1]

    def norm(balls: Balls, eps: Fraction):
        try:
            ind = balls.set(eps)
            exact = m.exact_norm(ind)
            if exact is not None:
                return exact, None
            bits = ind.prefix(horizon)
        except ns.HorizonExceeded:
            return None
        [[value]] = sm.norm_estimate(m, bits[None], [deepest])
        return None, Fraction(*value)

    return lambda eps, balls: [norm(b, eps) for b in balls]


def _limiting_norm(balls: Balls, per: list[tuple[Fraction, tuple]]
                   ) -> UFrakResult:
    """The limiting norm read off one candidate's per-radius norms, the
    pairs (eps, ``_norm_reader``'s reading).

    The value is the estimate at the smallest radius.  An exact norm there
    bounds the limit from above, since norms do not increase as the radius
    shrinks; it is settled (taken for the limit) when no smaller radius
    changes the ball: an alphabet ball that holds only letters equal to the
    center.  Otherwise it is read as the limit once the two smallest radii
    give the same exact norm; a norm that keeps shrinking (a rationals ball
    under Z, the length of its interval) is not settled.
    """
    per = [(eps, exact, numeric) for eps, (exact, numeric) in per]
    eps, exact, numeric = per[-1]
    if exact is None:
        settled = False
    elif balls._near is not None:
        e, f = eps.numerator, eps.denominator
        settled = all(n == 0 for n, d in balls._near if n * f < e * d)
    else:
        settled = len(per) >= 2 and per[-2][1] == exact
    return UFrakResult(per, exact, numeric, settled)


def u_frak(x: SequenceSpec, ell, m: sm.Lscsm,
           params: AnalysisParams) -> UFrakResult:
    """Limit of the tail norms of shrinking neighborhood indicators of ell.

    The per-radius sequence is the convergence diagnostic (non-increasing
    when everything is exact).  A reindexed sequence is analysed through
    ``transforms.apply`` first.
    """
    [(_, balls, norms)] = _walk(x, [ell], _norm_reader(m, params.horizon),
                                params.schedule, keep=lambda n: n is not None)
    if norms is None:
        raise ns.HorizonExceeded(
            f"a ball around {format_point(balls.center)} passes the horizon")
    return _limiting_norm(balls, norms)


def _classify_u(u: UFrakResult, q: Fraction) -> str:
    if u.exact is not None:
        if u.exact < q:
            return NOT_CLUSTER
        return CLUSTER if u.settled else UNDECIDED
    # the margin band cannot extend past the normalized ceiling of 1
    if u.numeric >= min(q + Q_MARGIN, Fraction(1)):
        return CLUSTER
    if u.numeric <= q - Q_MARGIN:
        return NOT_CLUSTER
    return UNDECIDED


def lambda_q_estimate(x: SequenceSpec, handle: IdealHandle, q: Fraction,
                      params: AnalysisParams) -> ClusterReport:
    """The q-level set of the limiting norm: points where it reaches q."""
    return _level_set_report("lambda-q", x, handle, q, params)


def lambda_estimate(x: SequenceSpec, handle: IdealHandle,
                    params: AnalysisParams) -> ClusterReport:
    """Union of the q-level sets over the configured q grid."""
    return _level_set_report("lambda", x, handle, None, params)


def _level_set_report(mode: str, x: SequenceSpec, handle: IdealHandle,
                      q: Optional[Fraction],
                      params: AnalysisParams) -> ClusterReport:
    """The candidates whose limiting norm reaches q, each norm read once.

    With q None the report is the union of the level sets over
    ``params.q_grid``.  A candidate's class does not rise as the level
    does (in, undecided, out), so the union is the level set at the least
    q of the grid.
    """
    if handle.lscsm is None:
        raise NotAnalyticP(f"{handle.name} carries no submeasure")
    if q is not None:
        q = Fraction(q)
        if not 0 < q <= 1:
            raise ValueError("q must lie in (0, 1]")
    level = min(params.q_grid) if q is None else q
    records = []
    for c, balls, norms in _walk(x, candidate_grid(x, params),
                                 _norm_reader(handle.lscsm, params.horizon),
                                 params.schedule,
                                 keep=lambda n: n is not None):
        if norms is None:
            records.append(CandidateRecord(c, UNDECIDED, []))
            continue
        u = _limiting_norm(balls, norms)
        cls = _classify_u(u, level)
        radii = [RadiusRecord(eps, cls, exact, numeric,
                              "exact-norm" if exact is not None
                              else "tail-trend")
                 for eps, exact, numeric in u.per_radius]
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
    # the cross leg's gamma_estimate walks with its own memo: the legs share
    # no decision
    [(_, _, readings)] = _walk(
        x, [ell],
        lambda eps, balls: decide_each(
            handle, [b.set(eps, inside=False) for b in balls], dparams),
        params.schedule, inside=False)
    decs = [d for _, d in readings]
    primary = {CLUSTER: "converges", NOT_CLUSTER: "diverges"}.get(
        _fold((d.verdict for d in decs), Verdict.IN, Verdict.NOT_IN),
        "undecided")

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
    routes = {"primary": count_routes(d.reason for d in decs),
              "cross": gamma.route_counts()}
    return ConvergenceReport(verdict, primary, cross, agree, ell, handle.name,
                             routes)
