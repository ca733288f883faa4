"""Lower semicontinuous submeasures and finite-horizon norm estimation.

All values are exact: a :class:`fractions.Fraction`, or a pair (numerator,
denominator) where a tail is read, which compares by integer cross-products.
Certification never goes through floating point (floats appear only inside
an argmax heuristic whose answer is re-verified with integer arithmetic).
Each variant knows how to evaluate itself on a prefix, on a tail window, and
on an explicit finite set, and carries a table of closed-form limit norms for
the structured set variants it can recognize.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor, gcd
from typing import Optional, Sequence

from ._lazy import lazy_numpy
from . import natset as ns

np = lazy_numpy()

ZERO = Fraction(0)
ONE = Fraction(1)


def max_count_ratio(counts: np.ndarray, t: int) -> Fraction:
    """Exact max of (counts[n-1] - counts[t-1]) / n over n in (t, N].

    ``counts`` is the cumulative membership count on [1, N].  A float argmax
    proposes a candidate; integer cross-multiplication certifies it, looping
    while any position beats the current best (each round strictly improves
    the exact value, so termination is immediate in practice).  Lengths
    past 2^31 are refused: there the int64 cross-products could overflow.
    """
    n_total = counts.shape[0]
    if n_total > (1 << 31):
        raise ValueError(f"counts of length {n_total} exceed 2^31")
    if t >= n_total:
        raise ValueError("cut must lie below the horizon")
    base = int(counts[t - 1]) if t > 0 else 0
    num = counts[t:] - base
    den = np.arange(t + 1, n_total + 1, dtype=np.int64)
    if int(num[-1]) == 0:
        return ZERO
    best = int(np.argmax(num / den))
    bn, bd = int(num[best]), int(den[best])
    while True:
        better = np.flatnonzero(num * bd > bn * den)
        if better.size == 0:
            return Fraction(bn, bd)
        j = int(better[np.argmax(num[better] / den[better])])
        bn, bd = int(num[j]), int(den[j])


def max_count_ratios(counts: np.ndarray, t: int) -> list[tuple[int, int]]:
    """``max_count_ratio`` of every row of a (K, N) matrix of cumulative
    counts (counts[:, n - 1] counts [1, n]), as pairs (numerator,
    denominator).

    A float argmax proposes one position per row, and one int64 cross-
    product check over the matrix certifies every row at once; a row that
    the check improves on goes through ``max_count_ratio``, and so does a
    single row, for which the batch's broadcasting costs more than it
    saves.  The products stay below 2^62 for N up to 2^31.
    """
    n_total = counts.shape[1]
    if n_total > (1 << 31):
        raise ValueError(f"counts of length {n_total} exceed 2^31")
    if t >= n_total:
        raise ValueError("cut must lie below the horizon")
    if counts.shape[0] == 1:
        v = max_count_ratio(counts[0], t)
        return [(v.numerator, v.denominator)]
    num = counts[:, t:] - counts[:, t - 1:t] if t > 0 else counts
    den = np.arange(t + 1, n_total + 1, dtype=np.int64)
    best = (num / den).argmax(axis=1)
    bn = num[np.arange(num.shape[0]), best]
    bd = den[best]
    out = list(zip(bn.tolist(), bd.tolist()))
    better = (num * bd[:, None] > bn[:, None] * den).any(axis=1)
    for r in better.nonzero()[0].tolist():
        v = max_count_ratio(counts[r], t)
        out[r] = (v.numerator, v.denominator)
    return out


def sum_unit_fractions_raw(values: Sequence[int]) -> tuple[int, int]:
    """Exact sum of 1/v as an unreduced pair, pairwise-reduced so the
    denominators stay balanced; skipping the gcd keeps comparisons cheap."""
    if len(values) == 0:
        return 0, 1
    nums = [1] * len(values)
    dens = [int(v) for v in values]
    while len(dens) > 1:
        half = len(dens) // 2
        nn, nd = [], []
        for i in range(half):
            p1, q1 = nums[2 * i], dens[2 * i]
            p2, q2 = nums[2 * i + 1], dens[2 * i + 1]
            nn.append(p1 * q2 + p2 * q1)
            nd.append(q1 * q2)
        if len(dens) & 1:
            nn.append(nums[-1])
            nd.append(dens[-1])
        nums, dens = nn, nd
    return nums[0], dens[0]


def sum_unit_fractions(values: Sequence[int]) -> Fraction:
    """Exact sum of 1/v over the values."""
    p, q = sum_unit_fractions_raw(values)
    return Fraction(p, q)


FIXED_BITS = 56
INT64_SAFE = 1 << 62        # the largest right end unit_fraction_bounds takes


def unit_fraction_bounds(lo: int, hi: int) -> tuple[int, int]:
    """Integers a <= 2^56 * sum_{lo <= k < hi} 1/k <= b, with no float.

    a sums floor(2^56 / k) in int64 over chunks of 2^16 consecutive k, whose
    sum stays below 2^56 * H(2^16) < 2^60; b = a + (hi - lo), since each
    floor drops less than 1.
    """
    if lo < 1 or hi > INT64_SAFE:
        raise ValueError("need 1 <= lo and hi <= 2^62")
    one = np.int64(1 << FIXED_BITS)
    a = 0
    for start in range(lo, hi, 1 << 16):
        k = np.arange(start, min(start + (1 << 16), hi), dtype=np.int64)
        a += int((one // k).sum())
    return a, a + max(0, hi - lo)


class Lscsm:
    """A monotone subadditive set function with phi(empty) = 0, finite on
    finite sets, determined by its finite truncations."""

    name = "lscsm"

    def phi_points(self, members: Sequence[int]) -> Fraction:
        """phi of an explicit finite set."""
        raise NotImplementedError

    def tail_value(self, bits: np.ndarray, cuts: Sequence[int]) -> list:
        """phi(s ∩ (t, N]) for each cut t, in the order given, from the full
        prefix bits of s on [1, N]; one pass over the prefix serves all cuts.

        ``bits`` is a (K, N) matrix of K prefixes, one row per set: the
        kernel reads all rows at once and returns K rows of exact values as
        pairs (numerator, denominator), the denominator positive and the
        pair not reduced, which compare by cross-products without a
        Fraction.  A 1-D prefix is read as the one-row matrix.
        """
        raise NotImplementedError

    def interval_mass(self, lo: int, hi: int) -> Fraction:
        """phi of the interval [lo, hi), exact, without materializing it."""
        raise NotImplementedError(self.name)

    def interval_mass_cmp(self, lo: int, hi: int, q: Fraction) -> int:
        """Sign of phi([lo, hi)) - q, exact."""
        v = self.interval_mass(lo, hi)
        return (v > q) - (v < q)

    def mass_length(self, lo: int, q: Fraction, cap: int,
                    strict: bool = False) -> Optional[int]:
        """The least L in [1, cap] with phi([lo, lo + L)) >= q (> q when
        strict), or None: the exact inverse of the interval mass."""
        raise NotImplementedError(self.name)

    def tail_correction(self, t: int, horizon: int) -> Fraction:
        """Finite-horizon attenuation of a tail value for this variant.

        Used to normalize tail diagnostics so that structured sets agree with
        their limit norms at desk scale; 1 unless the variant divides by
        absolute position.
        """
        return ONE

    def exact_norm(self, s: ns.NatSet) -> Optional[Fraction]:
        """The limit norm lim_t phi(s minus [1, t]) when s has a closed form."""
        if s.is_infinite() is False:
            return ZERO
        return self._exact_norm_infinite(s)

    def _exact_norm_infinite(self, s: ns.NatSet) -> Optional[Fraction]:
        # N minus finitely many points, or minus a null set, has the limit
        # norm of N: phi is monotone and subadditive
        if isinstance(s, ns.Cofinite) or (isinstance(s, ns.Complement)
                                          and self.exact_norm(s.part) == 0):
            return self.norm_of_n()
        if isinstance(s, ns.Union):
            return self._norm_of_union(s.parts)
        if isinstance(s, ns.Intersection):
            return self._norm_of_intersection(s.parts)
        return None

    def _norm_of_union(self, parts) -> Optional[Fraction]:
        norms = [self.exact_norm(p) for p in parts]
        if any(v is None for v in norms):
            return None
        positive = [v for v in norms if v > 0]
        if not positive:
            return ZERO
        if len(positive) == 1:
            # a zero-norm union partner never moves the norm
            return positive[0]
        if all(v == self.norm_of_n() for v in positive):
            return self.norm_of_n()
        return None

    def _norm_of_intersection(self, parts) -> Optional[Fraction]:
        norms = [self.exact_norm(p) for p in parts]
        if any(v == 0 for v in norms):
            return ZERO
        # intersecting with cofinite sets only strips finitely many elements
        loose = [p for p in parts if p.is_cofinite() is not True]
        if len(loose) == 1:
            return self.exact_norm(loose[0])
        if not loose:
            return self.norm_of_n()
        return None

    def full_norm(self) -> Fraction:
        """phi(N), the largest value phi takes: the scale ``normalize``
        divides by (1 after normalization)."""
        return self.norm_of_n()

    def norm_of_n(self) -> Fraction:
        """The limit norm of N, lim_t phi(N minus [1, t]), which
        ``exact_norm`` gives every cofinite set."""
        return ONE


@dataclass(frozen=True)
class RunningDensity(Lscsm):
    """phi(A) = sup_n |A ∩ [1, n]| / n; its limit norm is upper density."""

    name = "running-density"

    def phi_points(self, members: Sequence[int]) -> Fraction:
        best = ZERO
        seen = 0
        for m in sorted(members):
            seen += 1
            r = Fraction(seen, m)
            if r > best:
                best = r
        return best

    def tail_value(self, bits: np.ndarray, cuts: Sequence[int]) -> list:
        # widened first, then summed in place: a cumsum that casts the bits
        # as it goes runs about 3 times slower on a matrix
        counts = np.atleast_2d(bits).astype(np.int64)
        np.cumsum(counts, axis=1, out=counts)
        return list(zip(*[max_count_ratios(counts, t) for t in cuts]))

    def interval_mass(self, lo: int, hi: int) -> Fraction:
        # sup of count/n over the interval peaks at its right end
        return Fraction(hi - lo, hi - 1) if hi - 1 >= lo else ZERO

    def mass_length(self, lo: int, q: Fraction, cap: int,
                    strict: bool = False) -> Optional[int]:
        # L / (lo + L - 1) >= q, q = a / b  <=>  L (b - a) >= a (lo - 1)
        a, b = q.numerator, q.denominator
        need, gain = a * (lo - 1), b - a
        if gain > 0:
            length = max(1, need // gain + 1 if strict else -(-need // gain))
        else:   # q >= 1: only [1, 1 + L), of mass 1, reaches q = 1
            length = 1 if gain == need == 0 and not strict else cap + 1
        return length if length <= cap else None

    def tail_correction(self, t: int, horizon: int) -> Fraction:
        # a set of tail density d scores at most d * (N - t) / N below N
        return Fraction(horizon - t, horizon)

    def _exact_norm_infinite(self, s: ns.NatSet) -> Optional[Fraction]:
        d = ns.natural_density(s)
        if d is not None:
            return d
        if isinstance(s, ns.PowersOf):
            return ZERO
        return super()._exact_norm_infinite(s)


@dataclass(frozen=True)
class CountingCap(Lscsm):
    """phi(A) = min(1, |A|); the exhaustive ideal of this one is Fin."""

    name = "counting-cap"

    def phi_points(self, members: Sequence[int]) -> Fraction:
        return ONE if len(members) >= 1 else ZERO

    def tail_value(self, bits: np.ndarray, cuts: Sequence[int]) -> list:
        # a tail is nonempty exactly when the last member lies beyond its cut
        rows = np.atleast_2d(bits)
        last = ((rows.shape[1] - rows[:, ::-1].argmax(axis=1))
                * rows.any(axis=1)).tolist()
        return list(zip(*[[(1, 1) if end > t else (0, 1) for end in last]
                          for t in cuts]))

    def interval_mass(self, lo: int, hi: int) -> Fraction:
        return ONE if hi > lo else ZERO

    def mass_length(self, lo: int, q: Fraction, cap: int,
                    strict: bool = False) -> Optional[int]:
        return 1 if cap >= 1 and (ONE > q if strict else ONE >= q) else None

    def _exact_norm_infinite(self, s: ns.NatSet) -> Optional[Fraction]:
        if s.is_infinite() is True:
            return ONE
        return super()._exact_norm_infinite(s)


@dataclass(frozen=True)
class WeightedSum(Lscsm):
    """phi(A) = min(cap, sum of w_a over A).

    ``harmonic`` marks the built-in weight family w_a = scale / a, whose
    total diverges; that flag unlocks the closed-form norms (sets of
    positive density saturate the cap, geometric sets vanish).
    """

    cap: Fraction = ONE
    scale: Fraction = ONE
    harmonic: bool = True
    name: str = "weighted-sum"

    def weight(self, a: int) -> Fraction:
        return self.scale / a

    def phi_points(self, members: Sequence[int]) -> Fraction:
        if len(members) == 0:
            return ZERO
        return min(self.cap, self.scale * sum_unit_fractions(members))

    def tail_value(self, bits: np.ndarray, cuts: Sequence[int]) -> list:
        return [self._nested_sums(np.flatnonzero(row) + 1, cuts)
                for row in np.atleast_2d(bits)]

    def _nested_sums(self, idx: np.ndarray,
                     cuts: Sequence[int]) -> list[tuple[int, int]]:
        """One row's tail values as pairs, from its members ``idx``."""
        cn, cd = self.cap.numerator, self.cap.denominator
        sn, sd = self.scale.numerator, self.scale.denominator
        # nested tails, deepest cut first: each segment between two cuts is
        # added once to the running sum of the tails beyond it.  A tail whose
        # fixed-point lower bound (the sum of floor(2^56 / k) over it) reaches
        # the cap is capped with no exact sum; inside a segment the large
        # weights come first, so the cap, once reached, stops the exact
        # summation.  Either way it holds for every shallower cut.
        tp, tq = 0, 1
        low, cap_low = 0, cn * sd << FIXED_BITS
        capped = False
        end = idx.size
        value: dict[int, tuple[int, int]] = {}
        for t in sorted(set(cuts), reverse=True):
            start = int(np.searchsorted(idx, t, side="right"))
            if not capped:
                low += int(((1 << FIXED_BITS) // idx[start:end]).sum())
                capped = sn * low * cd >= cap_low
            lo = start
            while lo < end and not capped:
                p, q = sum_unit_fractions_raw(idx[lo:min(lo + 4096, end)].tolist())
                tp, tq = tp * q + p * tq, tq * q
                capped = sn * tp * cd >= cn * sd * tq
                lo += 4096
            end = start
            if capped:
                value[t] = (cn, cd)
            else:
                g = gcd(tp, tq)
                tp, tq = tp // g, tq // g
                value[t] = (sn * tp, sd * tq)
        return [value[t] for t in cuts]

    def interval_mass(self, lo: int, hi: int) -> Fraction:
        return min(self.cap, self.scale * sum_unit_fractions(range(lo, hi)))

    def interval_mass_cmp(self, lo: int, hi: int, q: Fraction) -> int:
        """Sign of phi([lo, hi)) - q, exact: decided from the fixed-point
        enclosure of the harmonic sum, which is summed exactly only when the
        enclosure straddles q (or hi is too large for it)."""
        if self.cap < q:
            return -1
        # scale * S >= q  <=>  per * S >= need
        per = self.scale.numerator * q.denominator
        need = q.numerator * self.scale.denominator
        sign = None
        if hi <= INT64_SAFE:
            a, b = unit_fraction_bounds(lo, hi)
            target = need << FIXED_BITS
            if per * a > target:
                sign = 1
            elif per * b < target:
                sign = -1
        if sign is None:
            p, den = sum_unit_fractions_raw(range(lo, hi))
            sign = (per * p > need * den) - (per * p < need * den)
        # phi = min(cap, scale * S): a cap equal to q never rises above it
        return min(sign, 0) if self.cap == q else sign

    def mass_length(self, lo: int, q: Fraction, cap: int,
                    strict: bool = False) -> Optional[int]:
        # A(L), the sum of floor(2^56 / k) over [lo, lo + L) as one int64
        # cumulative sum per chunk, and A(L) + L enclose 2^56 times the
        # harmonic sum: a length whose A(L) meets the target holds, one whose
        # A(L) + L misses it fails, and interval_mass_cmp settles the one or
        # two between (while L * (lo + L) is far below 2^56)
        if cap < 1 or q > self.cap or (strict and q == self.cap):
            return None
        if q <= 0:
            return 1
        # scale * S >= q  <=>  2^56 S >= need / per
        per = self.scale.numerator * q.denominator
        need = q.numerator * self.scale.denominator << FIXED_BITS
        edge = need // per + 1                      # A + L >= edge: may hold
        sure = edge if strict else -(-need // per)  # A >= sure: holds
        if edge > INT64_SAFE:
            return None     # 2^56 S < 2^62 on every range below 2^62
        first = last = None
        done, total, size = 0, 0, 1 << 8
        while last is None and done < cap:
            k = np.arange(lo + done, lo + min(cap, done + size), dtype=np.int64)
            sums = np.cumsum((1 << FIXED_BITS) // k) + total  # A(done + 1), ...
            i = int(np.searchsorted(sums + (k - (lo - 1)), edge))
            j = int(np.searchsorted(sums, sure))
            first = first or (done + i + 1 if i < k.size else None)
            last = done + j + 1 if j < k.size else None
            done, total, size = done + k.size, int(sums[-1]), min(2 * size, 1 << 20)
        if first is None:
            return None
        for length in range(first, last or cap + 1):
            sign = self.interval_mass_cmp(lo, lo + length, q)
            if sign > 0 or (sign == 0 and not strict):
                return length
        return last

    def _exact_norm_infinite(self, s: ns.NatSet) -> Optional[Fraction]:
        if not self.harmonic:
            return super()._exact_norm_infinite(s)
        if isinstance(s, ns.PowersOf):
            return ZERO
        d = ns.natural_density(s)
        if d is not None and d > 0:
            return self.cap
        return super()._exact_norm_infinite(s)

    def norm_of_n(self) -> Fraction:
        return self.cap


@dataclass(frozen=True)
class DensityFamily(Lscsm):
    """phi(A) = sup_n w_n |A ∩ D_n| / |D_n| over an interval partition D.

    Weights are an explicit head plus a constant tail, so the norm of N is
    the tail weight and closed forms stay decidable.
    """

    partition: ns.BlockPartition = field(compare=False)
    head_weights: tuple[Fraction, ...] = ()
    tail_weight: Fraction = ONE
    name: str = "density-family"

    def weight(self, n: int) -> Fraction:
        if n <= len(self.head_weights):
            return self.head_weights[n - 1]
        return self.tail_weight

    def phi_points(self, members: Sequence[int]) -> Fraction:
        if not members:
            return ZERO
        members = sorted(members)
        best = ZERO
        for n, lo, hi in self.partition.blocks(members[-1]):
            cnt = bisect_left(members, hi) - bisect_left(members, lo)
            if cnt:
                r = self.weight(n) * Fraction(cnt, hi - lo)
                if r > best:
                    best = r
        return best

    def tail_value(self, bits: np.ndarray, cuts: Sequence[int]) -> list:
        rows = np.atleast_2d(bits)
        horizon = rows.shape[1]
        # (first, last position inside the prefix, w_n numerator,
        # w_n denominator * |D_n|); the last block may be partial
        blocks = []
        for n, lo, hi in self.partition.blocks(horizon):
            w = self.weight(n)
            blocks.append((lo, min(hi - 1, horizon), w.numerator,
                           w.denominator * (hi - lo)))
        # a window [max(lo, t + 1), last] starts at a block start or a cut
        # and ends before the next block: the member counts below those
        # marks, from one segment sum per row, give every window's count
        marks = np.array(sorted({1, horizon + 1}.union(
            b[0] for b in blocks).union(t + 1 for t in cuts if t < horizon)))
        below = np.zeros((rows.shape[0], marks.size), dtype=np.int64)
        np.cumsum(np.add.reduceat(rows, marks[:-1] - 1, axis=1, dtype=np.int64),
                  axis=1, out=below[:, 1:])

        at = {p: i for i, p in enumerate(marks.tolist())}
        counted = below.tolist()

        def exact(r: int, t: int) -> tuple[int, int]:
            row = counted[r]
            bn, bd = 0, 1
            for lo, last, wn, wd in blocks:
                lo = max(lo, t + 1)
                if last >= lo:
                    cnt = row[at[last + 1]] - row[at[lo]]
                    if wn * cnt * bd > bn * wd:
                        bn, bd = wn * cnt, wd
            return bn, bd

        # below 4 rows numpy's per-call cost exceeds the exact loop's; both
        # sides of a cross-product wn * count * wd' must stay below 2^63
        if (rows.shape[0] < 4 or not cuts or not blocks
                or max(b[2] for b in blocks) * max(b[3] for b in blocks)
                * horizon >= 1 << 63):
            return [[exact(r, t) for t in cuts] for r in range(rows.shape[0])]
        lo, last, wn, wd = (np.array(c, dtype=np.int64) for c in zip(*blocks))
        # (K, cuts, blocks): each block's count past each cut, 0 for the
        # blocks that end at or before it
        start = np.minimum(np.maximum(lo, np.array(cuts)[:, None] + 1), last + 1)
        num = wn * (below[:, np.searchsorted(marks, last + 1)][:, None, :]
                    - below[:, np.searchsorted(marks, start)])
        best = np.argmax(num / wd, axis=2)[..., None]
        bn = np.take_along_axis(num, best, axis=2)
        bd = wd[best]
        better = (num * bd > bn * wd).any(axis=2)
        out = [list(zip(n, d)) for n, d in zip(bn[..., 0].tolist(),
                                               bd[..., 0].tolist())]
        for r, c in zip(*np.nonzero(better)):
            out[r][c] = exact(r, cuts[c])
        return out

    def interval_mass(self, lo: int, hi: int) -> Fraction:
        # only the blocks that meet [lo, hi) count: from lo's block onward
        best = ZERO
        if hi <= lo:
            return best
        start = self.partition.block_index(lo) or 1
        for n, blo, bhi in self.partition.blocks(hi - 1, start):
            cnt = min(hi, bhi) - max(lo, blo)
            best = max(best, self.weight(n) * Fraction(cnt, bhi - blo))
        return best

    def mass_length(self, lo: int, q: Fraction, cap: int,
                    strict: bool = False) -> Optional[int]:
        # block n's share of [lo, lo + L) gains one member per length from
        # s = max(lo, blo): it reaches q at c = ceil(q |D_n| / w_n) members
        # (floor + 1 when strict) if the block holds c from s
        if cap < 1 or q < 0 or (q == 0 and not strict):
            return 1 if cap >= 1 else None
        best = cap + 1
        start = self.partition.block_index(lo) or 1
        for n, blo, bhi in self.partition.blocks(lo + cap - 1, start):
            s, w = max(lo, blo), self.weight(n)
            if s - lo >= best:
                break
            if w > 0:
                c = q * (bhi - blo) / w
                c = max(1, floor(c) + 1 if strict else ceil(c))
                if c <= bhi - s:
                    best = min(best, s + c - lo)
        return best if best <= cap else None

    def _exact_norm_infinite(self, s: ns.NatSet) -> Optional[Fraction]:
        g = self.partition.guarantees
        if isinstance(s, ns.PowersOf) and g.lengths_unbounded:
            return ZERO
        # block averages of an eventually periodic set converge to its
        # density once block lengths grow without bound; those of a set with
        # a natural density d do once liminf (hi - lo) / hi = c > 0, since
        # the count in [lo, hi) is d (hi - lo) + o(hi) and hi <= (hi - lo) / c
        d = ns.exact_density(s) if g.lengths_unbounded else None
        if d is None and g.proportional:
            d = ns.natural_density(s)
        if d is not None:
            return self.tail_weight * d
        return super()._exact_norm_infinite(s)

    def full_norm(self) -> Fraction:
        return max(self.tail_weight, max(self.head_weights, default=ZERO))

    def norm_of_n(self) -> Fraction:
        return self.tail_weight


def normalize(m: Lscsm) -> Lscsm:
    """Scale so phi(N), ``full_norm()``, equals 1 (the running convention
    downstream)."""
    full = m.full_norm()
    if full == ONE:
        return m
    if isinstance(m, WeightedSum):
        return WeightedSum(cap=ONE, scale=m.scale / full, harmonic=m.harmonic)
    if isinstance(m, DensityFamily):
        return DensityFamily(partition=m.partition,
                             head_weights=tuple(w / full for w in m.head_weights),
                             tail_weight=m.tail_weight / full)
    raise ValueError(f"cannot normalize {m.name} with full norm {full}")


# ---------------------------------------------------------------------------
# Prefix evaluation and tail-trend estimation
# ---------------------------------------------------------------------------

def phi(m: Lscsm, s: ns.NatSet, horizon: int) -> Fraction:
    """Exact phi(s ∩ [1, horizon])."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    [[value]] = m.tail_value(s.prefix(horizon), [0])
    return Fraction(*value)


def default_cuts(horizon: int) -> list[int]:
    return [horizon // 2, (3 * horizon) // 4, (7 * horizon) // 8]


# a tail window may dip this much below the one before and still read flat
TREND_SLACK = Fraction(1, 200)


def classify_trend(values: Sequence[tuple[int, int]], slack: Fraction) -> str:
    """zero, decreasing, non-decreasing or mixed: the trend of tail values
    given as pairs (numerator, denominator), denominators positive.  Every
    comparison is a cross-product, which no common factor of a pair
    changes."""
    if all(n == 0 for n, _ in values):
        return "zero"
    (fn, fd), (ln, ld) = values[0], values[-1]
    if 2 * ln * fd <= fn * ld:
        return "decreasing"
    # sampling noise in a tail window scales with the value itself:
    # b >= a - max(slack, a/8)  <=>  8b >= 7a  or  b + slack >= a
    sn, sd = slack.numerator, slack.denominator
    if all(8 * bn * ad >= 7 * an * bd
           or (bn * sd + sn * bd) * ad >= an * bd * sd
           for (an, ad), (bn, bd) in zip(values, values[1:])):
        return "non-decreasing"
    return "mixed"


# perfbench/tracer.py patches norm_estimate by this name to time tail reads
def norm_estimate(m: Lscsm, bits: np.ndarray, cuts: Sequence[int]
                  ) -> list[list[tuple[int, int]]]:
    """The one tail reading, which tail verdicts, level sets and witness
    samples share: per row of a (K, N) prefix matrix, phi of the row's tail
    past each cut divided by the variant's finite-horizon attenuation
    ``tail_correction`` at that cut, as pairs (numerator, denominator).

    The division lets a set with a genuine limit norm show a flat trend
    instead of the mechanical (N - t)/N decay.
    """
    horizon = bits.shape[1]
    if horizon < 2:
        raise ValueError("a tail estimate needs horizon >= 2")
    scales = [(c.numerator, c.denominator)
              for c in (m.tail_correction(t, horizon) for t in cuts)]
    return [[(n * cd, d * cn) for (n, d), (cn, cd) in zip(raws, scales)]
            for raws in m.tail_value(bits, cuts)]


# the most bits, rows times horizon, that one batched tail_value call reads
TAIL_CELLS = 1 << 20


def _trend_reads(m: Lscsm, bits: np.ndarray, theta: Fraction
                 ) -> list[tuple[Optional[bool], tuple[int, int], str]]:
    """Per row of a (K, N) prefix matrix: the tail's verdict at horizon N
    (True vanishing, False persisting, None neither), its corrected value
    at the deepest cut as a pair, and its trend, from one kernel call."""
    cuts = sorted(set(default_cuts(bits.shape[1])))
    tn, td = theta.numerator, theta.denominator
    out = []
    for values in norm_estimate(m, bits, cuts):
        trend = classify_trend(values, TREND_SLACK)
        vn, vd = values[-1]
        below = vn * td < tn * vd
        if below and trend in ("zero", "decreasing"):
            verdict = True
        elif not below and trend == "non-decreasing":
            verdict = False
        else:
            verdict = None
        out.append((verdict, values[-1], trend))
    return out


def tail_verdicts(m: Lscsm, bits: np.ndarray, theta: Fraction
                  ) -> list[tuple[Optional[bool], Fraction, str]]:
    """Per row of a (K, N) matrix of prefixes on [1, N]: True when the
    row's tail vanishes (a zero or decreasing trend below ``theta``), False
    when it persists (non-decreasing at ``theta`` or above), else None, with
    the corrected value at the deepest cut and the trend.

    All rows are read by one kernel call at N, and the rows that get a
    verdict (when N >= 64) by one more at N / 2, which must agree: that
    catches sparse lumps that miss one horizon's tail windows.  The matrix
    should hold at most ``TAIL_CELLS`` bits unless it has one row.
    """
    reads = _trend_reads(m, bits, theta)
    horizon = bits.shape[1]
    decided = [i for i, r in enumerate(reads) if r[0] is not None]
    if horizon >= 64 and decided:
        half = _trend_reads(m, bits[decided, :horizon // 2], theta)
        for i, (verdict, _, _) in zip(decided, half):
            if verdict != reads[i][0]:
                reads[i] = (None,) + reads[i][1:]
    return [(verdict, Fraction(*value), trend)
            for verdict, value, trend in reads]
