"""Symbolic subsets of the positive integers.

Every set is built from a closed family of variants (finite, cofinite,
arithmetic progression, powers of a base, block unions over an interval
partition, explicit prefix bitmaps, sets known only through an exact test)
plus union / intersection / complement trees of bounded depth.  Membership
is a total three-valued predicate: ``True``, ``False``, or ``None`` when the
set's own knowledge runs out (a bitmap above its horizon, a test past the
end of a finite map, an undecidable block selector).  Prefix evaluation is
exact and vectorized.  A tree whose leaves are all finite, cofinite or
progressions has an eventually periodic normal form (:class:`Periodic`:
segments sharing one period, each with a residue bitmask), built on first
use unless its masks would pass ``PERIODIC_BITS``; it answers density,
infiniteness, cofiniteness, member walks and the Fin x Fin row rule.  Two
forms, with PowersOf leaves of one base emptied and filled, decide such a
tree's infiniteness; other mixed trees keep their structural rules.  A
tested set may carry a certified natural density (the ``rationals`` balls
do); ``natural_density`` reads it, a periodic form's, or one minus
either's under a complement.
"""

from __future__ import annotations

import json
import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import islice
from typing import Callable, Iterator, Optional, Sequence

from ._lazy import lazy_numpy

np = lazy_numpy()

MAX_DEPTH = 32


class HorizonExceeded(Exception):
    """A query needs information beyond what a finite leaf can decide."""


def _as_sorted_tuple(values) -> tuple[int, ...]:
    out = tuple(sorted(set(int(v) for v in values)))
    if out and out[0] < 1:
        raise ValueError("set elements must be positive integers")
    return out


# ---------------------------------------------------------------------------
# Interval partitions of N (the substrate of block unions and witnesses)
# ---------------------------------------------------------------------------

class BlockPartition:
    """Strictly increasing boundaries iota(1) < iota(2) < ...; block n is
    ``[iota(n), iota(n+1))``.  Boundaries come from a generator, a step
    iota(n) -> iota(n+1) taken from the prefix's last boundary on, which the
    tag names so that JSON can rebuild it, or from an explicit prefix only —
    queries past an explicit prefix raise :class:`HorizonExceeded`.  The
    partition keeps every boundary it has made.  ``guarantees`` is the
    generator kind's row of :func:`block_guarantees`; an explicit partition
    declares only ``lengths_unbounded``.
    """

    def __init__(self, fn: Optional[Callable[[int], int]] = None,
                 prefix: Sequence[int] = (),
                 tag: Optional[dict] = None,
                 lengths_unbounded: bool = False):
        self._fn = fn
        self._iota: list[int] = [int(v) for v in prefix]
        # int64 copy of the first _mirrored boundaries, made by the first
        # boundaries() call (a partition that is only walked needs no numpy)
        self._mirror = None
        self._mirrored = 0
        self.tag = tag
        if fn is None and len(self._iota) < 2:
            raise ValueError("partition needs a generator or >= 2 boundaries")
        if fn is not None and tag is None:
            raise ValueError("a generator partition needs a tag")
        if fn is not None and not self._iota:
            raise ValueError("a generator partition needs a first boundary")
        for a, b in zip(self._iota, self._iota[1:]):
            if b <= a:
                raise ValueError("boundaries must be strictly increasing")
        if self._iota and self._iota[0] < 1:
            raise ValueError("iota(1) must be >= 1")
        # what every block provably satisfies, built once
        self.guarantees = (
            block_guarantees(tag) if tag is not None
            else BlockGuarantees(lengths_unbounded=lengths_unbounded))

    def _extend(self, count: int, above: int = 0) -> None:
        """Materialize boundaries until there are at least ``count`` and the
        last one exceeds ``above``, one at a time and no further."""
        iota, fn = self._iota, self._fn
        while len(iota) < count or iota[-1] <= above:
            if fn is None:
                raise HorizonExceeded(
                    f"partition prefix ends at block {len(iota)}")
            nxt = int(fn(iota[-1]))
            if nxt <= iota[-1]:
                raise ValueError("generator produced non-increasing boundary")
            iota.append(nxt)

    def iota(self, n: int) -> int:
        if n < 1:
            raise ValueError("block indices start at 1")
        if len(self._iota) < n:
            self._extend(n)
        return self._iota[n - 1]

    def block(self, n: int) -> tuple[int, int]:
        return self.iota(n), self.iota(n + 1)

    def block_index(self, m: int) -> Optional[int]:
        """Index of the block containing m, or None below the first block."""
        if m < self.iota(1):
            return None
        n = len(self._iota)
        while self._iota[-1] <= m:
            self.iota(n + 1)
            n = len(self._iota)
        return bisect_right(self._iota, m)

    def blocks(self, limit: Optional[int] = None,
               start: int = 1) -> Iterator[tuple[int, int, int]]:
        """Yield (n, lo, hi) for blocks n = start, start + 1, ... while
        lo <= limit (for ever when limit is None).  Block n is materialized
        before its lo is tested, so the first block past the limit is too;
        HorizonExceeded from an explicit prefix propagates."""
        n = start
        while True:
            lo, hi = self.block(n)
            if limit is not None and lo > limit:
                return
            yield n, lo, hi
            n += 1

    def blocks_within(self, horizon: int, start: int = 1) -> Iterator[tuple[int, int, int]]:
        """Yield (n, lo, hi) for every complete block with hi - 1 <= horizon."""
        try:
            for n, lo, hi in self.blocks(horizon, start):
                if hi - 1 > horizon:
                    return
                yield n, lo, hi
        except HorizonExceeded:
            return

    def boundaries(self, limit: int) -> np.ndarray:
        """Boundaries of the blocks ``blocks(limit)`` yields, as one array b:
        block i + 1 is [b[i], b[i + 1]), and len(b) - 1 blocks were walked
        (none when len(b) <= 1).  The last hi, which may lie far past limit,
        is clipped to limit + 1: no prefix of length limit sees beyond it.
        An explicit prefix raises HorizonExceeded where blocks() would, and a
        boundary past int64 raises OverflowError.
        """
        iota = self._iota
        self._extend(1, limit)
        stop = max(1, bisect_right(iota, limit) + 1)
        self.iota(stop + 1)     # blocks() reads the block past the limit
        # the boundaries before the last are <= limit; only they are
        # mirrored, so a last boundary past int64 is clipped, not converted
        head = stop - 1
        if self._mirror is None:
            self._mirror = np.empty(0, dtype=np.int64)
        if self._mirrored < head:
            if self._mirror.size < head:
                grown = np.empty(max(head, 2 * self._mirror.size), np.int64)
                grown[:self._mirrored] = self._mirror[:self._mirrored]
                self._mirror = grown
            self._mirror[self._mirrored:head] = iota[self._mirrored:head]
            self._mirrored = head
        out = np.empty(stop, dtype=np.int64)
        out[:head] = self._mirror[:head]
        out[head] = min(iota[head], limit + 1)
        return out

    def boundary_prefix(self, count: int) -> list[int]:
        self.iota(count)
        return list(self._iota[:count])

    def to_json(self) -> dict:
        """The partition's definition: its generator tag, or for an explicit
        partition its whole boundary list; never what has been materialized."""
        unbounded = self.guarantees.lengths_unbounded
        if self.tag is not None:
            return {"generator": self.tag, "lengths_unbounded": unbounded}
        return {"iota": list(self._iota), "lengths_unbounded": unbounded}

    @staticmethod
    def from_json(body: dict) -> "BlockPartition":
        tag = body.get("generator")
        if tag is not None:
            return partition_from_tag(tag)
        return BlockPartition(prefix=body["iota"],
                              lengths_unbounded=body.get("lengths_unbounded", False))


@dataclass(frozen=True)
class BlockGuarantees:
    """What the blocks [lo, hi) of one partition kind provably satisfy.

    ratio: (hi - lo) / hi >= ratio on every block.  proportional: liminf
    (hi - lo) / hi > 0.  pairs_from: every block with lo > b holds at least
    two integers once b >= pairs_from.  singletons: every block is one
    integer.  mass: every block has phi mass >= mass under the ideal
    ``mass_ideal`` = (name, construction params) whose search built it.
    Every certificate reads this record and nothing else of the tag.
    """
    ratio: Optional[Fraction] = None
    proportional: bool = False
    pairs_from: Optional[Fraction] = None
    singletons: bool = False
    lengths_unbounded: bool = False
    mass: Optional[Fraction] = None
    mass_ideal: Optional[tuple] = None


def block_guarantees(tag: dict) -> BlockGuarantees:
    """The guarantees of the partitions a generator tag builds."""
    kind = tag.get("kind")
    if kind in ("pow2", "valuation-cover"):
        return BlockGuarantees(ratio=Fraction(1, 2) if kind == "pow2" else None,
                               proportional=True, pairs_from=Fraction(1),
                               lengths_unbounded=True)
    if kind == "singletons":
        return BlockGuarantees(singletons=True)
    if kind == "geometric":
        # a ratio r >= 2 makes every block at least as long as its lo
        r = Fraction(tag["ratio"])
        return BlockGuarantees(
            ratio=1 - 1 / r if r.denominator == 1 and r >= 2 else None,
            proportional=r > 1, pairs_from=Fraction(2) if r >= 2 else None,
            lengths_unbounded=r > 1)
    if kind == "ratio-search":
        # a block's length is at least lo * q / (1 - q)
        q = Fraction(tag["q"])
        return BlockGuarantees(ratio=q, proportional=True,
                               pairs_from=2 * (1 - q) / q,
                               lengths_unbounded=True)
    if kind == "phi-search":
        # a singleton block {a} needs phi({a}) >= q, impossible late:
        # harmonic weights give phi({a}) = scale/a; the default geometric
        # density family gives phi({a}) <= 2/a
        q, ideal, params = Fraction(tag["q"]), tag["ideal"], tag.get("params")
        late = (2 if ideal == "summable"
                else 4 if ideal == "gdi" and params is None else None)
        return BlockGuarantees(pairs_from=None if late is None else late / q,
                               lengths_unbounded=ideal != "fin",
                               mass=q, mass_ideal=(ideal, params))
    raise ValueError(f"unknown partition generator {tag!r}")


def partition_from_tag(tag: dict) -> BlockPartition:
    """Rebuild a partition from its generator tag (lossless round trip)."""
    kind = tag.get("kind")
    if kind == "pow2":
        return BlockPartition(fn=lambda v: 2 * v, prefix=[2], tag=tag)
    if kind == "singletons":
        return BlockPartition(fn=lambda v: v + 1, prefix=[1], tag=tag)
    if kind == "valuation-cover":
        # iota(n) = 2^(n+1) - 3: block n has length 2^(n+1)
        return BlockPartition(fn=lambda v: 2 * v + 3, prefix=[1], tag=tag)
    if kind == "geometric":
        ratio = Fraction(tag["ratio"])
        return BlockPartition(fn=lambda v: max(v + 1, int(v * ratio)),
                              prefix=[1], tag=tag)
    if kind == "ratio-search":
        # least next boundary with (iota' - iota) / iota' >= q
        q = Fraction(tag["q"])
        if not 0 < q < 1:
            raise ValueError("ratio-search needs q in (0, 1)")
        grow = 1 / (1 - q)
        return BlockPartition(
            fn=lambda v: max(v + 1, -(-v * grow.numerator // grow.denominator)),
            prefix=[1], tag=tag)
    if kind == "phi-search":
        from . import ideals, meager     # both build on this module
        handle = ideals.builtin(tag["ideal"], gdi_spec=tag.get("params"))
        return meager._phi_search_partition(handle, Fraction(tag["q"]))
    raise ValueError(f"unknown partition generator {tag!r}")


# ---------------------------------------------------------------------------
# NatSet variants
# ---------------------------------------------------------------------------

class NatSet:
    """Immutable symbolic subset of N = {1, 2, 3, ...}."""

    depth: int = 0

    def member(self, n: int) -> Optional[bool]:
        raise NotImplementedError

    def prefix(self, horizon: int) -> np.ndarray:
        """Boolean array b with b[i-1] == member(i) for 1 <= i <= horizon.

        Raises HorizonExceeded whenever some membership within the window
        is undecided, so a returned prefix is always exact.
        """
        raise NotImplementedError

    def count_up_to(self, horizon: int) -> int:
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        return int(self.prefix(horizon).sum())

    def is_infinite(self) -> Optional[bool]:
        form = periodic_form(self)      # None unless every leaf is periodic
        return self._powers_infinite if form is None else form.masks[-1] != 0

    def is_cofinite(self) -> Optional[bool]:
        form = periodic_form(self)
        return None if form is None else form.masks[-1] == (1 << form.period) - 1

    @cached_property
    def _periodic(self) -> Optional["Periodic"]:
        return _build_periodic(self)

    @cached_property
    def _powers_infinite(self) -> Optional[bool]:
        """Infiniteness of a tree of periodic and PowersOf(b) leaves, one b
        (else None).  Off the powers of b the set agrees with the tree whose
        powers leaves are EMPTY, on them with the one whose are FULL.  The
        first, if infinite, has positive density, which the powers lack;
        else the set is infinite iff the second holds b^j for infinitely
        many j, which the cycle of b^j mod its period decides."""
        bases: set[int] = set()
        empty = _with_powers_as(self, EMPTY, bases)
        if empty is None or len(bases) != 1:
            return None
        form = periodic_form(empty)
        if form is None:
            return None
        if form.masks[-1]:
            return True
        form = periodic_form(_with_powers_as(self, FULL, bases))
        if form is None:
            return None
        (b,), period = bases, form.period
        seen: dict[int, int] = {}      # residue of b^j -> its step
        r = b % period
        while r not in seen:
            seen[r] = len(seen)
            r = r * b % period
        # r recurs first: the residues from its step on recur for ever
        return any(form.masks[-1] >> ((c - form.offset) % period) & 1
                   for c in list(seen)[seen[r]:])

    def to_json(self) -> dict:
        raise NotImplementedError

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def _check_horizon(horizon: int) -> int:
    horizon = int(horizon)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return horizon


@dataclass(frozen=True)
class Finite(NatSet):
    members: tuple[int, ...]

    def __init__(self, members=()):
        object.__setattr__(self, "members", _as_sorted_tuple(members))

    def member(self, n: int) -> Optional[bool]:
        i = bisect_left(self.members, n)
        return i < len(self.members) and self.members[i] == n

    def prefix(self, horizon: int) -> np.ndarray:
        horizon = _check_horizon(horizon)
        bits = np.zeros(horizon, dtype=bool)
        idx = [m - 1 for m in self.members if m <= horizon]
        bits[idx] = True
        return bits

    def count_up_to(self, horizon: int) -> int:
        _check_horizon(horizon)
        return bisect_right(self.members, horizon)

    def is_infinite(self) -> Optional[bool]:
        return False

    def is_cofinite(self) -> Optional[bool]:
        return False

    def to_json(self) -> dict:
        return {"kind": "finite", "members": list(self.members)}


@dataclass(frozen=True)
class Cofinite(NatSet):
    excluded: tuple[int, ...]

    def __init__(self, excluded=()):
        object.__setattr__(self, "excluded", _as_sorted_tuple(excluded))

    def member(self, n: int) -> Optional[bool]:
        i = bisect_left(self.excluded, n)
        return not (i < len(self.excluded) and self.excluded[i] == n)

    def prefix(self, horizon: int) -> np.ndarray:
        horizon = _check_horizon(horizon)
        bits = np.ones(horizon, dtype=bool)
        idx = [m - 1 for m in self.excluded if m <= horizon]
        bits[idx] = False
        return bits

    def count_up_to(self, horizon: int) -> int:
        _check_horizon(horizon)
        return horizon - bisect_right(self.excluded, horizon)

    def is_infinite(self) -> Optional[bool]:
        return True

    def is_cofinite(self) -> Optional[bool]:
        return True

    def to_json(self) -> dict:
        return {"kind": "cofinite", "excluded": list(self.excluded)}


@dataclass(frozen=True)
class Progression(NatSet):
    """{first, first + step, first + 2*step, ...}"""
    first: int
    step: int

    def __post_init__(self):
        if self.first < 1 or self.step < 1:
            raise ValueError("need first >= 1 and step >= 1")

    def member(self, n: int) -> Optional[bool]:
        return n >= self.first and (n - self.first) % self.step == 0

    def prefix(self, horizon: int) -> np.ndarray:
        horizon = _check_horizon(horizon)
        bits = np.zeros(horizon, dtype=bool)
        if self.first <= horizon:
            bits[self.first - 1::self.step] = True
        return bits

    def count_up_to(self, horizon: int) -> int:
        _check_horizon(horizon)
        if horizon < self.first:
            return 0
        return (horizon - self.first) // self.step + 1

    def is_infinite(self) -> Optional[bool]:
        return True

    def is_cofinite(self) -> Optional[bool]:
        return self.step == 1

    def to_json(self) -> dict:
        return {"kind": "progression", "first": self.first, "step": self.step}


@dataclass(frozen=True)
class PowersOf(NatSet):
    """{base, base^2, base^3, ...} — the base itself is the first member."""
    base: int

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("base must be >= 2")

    def member(self, n: int) -> Optional[bool]:
        if n < self.base or n % self.base:
            return False
        if self.base == 2:
            return (n & (n - 1)) == 0
        # divide out base^(2^j) for descending j: powers of the base, and
        # nothing else, come down to 1 after O(log log n) big divisions
        powers = [self.base]
        while powers[-1] ** 2 <= n:
            powers.append(powers[-1] ** 2)
        for p in reversed(powers):
            if n % p == 0:
                n //= p
        return n == 1

    def powers_up_to(self, horizon: int) -> list[int]:
        out, v = [], self.base
        while v <= horizon:
            out.append(v)
            v *= self.base
        return out

    def prefix(self, horizon: int) -> np.ndarray:
        horizon = _check_horizon(horizon)
        bits = np.zeros(horizon, dtype=bool)
        for v in self.powers_up_to(horizon):
            bits[v - 1] = True
        return bits

    def count_up_to(self, horizon: int) -> int:
        _check_horizon(horizon)
        return len(self.powers_up_to(horizon))

    def is_infinite(self) -> Optional[bool]:
        return True

    def is_cofinite(self) -> Optional[bool]:
        return False

    def to_json(self) -> dict:
        return {"kind": "powers", "base": self.base}


@dataclass(frozen=True)
class PrefixBitmap(NatSet):
    """Explicit membership bits on [1, horizon]; unknown above."""
    bits: np.ndarray = field(compare=False)

    def __init__(self, bits):
        arr = np.asarray(bits, dtype=bool)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("bits must be a nonempty 1-d array")
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)

    @property
    def horizon(self) -> int:
        return int(self.bits.size)

    def member(self, n: int) -> Optional[bool]:
        if n > self.horizon:
            return None
        return bool(self.bits[n - 1])

    def prefix(self, horizon: int) -> np.ndarray:
        horizon = _check_horizon(horizon)
        if horizon > self.horizon:
            raise HorizonExceeded(
                f"bitmap horizon {self.horizon} < requested {horizon}")
        return self.bits[:horizon].copy()

    def to_json(self) -> dict:
        return {"kind": "prefix-bitmap",
                "bits": "".join("1" if b else "0" for b in self.bits)}

    def __eq__(self, other):
        return (isinstance(other, PrefixBitmap)
                and self.bits.shape == other.bits.shape
                and bool(np.all(self.bits == other.bits)))

    def __hash__(self):
        return hash(self.bits.tobytes())


@dataclass(frozen=True, eq=False)
class Tested(NatSet):
    """A set known only through an exact test: ``bits(N)`` returns a fresh
    prefix on [1, N] and ``test(n)`` one membership (None if unknown).
    Either raises HorizonExceeded where the test runs out (a map past its
    table), and ``member`` then answers None.  ``density``, when given, is
    a certified natural density 0 < d < 1, so the set is infinite and not
    cofinite; nothing else about the set is known.  ``take(start, want,
    stop)``, when given, lists members as ``take_members`` does, without
    prefix windows; a list short of ``want`` with no member past ``stop``
    ends where the window walk would raise (``SCAN_LIMIT``)."""
    bits: Callable[[int], np.ndarray]
    test: Callable[[int], Optional[bool]]
    density: Optional[Fraction] = None
    take: Optional[Callable[[int, int, Optional[int]], list[int]]] = None

    def __post_init__(self):
        # 0 < n/d < 1 with d > 0, in integers
        if self.density is not None and not (
                0 < self.density.numerator < self.density.denominator):
            raise ValueError("a tested set's density must lie in (0, 1)")

    def member(self, n: int) -> Optional[bool]:
        try:
            return self.test(n)
        except HorizonExceeded:
            return None

    def prefix(self, horizon: int) -> np.ndarray:
        return self.bits(_check_horizon(horizon))

    def is_infinite(self) -> Optional[bool]:
        return None if self.density is None else True

    def is_cofinite(self) -> Optional[bool]:
        return None if self.density is None else False


@dataclass(frozen=True)
class BlockUnion(NatSet):
    """Union of the blocks of an interval partition whose indices lie in
    ``selector``, itself a set of block indices."""
    partition: BlockPartition = field(compare=False)
    selector: NatSet

    def member(self, n: int) -> Optional[bool]:
        try:
            k = self.partition.block_index(n)
        except HorizonExceeded:
            return None
        if k is None:
            return False
        return self.selector.member(k)

    def _selected_blocks(self, limit: Optional[int],
                         last: Optional[int] = None) -> Iterator[tuple[int, int]]:
        """(lo, hi) of the selected blocks with lo <= limit, up to block
        index ``last``."""
        for n, lo, hi in self.partition.blocks(limit):
            sel = self.selector.member(n)
            if sel is None:
                raise HorizonExceeded(f"selector undecided at block {n}")
            if sel:
                yield lo, hi
            if last is not None and n >= last:
                return

    def prefix(self, horizon: int) -> np.ndarray:
        horizon = _check_horizon(horizon)
        first = self.partition.iota(1)
        if first == 1 and self.partition.guarantees.singletons:
            # block n is {n}: the union is its selector, with no boundaries
            return self.selector.prefix(horizon)
        bits = np.zeros(horizon, dtype=bool)
        if first > horizon:
            return bits
        b = self.partition.boundaries(horizon)
        chosen = self.selector.prefix(b.size - 1)
        bits[first - 1:] = np.repeat(chosen, np.diff(b))
        return bits

    def count_up_to(self, horizon: int) -> int:
        _check_horizon(horizon)
        return sum(min(hi - 1, horizon) - lo + 1
                   for lo, hi in self._selected_blocks(horizon))

    def is_infinite(self) -> Optional[bool]:
        return self.selector.is_infinite()

    def is_cofinite(self) -> Optional[bool]:
        return self.selector.is_cofinite()

    def to_json(self) -> dict:
        return {"kind": "block-union",
                "partition": self.partition.to_json(),
                "selector": {"kind": "index-set",
                             "set": self.selector.to_json()}}


def _combo_depth(parts: Sequence[NatSet]) -> int:
    d = 1 + max(p.depth for p in parts)
    if d > MAX_DEPTH:
        raise ValueError(f"combination tree deeper than {MAX_DEPTH}")
    return d


@dataclass(frozen=True)
class Union(NatSet):
    parts: tuple[NatSet, ...]
    depth: int = field(init=False)

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise ValueError("union needs at least one part")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "depth", _combo_depth(parts))

    def member(self, n: int) -> Optional[bool]:
        saw_unknown = False
        for p in self.parts:
            m = p.member(n)
            if m is True:
                return True
            if m is None:
                saw_unknown = True
        return None if saw_unknown else False

    def prefix(self, horizon: int) -> np.ndarray:
        out = self.parts[0].prefix(horizon)
        for p in self.parts[1:]:
            out |= p.prefix(horizon)
        return out

    def is_infinite(self) -> Optional[bool]:
        vals = [p.is_infinite() for p in self.parts]
        if any(v is True for v in vals):
            return True
        if all(v is False for v in vals):
            return False
        return super().is_infinite()

    def is_cofinite(self) -> Optional[bool]:
        if any(p.is_cofinite() is True for p in self.parts):
            return True
        return super().is_cofinite()

    def to_json(self) -> dict:
        return {"kind": "union", "parts": [p.to_json() for p in self.parts]}


@dataclass(frozen=True)
class Intersection(NatSet):
    parts: tuple[NatSet, ...]
    depth: int = field(init=False)

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise ValueError("intersection needs at least one part")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "depth", _combo_depth(parts))

    def member(self, n: int) -> Optional[bool]:
        saw_unknown = False
        for p in self.parts:
            m = p.member(n)
            if m is False:
                return False
            if m is None:
                saw_unknown = True
        return None if saw_unknown else True

    def prefix(self, horizon: int) -> np.ndarray:
        out = self.parts[0].prefix(horizon)
        for p in self.parts[1:]:
            out &= p.prefix(horizon)
        return out

    def is_infinite(self) -> Optional[bool]:
        vals = [p.is_infinite() for p in self.parts]
        cof = [p.is_cofinite() for p in self.parts]
        if any(v is False for v in vals):
            return False
        if all(c is True for c in cof):
            return True
        # one genuinely infinite part, everything else cofinite
        loose = [i for i, c in enumerate(cof) if c is not True]
        if len(loose) == 1 and vals[loose[0]] is True:
            return True
        return super().is_infinite()

    def is_cofinite(self) -> Optional[bool]:
        cof = [p.is_cofinite() for p in self.parts]
        if all(c is True for c in cof):
            return True
        if any(c is False for c in cof):
            return False
        return super().is_cofinite()

    def to_json(self) -> dict:
        return {"kind": "intersection",
                "parts": [p.to_json() for p in self.parts]}


@dataclass(frozen=True)
class Complement(NatSet):
    part: NatSet
    depth: int = field(init=False)

    def __init__(self, part):
        object.__setattr__(self, "part", part)
        object.__setattr__(self, "depth", _combo_depth((part,)))

    def member(self, n: int) -> Optional[bool]:
        m = self.part.member(n)
        return None if m is None else not m

    def prefix(self, horizon: int) -> np.ndarray:
        return ~self.part.prefix(horizon)

    def is_infinite(self) -> Optional[bool]:
        cof = self.part.is_cofinite()
        if cof is not None:
            return not cof    # finite exactly when the part is cofinite
        if self.part.is_infinite() is False:
            return True
        return super().is_infinite()

    def is_cofinite(self) -> Optional[bool]:
        fin = self.part.is_infinite()
        if fin is False:
            return True
        if self.part.is_cofinite() is True and fin is True:
            # complement of a genuinely cofinite set is finite
            return False
        return super().is_cofinite()

    def to_json(self) -> dict:
        return {"kind": "complement", "part": self.part.to_json()}


# ---------------------------------------------------------------------------
# Eventually periodic normal form of Finite / Cofinite / Progression trees
# ---------------------------------------------------------------------------

PERIODIC_BITS = 1 << 22     # cap on segments x period of a built mask set
LISTED_RESIDUES = 1 << 12   # residues a take lists; denser masks are chunked


def _widen(mask: int, p: int, period: int, offset: int) -> int:
    """A mask mod p (bit j for residue j + offset) as a mask mod period."""
    mask = ((mask << offset) | (mask >> (p - offset))) & ((1 << p) - 1)
    return mask * (((1 << period) - 1) // ((1 << p) - 1))


@dataclass(frozen=True)
class Periodic:
    """Segments [starts[i], starts[i + 1]), the last one unbounded, sharing
    one period: n in segment i is a member iff bit (n - offset) % period of
    masks[i] is set.  starts[0] == 1, no segment is empty, neighbours differ
    (the last mask is the tail); a nonzero offset comes from a progression."""
    starts: tuple[int, ...]
    period: int
    masks: tuple[int, ...]
    offset: int = 0

    def member(self, n: int) -> bool:
        """One bisect over the starts and one bit test: no residue list."""
        mask = self.masks[bisect_right(self.starts, n) - 1]
        return bool(mask >> ((n - self.offset) % self.period) & 1)

    def residues(self, i: int) -> list[int]:
        """Residues set in segment i's mask, sorted."""
        mask = self.masks[i]
        raw = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
        return np.flatnonzero(np.unpackbits(np.frombuffer(raw, np.uint8),
                                            bitorder="little")).tolist()

    def take(self, start: int, want: int, stop: Optional[int]) -> list[int]:
        """The first ``want`` members from ``start`` on, ending after the
        first past ``stop`` (if any): per segment, one range per residue over
        just enough periods, interleaved by slice assignment.  A mask of at
        most ``LISTED_RESIDUES`` residues is listed; a denser one is read a
        chunk at a time, so memory does not grow with the period."""
        out: list[int] = []
        period, starts, residues = self.period, self.starts, {}
        for i in range(max(0, bisect_right(starts, start) - 1), len(starts)):
            need = want - len(out)
            if need <= 0 or (out and stop is not None and out[-1] > stop):
                break
            mask, lo = self.masks[i], max(start, starts[i])
            hi = starts[i + 1] if i + 1 < len(starts) else None
            if not mask:
                continue
            if mask.bit_count() > LISTED_RESIDUES:
                _take_walk(_dense_walk(mask, period, self.offset, lo, hi),
                           need, stop, out)
                continue
            if mask not in residues:
                residues[mask] = self.residues(i)
            offsets = sorted((r + self.offset - lo) % period
                             for r in residues[mask])
            # each period from lo holds every residue once
            rows = -(-need // len(offsets))
            if hi is not None:
                rows = min(rows, -(-(hi - lo) // period))
            run = [0] * (rows * len(offsets))
            for j, off in enumerate(offsets):
                run[j::len(offsets)] = range(lo + off, lo + off + rows * period,
                                             period)
            if hi is not None:
                run = run[:bisect_left(run, hi)]
            if stop is not None:
                need = min(need, bisect_right(run, stop) + 1)
            out += run[:need]
        return out


def _take_walk(walk: Iterator[int], want: int, stop: Optional[int],
               out: list[int]) -> list[int]:
    """Append to ``out`` up to ``want`` of the walk's members, ending after
    the first past ``stop`` or where the walk raises HorizonExceeded."""
    try:
        for v in islice(walk, max(0, want)):
            out.append(v)
            if stop is not None and v > stop:
                break
    except HorizonExceeded:
        pass
    return out


def _dense_walk(mask: int, period: int, offset: int, lo: int,
                hi: Optional[int]) -> Iterator[int]:
    """The n in [lo, hi) (unbounded when hi is None) whose bit
    (n - offset) % period of ``mask`` is set, one period window at a time,
    unpacking 4096 bytes of the mask at a time."""
    raw = np.frombuffer(mask.to_bytes((period + 7) // 8, "little"), np.uint8)
    first = (lo - offset) % period
    base = lo - first           # the n of bit 0 in lo's window
    while hi is None or base < hi:
        for at in range(first >> 3, raw.size, 4096):
            bits = np.flatnonzero(np.unpackbits(raw[at:at + 4096],
                                                bitorder="little")) + 8 * at
            for b in bits[bits >= first].tolist():
                if hi is not None and base + b >= hi:
                    return
                yield base + b
        base, first = base + period, 0


def _normal(starts: Sequence[int], period: int, masks: Sequence) -> Periodic:
    """Drop empty segments and merge equal neighbours."""
    out_s, out_m = [], []
    for i, (lo, m) in enumerate(zip(starts, masks)):
        if ((i + 1 == len(starts) or starts[i + 1] > lo)
                and (not out_m or out_m[-1] != m)):
            out_s.append(lo)
            out_m.append(m)
    return Periodic(tuple(out_s), period, tuple(out_m))


def _build_periodic(s: NatSet) -> Optional[Periodic]:
    if isinstance(s, Finite):
        starts = [1] + [v for m in s.members for v in (m, m + 1)]
        return _normal(starts, 1, [0] + [1, 0] * len(s.members))
    if isinstance(s, Progression):
        starts, masks = ((1,), (1,)) if s.first == 1 else ((1, s.first), (0, 1))
        return Periodic(starts, s.step, masks, s.first % s.step)
    if isinstance(s, (Cofinite, Complement)):
        form = periodic_form(s.part if isinstance(s, Complement)
                             else Finite(s.excluded))
        if form is None or len(form.starts) * form.period > PERIODIC_BITS:
            return None
        full = (1 << form.period) - 1
        return Periodic(form.starts, form.period,
                        tuple(m ^ full for m in form.masks), form.offset)
    if not isinstance(s, (Union, Intersection)):
        return None
    forms = [periodic_form(p) for p in s.parts]
    if None in forms:
        return None
    # the parts' masks, widened to one period, meet on the merged segments
    period = math.lcm(*(f.period for f in forms))
    starts = sorted(set().union(*(f.starts for f in forms)))
    if len(starts) * period > PERIODIC_BITS:
        return None
    wide = [[_widen(m, f.period, period, f.offset) for m in f.masks]
            for f in forms]
    op = operator.or_ if isinstance(s, Union) else operator.and_
    masks = [reduce(op, (w[bisect_right(f.starts, lo) - 1]
                         for f, w in zip(forms, wide))) for lo in starts]
    return _normal(starts, period, masks)


def periodic_form(s: NatSet) -> Optional[Periodic]:
    """The normal form of a tree of Finite, Cofinite and Progression leaves
    (else None, as past PERIODIC_BITS), built once per set, on first use."""
    return s._periodic


def map_leaves(s: NatSet, leaf: Callable[[NatSet], Optional[NatSet]]
               ) -> Optional[NatSet]:
    """s with its Union, Intersection and Complement nodes rebuilt over
    ``leaf`` of each other part; None when ``leaf`` gives None for any."""
    if isinstance(s, Complement):
        part = map_leaves(s.part, leaf)
        return None if part is None else Complement(part)
    if isinstance(s, (Union, Intersection)):
        parts = [map_leaves(p, leaf) for p in s.parts]
        return None if any(p is None for p in parts) else type(s)(parts)
    return leaf(s)


def _with_powers_as(s: NatSet, leaf: NatSet, bases: set) -> Optional[NatSet]:
    """s with each PowersOf leaf as ``leaf`` and its base in ``bases``."""
    def swap(p: NatSet) -> Optional[NatSet]:
        if isinstance(p, PowersOf):
            bases.add(p.base)
            return leaf
        return p if isinstance(p, (Finite, Cofinite, Progression)) else None
    return map_leaves(s, swap)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def exact_density(s: NatSet) -> Optional[Fraction]:
    """Natural density of a periodic form: its tail's share of residues."""
    form = periodic_form(s)
    return None if form is None else Fraction(form.masks[-1].bit_count(),
                                              form.period)


def natural_density(s: NatSet) -> Optional[Fraction]:
    """Certified natural density: a periodic form's, a tested set's own,
    or one minus that of the set a complement takes (else None)."""
    if isinstance(s, Tested):
        return s.density
    d = exact_density(s)
    if d is None and isinstance(s, Complement):
        inner = natural_density(s.part)
        d = None if inner is None else 1 - inner
    return d


def finite_upper_bound(s: NatSet) -> Optional[int]:
    """A bound no member of s exceeds, read off explicit finite parts."""
    if isinstance(s, Finite):
        return s.members[-1] if s.members else 0
    if isinstance(s, Union):
        bounds = [finite_upper_bound(p) for p in s.parts]
        return max(bounds) if all(b is not None for b in bounds) else None
    if isinstance(s, Intersection):
        bounds = [b for b in (finite_upper_bound(p) for p in s.parts)
                  if b is not None]
        return min(bounds) if bounds else None
    return None


SCAN_LIMIT = 1 << 24        # the farthest any member walk reads a prefix
GATHER_SPREAD = 256          # prefix bits a gather of Python ints reads per value


def iter_members(s: NatSet, start: int = 1) -> Iterator[int]:
    """Members of s in increasing order, from ``start`` upward.

    Periodic forms, powers and block unions are walked directly, so they
    reach members past any scan.  A tested set with its own ``take`` is read
    in batches of it, and raises HorizonExceeded after a short one.  Any
    other set is read in prefix windows,
    the first ending at max(start, 4096) and each later one twice as far,
    and the walk raises HorizonExceeded past ``SCAN_LIMIT``, since what lies
    beyond is unknown rather than empty.  Where a window's prefix is
    undecided (a bitmap's horizon, the end of a map's table), member() steps
    through it instead, and the walk raises at the first unknown index.
    """
    start = max(1, start)
    form = periodic_form(s)
    take = (form.take if form is not None
            else s.take if isinstance(s, Tested) else None)
    if take is not None:
        # batches of 16 members and twice as many each time up to 4096; a
        # short batch ends a periodic form, and a tested set's walk
        want = 16
        while True:
            batch = take(start, want, None)
            yield from batch
            if len(batch) < want:
                if form is not None:
                    return
                raise HorizonExceeded(f"no member scan reads past {SCAN_LIMIT}")
            start, want = batch[-1] + 1, min(2 * want, 1 << 12)
    if isinstance(s, PowersOf):
        v = s.base
        while v < start:
            v *= s.base
        while True:
            yield v
            v *= s.base
    if isinstance(s, BlockUnion):
        # a selector with finitely many indices ends the walk at its bound
        for lo, hi in s._selected_blocks(None, finite_upper_bound(s.selector)):
            yield from range(max(lo, start), hi)
        return
    lo, hi = start, max(start, 4096)
    while lo <= SCAN_LIMIT:
        hi = min(hi, SCAN_LIMIT)
        try:
            bits = s.prefix(hi)
        except HorizonExceeded:
            bits = None
        if bits is None:
            for n in range(lo, hi + 1):
                m = s.member(n)
                if m is None:
                    raise HorizonExceeded(f"membership undecided at {n}")
                if m:
                    yield n
        else:
            yield from (int(i) for i in np.flatnonzero(bits[lo - 1:]) + lo)
        lo, hi = hi + 1, 2 * hi
    raise HorizonExceeded(f"no member scan reads past {SCAN_LIMIT}")


def take_members(s: NatSet, start: int, want: int,
                 stop: Optional[int] = None) -> list[int]:
    """The first ``want`` members of s from ``start`` upward, in one list
    that ends early after the first member past ``stop`` (if given).

    A periodic form's members are built by range arithmetic per segment
    (``Periodic.take``), a tested set's by its own ``take`` where it has
    one, every other set's taken from ``iter_members``; the list is short
    only where that walk ends or raises HorizonExceeded.
    """
    form = periodic_form(s)
    if form is not None:
        return form.take(max(1, start), want, stop)
    if isinstance(s, Tested) and s.take is not None:
        return s.take(max(1, start), want, stop)
    return _take_walk(iter_members(s, start), want, stop, [])


def prefix_gather(s: NatSet, values) -> np.ndarray:
    """Membership bits of ``s`` at the given positive integers.

    Gathered from a single prefix when the values are not too large or
    spread out; per element through member() otherwise (maps can reach huge
    integers).  An int64 array (a permutation's values, dense) may read a
    prefix up to ``SCAN_LIMIT``; an object array (a subsequence's values,
    which can be sparse) at most ``GATHER_SPREAD`` bits per value.  Raises
    HorizonExceeded when any queried membership is unknown.
    """
    if isinstance(values, np.ndarray) and values.size:
        top, size = int(values.max()), values.size
        if (top <= min(SCAN_LIMIT, GATHER_SPREAD * size)
                if values.dtype == object
                else top <= max(SCAN_LIMIT, 4 * size)):
            try:
                bits = s.prefix(top)
            except HorizonExceeded:
                bits = None     # member() may still decide every value
            if bits is not None:
                return bits[values.astype(np.int64) - 1]
    out = np.empty(len(values), dtype=bool)
    for i, v in enumerate(values):
        m = s.member(int(v))
        if m is None:
            raise HorizonExceeded(f"membership undecided at {v}")
        out[i] = m
    return out


# ---------------------------------------------------------------------------
# JSON codec
# ---------------------------------------------------------------------------

def from_json(body: dict) -> NatSet:
    kind = body["kind"]
    if kind == "finite":
        return Finite(body["members"])
    if kind == "cofinite":
        return Cofinite(body["excluded"])
    if kind == "progression":
        return Progression(body["first"], body["step"])
    if kind == "powers":
        return PowersOf(body["base"])
    if kind == "prefix-bitmap":
        return PrefixBitmap([c == "1" for c in body["bits"]])
    if kind == "block-union":
        return BlockUnion(BlockPartition.from_json(body["partition"]),
                          _selector_from_json(body["selector"]))
    if kind == "union":
        return Union(tuple(from_json(p) for p in body["parts"]))
    if kind == "intersection":
        return Intersection(tuple(from_json(p) for p in body["parts"]))
    if kind == "complement":
        return Complement(from_json(body["part"]))
    raise ValueError(f"unknown set kind {kind!r}")


def _selector_from_json(body: dict) -> NatSet:
    """The block indices a block union selects.  Only ``index-set`` is
    written; ``all`` and ``every-kth`` are older forms that still load."""
    kind = body["kind"]
    if kind == "index-set":
        return from_json(body["set"])
    if kind == "all":
        return FULL
    if kind == "every-kth":
        return Progression(body["k"], body["k"])
    raise ValueError(f"unknown selector {kind!r}")


def loads(text: str) -> NatSet:
    return from_json(json.loads(text))


EMPTY = Finite(())
FULL = Cofinite(())
