"""Fixed-point enclosures of harmonic interval sums, and the decisions they make.

``unit_fraction_bounds(lo, hi)`` brackets 2^56 times the harmonic sum over
[lo, hi) with integer floors only; ``WeightedSum.interval_mass_cmp`` decides
the sign of phi([lo, hi)) - q from that bracket and sums exactly only when
the bracket straddles q.  The exact bisection the phi-search partition used before, and
game transcripts taken with it, are kept below as the reference.
"""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from idealconv import submeasure as sm
from idealconv import zoo
from idealconv.games import GameTarget, run_game
from idealconv.ideals import builtin
from idealconv.meager import _phi_search_partition
from idealconv.sequences import RadiusSchedule

F = Fraction
ONE = 1 << 56


# --- the enclosure ------------------------------------------------------------

@given(st.integers(1, 1 << 40), st.integers(0, 4096))
@example(1, (1 << 16) + 1)
@example((1 << 40) - 5, (1 << 16) + 2)
@example(1, 0)
def test_bounds_bracket_exact_sum(lo, length):
    a, b = sm.unit_fraction_bounds(lo, lo + length)
    p, d = sm.sum_unit_fractions_raw(range(lo, lo + length))
    assert a * d <= ONE * p <= b * d


@given(st.integers(1, 1 << 40), st.integers(0, 1 << 17))
@example(1, 1 << 17)
@example((1 << 16) - 1, (1 << 16) + 1)
def test_bounds_are_floor_sums_plus_length(lo, length):
    # the lower end is the plain floor sum in Python ints, across chunk edges
    a, b = sm.unit_fraction_bounds(lo, lo + length)
    assert a == sum(ONE // k for k in range(lo, lo + length))
    assert b == a + length


@pytest.mark.parametrize("lo, hi", [(0, 5), (1 << 62, (1 << 62) + 1)])
def test_bounds_refuse_int64_overflow(lo, hi):
    with pytest.raises(ValueError):
        sm.unit_fraction_bounds(lo, hi)


# --- the decision -------------------------------------------------------------

def exact_sign(m, lo, hi, q):
    value = min(m.cap, m.scale * sm.sum_unit_fractions(range(lo, hi)))
    return (value > q) - (value < q)


WEIGHTED = [sm.WeightedSum(cap=F(1), scale=F(1)),
            sm.WeightedSum(cap=F(1, 3), scale=F(1)),
            sm.WeightedSum(cap=F(10), scale=F(7, 5)),
            sm.WeightedSum(cap=F(2), scale=F(1, 1000)),
            builtin("summable").lscsm]


@st.composite
def interval_and_q(draw):
    m = draw(st.sampled_from(WEIGHTED))
    lo = draw(st.one_of(st.integers(1, 64), st.integers(1, 1 << 40)))
    hi = lo + draw(st.integers(0, 600))
    exact = m.scale * sm.sum_unit_fractions(range(lo, hi))
    tiny = F(1, max(exact.denominator, 2))
    q = draw(st.one_of(
        st.just(exact), st.just(exact + tiny), st.just(exact - tiny),
        st.just(m.cap), st.just(m.cap + tiny),
        st.fractions(F(1, 10 ** 6), F(3), max_denominator=10 ** 6)))
    return m, lo, hi, q if q > 0 else tiny


@given(interval_and_q())
def test_mass_cmp_equals_exact_sign(case):
    m, lo, hi, q = case
    assert m.interval_mass_cmp(lo, hi, q) == exact_sign(m, lo, hi, q)


def test_mass_cmp_straddles_at_the_exact_sum():
    # q equal to the interval's mass, and one unit of its denominator away:
    # the enclosure holds all three, so only the exact sum decides
    m = builtin("summable").lscsm
    for lo, hi in ((2, 3), (3, 7), (1000, 1700), ((1 << 40) + 1, (1 << 40) + 90)):
        exact = m.scale * sm.sum_unit_fractions(range(lo, hi))
        tiny = F(1, exact.denominator)
        assert m.interval_mass_cmp(lo, hi, exact) == 0
        assert m.interval_mass_cmp(lo, hi, exact + tiny) == -1
        assert m.interval_mass_cmp(lo, hi, exact - tiny) == 1


def test_mass_cmp_past_int64():
    m = sm.WeightedSum(cap=F(10), scale=F(1 << 62))
    lo = (1 << 62) - 3
    for hi in (lo + 1, lo + 2, lo + 8):
        for q in (F(1), F(2), F(4), F(7, 2)):
            assert m.interval_mass_cmp(lo, hi, q) == exact_sign(m, lo, hi, q)


# --- the phi-search partition against the exact bisection ---------------------

def reference_boundaries(m, q, count):
    """The first ``count`` boundaries from an exact bisection on each block."""

    def reaches(lo, hi):
        if m.cap < q:
            return False
        p, den = sm.sum_unit_fractions_raw(range(lo, hi))
        return (m.scale.numerator * p * q.denominator
                >= q.numerator * m.scale.denominator * den)

    out = [1]
    while len(out) < count:
        lo = out[-1]
        hi = lo + 1
        while not reaches(lo, hi):
            hi = 2 * hi - lo
        a, b = lo + 1, hi
        while a < b:
            mid = (a + b) // 2
            if reaches(lo, mid):
                b = mid
            else:
                a = mid + 1
        out.append(a)
    return out


def test_phi_search_boundaries_equal_exact_bisection():
    summable = builtin("summable")
    for q in (F(1, 4), F(1, 3), F(1, 2)):
        part = _phi_search_partition(summable, q)
        got = []
        n = 1
        while part.iota(n) <= 1 << 16:
            got.append(part.iota(n))
            n += 1
        assert got == reference_boundaries(summable.lscsm, q, len(got)), q


# --- summable game transcripts, pinned before the enclosures -----------------

def transcript_digest(seq, ell, q, kind, rounds, seed):
    t = run_game(seq, builtin("summable"),
                 GameTarget((ell,), q, RadiusSchedule.dyadic(10)),
                 rounds=rounds, horizon=10 ** 5, seed=seed, kind=kind)
    text = json.dumps(t.to_json(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


GAME_PINS = {
    ("evens", "sigma"):
        "e9cbc8dcfdd4c0c67f0b154f0a4594124651a99047b7ed253c5ec6265ebf05ac",
    ("evens", "pi"):
        "560429915e25fcb45f8ea51b835de7df52f9c93a55f55c9bac66fc8a37a8cac0",
    ("harmonic", "sigma"):
        "2573c848dcf26ed122fcbf421c1fc30a5f5e91a88c62a4464dd8b9c62dac4d96",
    ("harmonic", "pi"):
        "938ceefb3bc2216fbdcda5f5725ea5940b60f65db689e692b70b20db23f0dc43",
}


def test_summable_game_transcripts_pinned():
    cases = {"evens": (zoo.char_evens(), F(1), F(1, 4), 20, 3),
             "harmonic": (zoo.harmonic(), F(0), F(1, 2), 12, 7)}
    for (name, kind), pin in GAME_PINS.items():
        seq, ell, q, rounds, seed = cases[name]
        assert transcript_digest(seq, ell, q, kind, rounds, seed) == pin, \
            (name, kind)
