"""Submeasure values against brute-force oracles, and the four axioms."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from idealconv import natset as ns
from idealconv import submeasure as sm
from idealconv.ideals import builtin

F = Fraction


# --- brute-force oracles ----------------------------------------------------

def brute_running_density(members, horizon):
    """max over n <= horizon of |A cap [1,n]| / n, by direct enumeration."""
    mem = set(members)
    best = F(0)
    count = 0
    for n in range(1, horizon + 1):
        if n in mem:
            count += 1
        best = max(best, F(count, n))
    return best


def brute_weighted(members, cap):
    total = sum((F(1, m) for m in members), F(0))
    return min(F(cap), total)


VARIANTS = {
    "running-density": sm.RunningDensity(),
    "counting-cap": sm.CountingCap(),
    "weighted-sum": sm.WeightedSum(cap=F(1), harmonic=True),
    "density-family": sm.DensityFamily(
        partition=ns.partition_from_tag({"kind": "geometric", "ratio": "2"}),
        tail_weight=F(1)),
}


def brute_phi(name, members):
    if name == "running-density":
        return brute_running_density(members, max(members, default=1))
    if name == "counting-cap":
        return F(min(1, len(members)))
    if name == "weighted-sum":
        return brute_weighted(members, 1)
    # density-family: blocks [2^(j-1), 2^j), weight 1
    best = F(0)
    j = 1
    lo = 1
    top = max(members, default=1)
    while lo <= top:
        hi = 2 ** j
        cnt = sum(1 for m in members if lo <= m < hi)
        if cnt:
            best = max(best, F(cnt, hi - lo))
        lo, j = hi, j + 1
    return best


# --- contract examples ------------------------------------------------------

def test_phi_examples():
    # oracle first: the sup of count/n for the evens up to 100
    assert brute_running_density(range(2, 101, 2), 100) == F(1, 2)
    assert sm.phi(sm.RunningDensity(), ns.Progression(2, 2), 100) == F(1, 2)
    assert sm.phi(sm.CountingCap(), ns.Finite({3, 7}), 10) == 1
    assert sm.phi(sm.WeightedSum(cap=F(10), harmonic=True),
                  ns.Finite({1, 2, 4}), 10) == F(7, 4)


def test_phi_matches_brute_force_on_random_sets():
    rng = random.Random(5)
    for _ in range(25):
        members = sorted(rng.sample(range(1, 400), rng.randrange(1, 40)))
        s = ns.Finite(members)
        for name, variant in VARIANTS.items():
            assert variant.phi_points(members) == brute_phi(name, members), name
            assert sm.phi(variant, s, 400) == brute_phi(name, members), name


@pytest.mark.parametrize("name", list(VARIANTS))
def test_submeasure_axioms_randomized(name):
    variant = VARIANTS[name]
    rng = random.Random(f"submeasure-axioms/{name}")
    assert variant.phi_points([]) == 0
    for _ in range(300):
        a = set(rng.sample(range(1, 300), rng.randrange(0, 25)))
        b = set(rng.sample(range(1, 300), rng.randrange(0, 25)))
        pa = variant.phi_points(sorted(a))
        pb = variant.phi_points(sorted(b))
        pu = variant.phi_points(sorted(a | b))
        assert pa <= pu and pb <= pu          # monotonicity via union
        assert pu <= pa + pb                  # subadditivity
        assert pa < F(10 ** 9)                # finite on finite sets


@given(st.lists(st.integers(1, 2000), min_size=1, max_size=30),
       st.integers(2000, 4000))
def test_lower_semicontinuity_truncations(members, horizon):
    # phi(A) equals phi of a deep enough truncation for finite A
    members = sorted(set(members))
    s = ns.Finite(members)
    for variant in VARIANTS.values():
        assert sm.phi(variant, s, horizon) == variant.phi_points(members)


# --- normalization ----------------------------------------------------------

def test_normalization_sets_full_norm_to_one():
    w = sm.WeightedSum(cap=F(3), harmonic=True)
    assert w.full_norm() == 3
    nw = sm.normalize(w)
    assert nw.full_norm() == 1
    fam = sm.DensityFamily(
        partition=ns.partition_from_tag({"kind": "geometric", "ratio": "2"}),
        tail_weight=F(2))
    assert sm.normalize(fam).full_norm() == 1


# --- norm estimates ---------------------------------------------------------

def default_reading(m, s, horizon):
    """The corrected tail values past the default cuts, as pairs, and the
    deepest one as a Fraction."""
    [row] = sm.norm_estimate(m, s.prefix(horizon)[None],
                             sm.default_cuts(horizon))
    return row, F(*row[-1])


def test_norm_estimate_evens_exact_half():
    rd, evens = sm.RunningDensity(), ns.Progression(2, 2)
    row, numeric = default_reading(rd, evens, 1 << 20)
    assert rd.exact_norm(evens) == F(1, 2)
    # finite-horizon numeric agrees once tail attenuation is corrected
    assert abs(numeric - F(1, 2)) < F(1, 100)
    assert sm.classify_trend(row, sm.TREND_SLACK) == "non-decreasing"


def test_norm_estimate_finite_head_is_zero():
    rd, head = sm.RunningDensity(), ns.Finite(range(1, 1001))
    row, numeric = default_reading(rd, head, 10 ** 6)
    assert rd.exact_norm(head) == 0 and numeric == 0
    assert sm.classify_trend(row, sm.TREND_SLACK) == "zero"


def test_norm_estimate_powers_vanishes():
    # oracle: the count of powers of two below n is logarithmic
    rd, powers = sm.RunningDensity(), ns.PowersOf(2)
    _, numeric = default_reading(rd, powers, 10 ** 6)
    assert rd.exact_norm(powers) == 0
    assert numeric <= F(20, 10 ** 6)


def test_norm_invariance_modulo_finite():
    rng = random.Random(11)
    targets = [ns.Progression(2, 2), ns.PowersOf(2), ns.Cofinite([4])]
    for s in targets:
        base = sm.RunningDensity().exact_norm(s)
        for _ in range(10):
            noise = ns.Finite(sorted(rng.sample(range(1, 5000), 6)))
            grown = ns.Union((s, noise))
            assert sm.RunningDensity().exact_norm(grown) == base
            shrunk = ns.Intersection((s, ns.Complement(noise)))
            assert sm.RunningDensity().exact_norm(shrunk) == base


def test_exact_norm_closed_forms():
    rd = sm.RunningDensity()
    assert rd.exact_norm(ns.Progression(5, 3)) == F(1, 3)
    assert rd.exact_norm(ns.Cofinite([2, 9])) == 1
    assert rd.exact_norm(ns.Complement(ns.PowersOf(2))) == 1
    assert rd.exact_norm(ns.Union((ns.Progression(1, 2), ns.Progression(2, 2)))) == 1
    assert rd.exact_norm(ns.Intersection((ns.Progression(1, 2),
                                          ns.Cofinite([3])))) == F(1, 2)
    ws = sm.WeightedSum(cap=F(1), harmonic=True)
    assert ws.exact_norm(ns.Progression(7, 5)) == 1
    assert ws.exact_norm(ns.PowersOf(3)) == 0
    cc = sm.CountingCap()
    assert cc.exact_norm(ns.PowersOf(2)) == 1
    assert cc.exact_norm(ns.Finite([1, 2])) == 0


def test_density_family_head_weights():
    fam = sm.DensityFamily(
        partition=ns.partition_from_tag({"kind": "geometric", "ratio": "2"}),
        head_weights=(F(1, 2),), tail_weight=F(1))
    # block 1 = {1} carries the head weight, later blocks the tail weight
    assert fam.phi_points([1]) == F(1, 2)
    assert fam.phi_points([2]) == F(1, 2)        # half of block 2 = [2, 4)
    assert fam.phi_points([2, 3]) == F(1)        # the full block, weight 1
    assert fam.full_norm() == 1


def test_max_count_ratio_exactness():
    rng = random.Random(3)
    for _ in range(20):
        bits = np.zeros(500, dtype=bool)
        idx = rng.sample(range(500), rng.randrange(1, 120))
        bits[idx] = True
        counts = np.cumsum(bits, dtype=np.int64)
        t = rng.randrange(0, 499)
        got = sm.max_count_ratio(counts, t)
        base = int(counts[t - 1]) if t > 0 else 0
        want = max((F(int(counts[n - 1]) - base, n)
                    for n in range(t + 1, 501)), default=F(0))
        assert got == want


def test_max_count_ratio_refuses_lengths_past_2_31():
    # a zero-stride view: 2^31 + 1 entries that occupy 8 bytes
    counts = np.broadcast_to(np.int64(0), (2 ** 31 + 1,))
    with pytest.raises(ValueError, match="exceed 2"):
        sm.max_count_ratio(counts, 1)


def test_sum_unit_fractions_matches_direct():
    vals = [3, 7, 7, 10, 31]
    assert sm.sum_unit_fractions(vals) == sum(F(1, v) for v in vals)
    assert sm.sum_unit_fractions([]) == 0


def test_trend_classification():
    assert sm.classify_trend([(0, 1), (0, 7)], F(1, 200)) == "zero"
    assert sm.classify_trend([(1, 2), (2, 4), (1, 2)], F(1, 200)) \
        == "non-decreasing"
    assert sm.classify_trend([(1, 10), (1, 30), (1, 100)], F(1, 200)) \
        == "decreasing"
    assert sm.classify_trend([(1, 10), (4, 10), (1, 12)], F(1, 200)) \
        == "mixed"


def fraction_trend(values, slack):
    """The trend test as it read in Fraction arithmetic, for reference."""
    if all(v == 0 for v in values):
        return "zero"
    if 2 * values[-1] <= values[0]:
        return "decreasing"
    if all(b >= a - max(slack, a / 8) for a, b in zip(values, values[1:])):
        return "non-decreasing"
    return "mixed"


@st.composite
def trends(draw):
    """Three non-negative values and a slack, with ties drawn on purpose:
    all zero, 2 last == first, b == a - slack and 8 b == 7 a."""
    value = st.fractions(min_value=0, max_value=4, max_denominator=1 << 40)
    slack = draw(st.fractions(min_value=F(1, 1 << 20), max_value=1,
                              max_denominator=1 << 20))
    a, b, c = (draw(value) for _ in range(3))
    tie = draw(st.sampled_from(["none", "zero", "half", "slack", "eighth"]))
    if tie == "zero":
        a = b = c = F(0)
    elif tie == "half":
        c = a / 2
    elif tie == "slack":
        b = max(a - slack, F(0))
    elif tie == "eighth":
        b = a * 7 / 8
    return [a, b, c], slack


@settings(max_examples=500, deadline=None)
@given(trends(), st.lists(st.integers(1, 12), min_size=3, max_size=3))
def test_integer_trend_test_equals_the_fraction_one(case, factors):
    # the pairs come unreduced, each by its own common factor
    values, slack = case
    pairs = [(k * v.numerator, k * v.denominator)
             for k, v in zip(factors, values)]
    assert sm.classify_trend(pairs, slack) == fraction_trend(values, slack)


# --- the least interval reaching q ---------------------------------------------

# a head weight of 4 over an explicit partition that ends at 2^17
HEAD_HEAVY_GDI = {"partition": {"iota": [1 << k for k in range(18)],
                                "lengths_unbounded": False},
                  "head_weights": ["4"], "tail_weight": "1"}
SEARCH_MEASURES = {name: builtin(name).lscsm
                   for name in ("fin", "Z", "summable", "gdi")}
SEARCH_MEASURES["head-heavy-gdi"] = builtin("gdi", HEAD_HEAVY_GDI).lscsm
SEARCH_MEASURES["unnormalized-sum"] = sm.WeightedSum(cap=F(1, 2),
                                                     scale=F(3, 2))
# an exact sum over the millions of terms of a straddled enclosure never
# finishes, so weighted-sum lengths are searched up to 2^24 only
SUM_CAP = 1 << 24


def scan_least_length(holds, cap):
    """The least L in [1, cap] with holds(L), one length at a time."""
    return next((L for L in range(1, cap + 1) if holds(L)), None)


def outcome(call):
    """The call's result, or HorizonExceeded where a partition ends."""
    try:
        return ("ok", call())
    except ns.HorizonExceeded:
        return ("HorizonExceeded", None)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(SEARCH_MEASURES)), st.booleans(),
       st.integers(1, 64) | st.integers(1, 1 << 30),
       st.fractions(F(1, 64), F(1), max_denominator=64)
       | st.fractions(F(1), F(3), max_denominator=8),
       st.integers(0, 400) | st.just(1 << 40))
@example("Z", False, 1, F(1), 5)            # the whole interval [1, hi)
@example("summable", True, 1, F(1), 400)    # the cap equals q: never above
@example("fin", True, 7, F(1), 3)           # mass 1 never exceeds q = 1
@example("Z", False, 1, F(1), 1 << 40)      # q = 1 from 1: at once
@example("Z", True, 1, F(1), 1 << 40)       # q = 1 is never exceeded
@example("Z", False, 9, F(1), 1 << 40)      # nor reached past 1
@example("Z", False, 2, F(3, 2), 400)       # q > 1: never
# masses equal to q, 1/3 = phi([3, 4)) and 5/6 = phi([2, 4)): the
# fixed-point enclosure straddles q and interval_mass_cmp settles it
@example("summable", False, 3, F(1, 3), 400)
@example("summable", True, 3, F(1, 3), 400)
@example("summable", False, 2, F(5, 6), 1 << 40)
@example("unnormalized-sum", False, 3, F(1, 2), 400)
def test_mass_length_equals_linear_scan(name, strict, lo, q, cap):
    m = SEARCH_MEASURES[name]
    if isinstance(m, sm.WeightedSum):
        cap = min(cap, SUM_CAP)

    def holds(L):
        sign = m.interval_mass_cmp(lo, lo + L, q)
        return sign > 0 if strict else sign >= 0

    got = outcome(lambda: m.mass_length(lo, q, cap, strict))
    if cap <= 400:
        assert got == outcome(lambda: scan_least_length(holds, cap))
        return
    # past 400 lengths the scan is too long: a monotone holds() has its
    # least true length where it turns true, or none up to the cap
    length = got[1]
    if got[0] != "ok":
        assert outcome(lambda: holds(cap))[0] == got[0]
    elif length is None:
        assert not holds(cap)
    else:
        assert 1 <= length <= cap and holds(length)
        assert length == 1 or not holds(length - 1)


# --- the limit norm of N ---------------------------------------------------------

def test_head_heavy_gdi_gives_cofinite_sets_the_tail_weight():
    # normalised by its largest weight, the head weight is 1 and the tail
    # weight 1/4: late blocks alone carry the limit norm of N
    m = builtin("gdi", HEAD_HEAVY_GDI).lscsm
    assert (m.full_norm(), m.norm_of_n()) == (1, F(1, 4))
    for s in (ns.Intersection((ns.Cofinite([1]), ns.Cofinite([2]))),
              ns.Cofinite([1]), ns.FULL,
              ns.Union((ns.Cofinite([1]), ns.Finite([1]))),
              ns.Complement(ns.Finite([1, 2]))):
        assert m.exact_norm(s) == F(1, 4), s.to_json()


@pytest.mark.parametrize("name", ["fin", "Z", "summable", "gdi"])
def test_builtin_ideals_have_the_norm_of_n_as_their_scale(name):
    m = builtin(name).lscsm
    assert m.norm_of_n() == m.full_norm() == 1
    assert m.exact_norm(ns.Intersection((ns.Cofinite([1]),
                                         ns.Cofinite([2])))) == 1
