"""Batched tail values against a per-cut reference, and the shared prefix of
the tail-trend decision route.

``tail_value(bits, cuts)`` evaluates every cut from one pass over one prefix.
The reference below is the plain per-cut evaluation, one fresh pass per cut;
both are exact, so they must agree to the last bit.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idealconv import natset as ns
from idealconv import submeasure as sm
from idealconv import transforms as tr
from idealconv import zoo
from idealconv.ideals import (DecisionParams, IdealHandle, Verdict, builtin,
                              decide_each, decide_membership)
from idealconv.sequences import indicator_set

F = Fraction


# --- the per-cut reference ----------------------------------------------------

def ref_running_density(m, bits, t):
    counts = np.cumsum(bits, dtype=np.int64)
    return sm.max_count_ratio(counts, t)


def ref_counting_cap(m, bits, t):
    return F(1) if bool(bits[t:].any()) else F(0)


def ref_weighted_sum(m, bits, t):
    idx = np.flatnonzero(bits[t:]) + (t + 1)
    if idx.size == 0:
        return F(0)
    tp, tq = 0, 1
    cn, cd = m.cap.numerator, m.cap.denominator
    sn, sd = m.scale.numerator, m.scale.denominator
    for lo in range(0, idx.size, 4096):
        p, q = sm.sum_unit_fractions_raw(idx[lo:lo + 4096].tolist())
        tp, tq = tp * q + p * tq, tq * q
        if sn * tp * cd >= cn * sd * tq:
            return m.cap
    return F(sn * tp, sd * tq)


def ref_capped_sum(m, bits, t):
    """min(cap, scale * the exact unit-fraction sum of the tail past t)."""
    tail = (np.flatnonzero(bits[t:]) + t + 1).tolist()
    return min(m.cap, m.scale * sm.sum_unit_fractions(tail))


def ref_density_family(m, bits, t):
    horizon = bits.shape[0]
    counts = np.cumsum(bits, dtype=np.int64)

    def window(lo, hi):
        lo = max(lo, t + 1)
        hi = min(hi - 1, horizon)
        if hi < lo:
            return 0
        return int(counts[hi - 1]) - (int(counts[lo - 2]) if lo >= 2 else 0)

    best = F(0)
    n = 1
    while True:
        lo, hi = m.partition.block(n)      # the last block may be partial
        if lo > horizon:
            break
        cnt = window(lo, hi)
        if cnt:
            r = m.weight(n) * F(cnt, hi - lo)
            if r > best:
                best = r
        n += 1
    return best


def reference(m, bits, cuts):
    ref = {sm.RunningDensity: ref_running_density,
           sm.CountingCap: ref_counting_cap,
           sm.WeightedSum: ref_weighted_sum,
           sm.DensityFamily: ref_density_family}[type(m)]
    return [ref(m, bits, t) for t in cuts]


def values(m, bits, cuts):
    """The tail values of one 1-D prefix as Fractions, from the one row of
    pairs that ``tail_value`` returns for it."""
    [row] = m.tail_value(bits, cuts)
    return [F(*v) for v in row]


# --- bitmaps and cuts -----------------------------------------------------------

SHAPES = ("random", "empty", "full", "single", "below-first-cut", "sparse")


@st.composite
def prefixes(draw, max_horizon=12_000):
    """(bits, cuts): a prefix on [1, N] and cuts in [0, N), in any order,
    with repeats allowed."""
    horizon = draw(st.integers(1, max_horizon))
    cuts = draw(st.lists(st.integers(0, horizon - 1), min_size=1, max_size=6))
    return draw_prefix(draw, horizon, cuts), cuts


@st.composite
def matrices(draw, max_horizon=3000):
    """(bits, cuts): a (K, N) matrix of K prefixes on [1, N], each row of
    its own shape, and cuts as in ``prefixes``."""
    horizon = draw(st.integers(1, max_horizon))
    cuts = draw(st.lists(st.integers(0, horizon - 1), min_size=1, max_size=6))
    rows = [draw_prefix(draw, horizon, cuts)
            for _ in range(draw(st.integers(1, 6)))]
    return np.stack(rows), cuts


def draw_prefix(draw, horizon, cuts):
    shape = draw(st.sampled_from(SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    bits = np.zeros(horizon, dtype=bool)
    if shape == "random":
        bits = rng.random(horizon) < draw(st.floats(0.0, 1.0))
    elif shape == "full":
        bits[:] = True
    elif shape == "single":
        bits[draw(st.integers(0, horizon - 1))] = True
    elif shape == "below-first-cut":
        first = min([t for t in cuts if t > 0], default=horizon)
        bits[:first] = rng.random(first) < 0.5
    elif shape == "sparse":
        bits[rng.integers(0, horizon, size=draw(st.integers(1, 8)))] = True
    return bits


GDI = builtin("gdi").lscsm
HEADED = sm.DensityFamily(
    partition=ns.partition_from_tag({"kind": "geometric", "ratio": "3/2"}),
    head_weights=(F(1, 2), F(3), F(1, 3)), tail_weight=F(2))
SUMMABLE = builtin("summable").lscsm
SCALED = sm.normalize(sm.WeightedSum(cap=F(3), scale=F(7, 5), harmonic=False))
WIDE = sm.WeightedSum(cap=F(3, 2), scale=F(2, 7), harmonic=False)
# weights whose cross-products pass int64: every row takes the exact loop
HUGE = sm.DensityFamily(
    partition=ns.partition_from_tag({"kind": "geometric", "ratio": "2"}),
    head_weights=(F(2 ** 70 + 1, 2 ** 71), F(0), F(1, 3)),
    tail_weight=F(3 ** 45, 3 ** 45 + 2))
KERNELS = (sm.RunningDensity(), sm.CountingCap(), SUMMABLE, SCALED, WIDE,
           GDI, HEADED, HUGE)


# --- batched equals per-cut -------------------------------------------------------

@given(prefixes())
def test_running_density_batched_equals_reference(case):
    bits, cuts = case
    m = sm.RunningDensity()
    assert values(m, bits, cuts) == reference(m, bits, cuts)


@given(prefixes())
def test_counting_cap_batched_equals_reference(case):
    bits, cuts = case
    m = sm.CountingCap()
    assert values(m, bits, cuts) == reference(m, bits, cuts)


@given(prefixes())
def test_weighted_sum_batched_equals_reference(case):
    # a row whose fixed-point lower bound reaches the cap skips the exact
    # sum; every row still equals min(cap, scale * its exact sum)
    bits, cuts = case
    for m in (SUMMABLE, SCALED, WIDE):
        got = values(m, bits, cuts)
        assert got == reference(m, bits, cuts)
        assert got == [ref_capped_sum(m, bits, t) for t in cuts]


@given(prefixes(), st.data())
def test_weighted_sum_cap_reached_exactly_at_a_cut(case, data):
    # the cap equals the exact tail sum at one cut: that cut sits on the
    # boundary of the cap test, deeper cuts stay below it
    bits, cuts = case
    t = data.draw(st.sampled_from(cuts))
    scale = data.draw(st.sampled_from([F(1), F(1, 3), F(5, 2)]))
    total = scale * sm.sum_unit_fractions((np.flatnonzero(bits[t:]) + t + 1).tolist())
    if total == 0:
        return
    m = sm.WeightedSum(cap=total, scale=scale, harmonic=False)
    got = values(m, bits, cuts)
    assert got == reference(m, bits, cuts)
    assert got[cuts.index(t)] == total


def test_weighted_sum_reaches_the_cap_past_its_fixed_point_bound():
    # 1/2 + 1/3 + 1/6 is exactly 1, but the floors of 2^56 / k sum to
    # 2^56 - 1: the bound falls short of the cap, the exact sum reaches it
    bits = np.zeros(8, dtype=bool)
    bits[[1, 2, 5]] = True
    one = 1 << sm.FIXED_BITS
    assert sum(one // k for k in (2, 3, 6)) == one - 1
    cuts = [0, 1, 2, 5]
    for m in (sm.WeightedSum(), sm.WeightedSum(cap=F(3, 2), scale=F(3, 2))):
        got = values(m, bits, cuts)
        assert got == [ref_capped_sum(m, bits, t) for t in cuts]
        assert got[:2] == [m.cap, m.cap]
    # the ceilings sum to 2^56 + 1: a cap that far above the sum is not
    # reached, so the bound must round down
    assert sum(-(-one // k) for k in (2, 3, 6)) == one + 1
    m = sm.WeightedSum(cap=F(one + 1, one))
    assert values(m, bits, cuts) == [1, 1, F(1, 2), F(1, 6)]


@given(prefixes())
def test_density_family_batched_equals_reference(case):
    bits, cuts = case
    for m in (GDI, HEADED):
        assert values(m, bits, cuts) == reference(m, bits, cuts)


@given(matrices())
def test_row_batched_tail_values_equal_reference_row_by_row(case):
    # K rows in, K rows of exact pairs out, each equal to its row's
    # per-cut reference; a 1-D prefix is the K = 1 case
    bits, cuts = case
    for m in KERNELS:
        rows = m.tail_value(bits, cuts)
        assert len(rows) == bits.shape[0]
        for row, got in zip(bits, rows):
            assert all(d > 0 for _, d in got)
            want = reference(m, row, cuts)
            assert [F(n, d) for n, d in got] == want
            assert values(m, row, cuts) == want


def test_row_batched_tail_values_on_fixed_rows():
    # all-zero and all-one rows, a row that only the whole prefix caps,
    # one row alone
    horizon = 2048
    cuts = [0, 1024, 1536, 1792]
    bits = np.zeros((4, horizon), dtype=bool)
    bits[1] = True
    bits[2, :64] = True
    bits[3, 1500:1600] = True
    for m in KERNELS:
        rows = [[F(*v) for v in got] for got in m.tail_value(bits, cuts)]
        for row, got in zip(bits, rows):
            assert got == reference(m, row, cuts)
        assert [[F(*v) for v in got]
                for got in m.tail_value(bits[3:], cuts)] == rows[3:]
    zero, full, head, _ = ([F(*v) for v in row]
                           for row in SUMMABLE.tail_value(bits, cuts))
    assert zero == [0] * 4
    assert full[0] == head[0] == SUMMABLE.cap and head[1:] == [0] * 3
    assert 0 < full[-1] < full[1] < 1


def test_density_family_partial_last_block():
    # N = 100 cuts the block [64, 128) short; its length stays 64
    bits = np.zeros(100, dtype=bool)
    bits[63:100] = True
    cuts = [0, 50, 70, 99]
    assert values(GDI, bits, cuts) == reference(GDI, bits, cuts)
    assert values(GDI, bits, [0]) == [F(37, 64)]


def test_phi_reads_the_single_cut_zero():
    bits = ns.Progression(3, 4).prefix(500)
    for m in (sm.RunningDensity(), sm.CountingCap(), SUMMABLE, GDI, HEADED):
        assert sm.phi(m, ns.Progression(3, 4), 500) == reference(m, bits, [0])[0]


def corrected(m, bits, cuts):
    """Each cut's per-cut reference divided by the variant's correction."""
    horizon = bits.shape[0]
    return [v / m.tail_correction(t, horizon)
            for v, t in zip(reference(m, bits, cuts), cuts)]


@given(matrices())
def test_norm_estimate_divides_each_cut_by_its_correction(case):
    # one row of exact pairs per prefix, in the order of the cuts; the
    # running density's correction (N - t) / N is the one that is not 1
    bits, cuts = case
    if bits.shape[1] < 2:
        for m in KERNELS:
            with pytest.raises(ValueError, match="horizon >= 2"):
                sm.norm_estimate(m, bits, cuts)
        return
    for m in KERNELS:
        rows = sm.norm_estimate(m, bits, cuts)
        assert len(rows) == bits.shape[0]
        for row, got in zip(bits, rows):
            assert all(d > 0 for _, d in got)
            assert [F(n, d) for n, d in got] == corrected(m, row, cuts)


# --- one prefix per decision ----------------------------------------------------

def separate_prefix_decision(handle, s, params):
    """The tail-trend route with a freshly built prefix at each horizon,
    read cut by cut through the per-cut reference."""
    def trend_verdict(horizon):
        cuts = sorted(set(sm.default_cuts(horizon)))
        vals = corrected(handle.lscsm, s.prefix(horizon), cuts)
        trend = sm.classify_trend([(v.numerator, v.denominator) for v in vals],
                                  sm.TREND_SLACK)
        numeric = vals[-1]
        if trend in ("zero", "decreasing") and numeric < params.theta:
            return Verdict.IN, numeric, trend
        if trend == "non-decreasing" and numeric >= params.theta:
            return Verdict.NOT_IN, numeric, trend
        return None, numeric, trend

    v1, numeric, trend = trend_verdict(params.horizon)
    v2 = v1
    if params.horizon >= 64:
        v2, _, _ = trend_verdict(params.horizon // 2)
    verdict = v1 if v1 is not None and v1 == v2 else Verdict.UNDECIDED
    return verdict, numeric, trend


HANDLES = [builtin(n) for n in ("fin", "density-zero", "summable", "gdi")]
VERDICTS = {True: Verdict.IN, False: Verdict.NOT_IN, None: Verdict.UNDECIDED}


@given(st.integers(6, 13), st.sampled_from(["random", "lumps", "empty", "tail"]),
       st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
def test_shared_prefix_decision_equals_separate_prefixes(log_n, shape, p, seed):
    horizon = 1 << log_n
    rng = np.random.default_rng(seed)
    bits = np.zeros(horizon + int(rng.integers(0, 64)), dtype=bool)
    if shape == "random":
        bits = rng.random(bits.size) < p
    elif shape == "lumps":
        # sparse exponential lumps: one horizon's windows can miss them all
        for k in range(2, log_n + 1, 2):
            bits[(1 << k) - 1:(1 << k) + (1 << (k - 2))] = True
    elif shape == "tail":
        bits[horizon // 2 + int(rng.integers(0, horizon // 2)):] = True
    s = ns.PrefixBitmap(bits)
    assert np.array_equal(s.prefix(horizon)[:horizon // 2],
                          s.prefix(horizon // 2))
    params = DecisionParams(horizon=horizon)
    for handle in HANDLES:
        expected = separate_prefix_decision(handle, s, params)
        got = decide_membership(handle, s, params)
        assert got.reason == "tail-trend"
        assert (got.verdict, got.estimate, got.trend) == expected
        [(vanishes, numeric, trend)] = sm.tail_verdicts(
            handle.lscsm, s.prefix(horizon)[None], params.theta)
        assert (VERDICTS[vanishes], numeric, trend) == expected


def _mixed_sets():
    """Symbolic sets, bitmaps, map balls (tested through a map's values),
    block-union letters and a ball whose map ends before the horizon."""
    rng = np.random.default_rng(7)
    harmonic, rationals = zoo.harmonic(), zoo.rationals()
    balls = []
    for seed in range(3):
        for x, centre in ((harmonic, F(1, 3)), (rationals, F(1, 2))):
            y = tr.apply(tr.random_sigma(seed, length=1024), x)
            balls += [indicator_set(y, (centre,), F(1, 2 ** k)) for k in (1, 3)]
        y = tr.apply(tr.random_pi(seed, length=1024), rationals)
        balls.append(indicator_set(y, (F(1, 4),), F(1, 8)))
    short = tr.apply(tr.random_sigma(9, length=256), harmonic)
    return ([ns.Progression(3, 7), ns.PowersOf(3), ns.Finite([2, 99, 1000]),
             ns.Cofinite([1, 5]), ns.Union((ns.Progression(1, 5), ns.PowersOf(2))),
             ns.PrefixBitmap(rng.random(2048) < 0.3),
             ns.PrefixBitmap(np.arange(1, 2049) % 97 < 3),
             ns.PrefixBitmap([True] * 5000 + [False] * 3192),
             ns.PrefixBitmap([True, False, True]),
             indicator_set(short, (F(1, 2),), F(1, 4))]
            + list(zoo.get_sequence("charblocks:2", 1024).alphabet.index_sets)
            + balls
            # structural routes over parts that are read by tail
            + [ns.Union((balls[0], ns.PowersOf(2))),
               ns.Union((balls[1], ns.Finite([3, 8]), balls[4])),
               ns.Intersection((balls[2], ns.PowersOf(3))),
               ns.Intersection((balls[3], balls[5]))])


MIXED = _mixed_sets()
DECIDERS = HANDLES + [builtin("fin-x-fin"),
                      IdealHandle("gdi", lscsm=sm.normalize(HEADED))]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, len(MIXED) - 1), min_size=1, max_size=10),
       st.sampled_from(range(len(DECIDERS))), st.sampled_from([512, 1024]))
def test_decide_each_equals_decide_membership_set_by_set(picks, h, horizon):
    # the batch's tail reads share kernel passes, possibly split by a small
    # cell budget; every decision must equal the one-set decision
    handle, sets = DECIDERS[h], [MIXED[i] for i in picks]
    params = DecisionParams(horizon=horizon)
    want = [decide_membership(handle, s, params) for s in sets]
    assert decide_each(handle, sets, params) == want


def test_decide_each_splits_a_batch_at_the_cell_budget(monkeypatch):
    params = DecisionParams(horizon=1024)
    handle = builtin("density-zero")
    want = [decide_membership(handle, s, params) for s in MIXED]
    widths = []
    kernel = sm.RunningDensity.tail_value

    def counted(self, bits, cuts):
        widths.append(bits.shape)
        return kernel(self, bits, cuts)

    monkeypatch.setattr(sm.RunningDensity, "tail_value", counted)
    monkeypatch.setattr(sm, "TAIL_CELLS", 3 * 1024)
    assert decide_each(handle, MIXED, params) == want
    assert widths and all(k * n <= 3 * 1024 for k, n in widths)
    assert any(k == 3 for k, _ in widths)
    # union and intersection parts are read in batches of their own
    assert sum(k for k, n in widths if n == 1024) >= sum(
        d.reason == "tail-trend" for d in want)
    assert "horizon-exceeded" in {d.reason for d in want}


def test_half_prefix_is_a_slice_for_structured_sets():
    sets = [ns.Progression(3, 7), ns.PowersOf(3), ns.Cofinite([1, 5]),
            ns.Finite([2, 99, 1000]),
            ns.Union((ns.Progression(1, 5), ns.PowersOf(2))),
            ns.Intersection((ns.Progression(2, 2), ns.Complement(ns.PowersOf(2)))),
            ns.BlockUnion(ns.partition_from_tag({"kind": "pow2"}),
                          ns.Progression(3, 3))]
    for s in sets:
        for horizon in (64, 1000, 4097):
            assert np.array_equal(s.prefix(horizon)[:horizon // 2],
                                  s.prefix(horizon // 2)), s.to_json()


# --- the half horizon only corroborates a verdict -----------------------------

def test_half_horizon_is_read_only_under_a_verdict(monkeypatch):
    horizons: list[int] = []      # the horizon of each tail kernel read
    for cls in (sm.RunningDensity, sm.DensityFamily):
        def counted(self, bits, cuts, kernel=cls.tail_value):
            horizons.append(bits.shape[-1])
            return kernel(self, bits, cuts)

        monkeypatch.setattr(cls, "tail_value", counted)
    # neither letter set of charblocks:2 gets a tail verdict under gdi at
    # 2^16; letter 0, a union, reads its block-union part's tail and its own
    letters = zoo.get_sequence("charblocks:2", 1 << 16).alphabet.index_sets
    params = DecisionParams(horizon=1 << 16)
    for s, reads in zip(letters, ([65536, 65536], [65536])):
        del horizons[:]
        got = decide_membership(builtin("gdi"), s, params)
        assert (got.verdict, got.reason) == (Verdict.UNDECIDED, "tail-trend")
        assert horizons == reads
    # a full prefix then an empty tail vanishes at 8192, but not at 4096,
    # so the verdict needs both horizons and does not stand
    del horizons[:]
    s = ns.PrefixBitmap([True] * 5000 + [False] * 3192)
    got = decide_membership(builtin("density-zero"), s,
                            DecisionParams(horizon=8192))
    assert (got.verdict, got.trend) == (Verdict.UNDECIDED, "decreasing")
    assert horizons == [8192, 4096]
