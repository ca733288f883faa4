"""The array walks against per-block and per-point references.

``BlockUnion.prefix`` reads a partition's boundaries as one int64 array; the
game escape move fixes its length with the submeasure's inverse of its
interval mass (``Lscsm.mass_length``) and takes its values in one batched
take (``MemberSupply.run``).  The references below are plain loops, one
Python step per block or value; a supply's reference tests each index n with the
exact ``distance(x.point(n), c) < eps`` up to 2^16.  Block unions and
boundaries are compared by result, or by the type of the exception raised
(the array form reads the whole partition before the selector, so it may
name another cause than the walk); escape moves and member supplies by
result or exception text.  A rationals ball's own take, Farey block by
block, is compared with the members listed from its exact prefix up to
2^18, and with the prefix-window walk where ``SCAN_LIMIT`` cuts both.
``harmonic`` and ``rationals`` give their balls over many centres as rows
(``rows_fn``), compared with the exact distance test point by point; a map
image's rows with each ball's gathered prefix, and the decisions read from
them with ``decide_each`` ball by ball.
"""

import hashlib
from dataclasses import replace
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idealconv import games, ideals, sequences, zoo
from idealconv import natset as ns
from idealconv import submeasure as sm
from idealconv import transforms as tr
from idealconv.cli import main
from idealconv.games import GameState, GameTarget, SupplyExhausted, run_game
from idealconv.ideals import DecisionParams, builtin
from idealconv.meager import WitnessIntervals, WitnessRefuted, build_witness
from idealconv.sequences import (AnalysisParams, RadiusSchedule, as_point,
                                 distance, indicator_set)
from idealconv.transforms import (NO_TAIL, ExhaustedA, MemberSupply,
                                  SubsequenceMap, apply,
                                  limit_witness_extraction)

F = Fraction

# ---------------------------------------------------------------------------
# References: the per-block and per-value loops
# ---------------------------------------------------------------------------


def ref_prefix(u: ns.BlockUnion, horizon: int) -> np.ndarray:
    bits = np.zeros(horizon, dtype=bool)
    if u.partition.iota(1) > horizon:
        return bits
    for n, lo, hi in u.partition.blocks(horizon):
        sel = u.selector.member(n)
        if sel is None:
            raise ns.HorizonExceeded(f"selector undecided at block {n}")
        if sel:
            bits[lo - 1:min(hi - 1, horizon)] = True
    return bits


def ref_certify(w: WitnessIntervals, lscsm, horizon: int) -> WitnessIntervals:
    for n, lo, hi in w.blocks_within(horizon):
        if not w.certify_block(n, lscsm):
            raise WitnessRefuted(f"block {n} = [{lo}, {hi}) fails {w.rule}")
    return w


def ref_draw_until_mass(state, supply, q, m, horizon):
    n1 = state.next_position()
    floor = state.floor()
    vals = []
    while True:
        try:
            floor = supply.run(1, floor)[0]
        except ExhaustedA:
            raise SupplyExhausted(f"no fresh member above {state.floor()}")
        if floor > horizon:
            raise SupplyExhausted(f"next member {floor} exceeds horizon {horizon}")
        if state.kind == "pi" and floor in state.used:
            continue
        vals.append(floor)
        if m.interval_mass_cmp(n1, n1 + len(vals), q) > 0:
            return vals, m.interval_mass(n1, n1 + len(vals))


REF_LIMIT = 1 << 16


class RefSupply:
    """The per-point reference supply: the n > floor, up to REF_LIMIT, with
    d(x_n, c) < eps, each index tested exactly on its own."""

    def __init__(self, x, center, eps):
        self.x, self.center, self.eps = x, as_point(center, x.dim), F(eps)

    def run(self, length, floor):
        out = []
        for n in range(floor + 1, REF_LIMIT + 1):
            if distance(self.x.point(n), self.center) < self.eps:
                out.append(n)
                if len(out) == length:
                    return out
        raise ExhaustedA(f"too few members in ({floor}, {REF_LIMIT}]")


def first_member(supply, floor):
    """The supply's least member above floor, from a one-value take."""
    return supply.run(1, floor)[0]


def outcome(call):
    """The call's result, or the type and text of the exception it raised."""
    try:
        return ("ok", call())
    except (ns.HorizonExceeded, WitnessRefuted, SupplyExhausted,
            ExhaustedA) as exc:
        return (type(exc).__name__, str(exc))


def same_bits(got, want):
    """Equal bit arrays, or exceptions of the same type."""
    if want[0] == "ok":
        assert got[0] == "ok" and got[1].tolist() == want[1].tolist()
    else:
        assert got[0] == want[0]


# ---------------------------------------------------------------------------
# Partitions and selectors
# ---------------------------------------------------------------------------

TAGS = [
    {"kind": "pow2"},
    {"kind": "singletons"},
    {"kind": "valuation-cover"},
    {"kind": "geometric", "ratio": "3/2"},
    {"kind": "geometric", "ratio": "5"},
    {"kind": "ratio-search", "q": "1/3"},
    {"kind": "phi-search", "ideal": "summable", "q": "1/2"},
    {"kind": "phi-search", "ideal": "gdi", "q": "1/3"},
    None,                                   # explicit prefix
]
EXPLICIT = [1, 3, 7, 20, 50, 300, 2000, 9000]


def fresh(tag) -> ns.BlockPartition:
    if tag is None:
        return ns.BlockPartition(prefix=EXPLICIT)
    return ns.partition_from_tag(tag)


tags = st.sampled_from(TAGS)
horizons = st.integers(1, 1 << 14)
small_sets = st.lists(st.integers(1, 80), max_size=6)
selectors = st.one_of(
    st.just(ns.FULL),
    st.builds(lambda k: ns.Progression(k, k), st.integers(1, 5)),
    st.builds(ns.Finite, small_sets),
    st.builds(ns.Cofinite, small_sets),
    st.builds(ns.Progression, st.integers(1, 6), st.integers(1, 6)),
    # undecided past the bitmap: the walk raises only if it gets there
    st.builds(ns.PrefixBitmap, st.lists(st.booleans(), min_size=1, max_size=40)),
)


@settings(max_examples=150)
@given(tags, selectors, horizons, st.integers(0, 1))
def test_block_union_prefix_matches_walk(tag, selector, horizon, twice):
    old, new = fresh(tag), fresh(tag)
    for h in [horizon // 3 + 1] * twice + [horizon]:
        want = outcome(lambda: ref_prefix(ns.BlockUnion(old, selector), h))
        got = outcome(lambda: ns.BlockUnion(new, selector).prefix(h))
        same_bits(got, want)


@pytest.mark.parametrize("known_bits", [3, 6, 7, 8])
@pytest.mark.parametrize("horizon", [1000, 5000, 20000])
def test_block_union_prefix_raises_where_the_walk_does(known_bits, horizon):
    # the explicit prefix ends at block 8 and the bitmap selector is
    # undecided from block known_bits + 1 on: the walk meets whichever
    # comes first, and the array form must raise too
    old, new = fresh(None), fresh(None)
    selector = ns.PrefixBitmap([True] * known_bits)
    want = outcome(lambda: ref_prefix(ns.BlockUnion(old, selector), horizon))
    got = outcome(lambda: ns.BlockUnion(new, selector).prefix(horizon))
    same_bits(got, want)


@settings(max_examples=150)
@given(tags, horizons)
def test_boundaries_mirror_walks(tag, limit):
    want = outcome(lambda: list(fresh(tag).blocks(limit)))
    got = outcome(lambda: fresh(tag).boundaries(limit))
    if want[0] == "ok":
        b = got[1]
        assert got[0] == "ok" and b.dtype == np.int64
        assert [(i + 1, int(b[i]), int(b[i + 1]))
                for i in range(b.size - 1)] == [
            (n, lo, min(hi, limit + 1)) for n, lo, hi in want[1]]
    else:
        assert got[0] == want[0]


def ref_boundaries(p: ns.BlockPartition, limit: int) -> list[int]:
    """The boundaries a walk to ``limit`` reads, built as a list: each
    walked block's lo, then the last hi clipped to limit + 1."""
    walk = list(p.blocks(limit))
    if not walk:
        return [min(p.iota(1), limit + 1)]
    return [lo for _, lo, _ in walk] + [min(walk[-1][2], limit + 1)]


@settings(max_examples=150)
@given(tags, st.lists(horizons, min_size=1, max_size=6))
def test_boundaries_equal_a_list_reference_across_calls(tag, limits):
    # one partition answers every limit in turn, so its int64 mirror grows,
    # is reused for shorter limits and survives the explicit prefix's raise
    p = fresh(tag)
    for limit in limits + [1 << 13, 9000]:
        want = outcome(lambda: ref_boundaries(fresh(tag), limit))
        got = outcome(lambda: p.boundaries(limit))
        if want[0] != "ok":
            assert got[0] == want[0]
            continue
        assert got[0] == "ok" and got[1].dtype == np.int64
        assert got[1].tolist() == want[1]
        got[1][:] = -1          # the caller owns the returned array
        assert p.boundaries(limit).tolist() == want[1]


def test_boundaries_past_int64_raise():
    with pytest.raises(OverflowError):
        fresh({"kind": "pow2"}).boundaries(1 << 70)


# ---------------------------------------------------------------------------
# Witness certification
# ---------------------------------------------------------------------------

WITNESS_CASES = [("fin", F(1, 2)), ("fin", F(1, 5)), ("fin", F(9, 10)),
                 ("Z", F(1, 3)), ("summable", F(1, 2))]


@settings(max_examples=60)
@given(st.sampled_from(WITNESS_CASES), horizons)
def test_build_witness_matches_per_block_certification(case, horizon):
    name, q = case
    handle = builtin(name)
    w = build_witness(handle, q, horizon)
    again = WitnessIntervals(w.rule, w.q0, ns.partition_from_tag(w.tag))
    ref_certify(again, handle.lscsm, horizon)
    assert list(w.blocks_within(horizon)) == list(again.blocks_within(horizon))
    assert w.to_json() == again.to_json()


# ---------------------------------------------------------------------------
# Escape moves and member supplies
# ---------------------------------------------------------------------------

def reference_game(monkeypatch):
    monkeypatch.setattr(games, "_draw_until_mass", ref_draw_until_mass)
    monkeypatch.setattr(games, "MemberSupply", RefSupply)


GAME_SEQS = [("harmonic", F(0)), ("rationals", F(1, 2))]


@pytest.mark.parametrize("ideal", ["Z", "gdi", "summable", "fin"])
@pytest.mark.parametrize("kind", ["sigma", "pi"])
@pytest.mark.parametrize("seq,ell", GAME_SEQS)
def test_game_transcripts_match_linear_scan(monkeypatch, ideal, kind, seq,
                                            ell):
    x = zoo.get_sequence(seq)
    q = F(1, 4) if ideal == "summable" else F(1, 3)
    target = GameTarget((ell,), q, RadiusSchedule.dyadic(6))

    def play():
        return run_game(x, builtin(ideal), target, rounds=9,
                        horizon=1 << 14, seed=5, kind=kind).to_json()

    got = play()
    reference_game(monkeypatch)
    assert got == play()


@settings(max_examples=60)
@given(st.sampled_from(["Z", "gdi", "summable", "fin"]),
       st.sampled_from(["sigma", "pi"]),
       st.sampled_from(GAME_SEQS + [("char:powers2", F(1))]),
       st.lists(st.integers(1, 40), max_size=30),
       st.sampled_from([F(1, 4), F(1, 3), F(1, 2)]),
       st.integers(1, 6), st.sampled_from([1 << 9, 1 << 12]))
def test_escape_length_matches_linear_scan(ideal, kind, seq, gaps, q, level,
                                           horizon):
    x = zoo.get_sequence(seq[0])
    m = builtin(ideal).lscsm
    eps = RadiusSchedule.dyadic(6).radii[level - 1]
    vals, v = [], 0
    for g in gaps:
        v += g
        vals.append(v)
    if kind == "pi":
        vals = vals[::-1]

    def draw(fn, supply):
        state = GameState(kind)
        state.extend(vals)
        return outcome(lambda: fn(state, supply(x, (seq[1],), eps), q, m,
                                  horizon))

    assert draw(games._draw_until_mass, MemberSupply) == \
        draw(ref_draw_until_mass, RefSupply)


@pytest.mark.parametrize("ideal", ["Z", "gdi", "summable", "fin"])
@pytest.mark.parametrize("kind", ["sigma", "pi"])
def test_escape_length_capped_at_the_horizon(ideal, kind):
    # every index of a constant sequence is in the ball, so a move of least
    # length L needs all of floor + 1 .. floor + L: horizon floor + L is
    # just enough and one less runs out
    x, m, q = zoo.get_sequence("const:1"), builtin(ideal).lscsm, F(1, 3)
    eps = RadiusSchedule.dyadic(4).radii[0]

    def draw(fn, horizon):
        state = GameState(kind)
        state.extend([3, 5, 9, 10])
        return outcome(lambda: fn(state, MemberSupply(x, (F(1),), eps), q,
                                  m, horizon))

    vals = draw(ref_draw_until_mass, 1 << 14)[1][0]
    for horizon in range(vals[-1] - 2, vals[-1] + 3):
        assert draw(games._draw_until_mass, horizon) == \
            draw(ref_draw_until_mass, horizon)


@pytest.mark.parametrize("seq", ["const:1", "harmonic", "char:evens"])
@pytest.mark.parametrize("kind", ["sigma", "pi"])
def test_escape_edges_match_linear_scan(seq, kind):
    # a floor already past the horizon leaves no length: the first member
    # drawn is past the horizon.  Counting mass 1 never exceeds q = 1, so no
    # length exists and the draw walks on to the horizon.
    x = zoo.get_sequence(seq)
    eps = RadiusSchedule.dyadic(4).radii[1]

    def draw(fn, prefix, ideal, q, horizon):
        state = GameState(kind)
        state.extend(prefix)
        return outcome(lambda: fn(state, MemberSupply(x, (F(1),), eps), q,
                                  builtin(ideal).lscsm, horizon))

    for prefix, ideal, q, horizon in [([700], "Z", F(1, 3), 500),
                                      ([30, 700], "summable", F(1, 4), 600),
                                      ([4], "fin", F(1), 300),
                                      ([], "fin", F(1), 40)]:
        got = draw(games._draw_until_mass, prefix, ideal, q, horizon)
        assert got == draw(ref_draw_until_mass, prefix, ideal, q, horizon)
        assert got[0] == "SupplyExhausted"


@settings(max_examples=80)
@given(st.sampled_from(["harmonic", "rationals"]),
       st.sampled_from([F(0), F(1, 2), F(1, 3)]),
       st.integers(1, 8),
       st.lists(st.integers(0, 3000), min_size=1, max_size=40))
def test_supply_matches_per_point_reference(seq, center, level, steps):
    # where the reference finds a member the supply returns it; where it
    # finds none up to 2^16, a finite
    # ball has ended and the supply raises, or the supply's member lies past
    # 2^16 and is one
    x = zoo.get_sequence(seq)
    eps = RadiusSchedule.dyadic(8).radii[level - 1]
    supply, ref = MemberSupply(x, (center,), eps), RefSupply(x, (center,), eps)
    finite = indicator_set(x, (center,), eps).is_infinite() is False
    floor = 0
    for step in steps:
        floor += step
        got = outcome(lambda: first_member(supply, floor))
        want = outcome(lambda: first_member(ref, floor))
        if want[0] == "ok":
            assert got == want
        elif finite:
            assert got[0] == "ExhaustedA"
        else:
            assert got[0] == "ok" and got[1] > REF_LIMIT
            assert distance(x.point(got[1]), (center,)) < eps
        if got[0] != "ok":
            break
        floor = max(floor, got[1])


def test_finite_closed_form_ball_ends_without_a_scan(monkeypatch):
    # |1/n - 1/2| < 1/8 holds for n = 2 only: its periodic form ends there,
    # and no prefix is read on the way to ExhaustedA
    x = zoo.get_sequence("harmonic")

    def no_prefix(self, horizon):
        raise AssertionError(f"prefix({horizon}) read")
    for cls in (ns.Intersection, ns.Progression, ns.Complement):
        monkeypatch.setattr(cls, "prefix", no_prefix)
    supply = MemberSupply(x, (F(1, 2),), F(1, 8))
    assert first_member(supply, 0) == 2
    with pytest.raises(ExhaustedA):
        first_member(supply, 2)


# a harmonic subsequence whose map's table ends at position 500
SHORT_SIGMA = SubsequenceMap(range(2, 1002, 2), NO_TAIL, horizon=500)


def test_supply_past_a_map_table_steps_to_its_end():
    # x_n = 1/(2n): the radius-1/4 ball around 0 is {3, 4, ...}; the first
    # prefix window (4096) passes the table, so member() walks up to it
    x = apply(SHORT_SIGMA, zoo.get_sequence("harmonic"))
    supply = MemberSupply(x, (F(0),), F(1, 4))
    assert first_member(supply, 0) == 3
    assert first_member(supply, 499) == 500
    with pytest.raises(ExhaustedA):
        first_member(supply, 500)


def test_extraction_through_a_finite_map():
    params = AnalysisParams(horizon=500, schedule=RadiusSchedule.dyadic(3))
    cert = limit_witness_extraction(zoo.get_sequence("harmonic"), SHORT_SIGMA,
                                    (F(0),), F(1, 4), sm.RunningDensity(),
                                    params)
    assert [(k, members) for k, members, _, _ in cert.blocks] == \
        [(1, [2]), (2, [3]), (3, [5, 6])]
    assert cert.norm_lower_bound() == F(1, 3)


# ---------------------------------------------------------------------------
# Farey-block takes of rationals balls against their exact prefixes
# ---------------------------------------------------------------------------

RATIONALS = zoo.get_sequence("rationals")
TAKE_REF = 1 << 18          # the reference lists the members up to here


def rationals_ball(p: int, k: int):
    """The rationals ball of radius 2^-k around p/64."""
    return indicator_set(RATIONALS, (F(p, 64),), F(1, 1 << k))


def walked(ball: ns.Tested) -> ns.Tested:
    """The same set without its own take: read in prefix windows."""
    return ns.Tested(ball.bits, ball.test, density=ball.density)


def cut(members, start, want, stop):
    """``want`` of the members from ``start`` on, ending after the first
    past ``stop``."""
    out = []
    for v in members:
        if v < start:
            continue
        if len(out) >= want or (stop is not None and out and out[-1] > stop):
            break
        out.append(v)
    return out


def check_against_reference(ball, got, start, want, stop):
    """``got`` equals the reference cut where the reference holds enough
    members, else agrees with it on their overlap, and past the reference
    holds only members of the ball."""
    ref = (np.flatnonzero(ball.prefix(TAKE_REF)) + 1).tolist()
    want_list = cut(ref, start, want, stop)
    complete = (len(want_list) == want
                or (stop is not None and want_list and want_list[-1] > stop))
    if complete:
        assert got == want_list
    else:
        assert got[:len(want_list)] == want_list
        assert all(v > TAKE_REF and ball.member(v) for v in got[len(want_list):])


@given(st.integers(-8, 72), st.integers(0, 9),
       st.integers(1, 64) | st.integers(1, 1 << 17), st.integers(0, 3000),
       st.none() | st.integers(0, 1 << 15))
def test_rationals_take_matches_the_prefix_reference(p, k, start, want, gap):
    ball = rationals_ball(p, k)
    if not isinstance(ball, ns.Tested):
        return
    stop = None if gap is None else start + gap
    check_against_reference(ball, ns.take_members(ball, start, want, stop),
                            start, want, stop)
    check_against_reference(
        ball, list(islice(ns.iter_members(ball, start), want)),
        start, want, None)


# (p, k): balls reaching past 0 or 1, or with an end at 0 or 1
EDGE_BALLS = [(0, 3), (0, 6), (64, 2), (64, 9), (-8, 2), (72, 2), (8, 3),
              (56, 3), (1, 6), (63, 6), (32, 2)]


@pytest.mark.parametrize("p,k", EDGE_BALLS)
@pytest.mark.parametrize("start,want,stop", [
    (1, 40, None), (1, 3000, None), (2, 5, 3), (3, 1, None),
    (5000, 200, 6000), ((1 << 17) - 7, 50, None)])
def test_rationals_take_at_the_ends_of_the_interval(p, k, start, want, stop):
    ball = rationals_ball(p, k)
    assert isinstance(ball, ns.Tested)
    check_against_reference(ball, ns.take_members(ball, start, want, stop),
                            start, want, stop)


@pytest.mark.parametrize("p,k", [(0, 3), (21, 9), (32, 2), (64, 5), (43, 6)])
def test_rationals_take_ends_where_the_window_walk_does(monkeypatch, p, k):
    # with the walks cut at a member past 3000, the take returns the window
    # walk's short list, and a supply raises the same ExhaustedA text
    ball = rationals_ball(p, k)
    limit = next(ns.iter_members(ball, 3000))
    monkeypatch.setattr(ns, "SCAN_LIMIT", limit)
    for start, want, stop in [(1, 5000, None), (2900, 400, None),
                              (limit - 1, 3, limit - 1), (limit, 2, None),
                              (limit + 1, 4, None), (1, 10 ** 6, 2500)]:
        assert ns.take_members(ball, start, want, stop) == \
            ns.take_members(walked(ball), start, want, stop)
    assert ns.take_members(ball, 2000, 10 ** 6)[-1] == limit
    with pytest.raises(ns.HorizonExceeded, match=str(limit)):
        list(ns.iter_members(ball, 2000))
    x_walked = replace(RATIONALS, ball_fn=lambda c, eps: walked(
        RATIONALS.ball_fn(c, eps)))
    texts = []
    for x in (RATIONALS, x_walked):
        supply = MemberSupply(x, (F(p, 64),), F(1, 1 << k))
        texts.append([outcome(lambda: supply.run(length, floor))
                      for length, floor in [(30, 0), (200, 2000),
                                            (10 ** 4, limit - 500)]])
    assert texts[0] == texts[1]
    assert texts[0][-1][0] == "ExhaustedA"


def test_rationals_balls_build_no_farey_table_before_a_take(monkeypatch):
    built = []
    through = zoo._FareyBlocks.through
    monkeypatch.setattr(zoo._FareyBlocks, "through",
                        lambda self, *args: built.append(args)
                        or through(self, *args))
    ball = indicator_set(zoo.get_sequence("rationals"), (F(1, 3),), F(1, 64))
    first = (np.flatnonzero(ball.prefix(4096)) + 1)[:3].tolist()
    assert ball.member(first[0]) and built == []
    assert ns.take_members(ball, 1, 3) == first
    assert built


# ---------------------------------------------------------------------------
# Game transcripts pinned before the escape length was bisected
# ---------------------------------------------------------------------------

PINNED_GAMES = [
    ("char:evens Z 1 1/4 sigma 20 7",
     "5f0608b638dd64b71d82917243a91437b9b3b8a85670b7258190eddf21d3389e"),
    ("harmonic Z 0 1/3 pi 16 5",
     "6fe709333dc37592105f027c30b17aa3759d14f05d76b3f0104f481b83e5a6d1"),
    ("rationals gdi 1/2 1/3 sigma 14 11",
     "2c91d34527ca22846cf8f1506fab5196c22039308060c4dd0129c95641ce2470"),
    ("harmonic gdi 0 1/4 pi 12 3",
     "bfa1153ba5cc63cd27dc13b01393046dcf34dc49b2efb82a449c7b1826a31acd"),
    ("rationals Z 2/5 1/4 pi 18 2",
     "91e064abe79ae616138784b87ecca27a63b9b93bb66b1d3a5458b3e8ffa2dbf7"),
    ("char:powers2 Z 1 1/4 sigma 10 1",
     "50c3be70d5693a469042ca67e9f6bf7e9a90e432d8a93200e15074a69dc34535"),
    ("char:powers2 gdi 1 1/3 pi 10 4",
     "79ff388b87645d5ee9116ae804025a06ca2dbe318d8e14d69401b12d9df842a5"),
]


@pytest.mark.parametrize("spec,sha", PINNED_GAMES)
def test_game_run_transcript_pinned(tmp_path, spec, sha):
    seq, ideal, ell, q, kind, rounds, seed = spec.split()
    out = tmp_path / "game"
    assert main(["game", "run", "--seq", seq, "--ideal", ideal, "--ell", ell,
                 "--q", q, "--kind", kind, "--rounds", rounds,
                 "--seed", seed, "--out", str(out)]) == 0
    text = (tmp_path / "game.json").read_bytes()
    assert hashlib.sha256(text).hexdigest() == sha


# ---------------------------------------------------------------------------
# Ball rows over many centres, and the map images read from them
# ---------------------------------------------------------------------------

def centre_values(bits_lo: int = 20, bits_hi: int = 60):
    """Centres in [-1/4, 5/4]: multiples of 1/64, and reduced p/q with q of
    bits_lo + 1 .. bits_hi + 1 bits (the benchmark's large-ell shapes), whose
    ball tests pass int64."""
    big = st.builds(lambda b, r, t: F(t * ((1 << b) + 2 * r + 1) // 4,
                                      (1 << b) + 2 * r + 1),
                    st.integers(bits_lo, bits_hi), st.integers(0, 1 << 12),
                    st.integers(-1, 5))
    return st.integers(-16, 80).map(lambda p: F(p, 64)) | big


centres = st.lists(centre_values().map(as_point), min_size=1, max_size=6)
radii = st.integers(0, 12).map(lambda k: F(1, 1 << k))


def point_rows(x, cs, eps, idx) -> np.ndarray:
    return np.array([[distance(x.point(int(n)), c) < eps for n in idx]
                     for c in cs], dtype=bool).reshape(len(cs), len(idx))


@given(st.sampled_from(["harmonic", "rationals"]), centres, radii,
       st.integers(1, 600),
       st.lists(st.integers(1, 1 << 16), min_size=1, max_size=120))
def test_ball_rows_match_the_per_point_reference(seq, cs, eps, n, scattered):
    # the rows of K balls at once, on [1, n] and at scattered indices, equal
    # the exact distance test point by point, and the one-centre rows equal
    # each ball's own prefix
    x = zoo.get_sequence(seq)
    for idx in (np.arange(1, n + 1, dtype=np.int64),
                np.array(scattered, dtype=np.int64)):
        got = x.rows_fn(cs, eps, idx)
        assert got.dtype == bool and got.shape == (len(cs), idx.size)
        assert np.array_equal(got, point_rows(x, cs, eps, idx))
    for c, row in zip(cs, x.rows_fn(cs, eps, np.arange(1, n + 1))):
        assert np.array_equal(row, x.ball_fn(c, eps).prefix(n))


maps = st.builds(lambda draw, seed, length: draw(seed, length=length),
                 st.sampled_from([tr.random_sigma, tr.random_pi]),
                 st.integers(0, 10 ** 6), st.sampled_from([64, 256, 512]))


@given(st.sampled_from(["harmonic", "rationals"]), maps, centres, radii,
       st.integers(1, 512))
def test_image_rows_match_the_per_ball_gather(seq, t, cs, eps, n):
    # an image's rows are x's rows at the map's values: the stacked
    # prefix_gather rows of x's balls, and the image balls' own prefixes
    x = zoo.get_sequence(seq)
    y = tr.apply(t, x)
    n = min(n, len(t))
    got = y.rows_fn(cs, eps, np.arange(1, n + 1, dtype=np.int64))
    values = t.values_up_to(n)
    want = np.stack([ns.prefix_gather(x.ball_fn(c, eps), values) for c in cs])
    assert np.array_equal(got, want)
    assert np.array_equal(got, np.stack([y.ball_fn(c, eps).prefix(n)
                                         for c in cs]))


IMAGE_IDEALS = ["fin", "Z", "summable", "gdi"]


@given(st.sampled_from(["harmonic", "rationals"]),
       st.sampled_from(IMAGE_IDEALS), maps, centres, radii,
       st.sampled_from([None, 3 * 64, 1 << 20]))
def test_matrix_path_decides_as_the_per_ball_path(seq, ideal, t, cs, eps,
                                                  cells):
    # no symbolic route decides an image ball, so reading a radius from the
    # rows (in one or several tail passes) gives each ball the decision of
    # decide_each, and of decide_membership alone: verdict, estimate, reason
    # and trend
    x = zoo.get_sequence(seq)
    y = tr.apply(t, x)
    handle = builtin(ideal)
    dparams = DecisionParams(horizon=len(t))
    balls = [y.ball_fn(c, eps) for c in cs]
    assert all(isinstance(b, ns.Tested) and b.density is None for b in balls)
    assert all(ideals._symbolic_decision(handle, b, dparams, 0) is None
               for b in balls)
    with pytest.MonkeyPatch.context() as mp:
        if cells is not None:
            mp.setattr(sm, "TAIL_CELLS", cells)
        got = sequences._row_decisions(y, cs, eps, handle, dparams)
    assert got == ideals.decide_each(handle, balls, dparams)
    assert got == [ideals.decide_membership(handle, b, dparams) for b in balls]
    assert all(d.reason == "tail-trend" for d in got)


def test_fin_x_fin_and_horizon_exceeded_radii_go_ball_by_ball():
    # fin-x-fin has no lscsm (its row rules read no ball's prefix), and a
    # horizon past the map's table raises in the rows: both leave the
    # radius to decide_each
    x = zoo.rationals()
    t = tr.random_sigma(5, length=256)
    y = tr.apply(t, x)
    cs = [as_point(F(k, 16)) for k in range(17)]
    assert sequences._row_decisions(y, cs, F(1, 16), builtin("fin-x-fin"),
                                    DecisionParams(horizon=256)) is None
    past = DecisionParams(horizon=512)
    assert sequences._row_decisions(y, cs, F(1, 16), builtin("Z"),
                                    past) is None
    decs = ideals.decide_each(builtin("Z"),
                              [y.ball_fn(c, F(1, 16)) for c in cs], past)
    assert {d.reason for d in decs} == {"horizon-exceeded"}


def test_images_without_a_table_have_no_rows():
    # affine maps, the odd-even swap and alphabet sequences keep their
    # per-ball preimages
    x = zoo.harmonic()
    for t in (tr.SubsequenceMap((), tr.TailRule("arith", 3)),
              tr.odd_even_swap()):
        y = tr.apply(t, x)
        assert y.rows_fn is None and not y.tested_balls
    y = tr.apply(tr.random_sigma(1, length=64), zoo.char_evens())
    assert y.rows_fn is None and not y.tested_balls
