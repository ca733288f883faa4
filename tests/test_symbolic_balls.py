"""Symbolic balls: ``SequenceSpec.ball_fn`` and the exact densities under it.

``harmonic`` answers every ball {n : |1/n - c| < eps} as a closed-form set
(empty, a tail, or a tail minus a later tail), so every ideal with a
submeasure decides it by its exact norm.  The balls are checked against the
per-point exact distance and against the bitmap indicator they replaced.
``rationals`` answers each ball as a closed form when it is empty or covers
(0, 1), and otherwise as a set known through its exact integer test that
carries the certified density of its Farey interval; both are checked
against the same distance, and the density against prefix counts.  The
densities of sets whose periodic part starts far out are computed without a
prefix that long, which a 4 GiB address-space limit enforces.
"""

import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import idealconv
from idealconv import natset as ns
from idealconv import submeasure as sm
from idealconv import transforms as tr
from idealconv import zoo
from idealconv.ideals import builtin
from idealconv.sequences import (AnalysisParams, Balls, RadiusSchedule,
                                 SequenceSpec, candidate_grid,
                                 complement_indicator_set,
                                 distance, gamma_estimate, indicator_set,
                                 lambda_estimate, u_frak)

F = Fraction
N = 512
SRC = Path(idealconv.__file__).resolve().parents[1]   # the tree under test


def ref_indicator(center, eps, horizon):
    """The bitmap indicator ``zoo.harmonic`` carried before its ball."""
    c = center[0]
    bits = np.zeros(horizon, dtype=bool)
    if c + eps <= 0:
        return bits
    first = min(math.floor(1 / (c + eps)) + 1, horizon + 1)
    last = horizon if c <= eps else min(math.ceil(1 / (c - eps)) - 1,
                                        horizon)
    bits[first - 1:last] = True
    return bits


@st.composite
def balls(draw):
    """A radius, and a centre from one of the shapes the ball takes: any
    rational with a denominator up to 2^60, c = eps, c = -eps, c + eps <= 0,
    c - eps = 1/m (an open end on an integer), or an interval
    (1/(c + eps), 1/(c - eps)) strictly inside (m, m + 1)."""
    q = draw(st.integers(1, 1 << 60))
    eps = F(draw(st.integers(1, 1 << 20)), draw(st.integers(1, 1 << 60)))
    shape = draw(st.sampled_from(["any", "c=eps", "c=-eps", "below",
                                  "open-end", "gap"]))
    if shape == "any":
        c = F(draw(st.integers(-2 * q, 2 * q)), q)
    elif shape == "c=eps":
        c = eps
    elif shape == "c=-eps":
        c = -eps
    elif shape == "below":
        c = -eps - F(draw(st.integers(0, q)), q)
    elif shape == "open-end":
        c = F(1, draw(st.integers(1, 4 * N))) + eps
    else:
        m = draw(st.integers(1, 1 << 40))
        c = (F(1, m) + F(1, m + 1)) / 2
        eps = (F(1, m) - F(1, m + 1)) / draw(st.integers(3, 1 << 20))
    return c, eps


@settings(max_examples=400, deadline=None)
@given(balls())
def test_harmonic_ball_matches_pointwise_distance(case):
    c, eps = case
    x = zoo.harmonic()
    want = [distance(x.point(n), (c,)) < eps for n in range(1, N + 1)]
    ball = indicator_set(x, (c,), eps)
    comp = complement_indicator_set(x, (c,), eps)
    assert ball.prefix(N).tolist() == want
    assert comp.prefix(N).tolist() == [not w for w in want]
    assert [ball.member(n) for n in range(1, N + 1)] == want
    # a closed form, never a member list or a bitmap
    assert ball == ns.EMPTY or isinstance(ball, (ns.Progression,
                                                 ns.Intersection))
    assert comp == ns.Complement(ball)
    # the ball is a tail exactly when 0 lies in it or on its upper edge
    assert ball.is_infinite() is (abs(c) < eps or c == eps)


@settings(max_examples=300, deadline=None)
@given(balls(), st.integers(1, 3000))
def test_harmonic_hit_bits_equal_the_bitmap_indicator(case, horizon):
    c, eps = case
    bits = zoo.harmonic().hit_bits((c,), eps, horizon)
    assert bits.dtype == bool
    assert bits.tolist() == ref_indicator((c,), eps, horizon).tolist()


@st.composite
def rational_balls(draw):
    """A centre and a radius with denominators up to 2^60 (their products
    pass int64), the centre near a point of the enumeration or anywhere,
    and a horizon."""
    q = draw(st.integers(1, 1 << 60))
    e2 = draw(st.integers(1, 1 << 60))
    eps = F(draw(st.integers(1, e2)), e2)
    if draw(st.booleans()):
        c = zoo.rationals().point(draw(st.integers(1, 2000)))[0]
        c += F(draw(st.integers(-4, 4)), q)
    else:
        c = F(draw(st.integers(-q, 2 * q)), q)
    return c, eps, draw(st.integers(1, 1500))


@settings(max_examples=150, deadline=None)
@given(rational_balls())
def test_rationals_ball_matches_pointwise_distance(case):
    c, eps, horizon = case
    x = zoo.rationals()
    want = [distance(x.point(n), (c,)) < eps for n in range(1, horizon + 1)]
    ball = indicator_set(x, (c,), eps)
    # empty, all but the ends 0/1 and 1/1 that the ball misses, or a Farey
    # interval with its density
    lo, hi = max(c - eps, 0), min(c + eps, 1)
    if lo >= hi:
        assert ball == ns.EMPTY
    elif hi - lo == 1:
        assert isinstance(ball, ns.Cofinite) and set(ball.excluded) <= {1, 2}
    else:
        assert isinstance(ball, ns.Tested) and ball.density == hi - lo
    assert ball.prefix(horizon).tolist() == want
    assert [ball.member(n) for n in range(1, horizon + 1)] == want


def same_set(a, b):
    """Equal sets, where a ``Tested`` leaf (equal only to itself, and built
    anew by every call) is known by its density and its tests."""
    if isinstance(a, ns.Complement) and isinstance(b, ns.Complement):
        return same_set(a.part, b.part)
    if isinstance(a, ns.Tested) and isinstance(b, ns.Tested):
        return a.density == b.density
    return a == b


# both sequences over both shapes of ball: closed forms, Farey intervals,
# denominators up to 2^60, negative centres, c = +-eps and the gaps between
# consecutive unit fractions
POINT_BALLS = st.one_of(balls(), rational_balls().map(lambda case: case[:2]))


def assert_walk_ball_is_the_public_ball(x, c, eps, horizon):
    """``Balls(x, c).set`` (the analysis walk's ball, read from ``ball_fn``
    at the centre ``Balls`` converted once) against ``indicator_set`` and
    ``complement_indicator_set``, and both against the per-point distance."""
    want = [distance(x.point(n), (c,)) < eps for n in range(1, horizon + 1)]
    walk = Balls(x, (c,))
    for inside, public in ((True, indicator_set),
                           (False, complement_indicator_set)):
        expect = want if inside else [not w for w in want]
        walked, ball = walk.set(eps, inside), public(x, (c,), eps)
        assert same_set(walked, ball)
        assert walked.prefix(horizon).tolist() == expect
        assert ball.prefix(horizon).tolist() == expect
        assert [walked.member(n) for n in range(1, horizon + 1)] == expect


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([zoo.harmonic, zoo.rationals]), POINT_BALLS)
def test_walk_ball_equals_the_public_ball(sequence, case):
    c, eps = case
    assert_walk_ball_is_the_public_ball(sequence(), c, eps, N)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 1 << 16), POINT_BALLS)
def test_walk_ball_of_a_reindexed_sequence_equals_the_public_ball(seed, case):
    c, eps = case
    # the map's table covers the first N indices
    x = tr.apply(tr.random_sigma(seed, length=N), zoo.harmonic())
    assert_walk_ball_is_the_public_ball(x, c, eps, N)


@pytest.mark.parametrize("ideal", ["fin", "Z", "summable", "gdi"])
def test_every_harmonic_ball_is_decided_by_its_exact_norm(ideal):
    x = zoo.harmonic()
    params = AnalysisParams()
    report = gamma_estimate(x, builtin(ideal), params)
    assert len(report.candidates) == len(candidate_grid(x, params)) == 1025
    for cand in report.candidates:
        c = cand.point[0]
        for r in cand.radii:
            assert r.reason == "exact-norm", (c, r.eps, r.reason)
            tail = abs(c) < r.eps or c == r.eps
            assert r.verdict == ("not-in" if tail else "in"), (c, r.eps)
    assert report.points() == [(F(0),), (F(1, 1024),)]


@pytest.mark.parametrize("ideal", ["fin", "Z", "summable", "gdi"])
def test_every_rationals_ball_is_decided_by_its_exact_norm(ideal):
    # every point of [0, 1] is a cluster point of the enumeration: each ball
    # around it holds a positive share of the indices
    x = zoo.rationals()
    params = AnalysisParams()
    report = gamma_estimate(x, builtin(ideal), params)
    assert len(report.candidates) == len(candidate_grid(x, params)) == 1025
    assert report.route_counts() == {"exact-norm": 1025 * len(params.schedule)}
    assert all(c.classification == "cluster" for c in report.candidates)


def test_rationals_prefix_counts_approach_the_farey_density():
    # a sanity check of the theorem at 2^20, not its proof
    x = zoo.rationals()
    rng = np.random.default_rng(20)
    horizon = 1 << 20
    for _ in range(50):
        c = F(int(rng.integers(0, (1 << 16) + 1)), 1 << 16)
        eps = F(int(rng.integers(1 << 10, 1 << 15)), 1 << 16)
        ball = indicator_set(x, (c,), eps)
        assert isinstance(ball, ns.Tested), (c, eps)
        got = F(int(ball.prefix(horizon).sum()), horizon)
        assert abs(got - ball.density) <= ball.density / 100, (c, eps)


def farey_leaf():
    return indicator_set(zoo.rationals(), (F(1, 3),), F(1, 8))


def test_density_family_takes_a_natural_density_only_on_proportional_blocks():
    leaf = farey_leaf()                 # the interval (5/24, 11/24)
    geometric = ns.partition_from_tag({"kind": "geometric", "ratio": "3/2"})
    fam = sm.DensityFamily(partition=geometric, tail_weight=F(1, 2))
    assert fam.exact_norm(leaf) == F(1, 2) * F(1, 4)
    assert fam.exact_norm(ns.Complement(leaf)) == F(1, 2) * F(3, 4)
    # an explicit prefix declares nothing about its block lengths, even
    # when it says they are unbounded
    explicit = ns.BlockPartition(prefix=[1, 2, 4, 8, 16, 32],
                                 lengths_unbounded=True)
    assert sm.DensityFamily(partition=explicit).exact_norm(leaf) is None
    # bounded block lengths: the singletons
    singletons = ns.partition_from_tag({"kind": "singletons"})
    assert sm.DensityFamily(partition=singletons).exact_norm(leaf) is None


def test_the_other_exact_norms_read_the_farey_density():
    leaf = farey_leaf()
    assert (leaf.is_infinite(), leaf.is_cofinite()) == (True, False)
    assert ns.natural_density(ns.Complement(leaf)) == F(3, 4)
    assert sm.RunningDensity().exact_norm(leaf) == F(1, 4)
    assert sm.RunningDensity().exact_norm(ns.Complement(leaf)) == F(3, 4)
    assert sm.CountingCap().exact_norm(leaf) == 1
    summable = builtin("summable").lscsm
    assert summable.exact_norm(ns.Complement(leaf)) == 1
    with pytest.raises(ValueError):
        ns.Tested(leaf.bits, leaf.test, density=F(1))


@pytest.mark.parametrize("t", [tr.random_sigma(3, length=100),
                               tr.SubsequenceMap((), tr.TailRule("arith", 2))],
                         ids=["table", "affine"])
def test_a_preimage_of_a_farey_leaf_carries_no_density(t):
    pre = tr.preimage(t, farey_leaf())
    assert isinstance(pre, ns.Tested) and pre.density is None
    assert ns.natural_density(pre) is None
    assert (pre.is_infinite(), pre.is_cofinite()) == (None, None)
    for ideal in ("fin", "Z", "summable", "gdi"):
        assert builtin(ideal).lscsm.exact_norm(pre) is None


def test_u_frak_reads_no_prefix_behind_an_exact_norm():
    def unread(horizon):
        raise AssertionError(f"prefix of length {horizon} read")

    x = SequenceSpec(dim=1, box=[(F(0), F(0))], point_fn=lambda n: (F(0),),
                     ball_fn=lambda c, eps: ns.Tested(unread, lambda n: True,
                                                      density=F(1, 3)),
                     name="probe")
    params = AnalysisParams(horizon=1 << 12, schedule=RadiusSchedule.dyadic(3),
                            pitch=F(1, 8))
    for m, want in ((sm.RunningDensity(), F(1, 3)),
                    (builtin("summable").lscsm, F(1))):
        u = u_frak(x, (F(0),), m, params)
        assert (u.exact, u.numeric, u.value()) == (want, None, want)
        assert all((exact, numeric) == (want, None)
                   for _, exact, numeric in u.per_radius)


@pytest.mark.parametrize("ideal, want", [
    ("Z", {"undecided": 15, "not-cluster": 2}),
    ("gdi", {"undecided": 15, "not-cluster": 2}),
    ("summable", {"cluster": 17}),
    ("fin", {"cluster": 17})])
def test_only_a_settled_exact_norm_certifies_a_lambda_cluster(ideal, want):
    # under Z and gdi a ball's norm is its interval's length (times the tail
    # weight), which halves with the radius: the limiting norm is 0, so the
    # exact norm at the smallest radius, an upper bound, certifies no
    # cluster; it rules a point out once it falls below every level (the
    # ends 0 and 1, whose balls are half as long).  Under summable and fin
    # every ball has the full norm, which has stopped changing.
    params = AnalysisParams(horizon=4096, schedule=RadiusSchedule.dyadic(4),
                            pitch=F(1, 16))
    report = lambda_estimate(zoo.rationals(), builtin(ideal), params)
    got = {}
    for c in report.candidates:
        got[c.classification] = got.get(c.classification, 0) + 1
    assert got == want
    assert report.route_counts() == {"exact-norm": 17 * 4}
    ruled_out = [c.point for c in report.candidates
                 if c.classification == "not-cluster"]
    assert ruled_out == ([(F(0),), (F(1),)] if "not-cluster" in want else [])


# ---------------------------------------------------------------------------
# Densities of sets whose periodic part starts at 2^40, under 4 GiB
# ---------------------------------------------------------------------------

def run_limited(code: str) -> dict:
    """Run ``code`` in a fresh interpreter whose address space is capped at
    4 GiB; it prints one JSON object, which is returned."""
    prelude = textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
        import contextlib, io, json
        from idealconv import natset as ns
        from idealconv.cli import main

        def cli(argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            return code, json.loads(out.getvalue())
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c",
                           prelude + textwrap.dedent(code)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_exact_density_counts_far_thresholds_in_closed_form():
    got = run_limited("""
        far = 1 << 40
        sets = [ns.Progression(far, 1), ns.Complement(ns.Progression(far, 1)),
                ns.Progression(far + 1, 3), ns.Finite([far])]
        print(json.dumps([str(ns.exact_density(s)) for s in sets]))
    """)
    assert got == ["1", "0", "1/3", "0"]


@pytest.mark.parametrize("step, ideal", [(1, "Z"), (2, "fin-x-fin")],
                         ids=["Z-step-1", "fin-x-fin-step-2"])
def test_alphabet_with_a_far_letter_boundary_analyzes(step, ideal):
    # fin-x-fin reads the row rule off the letters' periodic forms, never
    # listing the integers below the boundary
    spec = "alphabet:" + json.dumps({"letters": ["0", "1"], "sets": [
        {"kind": "complement", "part": {"kind": "progression",
                                         "first": 1 << 40, "step": step}},
        {"kind": "progression", "first": 1 << 40, "step": step}]})
    got = run_limited(f"""
        code, body = cli(["analyze", "--seq", {spec!r}, "--ideal", {ideal!r},
                          "--mode", "gamma"])
        print(json.dumps([code, [[c["point"], c["classification"]] for c
                                 in body["reports"]["gamma"]["candidates"]]]))
    """)
    assert got == [0, [["0", "not-cluster"], ["1", "cluster"]]]


def test_harmonic_ball_with_a_tail_from_2_to_the_40_analyzes():
    # at eps = 1/2 the ball around ell is the tail from 2^40 + 1 on
    got = run_limited("""
        code, body = cli(["analyze", "--seq", "harmonic", "--ideal", "Z",
                          "--mode", "convergence",
                          "--ell=-549755813887/1099511627776",
                          "--horizon", "4096", "--radii", "4",
                          "--pitch", "1/16"])
        print(json.dumps([code, body["reports"]["convergence"]["verdict"]]))
    """)
    assert got == [0, "diverges"]


def test_iter_members_of_a_finite_union_ends():
    # the union is {3, 4, 5}; a member() scan would look for more for ever
    got = run_limited("""
        s = ns.Union((ns.Finite([3, 5]), ns.Intersection(
            (ns.Progression(2, 2), ns.Finite([4, 7])))))
        print(json.dumps(list(ns.iter_members(s))))
    """)
    assert got == [3, 4, 5]
