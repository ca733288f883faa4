"""Symbolic balls: ``SequenceSpec.ball_fn`` and the exact densities under it.

``harmonic`` answers every ball {n : |1/n - c| < eps} as a closed-form set
(empty, a tail, or a tail minus a later tail), so every ideal with a
submeasure decides it by its exact norm.  The balls are checked against the
per-point exact distance and against the bitmap indicator they replaced;
the densities of sets whose periodic part starts far out are computed
without a prefix that long, which a 4 GiB address-space limit enforces.
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
from idealconv import zoo
from idealconv.ideals import builtin
from idealconv.sequences import (AnalysisParams, candidate_grid,
                                 complement_indicator_set, distance,
                                 gamma_estimate, indicator_set)

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
    ball = indicator_set(x, (c,), eps, N)
    comp = complement_indicator_set(x, (c,), eps, N)
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
