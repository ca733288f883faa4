"""Cluster structure of the zoo sequences, with brute-force cross-checks."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idealconv import natset as ns
from idealconv import sequences
from idealconv import submeasure as sm
from idealconv import transforms as tr
from idealconv import zoo
from idealconv.ideals import builtin
from idealconv.sequences import (AnalysisParams, RadiusSchedule, NotAnalyticP,
                                 candidate_grid, complement_indicator_set,
                                 gamma_estimate,
                                 ideal_convergence_check, indicator_set,
                                 lambda_estimate, lambda_q_estimate,
                                 limit_points_estimate, u_frak, distance)

F = Fraction
P14 = AnalysisParams(horizon=1 << 14)
P12 = AnalysisParams(horizon=1 << 12)
P_RAT = AnalysisParams(horizon=1 << 14, schedule=RadiusSchedule.dyadic(6),
                       pitch=F(1, 64))


def pts(report, classification="cluster"):
    return sorted(p[0] for p in report.points(classification))


# --- indicator sets ----------------------------------------------------------

def test_indicator_alphabet_exact():
    x = zoo.char_evens()
    ind = indicator_set(x, (F(1),), F(1, 4))
    assert ind == ns.Progression(2, 2)
    both = indicator_set(x, (F(1, 2),), F(1))
    assert isinstance(both, ns.Cofinite)
    none = indicator_set(x, (F(10),), F(1, 4))
    assert isinstance(none, ns.Finite) and not none.members


def test_indicator_bitmap_harmonic():
    x = zoo.harmonic()
    ind = indicator_set(x, (F(0),), F(1, 100))
    bits = ind.prefix(10 ** 4)
    # oracle: 1/n < 1/100 exactly when n >= 101
    assert not bits[:100].any() and bits[100:].all()


@st.composite
def harmonic_balls(draw):
    """Centres with denominators up to 10^30 (some just off a point 1/m),
    dyadic radii down to 2^-44, small horizons."""
    q = draw(st.integers(1, 10 ** 30))
    if draw(st.booleans()):
        centre = F(draw(st.integers(-q, 2 * q)), q)
    else:
        centre = F(1, draw(st.integers(1, 3000))) + F(draw(st.integers(-8, 8)), q)
    eps = F(draw(st.integers(1, 7)), 2 ** draw(st.integers(0, 44)))
    return centre, eps, draw(st.integers(1, 3000))


@settings(max_examples=200, deadline=None)
@given(harmonic_balls())
def test_harmonic_indicator_matches_pointwise_reference(case):
    centre, eps, horizon = case
    x = zoo.harmonic()
    bits = x.hit_bits((centre,), eps, horizon)
    want = [distance(x.point(n), (centre,)) < eps for n in range(1, horizon + 1)]
    assert bits.tolist() == want


def test_harmonic_indicator_past_int64():
    # centre 1/(2^31 - 1), radius 2^-40: int64 products once gave 4096 hits
    x = zoo.harmonic()
    bits = x.hit_bits((F(1, 2 ** 31 - 1),), F(1, 2 ** 40), 4096)
    assert not bits.any()
    # a centre just below 1/4 with a tiny radius holds n = 4 alone
    bits = x.hit_bits((F(1, 4) - F(1, 10 ** 30),), F(1, 2 ** 44), 4096)
    assert np.flatnonzero(bits).tolist() == [3]


def test_rationals_indicator_past_int64():
    # centres with 57-60-bit denominators overflow int64 products at
    # horizon 4096; every index must still match the exact distance
    x = zoo.rationals()
    rng = random.Random("rationals-int64")
    points = [x.point(n) for n in range(1, 4097)]
    for _ in range(40):
        q0 = rng.randrange(1 << 57, 1 << 60)
        centre = (F(rng.randrange(0, q0 + 1), q0),)
        eps = F(1, rng.choice([2, 8, 64, 1024, 2 ** 20]))
        bits = x.hit_bits(centre, eps, 4096)
        assert bits.dtype == bool
        assert bits.tolist() == [distance(p, centre) < eps for p in points]


def test_indicator_complement_partition():
    x = zoo.char_powers2()
    for eps in (F(1, 4), F(1, 2)):
        ind = indicator_set(x, (F(1),), eps)
        comp = complement_indicator_set(x, (F(1),), eps)
        assert np.array_equal(comp.prefix(256), ~ind.prefix(256))


def test_a_sequence_needs_an_alphabet_or_a_ball():
    from idealconv.sequences import SequenceSpec
    with pytest.raises(ValueError):
        SequenceSpec(dim=1, bound=F(1), point_fn=lambda n: (F(1, n),))
    # indicator_fn is no constructor field
    with pytest.raises(TypeError):
        SequenceSpec(dim=1, bound=F(1), point_fn=lambda n: (F(1, n),),
                     indicator_fn=lambda c, eps, horizon: None)


def test_rationals_indicator_is_exact():
    x = zoo.rationals()
    ind = indicator_set(x, (F(1, 2),), F(1, 64))
    bits = ind.prefix(4096)
    # oracle: recompute with exact fractions pointwise
    for n in (1, 2, 3, 10, 100, 500, 2047):
        want = abs(x.point(n)[0] - F(1, 2)) < F(1, 64)
        assert bool(bits[n - 1]) == want


# --- limit points ------------------------------------------------------------

def test_limit_points_examples():
    assert pts(limit_points_estimate(zoo.char_powers2(), P14)) == [0, 1]
    h = limit_points_estimate(zoo.harmonic(), P14)
    got = pts(h)
    assert F(0) in got and all(v <= P14.schedule.smallest for v in got)
    r = limit_points_estimate(zoo.rationals(), P_RAT)
    assert pts(r) == [F(k, 64) for k in range(65)]   # grid-dense in [0, 1]


def test_limit_points_block_alphabet():
    x = zoo.char_blocks(2)
    assert pts(limit_points_estimate(x, P14)) == [0, 1]


def _nested(r, k, b):
    """Letters 0, 1/2, 1 on r mod k less the powers of b, r mod k among
    them, and the other residues."""
    prog = ns.Progression(r, k)
    return zoo.alphabet_from_json({
        "letters": ["0", "1/2", "1"],
        "sets": [ns.Intersection((prog, ns.Complement(ns.PowersOf(b)))).to_json(),
                 ns.Intersection((prog, ns.PowersOf(b))).to_json(),
                 ns.Complement(prog).to_json()]}, 1 << 12)


@pytest.mark.parametrize("r, k, b", [(1, 2, 3), (2, 2, 2)])
def test_nested_letters_on_infinitely_many_powers_are_limit_points(r, k, b):
    # 1/2 sits on {3, 9, 27, ...} and on {2, 4, 8, ...}: sparse but
    # infinite, which the tail count at 2^12 (a single hit) would miss
    report = limit_points_estimate(_nested(r, k, b), P12)
    assert pts(report) == [0, F(1, 2), 1]
    assert report.route_counts() == {"infiniteness": 3 * len(P12.schedule)}


# --- cluster points modulo an ideal -------------------------------------------

def test_gamma_examples():
    Z = builtin("density-zero")
    assert pts(gamma_estimate(zoo.char_powers2(), Z, P14)) == [0]
    assert pts(gamma_estimate(zoo.char_evens(), Z, P14)) == [0, 1]
    fin = builtin("fin")
    for x in (zoo.char_powers2(), zoo.char_evens(), zoo.harmonic()):
        g = gamma_estimate(x, fin, P14)
        l = limit_points_estimate(x, P14)
        assert pts(g) == pts(l)        # Fin clusters are the limit points


def test_gamma_exact_path_for_alphabet():
    Z = builtin("density-zero")
    g = gamma_estimate(zoo.char_powers2(), Z, P14)
    for cand in g.candidates:
        for rec in cand.radii:
            assert rec.exact is not None   # every radius certified exactly


def test_gamma_summable():
    summ = builtin("summable")
    assert pts(gamma_estimate(zoo.char_evens(), summ, P14)) == [0, 1]
    assert pts(gamma_estimate(zoo.char_powers2(), summ, P14)) == [0]


GAMMA_SEQS = ["harmonic", "rationals", "char:evens", "char:powers2",
              "cycle:0,1/2,1"]
GAMMA_IDEALS = ["fin", "Z", "summable", "gdi", "fin-x-fin"]


def _map_params(params, length):
    """The parameters ``sample`` decides a reindexed sequence with."""
    return AnalysisParams(horizon=min(length, params.horizon),
                          schedule=params.schedule, pitch=params.pitch,
                          hit_min=max(2, params.hit_min // 4),
                          theta=params.theta)


@pytest.mark.parametrize("i, seq, ideal", [
    (i, seq, ideal) for i, (seq, ideal) in enumerate(
        (s, d) for s in GAMMA_SEQS for d in GAMMA_IDEALS)])
def test_gamma_without_records_finds_the_same_cluster_points(i, seq, ideal):
    radii = 3 + i % 3
    params = AnalysisParams(horizon=1 << (9 + i % 4),
                            schedule=RadiusSchedule.dyadic(radii),
                            pitch=F(1, 1 << radii))
    handle = builtin(ideal)
    x = zoo.get_sequence(seq)
    full = gamma_estimate(x, handle, params)
    fast = gamma_estimate(x, handle, params, records=False)
    assert fast.points() == full.points()
    assert all(c.classification == "cluster" and not c.radii
               for c in fast.candidates)
    grid = [c.point for c in full.candidates]
    sub = _map_params(params, 256)
    for t in (tr.random_sigma(i, length=256),
              tr.random_pi(i, length=256)):
        y = tr.apply(t, x)
        assert (gamma_estimate(y, handle, sub, candidates=grid,
                               records=False).points()
                == gamma_estimate(y, handle, sub, candidates=grid).points())


def test_gamma_without_records_stops_at_the_first_radius_not_notin(
        monkeypatch):
    calls = []                    # every ball handed to a decision
    decide = sequences.decide_each

    def counted(handle, sets, *args, **kwargs):
        calls.extend(sets)
        return decide(handle, sets, *args, **kwargs)

    monkeypatch.setattr(sequences, "decide_each", counted)
    params = AnalysisParams(horizon=1 << 12,
                            schedule=RadiusSchedule.dyadic(4), pitch=F(1, 16))
    x = zoo.rationals()
    grid = candidate_grid(x, params)
    y = tr.apply(tr.random_sigma(107, length=512), x)
    gamma_estimate(y, builtin("gdi"), _map_params(params, 512),
                   candidates=grid, records=False)
    assert 0 < len(calls) < len(grid) * len(params.schedule)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["harmonic", "rationals"]),
       st.sampled_from(["fin", "Z", "summable", "gdi"]),
       st.sampled_from([tr.random_sigma, tr.random_pi]),
       st.integers(0, 10 ** 6), st.sampled_from([256, 512]))
def test_sample_finds_the_cluster_points_of_the_full_report(seq, ideal, draw,
                                                            seed, length):
    # the README's sample promise on random maps: the radius-major walk
    # that decides each radius for all remaining candidates at once keeps
    # exactly the cluster points of the report with every radius recorded
    params = AnalysisParams(horizon=length, schedule=RadiusSchedule.dyadic(4),
                            pitch=F(1, 16))
    x = zoo.get_sequence(seq)
    grid = candidate_grid(x, params)
    y = tr.apply(draw(seed, length=length), x)
    handle = builtin(ideal)
    fast = gamma_estimate(y, handle, params, candidates=grid, records=False)
    full = gamma_estimate(y, handle, params, candidates=grid)
    assert fast.points() == full.points()


# --- the limiting norm -------------------------------------------------------

def test_u_frak_examples():
    rd = sm.RunningDensity()
    u = u_frak(zoo.char_evens(), (F(1),), rd, P14)
    assert u.value() == F(1, 2) and u.exact == F(1, 2)
    u0 = u_frak(zoo.harmonic(), (F(0),), rd, P14)
    assert u0.exact == 1               # the whole tail sits in every ball
    from idealconv.transforms import SubsequenceMap, TailRule
    evens_sel = SubsequenceMap((), TailRule("arith", 2))
    u2 = u_frak(tr.apply(evens_sel, zoo.char_evens()), (F(0),), rd, P14)
    assert u2.value() == 0             # the selected subsequence is constant 1


def test_u_frak_nonincreasing_along_radii():
    rd = sm.RunningDensity()
    for x, ell in ((zoo.char_evens(), F(1)), (zoo.char_powers2(), F(0)),
                   (zoo.char_blocks(2), F(1))):
        u = u_frak(x, (ell,), rd, P14)
        vals = [numeric if exact is None else exact
                for _, exact, numeric in u.per_radius]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_a_lambda_cluster_needs_a_settled_exact_norm():
    # letters 3/16 and 1/4 alternate.  At the smallest radius 1/16 the ball
    # around a letter holds that letter alone, so its norm 1/2 is the limit
    # although the radius before (1/8) held both letters; the ball around
    # 7/32 still holds both, and its norm 1 only bounds the limit, 0
    x = zoo.cycle([F(3, 16), F(1, 4)])
    params = AnalysisParams(horizon=1 << 12, schedule=RadiusSchedule.dyadic(4),
                            pitch=F(1, 32))
    Z = builtin("density-zero")
    u = u_frak(x, (F(1, 4),), Z.lscsm, params)
    assert [exact for _, exact, _ in u.per_radius][-2:] == [1, F(1, 2)]
    assert u.settled
    report = lambda_q_estimate(x, Z, F(1, 2), params)
    got = sorted((c.point[0], c.classification) for c in report.candidates)
    assert got == [(F(3, 16), "cluster"), (F(1, 4), "cluster")]
    between = u_frak(x, (F(7, 32),), Z.lscsm, params)
    assert between.exact == 1 and not between.settled
    assert sequences._classify_u(between, F(1, 2)) == "undecided"


# --- q-level sets ------------------------------------------------------------

def test_lambda_q_examples():
    Z = builtin("density-zero")
    assert pts(lambda_q_estimate(zoo.char_evens(), Z, F(1, 4), P14)) == [0, 1]
    assert pts(lambda_q_estimate(zoo.char_powers2(), Z, F(1, 4), P14)) == [0]
    assert pts(lambda_q_estimate(zoo.harmonic(), Z, F(1, 1), P14)) \
        == pts(limit_points_estimate(zoo.harmonic(), P14))


def test_lambda_q_monotone_in_q():
    Z = builtin("density-zero")
    for x in (zoo.char_evens(), zoo.char_powers2(), zoo.char_blocks(2),
              zoo.cycle(["0", "1/2", "1"])):
        sets = [set(lambda_q_estimate(x, Z, q, P14).points())
                for q in (F(1, 8), F(1, 4), F(1, 2))]
        assert sets[2] <= sets[1] <= sets[0]


def test_lambda_q_grid_closure_on_suite():
    # at grid resolution the level sets show no one-pitch holes: a cell with
    # cluster cells on both immediate sides is itself a cluster cell
    Z = builtin("density-zero")
    coarse = AnalysisParams(horizon=1 << 12, schedule=RadiusSchedule.dyadic(4),
                            pitch=F(1, 16))
    for x, params in ((zoo.harmonic(), coarse), (zoo.rationals(), P_RAT)):
        for q in (F(1, 4), F(1, 2)):
            rep = lambda_q_estimate(x, Z, q, params)
            cells = sorted(c.point[0] for c in rep.candidates)
            cluster = {c.point[0] for c in rep.candidates
                       if c.classification == "cluster"}
            for i in range(1, len(cells) - 1):
                if cells[i - 1] in cluster and cells[i + 1] in cluster:
                    assert cells[i] in cluster, (x.name, q, cells[i])


def test_lambda_requires_submeasure():
    fxf = builtin("fin-x-fin")
    with pytest.raises(NotAnalyticP):
        lambda_q_estimate(zoo.char_evens(), fxf, F(1, 4), P14)


def test_chain_inclusions_on_suite():
    coarse = AnalysisParams(horizon=1 << 12, schedule=RadiusSchedule.dyadic(4),
                            pitch=F(1, 16))
    suite = [(zoo.char_evens(), P14), (zoo.char_odds(), P14),
             (zoo.char_powers2(), P14), (zoo.char_blocks(2), P14),
             (zoo.cycle(["0", "1/2", "1"]), P14), (zoo.harmonic(), coarse)]
    ideals = [builtin("fin"), builtin("density-zero"), builtin("summable")]
    for x, params in suite:
        limits = set(limit_points_estimate(x, params).points())
        for handle in ideals:
            gamma = set(gamma_estimate(x, handle, params).points())
            lam = set(lambda_estimate(x, handle, params).points())
            assert lam <= gamma <= limits, (x.name, handle.name)
            for q in (F(1, 8), F(1, 4), F(1, 2)):
                lq = set(lambda_q_estimate(x, handle, q, params).points())
                assert lq <= lam, (x.name, handle.name, q)


# --- convergence, both routes -------------------------------------------------

def test_convergence_examples():
    Z = builtin("density-zero")
    fin = builtin("fin")
    c = ideal_convergence_check(zoo.char_powers2(), Z, (F(0),), P14)
    assert c.verdict == "converges" and c.agree
    c2 = ideal_convergence_check(zoo.char_evens(), Z, (F(0),), P14)
    assert c2.verdict == "diverges"
    for handle in (fin, Z):
        c3 = ideal_convergence_check(zoo.harmonic(), handle, (F(0),), P14)
        assert c3.verdict == "converges", handle.name
    # the powers sequence does not converge in the ordinary sense
    c4 = ideal_convergence_check(zoo.char_powers2(), fin, (F(0),), P14)
    assert c4.verdict == "diverges"


def test_convergence_routes_agree_on_alphabet_suite():
    Z = builtin("density-zero")
    for x in (zoo.char_evens(), zoo.char_powers2(), zoo.cycle(["0", "1"]),
              zoo.const("1/3")):
        for ell in (F(0), F(1)):
            c = ideal_convergence_check(x, Z, (ell,), P14)
            assert c.agree, (x.name, ell)


# --- reports ------------------------------------------------------------------

def test_two_dimensional_alphabet():
    # sup-metric and tuple points: letters at (0,0) and (1,1/2) on the parity
    # classes; both are density clusters, neither survives the thin ideal
    alpha = __import__("idealconv.sequences", fromlist=["Alphabet"]).Alphabet(
        letters=[(F(0), F(0)), (F(1), F(1, 2))],
        index_sets=[ns.Progression(1, 2), ns.Progression(2, 2)])
    from idealconv.sequences import SequenceSpec
    x = SequenceSpec(dim=2, bound=F(1),
                     point_fn=lambda n: alpha.letters[(n + 1) % 2],
                     alphabet=alpha, name="pair")
    Z = builtin("density-zero")
    g = gamma_estimate(x, Z, P14)
    assert sorted(g.points()) == [(F(0), F(0)), (F(1), F(1, 2))]
    ind = indicator_set(x, (F(1), F(1, 2)), F(1, 4))
    assert ind == ns.Progression(2, 2)
    c = ideal_convergence_check(x, Z, (F(0), F(0)), P14)
    assert c.verdict == "diverges"


def test_report_json_and_csv_shape():
    Z = builtin("density-zero")
    g = gamma_estimate(zoo.char_evens(), Z, P14)
    body = g.to_json()
    assert body["mode"] == "gamma" and len(body["candidates"]) == 2
    rows = g.csv_rows()
    assert rows[0] == ["candidate", "eps", "exact", "numeric", "class"]
    assert len(rows) == 1 + 2 * len(P14.schedule)


def test_alphabet_partition_validation():
    x = zoo.char_blocks(3)
    x.alphabet.validate_partition(1 << 12)
    bad = zoo.char_evens()
    bad.alphabet.index_sets[0] = ns.Progression(1, 3)   # breaks the cover
    with pytest.raises(ValueError):
        bad.alphabet.validate_partition(64)


def test_analysis_params_validation():
    with pytest.raises(ValueError):
        AnalysisParams(horizon=1 << 10, pitch=F(1, 2),
                       schedule=RadiusSchedule.dyadic(4))  # pitch > min radius
    with pytest.raises(ValueError):
        RadiusSchedule([F(1, 2), F(1, 2)])


# --- one tail reading for both halves ------------------------------------------

@pytest.mark.parametrize("ideal", ["fin", "Z", "summable", "gdi"])
def test_gamma_records_and_level_sets_read_the_same_tail(ideal):
    # the balls of a random map's values have no closed form, so only the
    # tail route decides them; wherever it does, the gamma record carries
    # the same corrected value at the deepest cut as the level set
    handle = builtin(ideal)
    params = AnalysisParams(horizon=1 << 11, schedule=RadiusSchedule.dyadic(4),
                            pitch=F(1, 16))
    shared = 0
    for x in (zoo.harmonic(), zoo.rationals()):
        for m in (tr.random_sigma(5, length=4096), tr.random_pi(5, length=4096)):
            y = tr.apply(m, x)
            level = {(c.point, r.eps): r
                     for c in lambda_estimate(y, handle, params).candidates
                     for r in c.radii}
            for c in gamma_estimate(y, handle, params).candidates:
                for r in c.radii:
                    if r.reason == "tail-trend":
                        lam = level[(c.point, r.eps)]
                        assert (lam.reason, lam.numeric) == ("tail-trend",
                                                             r.numeric)
                        shared += 1
    # 4 maps, 17 candidates, 4 radii: every ball is read by its tail
    assert shared == 4 * 17 * 4
