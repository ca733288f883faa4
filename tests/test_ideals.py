"""Membership decisions: closed forms, witness bounds, row rules, trends."""

import random
from fractions import Fraction

import pytest

from idealconv import natset as ns
from idealconv import submeasure as sm
from idealconv import zoo
from idealconv.ideals import (DecisionParams, Verdict, builtin,
                              decide_membership, nu2, witness_lower_bound,
                              UnknownIdeal)
from idealconv.meager import build_witness
from idealconv.sequences import AnalysisParams, RadiusSchedule, gamma_estimate

F = Fraction
PARAMS = DecisionParams(horizon=1 << 17)


# --- the row-analysis oracle for the product ideal --------------------------

def rows_profile(members):
    rows = {}
    for m in members:
        rows.setdefault(nu2(m), 0)
        rows[nu2(m)] += 1
    return rows


def finxfin_brute_verdict(s, horizon=10 ** 5):
    """Desk-scale row analysis.

    A row shows cofinal evidence at horizon H when it owns a member in
    (3H/4, H]; membership holds when the family of such rows does not grow
    as the horizon doubles (all but finitely many rows are finite)."""
    import numpy as np
    bits = s.prefix(horizon)
    members = (np.flatnonzero(bits) + 1).tolist()

    def cofinal_rows(h):
        return {nu2(m) for m in members if 3 * h // 4 < m <= h}

    return ("in" if len(cofinal_rows(horizon)) <= len(cofinal_rows(horizon // 2))
            else "not-in")


def test_finxfin_row_oracle_recorded_first():
    # the odds all live in valuation row 0: one growing row at every horizon
    odds = ns.Progression(1, 2)
    assert finxfin_brute_verdict(odds) == "in"
    # the evens spread over rows 1, 2, 3, ...: new rows keep joining
    evens = ns.Progression(2, 2)
    assert finxfin_brute_verdict(evens) == "not-in"
    # every power of two is alone in its row
    assert finxfin_brute_verdict(ns.PowersOf(2)) == "in"


def test_finxfin_analytic_rule_agrees_with_oracle():
    fxf = builtin("fin-x-fin")
    cases = [ns.Progression(1, 2), ns.Progression(2, 2), ns.Progression(2, 4),
             ns.Progression(4, 2), ns.Progression(1, 3), ns.Progression(8, 16),
             ns.PowersOf(2), ns.PowersOf(3)]
    for s in cases:
        want = finxfin_brute_verdict(s)
        got = decide_membership(fxf, s, PARAMS).verdict.value
        assert got == want, s.to_json()


def test_finxfin_examples():
    fxf = builtin("fin-x-fin")
    assert decide_membership(fxf, ns.Progression(1, 2), PARAMS).verdict is Verdict.IN
    assert decide_membership(fxf, ns.Cofinite([1]), PARAMS).verdict is Verdict.NOT_IN
    assert decide_membership(fxf, ns.Finite([5, 10]), PARAMS).verdict is Verdict.IN
    comp = ns.Complement(ns.Progression(1, 2))   # the evens, rewritten
    assert decide_membership(fxf, comp, PARAMS).verdict is Verdict.NOT_IN
    # the complement of a finite set that is not a Finite instance
    comp = ns.Complement(ns.Intersection((ns.PowersOf(3), ns.Finite([3, 9]))))
    d = decide_membership(fxf, comp, PARAMS)
    assert (d.verdict, d.reason) == (Verdict.NOT_IN, "row-rule")
    bits = ns.PrefixBitmap([1, 0, 1])
    assert decide_membership(fxf, bits, PARAMS).verdict is Verdict.UNDECIDED


def _no_prefix(*_):
    raise AssertionError("a prefix was read")


def test_finxfin_undecided_reads_no_prefix():
    # fin x Fin is no Exh(phi): a set no row rule decides is left undecided
    # without reading its prefix, and carries no estimate
    s = ns.Tested(bits=_no_prefix, test=lambda n: n % 2 == 0,
                  density=F(1, 2))
    d = decide_membership(builtin("fin-x-fin"), s, PARAMS)
    assert (d.verdict, d.reason) == (Verdict.UNDECIDED, "row-profile")
    assert d.estimate is None and d.exact is None


def test_finxfin_rationals_gamma_reads_no_ball(monkeypatch):
    # every rationals ball's prefix comes from zoo._rational_rows; under
    # fin-x-fin only the row rule decides (the ball (0, 1) around 1/2 is
    # cofinite), and every other radius is undecided with a null numeric
    monkeypatch.setattr(zoo, "_rational_rows", _no_prefix)
    params = AnalysisParams(horizon=4096, schedule=RadiusSchedule.dyadic(4),
                            pitch=F(1, 16))
    rep = gamma_estimate(zoo.rationals(), builtin("fin-x-fin"), params)
    assert rep.route_counts() == {"row-profile": 67, "row-rule": 1}
    assert [c.point for c in rep.candidates] == [(F(k, 16),)
                                                 for k in range(17)]
    assert {c.classification for c in rep.candidates} == {"undecided"}
    decided = [(c.point, r.eps, r.verdict, r.exact)
               for c in rep.candidates for r in c.radii
               if r.verdict != "undecided"]
    assert decided == [((F(1, 2),), F(1, 2), "not-in", F(1))]
    assert all(r.numeric is None for c in rep.candidates for r in c.radii)


# --- built-in decisions -----------------------------------------------------

def test_decision_examples():
    Z = builtin("density-zero")
    assert decide_membership(Z, ns.PowersOf(2), PARAMS).verdict is Verdict.IN
    assert decide_membership(Z, ns.Progression(2, 2), PARAMS).verdict is Verdict.NOT_IN
    fin = builtin("fin")
    assert decide_membership(fin, ns.Cofinite([1]), PARAMS).verdict is Verdict.NOT_IN
    assert decide_membership(fin, ns.Finite([5]), PARAMS).verdict is Verdict.IN


def test_builtin_capability_table():
    assert isinstance(builtin("density-zero").lscsm, sm.RunningDensity)
    assert isinstance(builtin("fin").lscsm, sm.CountingCap)
    summ = builtin("summable").lscsm
    assert isinstance(summ, sm.WeightedSum) and summ.full_norm() == 1
    assert isinstance(builtin("gdi").lscsm, sm.DensityFamily)
    fxf = builtin("fin-x-fin")
    assert fxf.lscsm is None and fxf.special_rule == "fin-x-fin"
    assert builtin("Z").name == "density-zero"
    with pytest.raises(UnknownIdeal):
        builtin("no-such-ideal")


def test_summable_decisions():
    summ = builtin("summable")
    assert decide_membership(summ, ns.PowersOf(2), PARAMS).verdict is Verdict.IN
    assert decide_membership(summ, ns.Progression(3, 7), PARAMS).verdict is Verdict.NOT_IN
    assert decide_membership(summ, ns.Finite(range(1, 50)), PARAMS).verdict is Verdict.IN


def test_gdi_decisions():
    gdi = builtin("gdi")
    assert decide_membership(gdi, ns.PowersOf(2), PARAMS).verdict is Verdict.IN
    assert decide_membership(gdi, ns.Progression(2, 2), PARAMS).verdict is Verdict.NOT_IN
    assert decide_membership(gdi, ns.Cofinite([]), PARAMS).verdict is Verdict.NOT_IN


# --- ideal axioms on the decidable fragment ---------------------------------

def random_structured(rng):
    pick = rng.randrange(4)
    if pick == 0:
        return ns.Finite(sorted(rng.sample(range(1, 4000), rng.randrange(1, 12))))
    if pick == 1:
        return ns.PowersOf(rng.choice([2, 3, 5]))
    if pick == 2:
        return ns.Progression(rng.randrange(1, 20), rng.randrange(1, 10))
    return ns.Cofinite(sorted(rng.sample(range(1, 100), rng.randrange(0, 5))))


@pytest.mark.parametrize("name", ["fin", "density-zero", "summable"])
def test_ideal_axioms_randomized(name):
    handle = builtin(name)
    rng = random.Random(f"axioms/{name}")
    members_found = 0
    for _ in range(120):
        a, b = random_structured(rng), random_structured(rng)
        da = decide_membership(handle, a, PARAMS)
        db = decide_membership(handle, b, PARAMS)
        if da.verdict is Verdict.IN and db.verdict is Verdict.IN:
            members_found += 1
            u = decide_membership(handle, ns.Union((a, b)), PARAMS)
            assert u.verdict is Verdict.IN        # finite unions stay in
        if da.verdict is Verdict.IN:
            sub = decide_membership(handle, ns.Intersection((a, b)), PARAMS)
            assert sub.verdict is Verdict.IN      # subsets stay in
    assert members_found > 3


def test_exh_consistency_exact_vs_numeric():
    # the two routes agree within 0.05 at a 2^20 horizon on structured sets
    Z = builtin("density-zero")
    big = DecisionParams(horizon=1 << 20)
    cases = [ns.Progression(2, 2), ns.Progression(1, 3), ns.Cofinite([5]),
             ns.PowersOf(2), ns.Finite(range(1, 100)),
             ns.Union((ns.Progression(1, 4), ns.PowersOf(2)))]
    for s in cases:
        exact = Z.lscsm.exact_norm(s)
        [[deepest]] = sm.norm_estimate(Z.lscsm, s.prefix(big.horizon)[None],
                                       sm.default_cuts(big.horizon)[-1:])
        assert exact is not None
        assert abs(F(*deepest) - exact) <= F(1, 20), s.to_json()
        dec = decide_membership(Z, s, big)
        if dec.verdict is Verdict.IN:
            assert exact == 0
        if dec.verdict is Verdict.NOT_IN:
            assert exact > 0


def test_witness_lower_bound_route():
    Z = builtin("density-zero")
    w = build_witness(Z, F(1, 2), 1 << 20)
    bu = ns.BlockUnion(w, ns.Progression(2, 2))
    assert witness_lower_bound(Z, bu) == w.q0
    noisy = ns.Union((bu, ns.Finite([1, 2, 3])))
    assert witness_lower_bound(Z, noisy) == w.q0
    dec = decide_membership(Z, noisy, PARAMS)
    assert dec.verdict is Verdict.NOT_IN and dec.reason == "witness-blocks"
    # a finite selection of blocks is not a certificate
    fin_bu = ns.BlockUnion(w, ns.Finite([1, 4]))
    assert witness_lower_bound(Z, fin_bu) is None


def test_phi_search_mass_needs_the_same_ideal_parameters():
    w = build_witness(builtin("gdi"), F(1, 2), 1 << 14)
    bu = ns.BlockUnion(w, ns.FULL)
    assert witness_lower_bound(builtin("gdi"), bu) == F(1, 2)
    # the same blocks under a gdi whose normalized tail weight is 1/4 have
    # mass 1/8 each, so no set's norm passes 1/4
    other = builtin("gdi", gdi_spec={
        "partition": {"generator": {"kind": "geometric", "ratio": "2"},
                      "lengths_unbounded": True},
        "head_weights": ["4"], "tail_weight": "1"})
    assert witness_lower_bound(other, bu) is None
    dec = decide_membership(other, bu, DecisionParams(horizon=1 << 14))
    assert dec.reason != "witness-blocks"
    # a plain phi-search partition certifies the mass of the witness it equals
    plain = ns.partition_from_tag(w.tag)
    assert witness_lower_bound(builtin("gdi"), ns.BlockUnion(plain, ns.FULL)) \
        == F(1, 2)


def test_undecided_on_blind_bitmaps():
    Z = builtin("density-zero")
    # an isolated late element: nothing safe to say at this horizon
    import numpy as np
    bits = np.zeros(4096, dtype=bool)
    bits[4000] = True
    dec = decide_membership(Z, ns.PrefixBitmap(bits), DecisionParams(horizon=4096))
    assert dec.verdict in (Verdict.UNDECIDED, Verdict.IN)


def test_decisions_never_contradict_brute_density():
    """Randomized soundness sweep: an In verdict must not hide a fat tail,
    a NotIn verdict must not sit on a nearly empty prefix."""
    import numpy as np
    rng = random.Random(1234)
    Z = builtin("density-zero")
    params = DecisionParams(horizon=1 << 16)
    part = ns.partition_from_tag({"kind": "pow2"})

    def random_set(depth=0):
        pick = rng.randrange(8 if depth < 2 else 5)
        if pick == 0:
            return ns.Finite(sorted(rng.sample(range(1, 5000),
                                               rng.randrange(0, 10))))
        if pick == 1:
            return ns.Cofinite(sorted(rng.sample(range(1, 200),
                                                 rng.randrange(0, 6))))
        if pick == 2:
            return ns.Progression(rng.randrange(1, 30), rng.randrange(1, 12))
        if pick == 3:
            return ns.PowersOf(rng.choice([2, 3, 5, 7]))
        if pick == 4:
            k = rng.randrange(1, 5)
            return ns.BlockUnion(part, rng.choice([ns.FULL, ns.Progression(k, k)]))
        if pick == 5:
            return ns.Union(tuple(random_set(depth + 1)
                                  for _ in range(rng.randrange(2, 4))))
        if pick == 6:
            return ns.Intersection(tuple(random_set(depth + 1)
                                         for _ in range(2)))
        return ns.Complement(random_set(depth + 1))

    n = np.arange(1, (1 << 16) + 1)
    for _ in range(200):
        s = random_set()
        dec = decide_membership(Z, s, params)
        counts = np.cumsum(s.prefix(1 << 16), dtype=np.int64)
        tail_sup = float((counts[1 << 15:] / n[1 << 15:]).max())
        if dec.verdict is Verdict.IN:
            assert tail_sup <= F(1, 20), s.dumps()
        if dec.verdict is Verdict.NOT_IN:
            assert counts[-1] >= 40, s.dumps()


def test_lumpy_intersection_not_falsely_in():
    # concentrated on alternating dyadic blocks: the top octave is empty at
    # this horizon, yet the set has positive upper density
    Z = builtin("density-zero")
    part = ns.partition_from_tag({"kind": "pow2"})
    s = ns.Intersection((ns.BlockUnion(part, ns.Progression(2, 2)),
                         ns.Progression(26, 4)))
    dec = decide_membership(Z, s, DecisionParams(horizon=1 << 16))
    assert dec.verdict is not Verdict.IN


def test_theta_trend_paths():
    Z = builtin("density-zero")
    import numpy as np
    rng = np.random.default_rng(7)
    dense = rng.random(1 << 16) < 0.3
    dec = decide_membership(Z, ns.PrefixBitmap(dense),
                            DecisionParams(horizon=1 << 16))
    assert dec.verdict is Verdict.NOT_IN and dec.trend == "non-decreasing"
    sparse = np.zeros(1 << 16, dtype=bool)
    sparse[np.arange(40) ** 2] = True      # quadratically thinning hits
    dec2 = decide_membership(Z, ns.PrefixBitmap(sparse),
                             DecisionParams(horizon=1 << 16))
    assert dec2.verdict is Verdict.IN and dec2.trend in ("zero", "decreasing")
