"""Witness construction, the separating cutoff sets, and randomized checks."""

import random
from fractions import Fraction

import numpy as np
import pytest

from idealconv import meager
from idealconv import natset as ns
from idealconv import submeasure as sm
from idealconv.ideals import DecisionParams, Verdict, builtin, nu2
from idealconv.meager import (WitnessIntervals, build_witness, fk_holds,
                              verify_witness)
from test_tail_values import corrected

F = Fraction


# --- construction -----------------------------------------------------------

def test_density_zero_witness_is_dyadic():
    Z = builtin("density-zero")
    w = build_witness(Z, F(1, 2), 1 << 20)
    assert w.boundary_prefix(6) == [2, 4, 8, 16, 32, 64]
    assert w.rule == "density-ratio" and w.q0 == F(1, 2)
    # oracle: any union of infinitely many dyadic blocks has upper density
    # >= 1/2 at the block right ends; check one concrete union at 2^20
    bu = ns.BlockUnion(w, ns.Progression(2, 2))
    bits = bu.prefix(1 << 20)
    counts = np.cumsum(bits)
    ratios = [counts[(1 << k) - 2] / ((1 << k) - 1) for k in range(3, 21)]
    assert max(ratios) >= 0.5


def test_fin_witness_is_singletons():
    fin = builtin("fin")
    w = build_witness(fin, F(1, 2), 10 ** 4)
    assert w.boundary_prefix(6) == [1, 2, 3, 4, 5, 6]
    assert w.rule == "phi-block"


def test_finxfin_witness_rows():
    fxf = builtin("fin-x-fin")
    w = build_witness(fxf, F(1, 2), 10 ** 5)
    assert w.boundary_prefix(5) == [1, 5, 13, 29, 61]
    # oracle: brute-force check that block n holds every valuation row <= n
    for n in range(1, 15):
        lo, hi = w.block(n)
        rows = {nu2(m) for m in range(lo, hi)}
        assert set(range(0, n + 1)) <= rows


def test_summable_witness_blocks_have_mass():
    summ = builtin("summable")
    w = build_witness(summ, F(1, 2), 10 ** 4)
    # oracle: partial harmonic sums per block
    for n in range(1, 10):
        lo, hi = w.block(n)
        assert sum(F(1, a) for a in range(lo, hi)) >= F(1, 2)
        if hi - lo > 1:
            assert sum(F(1, a) for a in range(lo, hi - 1)) < F(1, 2), \
                "block should be minimal"


def test_ratio_search_witness_for_small_q():
    Z = builtin("density-zero")
    w = build_witness(Z, F(1, 8), 1 << 16)
    for n in range(1, 30):
        lo, hi = w.block(n)
        assert F(hi - lo, hi) >= F(1, 8)
    count = sum(1 for _ in w.blocks_within(1 << 16))
    assert count > 60          # far denser than the dyadic witness


def test_witness_rejects_unsupported():
    fxf = builtin("fin-x-fin")
    w = build_witness(fxf, F(1, 2), 10 ** 4)   # q is ignored for row coverage
    assert w.rule == "row-coverage"
    from idealconv.ideals import IdealHandle, NotRepresentable
    bare = IdealHandle("bare")
    with pytest.raises(NotRepresentable):
        build_witness(bare, F(1, 2), 100)


def test_witness_json_round_trip():
    for name, q in (("density-zero", F(1, 2)), ("density-zero", F(1, 4)),
                    ("summable", F(1, 2)), ("fin", F(1, 2)),
                    ("fin-x-fin", F(1, 2)), ("gdi", F(1, 2))):
        w = build_witness(builtin(name), q, 10 ** 4)
        back = WitnessIntervals.from_json(w.to_json())
        assert back.rule == w.rule and back.q0 == w.q0
        assert back.boundary_prefix(8) == w.boundary_prefix(8)


# --- the separating cutoff sets ----------------------------------------------

def z_witness():
    return build_witness(builtin("density-zero"), F(1, 2), 1 << 20)


def test_fk_finite_sets_pass_late_cutoffs():
    w = z_witness()
    # {1,2,3} contains the first dyadic block [2,4); every later one escapes
    assert fk_holds(w, ns.Finite([1, 2, 3]), 1, 1 << 12) is False
    assert fk_holds(w, ns.Finite([1, 2, 3]), 2, 1 << 12) is True
    assert fk_holds(w, ns.Finite([1, 9, 70]), 1, 1 << 12) is True


def test_fk_cofinite_always_fails():
    w = z_witness()
    for k in range(1, 21):
        assert fk_holds(w, ns.Cofinite([]), k, 1 << 16) is False
        assert fk_holds(w, ns.Cofinite([5, 17]), k, 1 << 16) is False


def test_fk_block_union_example():
    w = z_witness()
    s = ns.BlockUnion(w, ns.Progression(2, 2))
    # oracle: the selected blocks are 2, 4, 6, ...; block 4 >= 3 is contained
    assert fk_holds(w, s, 3, 1 << 16) is False


def test_fk_monotone_in_k():
    w = z_witness()
    sets = [ns.Finite([2, 3, 4, 5]), ns.PowersOf(2), ns.Progression(1, 2)]
    for s in sets:
        values = [fk_holds(w, s, k, 1 << 14) for k in range(1, 12)]
        seen_true = False
        for v in values:
            if seen_true:
                assert v is True
            if v is True:
                seen_true = True


def test_fk_progression_certified():
    w = z_witness()
    assert fk_holds(w, ns.Progression(1, 2), 1, 1 << 14) is True
    assert fk_holds(w, ns.PowersOf(2), 1, 1 << 14) is True
    # step-1 progressions contain late blocks
    assert fk_holds(w, ns.Progression(10, 1), 1, 1 << 14) is False


def test_fk_singleton_witness():
    fin = builtin("fin")
    w = build_witness(fin, F(1, 2), 10 ** 4)
    assert fk_holds(w, ns.Progression(1, 2), 1, 10 ** 4) is False
    assert fk_holds(w, ns.Finite([3, 8]), 9, 10 ** 4) is True
    assert fk_holds(w, ns.Finite([3, 8]), 5, 10 ** 4) is False
    # a derived empty set must not inherit its parts' upper bounds
    empty = ns.Intersection((ns.Finite([590, 2804]), ns.PowersOf(7)))
    assert fk_holds(w, empty, 6, 10 ** 4) is not False


def test_fk_fuzz_against_block_scan():
    """Verdicts vs brute-force containment over random expression trees."""
    import random
    rng = random.Random(4242)
    part = ns.partition_from_tag({"kind": "pow2"})
    witnesses = [
        (build_witness(builtin("density-zero"), F(1, 2), 1 << 14), 1 << 14),
        (build_witness(builtin("fin"), F(1, 2), 4096), 4096),
        (build_witness(builtin("summable"), F(1, 2), 10 ** 4), 10 ** 4),
    ]

    def random_set(depth=0):
        pick = rng.randrange(8 if depth < 2 else 5)
        if pick == 0:
            return ns.Finite(sorted(rng.sample(range(1, 3000),
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

    for w, horizon in witnesses:
        for _ in range(120):
            s = random_set()
            k = rng.randrange(1, 12)
            v = fk_holds(w, s, k, horizon)
            bits = s.prefix(horizon)
            late = [n for n, lo, hi in w.blocks_within(horizon)
                    if n >= k and bits[lo - 1:hi - 1].all()]
            if v is True:
                assert not late, (s.dumps(), k)
            if v is False and not late:
                # a False with no visible block needs a certified late one
                assert s.is_cofinite() is True or s.is_infinite() is True \
                    or _has_block_union(s), (s.dumps(), k)


def _has_block_union(s):
    if isinstance(s, ns.BlockUnion):
        return True
    if isinstance(s, (ns.Union, ns.Intersection)):
        return any(_has_block_union(p) for p in s.parts)
    if isinstance(s, ns.Complement):
        return _has_block_union(s.part)
    return False


# --- randomized verification -------------------------------------------------

@pytest.mark.parametrize("name,q,horizon", [
    ("density-zero", F(1, 2), 1 << 16),
    ("fin", F(1, 2), 10 ** 4),
    ("summable", F(1, 2), 10 ** 4),
    ("fin-x-fin", F(1, 2), 10 ** 5),
])
def test_verify_witness_builtin(name, q, horizon):
    handle = builtin(name)
    w = build_witness(handle, q, horizon)
    report = verify_witness(handle, w, trials=25, horizon=horizon, seed=9)
    assert all(s.verdict is not Verdict.IN for s in report.samples)
    assert report.cofinite_all_fail
    assert all(m.first_k <= 20 for m in report.members)


def test_verify_witness_estimates_track_mass():
    Z = builtin("density-zero")
    w = build_witness(Z, F(1, 2), 1 << 16)
    report = verify_witness(Z, w, trials=40, horizon=1 << 16, seed=4)
    assert report.min_estimate >= F(45, 100)


# normalised by its largest weight: head weight 1, tail weight 1/4
HEAD_HEAVY_GDI = {"partition": {"iota": [1 << k for k in range(18)],
                                "lengths_unbounded": False},
                  "head_weights": ["4"], "tail_weight": "1"}
ESTIMATE_IDEALS = {name: builtin(name) for name in ("fin", "Z", "summable",
                                                    "gdi")}
ESTIMATE_IDEALS["head-heavy-gdi"] = builtin("gdi", HEAD_HEAVY_GDI)


@pytest.mark.parametrize("name", sorted(ESTIMATE_IDEALS))
def test_sample_estimate_is_the_best_estimate_row(name):
    handle, horizon = ESTIMATE_IDEALS[name], 4096
    params = DecisionParams(horizon=horizon)
    w = build_witness(builtin("Z"), F(1, 2), horizon)
    rng = random.Random(11)
    samples = [ns.Union((ns.BlockUnion(w, meager._random_infinite_selector(rng)),
                         ns.Finite(sorted(rng.sample(range(1, horizon),
                                                     rng.randrange(1, 16))))))
               for _ in range(12)]
    gen = np.random.default_rng(11)
    for p in (0.0, 0.002, 0.05, 0.5, 1.0):
        samples.append(ns.PrefixBitmap(gen.random(horizon) < p))
    head_only = gen.random(horizon) < 0.3
    head_only[horizon // 2:] = False
    samples.append(ns.PrefixBitmap(head_only))
    # the best corrected tail past cut 0 (the whole prefix) and the default
    # cuts, each from the per-cut reference
    cuts = [0] + sm.default_cuts(horizon)
    for s in samples:
        want = max(corrected(handle.lscsm, s.prefix(horizon), cuts))
        assert meager._sample_estimate(handle, s, params) == want


def test_block_certification_exact():
    for name, q in (("density-zero", F(1, 2)), ("summable", F(1, 3)),
                    ("gdi", F(1, 2))):
        handle = builtin(name)
        w = build_witness(handle, q, 10 ** 4)
        for n, lo, hi in w.blocks_within(10 ** 4):
            assert w.certify_block(n, handle.lscsm)
