"""Maps, preimages, and the constructive builders with their audits."""

import ast
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from idealconv import natset as ns
from idealconv import submeasure as sm
from idealconv import zoo
from idealconv.ideals import builtin
from idealconv.meager import WitnessRefuted, build_witness
from idealconv.sequences import (CLUSTER, NOT_CLUSTER, AnalysisParams,
                                 RadiusSchedule, candidate_grid,
                                 gamma_estimate, indicator_set,
                                 limit_points_estimate)
from idealconv import transforms as tr

F = Fraction


def sigma_2n():
    return tr.SubsequenceMap((), tr.TailRule("arith", 2))


def test_map_validation():
    with pytest.raises(ValueError):
        tr.SubsequenceMap([3, 3, 5])
    with pytest.raises(ValueError):
        tr.SubsequenceMap([5], tr.TailRule("identity-shift", 0))
    with pytest.raises(ValueError):
        tr.PermutationMap([2, 3, 1, 5])           # not an initial segment
    with pytest.raises(ValueError):
        tr.PermutationMap([1, 1, 2])
    tr.SubsequenceMap([5], tr.TailRule("identity-shift", 4))  # 6 + 4 > 5


def test_maps_from_int64_arrays_write_as_from_lists():
    # an array's entries become Python ints once, in __init__, so the JSON
    # form is the one the equal list gives
    for make, table in (
            (lambda t: tr.SubsequenceMap(t, tr.NO_TAIL, horizon=4),
             [2, 5, 9, (1 << 62) + 1]),
            (lambda t: tr.PermutationMap(t, horizon=5), [3, 1, 2, 5, 4])):
        from_array = make(np.array(table, dtype=np.int64))
        assert from_array.to_json() == make(table).to_json()
        assert all(type(v) is int for v in from_array.to_json()["table"])


def test_map_values_and_tails():
    s = tr.SubsequenceMap([2, 5, 9], tr.TailRule("arith", 3))
    assert [s.value(n) for n in (1, 2, 3, 4, 5)] == [2, 5, 9, 12, 15]
    assert s.values_up_to(5).tolist() == [2, 5, 9, 12, 15]
    u = tr.SubsequenceMap([4], tr.TailRule("none"), horizon=1)
    with pytest.raises(ns.HorizonExceeded):
        u.value(2)
    p = tr.odd_even_swap()
    assert [p.value(n) for n in (1, 2, 3, 4)] == [2, 1, 4, 3]


def test_apply_examples():
    # selecting the even positions of the even-indicator gives the ones
    y = tr.apply(sigma_2n(), zoo.char_evens())
    assert all(y.point(n) == (F(1),) for n in range(1, 30))
    # the neighbour swap exchanges the letters
    ysw = tr.apply(tr.odd_even_swap(), zoo.char_evens())
    assert [int(ysw.point(n)[0]) for n in range(1, 7)] == [1, 0, 1, 0, 1, 0]
    # shifting the harmonic sequence
    shift = tr.SubsequenceMap((), tr.TailRule("identity-shift", 1))
    assert tr.apply(shift, zoo.harmonic()).point(1) == (F(1, 2),)


def test_apply_preserves_alphabet_symbolically():
    y = tr.apply(sigma_2n(), zoo.char_evens())
    assert y.alphabet is not None
    ones = y.alphabet.index_sets[1]
    assert ones.is_cofinite() is True or ones.count_up_to(64) == 64


def test_preimage_examples():
    assert isinstance(tr.preimage(sigma_2n(), ns.Progression(2, 2)),
                      ns.Progression)
    assert tr.preimage(sigma_2n(), ns.Progression(2, 2)).step == 1
    odds_pre = tr.preimage(sigma_2n(), ns.Progression(1, 2))
    assert isinstance(odds_pre, ns.Finite) and not odds_pre.members
    s = ns.PowersOf(3)
    assert tr.preimage(tr.identity_sigma(), s) is s


def test_preimage_matches_pointwise():
    # symbolic preimages, and lazily tested ones where the set has no
    # closed-form preimage under the map (powers, the rationals ball)
    maps = [sigma_2n(), tr.SubsequenceMap([3, 4, 10, 11], tr.TailRule("arith", 5)),
            tr.SubsequenceMap((), tr.TailRule("identity-shift", 2)),
            tr.odd_even_swap(), tr.random_sigma(3, length=200),
            tr.random_pi(3, length=200)]
    sets = [ns.Progression(2, 3), ns.Finite([4, 10, 44]), ns.PowersOf(2),
            ns.Cofinite([6, 8]),
            ns.Union((ns.Progression(1, 4), ns.Finite([2]))),
            ns.Union((ns.Progression(5, 7), ns.PowersOf(3))),
            indicator_set(zoo.rationals(), (F(1, 3),), F(1, 10))]
    for t in maps:
        for s in sets:
            pre = tr.preimage(t, s)
            want = [s.member(t.value(n)) for n in range(1, 150)]
            assert [pre.member(n) for n in range(1, 150)] == want, (t, s)
            assert pre.prefix(149).tolist() == want, (t, s)


set_leaves = st.one_of(
    st.builds(ns.Finite, st.lists(st.integers(1, 1200), max_size=8)),
    st.builds(ns.Cofinite, st.lists(st.integers(1, 1200), max_size=8)),
    st.builds(ns.Progression, st.integers(1, 40), st.integers(1, 12)))
set_trees = st.recursive(set_leaves, lambda parts: st.one_of(
    st.builds(ns.Union, st.lists(parts, min_size=1, max_size=3)),
    st.builds(ns.Intersection, st.lists(parts, min_size=1, max_size=3)),
    st.builds(ns.Complement, parts)), max_leaves=8)
symbolic_maps = st.one_of(
    st.builds(lambda step: tr.SubsequenceMap((), tr.TailRule("arith", step)),
              st.integers(1, 7)),
    st.builds(lambda shift: tr.SubsequenceMap(
        (), tr.TailRule("identity-shift", shift)), st.integers(0, 9)),
    st.just(tr.odd_even_swap()))


@given(t=symbolic_maps, s=set_trees)
def test_preimage_of_a_set_tree_matches_pointwise(t, s):
    pre = tr.preimage(t, s)
    assert [pre.member(n) for n in range(1, 512)] == [
        s.member(t(n)) for n in range(1, 512)]


def test_swap_preimage_of_an_intersection_is_symbolic():
    s = ns.Intersection((ns.Progression(2, 2), ns.Cofinite([4, 7])))
    pre = tr.preimage(tr.odd_even_swap(), s)
    assert pre == ns.Intersection((ns.Progression(1, 2), ns.Cofinite([3, 8])))


def test_affine_preimage_of_a_far_progression_is_closed_form():
    # the first preimage is computed, not stepped to one period at a time
    s = ns.Progression(10**12, 3)
    t0 = time.perf_counter()
    pre = tr.preimage(sigma_2n(), s)
    assert time.perf_counter() - t0 < 1
    assert pre == ns.Progression(500000000000, 3)
    near = range(5 * 10**11 - 40, 5 * 10**11 + 40)
    assert [pre.member(n) for n in near] == [s.member(2 * n) for n in near]


def test_lazy_preimage_ends_with_its_table():
    t = tr.random_sigma(3, length=100)
    pre = tr.preimage(t, ns.PowersOf(2))
    assert pre.member(100) is not None
    assert pre.member(101) is None
    assert pre.prefix(100).size == 100
    with pytest.raises(ns.HorizonExceeded):
        pre.prefix(101)
    # a set that does not know a value passes None on
    shift = tr.SubsequenceMap((), tr.TailRule("identity-shift", 2))
    short = tr.preimage(shift, ns.PrefixBitmap([1, 0, 1, 1, 0]))
    assert [short.member(n) for n in (1, 3, 4)] == [True, False, None]


def test_a_map_that_ends_before_the_horizon_leaves_radii_undecided():
    y = tr.apply(tr.random_sigma(3, length=100), zoo.rationals())
    params = AnalysisParams(horizon=256, schedule=RadiusSchedule.dyadic(4),
                            pitch=F(1, 16))
    cands = [(F(0),), (F(1, 2),), (F(1),)]
    gamma = gamma_estimate(y, builtin("density-zero"), params,
                           candidates=cands)
    limits = limit_points_estimate(y, params)
    assert len(gamma.candidates) == 3 and limits.candidates
    for report in (gamma, limits):
        assert all(c.classification == "undecided" for c in report.candidates)
        assert all(r.verdict == "undecided"
                   for c in report.candidates for r in c.radii)
    assert gamma.route_counts() == {"horizon-exceeded": 12}


@pytest.mark.parametrize("x", [zoo.rationals(), zoo.char_powers2()],
                         ids=["rationals", "char-powers2"])
def test_a_map_that_ends_before_the_horizon_gives_the_grid_of_its_base_box(x):
    # an image takes no value its base does not take, so its grid is the
    # pitch lattice of the base's box: rationals declares [0, 1], and
    # char:powers2, which loses its alphabet (powers of two have no symbolic
    # preimage), gives the range of its letters 0 and 1
    y = tr.apply(tr.random_sigma(3, length=100), x)
    params = AnalysisParams(horizon=256, schedule=RadiusSchedule.dyadic(4),
                            pitch=F(1, 16))
    want = [(F(k, 16),) for k in range(17)]
    assert candidate_grid(y, params) == want
    gamma = gamma_estimate(y, builtin("density-zero"), params)
    limits = limit_points_estimate(y, params)
    for report in (gamma, limits):
        assert [c.point for c in report.candidates] == want
        assert all(c.classification == "undecided" for c in report.candidates)


def _map_past_the_scan_limit():
    # powers of 2 routed into the witness blocks pass 2^62 within 256 terms
    w = build_witness(builtin("density-zero"), F(1, 2), 1 << 20)
    sigma = tr.generic_subsequence(ns.PowersOf(2), w, ns.FULL, 256).map
    assert sigma.table[-1] > 1 << 62
    return tr.apply(sigma, zoo.harmonic())


@pytest.mark.parametrize("make", [zoo.harmonic, zoo.rationals,
                                  _map_past_the_scan_limit],
                         ids=["harmonic", "rationals", "map-past-scan-limit"])
def test_a_candidate_grid_reads_no_value(make):
    def unread(n):
        raise AssertionError(f"value {n} read")

    x = make()
    x.point_fn = unread
    params = AnalysisParams(horizon=256, schedule=RadiusSchedule.dyadic(4),
                            pitch=F(1, 16))
    assert candidate_grid(x, params) == [(F(k, 16),) for k in range(17)]


def test_harmonic_under_an_affine_map_keeps_symbolic_balls():
    y = tr.apply(sigma_2n(), zoo.harmonic())
    params = AnalysisParams(horizon=1 << 12, schedule=RadiusSchedule.dyadic(4),
                            pitch=F(1, 16))
    gamma = gamma_estimate(y, builtin("summable"), params)
    # the image keeps harmonic's box [0, 1] (its values 1/(2n) span only
    # [0, 1/2]): 17 candidates of 4 radii each
    assert gamma.route_counts() == {"exact-norm": 68}
    assert (F(0),) in gamma.points()


def test_generic_subsequence_even_source():
    fin = builtin("fin")
    w = build_witness(fin, F(1, 2), 2048)
    res = tr.generic_subsequence(ns.Progression(2, 2), w, ns.FULL, 2048)
    assert [res.map.value(n) for n in (1, 2, 3)] == [2, 4, 6]
    assert all(f.verified for f in res.blocks)
    pre = tr.preimage(res.map, ns.Progression(2, 2))
    assert pre.prefix(2048).all()


def test_generic_subsequence_finite_source_rejected():
    fin = builtin("fin")
    w = build_witness(fin, F(1, 2), 256)
    with pytest.raises(tr.ExhaustedA):
        tr.generic_subsequence(ns.Finite([2, 4, 6]), w, ns.FULL, 256)


def test_generic_subsequence_powers_blocks_covered():
    Z = builtin("density-zero")
    w = build_witness(Z, F(1, 2), 1 << 12)
    res = tr.generic_subsequence(ns.PowersOf(2), w, ns.Progression(2, 2), 1 << 12)
    covered = res.covered_blocks()
    assert covered == [2, 4, 6, 8, 10]
    # audit again from scratch: every selected block position maps into the set
    for f in res.blocks:
        for p in range(f.lo, f.hi):
            v = res.map.value(p)
            assert (v & (v - 1)) == 0 and v >= 2


def test_cluster_adding_sigma_powers():
    Z = builtin("density-zero")
    w = build_witness(Z, F(1, 2), 1 << 12)
    params = AnalysisParams(horizon=1 << 12)
    res = tr.cluster_adding_sigma(zoo.char_powers2(), (F(1),), Z, w, params)
    assert all(f.verified for f in res.blocks)
    assert all(t.verdict == "not-in" for t in res.targets)
    # the preimage of the ones now holds whole dyadic blocks: density >= 1/2
    pre_bits = tr.preimage(res.map, ns.PowersOf(2)).prefix(1 << 12)
    counts = np.cumsum(pre_bits)
    peak = max(F(int(counts[(1 << k) - 2]), (1 << k) - 1) for k in range(2, 13))
    assert peak >= F(1, 2)


def test_cluster_adding_sigma_convergent_case():
    Z = builtin("density-zero")
    w = build_witness(Z, F(1, 2), 1 << 12)
    params = AnalysisParams(horizon=1 << 12)
    res = tr.cluster_adding_sigma(zoo.harmonic(), (F(0),), Z, w, params)
    assert all(f.verified for f in res.blocks)


def test_cluster_adding_sigma_evens_at_zero():
    Z = builtin("density-zero")
    w = build_witness(Z, F(1, 2), 1 << 12)
    params = AnalysisParams(horizon=1 << 12)
    res = tr.cluster_adding_sigma(zoo.char_evens(), (F(0),), Z, w, params)
    assert all(f.verified for f in res.blocks)
    assert all(t.verdict == "not-in" for t in res.targets)
    # inside witness blocks the selector picks odd indices (the zero letter)
    for f in res.blocks:
        assert all(res.map.value(p) % 2 == 1 for p in range(f.lo, f.hi))


def test_cluster_adding_sigma_rejects_non_limit_point():
    Z = builtin("density-zero")
    w = build_witness(Z, F(1, 2), 1 << 12)
    params = AnalysisParams(horizon=1 << 12)
    with pytest.raises(tr.NotALimitPoint):
        tr.cluster_adding_sigma(zoo.char_evens(), (F(1, 3),), Z, w, params)


def test_cluster_preserving_sigma_evens():
    Z = builtin("density-zero")
    w = build_witness(Z, F(1, 4), 1 << 20)
    params = AnalysisParams(horizon=1 << 14)
    res = tr.cluster_preserving_sigma(zoo.char_evens(), Z, w, params)
    assert res.gamma_preserved
    assert {f.candidate for f in res.blocks} == {(F(0),), (F(1),)}
    assert all(t.verdict == "not-in" for t in res.targets)


def test_sigma_targets_are_decided_at_the_given_theta(monkeypatch):
    thetas = []
    decide = tr.decide_membership

    def spy(handle, s, params, *args):
        thetas.append(params.theta)
        return decide(handle, s, params, *args)

    monkeypatch.setattr(tr, "decide_membership", spy)
    Z = builtin("density-zero")
    w = build_witness(Z, F(1, 2), 1 << 12)
    params = AnalysisParams(horizon=1 << 12, theta=F(1, 7))
    tr.cluster_adding_sigma(zoo.char_evens(), (F(0),), Z, w, params)
    tr.cluster_preserving_sigma(zoo.char_evens(), Z, w, params)
    assert thetas and set(thetas) == {F(1, 7)}


@pytest.mark.parametrize("seq", ["cycle:0,1/2,1", "rationals"])
@pytest.mark.parametrize("build", ["adding", "preserving"])
def test_each_certificate_names_the_blocks_routed_to_it(seq, build):
    # a target (c, eps_m) certifies the blocks of one progression; inside
    # the horizon they must be exactly the fills routed to c at radius index
    # m or finer, and every (c, m) some fill reached has its target
    Z = builtin("density-zero")
    params = AnalysisParams(horizon=1 << 12, schedule=RadiusSchedule.dyadic(3),
                            pitch=F(1, 8))
    x, w = zoo.get_sequence(seq), build_witness(Z, F(1, 4), 1 << 12)
    res = (tr.cluster_adding_sigma(x, (F(1, 2),), Z, w, params)
           if build == "adding" else tr.cluster_preserving_sigma(x, Z, w, params))
    radii = list(params.schedule)
    blocks = [k for k, _, _ in w.blocks_within(params.horizon)]
    assert [f.block for f in res.blocks] == blocks
    named = set()
    for t in res.targets:
        sel = t.certified_subset["selector"]["set"]
        assert sel["kind"] == "progression"
        m = radii.index(t.eps) + 1
        certified = [k for k in blocks if k >= sel["first"]
                     and (k - sel["first"]) % sel["step"] == 0]
        assert certified == [f.block for f in res.blocks
                             if f.candidate == t.candidate
                             and f.radius_index >= m]
        named.add((t.candidate, m))
    assert named == {(f.candidate, m) for f in res.blocks
                     for m in range(1, f.radius_index + 1)}


def test_cluster_preserving_sigma_hypothesis_failed():
    Z = builtin("density-zero")
    w = build_witness(Z, F(1, 4), 1 << 20)
    params = AnalysisParams(horizon=1 << 14)
    with pytest.raises(tr.HypothesisFailed):
        tr.cluster_preserving_sigma(zoo.char_powers2(), Z, w, params)


def test_generic_permutation_swap_pattern():
    fin = builtin("fin")
    w = build_witness(fin, F(1, 2), 512)
    res = tr.generic_permutation(ns.Progression(2, 2), w, ns.FULL, 64)
    assert [res.map.value(n) for n in range(1, 9)] == [2, 1, 4, 3, 6, 5, 8, 7]
    assert all(f.verified for f in res.blocks)


def test_permutation_builders_stay_bijective():
    Z = builtin("density-zero")
    params = AnalysisParams(horizon=1 << 12,
                            schedule=RadiusSchedule.dyadic(6),
                            pitch=F(1, 64))
    w = build_witness(Z, F(1, 4), 1 << 20)
    res = tr.cluster_preserving_pi(zoo.char_evens(), Z, w, params)
    table = list(res.map.table)
    assert sorted(table) == list(range(1, len(table) + 1))
    assert res.gamma_preserved
    w2 = build_witness(Z, F(1, 2), 1 << 16)
    res2 = tr.cluster_adding_pi(zoo.char_powers2(), (F(1),), Z, w2,
                                AnalysisParams(horizon=1 << 12))
    table2 = list(res2.map.table)
    assert sorted(table2) == list(range(1, len(table2) + 1))
    assert res2.blocks                     # at least one affordable payload


def test_cluster_preserving_pi_hypothesis_failed():
    Z = builtin("density-zero")
    w = build_witness(Z, F(1, 4), 1 << 20)
    with pytest.raises(tr.HypothesisFailed):
        tr.cluster_preserving_pi(zoo.char_powers2(), Z, w,
                                 AnalysisParams(horizon=1 << 12))


# --- greedy extraction --------------------------------------------------------

def test_extraction_evens():
    params = AnalysisParams(horizon=1 << 14)
    cert = tr.limit_witness_extraction(zoo.char_evens(), None, (F(1),),
                                       F(1, 4), sm.RunningDensity(), params)
    assert cert.norm_lower_bound() >= F(1, 4)
    prev_max = 0
    for k, members, phi_val, eps in cert.blocks:
        assert members[0] > prev_max
        prev_max = members[-1]
        assert phi_val == sm.RunningDensity().phi_points(members)
        assert all(m % 2 == 0 for m in members)   # the hits really are evens
    # recompute the limiting norm on the union of the blocks: still >= q
    flat = [v for _, mm, _, _ in cert.blocks for v in mm]
    tail_phi = min(phi for _, _, phi, _ in cert.blocks)
    assert tail_phi >= F(1, 4)


def test_extraction_harmonic_tail_segments():
    params = AnalysisParams(horizon=1 << 14, schedule=RadiusSchedule.dyadic(6))
    cert = tr.limit_witness_extraction(zoo.harmonic(), None, (F(0),),
                                       F(1, 2), sm.RunningDensity(), params)
    assert cert.norm_lower_bound() >= F(1, 2)


def test_extraction_mass_unavailable():
    params = AnalysisParams(horizon=1 << 14)
    with pytest.raises(tr.MassUnavailable):
        tr.limit_witness_extraction(zoo.char_powers2(), None, (F(1),),
                                    F(1, 4), sm.RunningDensity(), params)


def test_extraction_replay_refutes_a_bad_certificate(monkeypatch):
    # the replay is a certificate check: it raises, it is not an assert that
    # python -O would strip
    monkeypatch.setattr(tr, "distance", lambda a, b: F(10))
    params = AnalysisParams(horizon=1 << 12)
    with pytest.raises(WitnessRefuted):
        tr.limit_witness_extraction(zoo.char_evens(), None, (F(1),),
                                    F(1, 4), sm.RunningDensity(), params)


def test_no_assert_statements_in_the_library():
    src = Path(tr.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    if found:     # pytest.fail, not assert: this test also runs under -O
        pytest.fail(f"assert statements in the library: {found}")


# --- seeded maps ---------------------------------------------------------------

def test_random_maps_reproducible_and_distinct():
    assert list(tr.random_sigma(7).table) == list(tr.random_sigma(7).table)
    assert list(tr.random_pi(7).table) == list(tr.random_pi(7).table)
    distinct = {tuple(tr.random_sigma(s, length=64).table) for s in range(100)}
    assert len(distinct) == 100
    tbl = tr.random_pi(5, length=64).table
    for base in range(0, 64, 16):
        window = sorted(tbl[base:base + 16])
        assert window == list(range(base + 1, base + 17))


def test_generic_subsequence_over_powers_of_three_passes_its_audit():
    # 3^10 = 59049 once read as a non-member, failing the audit on block 3
    w = build_witness(builtin("density-zero"), F(1, 2))
    res = tr.generic_subsequence(ns.PowersOf(3), w, ns.FULL, 16)
    assert 3 ** 10 in list(res.map.table)
    assert res.blocks and all(b.verified for b in res.blocks)


def test_finite_block_union_source_exhausts():
    # a source over finitely many blocks of a partition runs dry instead of
    # walking the partition for ever
    part = ns.partition_from_tag({"kind": "geometric", "ratio": "2"})
    src = ns.BlockUnion(part, ns.Finite([1, 3, 4, 6]))
    supply = tr._SetSupply(src)
    with pytest.raises(tr.ExhaustedA, match="after 63"):
        supply.draw_many(100, 0)
    w = build_witness(builtin("density-zero"), F(1, 2))
    with pytest.raises(tr.ExhaustedA):
        tr.generic_subsequence(src, w, ns.FULL, 4096)


def test_arith_tail_past_int64_matches_the_per_point_map():
    # values pass 2^62 near position 4096: the array of values switches to
    # Python ints there instead of wrapping in int64
    t = tr.SubsequenceMap([3], tr.TailRule("arith", 1 << 50))
    n = 20000
    want = [t.value(k) for k in range(1, n + 1)]
    assert [int(v) for v in t.values_up_to(n)] == want
    s = ns.Progression(1, 3)
    assert tr.preimage(t, s).prefix(n).tolist() == [s.member(v) for v in want]


@pytest.mark.parametrize("t", [tr.random_pi(4, length=300),
                               tr.PermutationMap(),
                               tr.odd_even_swap()],
                         ids=["table", "empty", "odd-even-swap"])
def test_permutation_values_up_to_equal_the_per_point_map(t):
    # below, at and past the table's length
    for n in {0, 1, 17, max(0, len(t) - 1), len(t), len(t) + 1, 777}:
        got = t.values_up_to(n)
        assert got.dtype == np.int64
        assert got.tolist() == [t.value(k) for k in range(1, n + 1)]


def test_permutation_table_array_is_read_only():
    t = tr.random_pi(2, length=64)
    with pytest.raises(ValueError):
        t.values_up_to(64)[0] = 5
    with pytest.raises(ValueError):
        t.values_up_to(10)[3] = 5
    assert t.values_up_to(64).tolist() == t.table


_SMALL = AnalysisParams(horizon=1 << 10, schedule=RadiusSchedule.dyadic(4),
                        pitch=F(1, 16))


@pytest.mark.parametrize("ideal", ["fin", "Z", "summable", "gdi"])
@pytest.mark.parametrize("seq", ["harmonic", "rationals", "char:evens"])
@pytest.mark.parametrize("kind", ["sigma", "pi"])
def test_reverse_inclusion_equals_the_records_fold(seq, ideal, kind):
    # the builders take the reverse inclusion from the theorem: a candidate
    # with a ball certified finite is no image's cluster point.  The
    # per-candidate records of a random image agree: none of those
    # candidates is CLUSTER there (harmonic has 15, the others none)
    x, handle = zoo.get_sequence(seq), builtin(ideal)
    make = tr.random_sigma if kind == "sigma" else tr.random_pi
    x_new = tr.apply(make(7, length=_SMALL.horizon), x)
    finite = [c.point for c in limit_points_estimate(x, _SMALL).candidates
              if any(r.verdict == NOT_CLUSTER and r.reason == "infiniteness"
                     for r in c.radii)]
    assert len(finite) == (15 if seq == "harmonic" else 0)
    records = gamma_estimate(x_new, handle, _SMALL, candidates=finite)
    assert [c.point for c in records.candidates] == finite
    assert all(c.classification != CLUSTER for c in records.candidates)


@pytest.mark.parametrize("kind", ["sigma", "pi"])
def test_preserving_builders_analyse_only_x(monkeypatch, kind):
    # the reverse inclusion is the theorem's: no image is analysed, and the
    # permutation builder builds none
    x, handle = zoo.harmonic(), builtin("gdi")
    params = AnalysisParams(horizon=1 << 10, schedule=RadiusSchedule.dyadic(4),
                            pitch=F(1, 64))
    w = build_witness(handle, F(1, 4), 1 << 14)
    analysed, applied = [], []
    gamma, apply = tr.gamma_estimate, tr.apply

    def gamma_of(y, *args, **kw):
        analysed.append(y)
        return gamma(y, *args, **kw)

    def apply_to(t, y):
        applied.append(y)
        return apply(t, y)

    monkeypatch.setattr(tr, "gamma_estimate", gamma_of)
    monkeypatch.setattr(tr, "apply", apply_to)
    build = (tr.cluster_preserving_sigma if kind == "sigma"
             else tr.cluster_preserving_pi)
    res = build(x, handle, w, params)
    assert res.gamma_preserved is True
    assert analysed and all(y is x for y in analysed)
    assert all(y is x for y in applied)
    if kind == "pi":
        assert not applied
