"""Maps, preimages, and the constructive builders with their audits."""

import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from idealconv import natset as ns
from idealconv import submeasure as sm
from idealconv import zoo
from idealconv.ideals import builtin
from idealconv.meager import WitnessRefuted, build_witness
from idealconv.sequences import (AnalysisParams, RadiusSchedule,
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


def test_map_values_and_tails():
    s = tr.SubsequenceMap([2, 5, 9], tr.TailRule("arith", 3))
    assert [s.value(n) for n in (1, 2, 3, 4, 5)] == [2, 5, 9, 12, 15]
    assert s.values_up_to(5).tolist() == [2, 5, 9, 12, 15]
    u = tr.SubsequenceMap([4], tr.TailRule("none"), horizon=1)
    with pytest.raises(ns.HorizonExceeded):
        u.value(2)
    p = tr.odd_even_swap()
    assert [p.value(n) for n in (1, 2, 3, 4)] == [2, 1, 4, 3]
    assert p.inverse_value(2) == 1


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
            tr.random_pi(3, window=8, length=200)]
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
    limits = limit_points_estimate(y, params, candidates=cands)
    for report in (gamma, limits):
        assert [c.classification for c in report.candidates] == [
            "undecided"] * 3
        assert all(r.verdict == "undecided"
                   for c in report.candidates for r in c.radii)
    assert gamma.route_counts() == {"horizon-exceeded": 12}


def test_harmonic_under_an_affine_map_keeps_symbolic_balls():
    y = tr.apply(sigma_2n(), zoo.harmonic())
    params = AnalysisParams(horizon=1 << 12, schedule=RadiusSchedule.dyadic(4),
                            pitch=F(1, 16))
    gamma = gamma_estimate(y, builtin("summable"), params)
    # the values 1/(2n) span [0, 1/2]: 9 candidates of 4 radii each
    assert gamma.route_counts() == {"exact-norm": 36}
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
    assert list(tr.random_pi(7, 16).table) == list(tr.random_pi(7, 16).table)
    distinct = {tuple(tr.random_sigma(s, length=64).table) for s in range(100)}
    assert len(distinct) == 100
    tbl = tr.random_pi(5, window=16, length=64).table
    for base in range(0, 64, 16):
        window = sorted(tbl[base:base + 16])
        assert window == list(range(base + 1, base + 17))


def test_random_sigma_gap_laws():
    u = tr.random_sigma(1, gap_law="uniform:5", length=128)
    gaps = np.diff([0] + list(u.table))
    assert gaps.min() >= 1 and gaps.max() <= 5
    with pytest.raises(ValueError):
        tr.random_sigma(1, gap_law="cauchy:1")


def test_map_json_round_trip():
    for m in (tr.SubsequenceMap([2, 5, 9], tr.TailRule("arith", 3), horizon=64),
              tr.random_pi(3, 8, 32), tr.odd_even_swap()):
        back = tr.map_from_json(m.to_json())
        assert [back.value(n) for n in range(1, 20)] \
            == [m.value(n) for n in range(1, 20)]


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
