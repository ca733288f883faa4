"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from idealconv import natset as ns
from idealconv import submeasure as sm
from idealconv import zoo
from idealconv.cli import main as cli_main
from idealconv.games import GameTarget, run_game
from idealconv.ideals import Verdict, builtin
from idealconv.meager import build_witness, fk_holds, verify_witness
from idealconv.sequences import (AnalysisParams, RadiusSchedule,
                                 gamma_estimate, ideal_convergence_check,
                                 lambda_estimate, lambda_q_estimate,
                                 limit_points_estimate)
from idealconv import transforms as tr

F = Fraction

SUITE_PARAMS = AnalysisParams(horizon=1 << 14)
COARSE_PARAMS = AnalysisParams(horizon=1 << 12,
                               schedule=RadiusSchedule.dyadic(4),
                               pitch=F(1, 16))


def alphabet_suite():
    return [zoo.char_evens(), zoo.char_odds(), zoo.char_powers2(),
            zoo.char_blocks(2), zoo.cycle(["0", "1/2", "1"]),
            zoo.cycle(["0", "1"])]


def full_suite():
    return [(x, SUITE_PARAMS) for x in alphabet_suite()] \
        + [(zoo.harmonic(), COARSE_PARAMS)]


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS — {text}")


def test_criterion_1_submeasure_axioms():
    t0 = time.time()
    variants = {
        "running-density": sm.RunningDensity(),
        "counting-cap": sm.CountingCap(),
        "weighted-sum": sm.WeightedSum(cap=F(1), harmonic=True),
        "density-family": sm.DensityFamily(
            partition=ns.partition_from_tag({"kind": "geometric", "ratio": "2"}),
            tail_weight=F(1)),
    }
    rng = random.Random(20240)
    for name, variant in variants.items():
        assert variant.phi_points([]) == 0
        for _ in range(1000):
            a = sorted(set(rng.sample(range(1, 500), rng.randrange(0, 30))))
            b = sorted(set(rng.sample(range(1, 500), rng.randrange(0, 30))))
            pa, pb = variant.phi_points(a), variant.phi_points(b)
            pu = variant.phi_points(sorted(set(a) | set(b)))
            assert pa <= pu and pb <= pu, name        # monotone, exactly
            assert pu <= pa + pb, name                # subadditive, exactly
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(1, f"4 variants x 1000 pairs, exact, {elapsed:.1f}s < 10s")


def test_criterion_2_inclusion_chain():
    handles = [builtin("fin"), builtin("density-zero"), builtin("summable")]
    q_levels = [F(1, 8), F(1, 4), F(1, 2)]
    checked = 0
    for x, params in full_suite():
        limits = set(limit_points_estimate(x, params).points())
        for handle in handles:
            gamma_rep = gamma_estimate(x, handle, params)
            gamma = set(gamma_rep.points())
            lam = set(lambda_estimate(x, handle, params).points())
            assert lam <= gamma <= limits, (x.name, handle.name)
            for q in q_levels:
                lq = set(lambda_q_estimate(x, handle, q, params).points())
                assert lq <= lam, (x.name, handle.name, q)
                checked += 1
            if x.alphabet is not None:
                for cand in gamma_rep.candidates:
                    for rec in cand.radii:
                        assert rec.reason != "tail-trend", \
                            "alphabet member fell to the numeric path"
    report(2, f"{checked} chain checks across 7 sequences x 3 ideals, "
              f"zero violations, exact path on alphabet members")


def test_criterion_3_gamma_under_fin_equals_limits():
    fin = builtin("fin")
    for x, params in full_suite():
        g = set(gamma_estimate(x, fin, params).points())
        l = set(limit_points_estimate(x, params).points())
        assert g == l, x.name
    report(3, "Fin cluster set equals the limit-point set on all 7 members")


def test_criterion_4_witness_validity():
    t0 = time.time()
    Z = builtin("density-zero")
    wz = build_witness(Z, F(1, 2), 1 << 20)
    assert wz.boundary_prefix(5) == [2, 4, 8, 16, 32]
    rep_z = verify_witness(Z, wz, trials=100, horizon=1 << 20, seed=41)
    assert all(s.verdict is Verdict.NOT_IN for s in rep_z.samples)
    assert rep_z.min_estimate >= F(45, 100)

    fxf = builtin("fin-x-fin")
    wx = build_witness(fxf, F(1, 2), 10 ** 5)
    assert wx.boundary_prefix(4) == [1, 5, 13, 29]
    rep_x = verify_witness(fxf, wx, trials=100, horizon=10 ** 5, seed=42)
    assert all(s.verdict is Verdict.NOT_IN for s in rep_x.samples)
    # every sampled set hits every valuation row r <= 10 inside the horizon
    assert all(s.estimate == 1 for s in rep_x.samples)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(4, f"100 block-union samples per ideal, all NotIn, density >= 0.45,"
              f" rows 0..10 covered, {elapsed:.1f}s < 30s")


def test_criterion_5_f_sigma_separation():
    rng = random.Random(99)
    cases = {
        "fin": (build_witness(builtin("fin"), F(1, 2), 10 ** 4), 10 ** 4),
        "density-zero": (build_witness(builtin("density-zero"), F(1, 2), 1 << 16),
                         1 << 16),
        "summable": (build_witness(builtin("summable"), F(1, 2), 10 ** 4),
                     10 ** 4),
        "gdi": (build_witness(builtin("gdi"), F(1, 2), 1 << 16), 1 << 16),
        "fin-x-fin": (build_witness(builtin("fin-x-fin"), F(1, 2), 10 ** 5),
                      10 ** 5),
    }

    def members_of(name):
        if name == "fin":
            return ns.Finite(sorted(rng.sample(range(1, 19),
                                               rng.randrange(1, 8))))
        pick = rng.randrange(4)
        if pick == 0:
            return ns.Finite(sorted(rng.sample(range(1, 4000),
                                               rng.randrange(1, 10))))
        if pick == 1:
            return ns.PowersOf(rng.choice([2, 3]))
        if pick == 2:
            return ns.Union((ns.PowersOf(2),
                             ns.Finite(sorted(rng.sample(range(1, 4000), 4)))))
        if name == "fin-x-fin":
            return ns.Progression(rng.choice([1, 2]) * 2 - 1, 2)   # odd rows
        return ns.PowersOf(5)

    for name, (w, horizon) in cases.items():
        for _ in range(100):
            s = members_of(name)
            assert any(fk_holds(w, s, k, horizon) is True
                       for k in range(1, 21)), (name, s.to_json())
        for _ in range(20):
            cof = ns.Cofinite(sorted(rng.sample(range(1, 200),
                                                rng.randrange(0, 6))))
            assert all(fk_holds(w, cof, k, horizon) is False
                       for k in range(1, 21)), name
    report(5, "100 members per ideal pass a cutoff <= 20; "
              "cofinite sets fail all 20")


def test_criterion_6_generic_subsequence_exact_audit():
    Z = builtin("density-zero")
    w = build_witness(Z, F(1, 2), 1 << 16)
    res = tr.generic_subsequence(ns.PowersOf(2), w, ns.FULL, 1 << 16)
    blocks = list(w.blocks_within(1 << 16))
    assert [f.block for f in res.blocks] == [n for n, _, _ in blocks]
    assert all(f.verified for f in res.blocks)
    # independent recheck on every covered block: 2^16 - 2 positions total
    sigma = res.map
    for n, lo, hi in blocks:
        for p in range(lo, hi):
            v = sigma.value(p)
            assert v >= 2 and (v & (v - 1)) == 0
    report(6, f"{len(blocks)} dyadic blocks covered by the powers-of-two "
              f"source at horizon 2^16, zero audit failures")


def test_criterion_7_preservation_both_directions():
    Z = builtin("density-zero")
    # positive: the even-indicator, selector and rearrangement versions
    w_e = build_witness(Z, F(1, 4), 1 << 20)
    p_e_sigma = AnalysisParams(horizon=1 << 14)
    res = tr.cluster_preserving_sigma(zoo.char_evens(), Z, w_e, p_e_sigma)
    assert res.gamma_preserved and all(t.verdict == "not-in" for t in res.targets)
    p_e_pi = AnalysisParams(horizon=1 << 14, schedule=RadiusSchedule.dyadic(6),
                            pitch=F(1, 64))
    res_pi = tr.cluster_preserving_pi(zoo.char_evens(), Z, w_e, p_e_pi)
    assert res_pi.gamma_preserved

    # positive: the rational enumeration at pitch 2^-6
    p_r_sigma = AnalysisParams(horizon=1 << 14, schedule=RadiusSchedule.dyadic(6),
                               pitch=F(1, 64))
    w_r = build_witness(Z, F(1, 64), 1 << 14)
    res_r = tr.cluster_preserving_sigma(zoo.rationals(), Z, w_r, p_r_sigma)
    assert res_r.gamma_preserved
    assert all(t.verdict == "not-in" for t in res_r.targets)
    p_r_pi = AnalysisParams(horizon=1 << 16, schedule=RadiusSchedule.dyadic(4),
                            pitch=F(1, 64))
    w_r_pi = build_witness(Z, F(1, 256), 1 << 16)
    res_r_pi = tr.cluster_preserving_pi(zoo.rationals(), Z, w_r_pi, p_r_pi)
    assert res_r_pi.gamma_preserved

    # negative: the powers indicator gains the missing cluster point...
    w2 = build_witness(Z, F(1, 2), 1 << 16)
    add = tr.cluster_adding_sigma(zoo.char_powers2(), (F(1),), Z, w2,
                                  AnalysisParams(horizon=1 << 12))
    pre = tr.preimage(add.map, ns.PowersOf(2))
    counts = np.cumsum(pre.prefix(1 << 12))
    peak = max(F(int(counts[(1 << k) - 2]), (1 << k) - 1) for k in range(2, 13))
    assert peak >= F(1, 4)
    assert all(t.verdict == "not-in" for t in add.targets)
    # ... and the preserving builder refuses the hypothesis
    with pytest.raises(tr.HypothesisFailed):
        tr.cluster_preserving_sigma(zoo.char_powers2(), Z, w2,
                                    AnalysisParams(horizon=1 << 14))
    report(7, f"preservation audited for evens and rationals (sigma and pi); "
              f"adding-builder drove density {peak} >= 1/4; hypothesis check "
              f"refused the powers sequence")


def test_criterion_8_greedy_extraction():
    params = AnalysisParams(horizon=1 << 14)
    cert = tr.limit_witness_extraction(zoo.char_evens(), None, (F(1),),
                                       F(1, 4), sm.RunningDensity(), params)
    prev_max = 0
    for k, members, phi_val, eps in cert.blocks:
        assert phi_val >= F(1, 4)
        assert phi_val == sm.RunningDensity().phi_points(members)  # exact
        assert members[0] > prev_max
        prev_max = members[-1]
        for m in members:
            assert abs(zoo.char_evens().point(m)[0] - 1) < eps
    assert cert.norm_lower_bound() >= F(1, 4)
    report(8, f"{len(cert.blocks)} greedy blocks, each of exact mass >= 1/4, "
              f"separated and inside their radii; recomputed norm bound "
              f"{cert.norm_lower_bound()} >= 1/4")


def test_criterion_9_convergence_cross_check():
    Z = builtin("density-zero")
    fin = builtin("fin")
    params = AnalysisParams(horizon=1 << 14)
    c = ideal_convergence_check(zoo.char_powers2(), Z, (F(0),), params)
    assert c.verdict == "converges" and c.primary == c.cross == "converges"
    # the sequence is not convergent in the ordinary sense
    c_fin = ideal_convergence_check(zoo.char_powers2(), fin, (F(0),), params)
    assert c_fin.verdict == "diverges"
    # and a constructed selector certifies the non-preservation concretely
    w = build_witness(Z, F(1, 2), 1 << 16)
    add = tr.cluster_adding_sigma(zoo.char_powers2(), (F(1),), Z, w,
                                  AnalysisParams(horizon=1 << 12))
    assert all(t.verdict == "not-in" for t in add.targets)
    gamma_x = set(gamma_estimate(zoo.char_powers2(), Z, params).points())
    assert gamma_x == {(F(0),)}        # 1 joined the reindexed cluster set
    for handle in (fin, Z):
        ch = ideal_convergence_check(zoo.harmonic(), handle, (F(0),), params)
        assert ch.verdict == "converges", handle.name
    report(9, "both convergence routes agree; reindexing certified the "
              "contrast with ordinary convergence")


def test_criterion_10_game_harness():
    t0 = time.time()
    Z = builtin("density-zero")
    sched = RadiusSchedule.dyadic(10)
    wins = 0
    for seed in range(50):
        for ell in (F(0), F(1)):
            t = run_game(zoo.char_evens(), Z, GameTarget((ell,), F(1, 4), sched),
                         rounds=20, horizon=10 ** 5, seed=seed)
            wins += t.verdict == "win"
    assert wins == 100
    losses = 0
    for seed in range(100):
        t = run_game(zoo.char_powers2(), Z,
                     GameTarget((F(1),), F(1, 4), sched),
                     rounds=20, horizon=10 ** 5, seed=seed)
        losses += (t.verdict == "loss" and "SupplyExhausted" in t.reason)
    assert losses == 100
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(10, f"100/100 wins and 100/100 principled losses, "
               f"{elapsed:.1f}s < 60s")


def test_criterion_11_cli_reproducibility(tmp_path):
    out = tmp_path / "out"
    runs = [
        ["analyze", "--seq", "char:powers2", "--ideal", "density-zero",
         "--horizon", "8192"],
        ["witness", "build", "--ideal", "density-zero", "--q", "1/2",
         "--horizon", "1048576"],
        ["witness", "verify", "--ideal", "density-zero", "--q", "1/2",
         "--trials", "10", "--horizon", "65536", "--seed", "3"],
        ["preserve", "sigma", "--seq", "char:evens", "--ideal", "density-zero",
         "--q", "1/4", "--horizon", "16384", "--radii", "6", "--pitch", "1/64"],
        ["preserve", "pi", "--seq", "char:evens", "--ideal", "density-zero",
         "--q", "1/4", "--horizon", "16384", "--radii", "6", "--pitch", "1/64"],
        ["game", "run", "--seq", "char:evens", "--ideal", "density-zero",
         "--ell", "1", "--q", "1/4", "--rounds", "20", "--seed", "7",
         "--horizon", "100000"],
        ["sample", "--seq", "char:evens", "--ideal", "density-zero",
         "--maps", "5", "--length", "512", "--horizon", "4096",
         "--radii", "6", "--seed", "2"],
        ["ideals", "list"],
    ]
    for args in runs:
        target = str(out) + "-".join(args[:2])
        full = args + ["--out", target]
        assert cli_main(full) == 0, args
        primary = {}
        for suffix in (".json", ".csv"):
            p = Path(target + suffix)
            if p.exists():
                primary[suffix] = p.read_bytes()
        assert cli_main(full) == 0, args
        for suffix, data in primary.items():
            assert Path(target + suffix).read_bytes() == data, (args, suffix)
    report(11, f"{len(runs)} commands rerun byte-identically")
