"""Set algebra against an independent reference evaluator.

The oracle builds plain Python sets over [1, N] from the same recipe and
compares membership pointwise, so the symbolic prefix/count machinery is
never trusted to check itself.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from idealconv import natset as ns
from idealconv import zoo
from idealconv.ideals import (Verdict, builtin, decide_membership, nu2,
                              valuation_rows)
from idealconv.sequences import indicator_set

N_REF = 512
SRC = Path(ns.__file__).resolve().parents[1]     # the tree under test


# --- reference evaluation ---------------------------------------------------

def ref_set(spec, N=N_REF):
    kind = spec[0]
    if kind == "finite":
        return {m for m in spec[1] if m <= N}
    if kind == "cofinite":
        return set(range(1, N + 1)) - set(spec[1])
    if kind == "progression":
        a, d = spec[1], spec[2]
        return set(range(a, N + 1, d))
    if kind == "powers":
        b = spec[1]
        out, v = set(), b
        while v <= N:
            out.add(v)
            v *= b
        return out
    if kind == "union":
        return set().union(*(ref_set(p, N) for p in spec[1]))
    if kind == "intersection":
        parts = [ref_set(p, N) for p in spec[1]]
        return set.intersection(*parts)
    if kind == "complement":
        return set(range(1, N + 1)) - ref_set(spec[1], N)
    raise ValueError(kind)


def build(spec):
    kind = spec[0]
    if kind == "finite":
        return ns.Finite(spec[1])
    if kind == "cofinite":
        return ns.Cofinite(spec[1])
    if kind == "progression":
        return ns.Progression(spec[1], spec[2])
    if kind == "powers":
        return ns.PowersOf(spec[1])
    if kind == "union":
        return ns.Union(tuple(build(p) for p in spec[1]))
    if kind == "intersection":
        return ns.Intersection(tuple(build(p) for p in spec[1]))
    if kind == "complement":
        return ns.Complement(build(spec[1]))
    raise ValueError(kind)


periodic_leaf_specs = st.one_of(
    st.tuples(st.just("finite"),
              st.lists(st.integers(1, N_REF), max_size=8)),
    st.tuples(st.just("cofinite"),
              st.lists(st.integers(1, N_REF), max_size=8)),
    st.tuples(st.just("progression"), st.integers(1, 30), st.integers(1, 12)),
)

leaf_specs = st.one_of(
    periodic_leaf_specs,
    st.tuples(st.just("powers"), st.integers(2, 7)),
)


def trees(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(st.just("union"),
                      st.lists(inner, min_size=1, max_size=3)),
            st.tuples(st.just("intersection"),
                      st.lists(inner, min_size=1, max_size=3)),
            st.tuples(st.just("complement"), inner),
        ),
        max_leaves=6)


set_specs = trees(leaf_specs)
# the set_specs trees without powers leaves: every one has a periodic form
periodic_specs = trees(periodic_leaf_specs)


# --- contract examples ------------------------------------------------------

def test_member_examples():
    assert ns.Progression(2, 2).member(10) is True
    assert ns.PowersOf(2).member(12) is False
    assert ns.Complement(ns.Progression(1, 1)).member(5) is False


@pytest.mark.parametrize("base", range(2, 11))
def test_powers_membership_is_exact(base):
    p = ns.PowersOf(base)
    for k in range(1, 41):
        v = base ** k
        assert p.member(v) is True, (base, k)
        assert p.member(v + 1) is False, (base, k)
        assert p.member(v - 1) is False, (base, k)
    assert p.member(1) is False


def test_prefix_examples():
    assert ns.Progression(1, 2).prefix(5).tolist() == [1, 0, 1, 0, 1]
    assert ns.Finite({2, 4}).prefix(4).tolist() == [0, 1, 0, 1]
    assert ns.Union((ns.Finite({1}), ns.Progression(2, 2))).prefix(4).tolist() \
        == [1, 1, 0, 1]


def test_count_examples():
    assert ns.Progression(2, 2).count_up_to(100) == 50
    # oracle: enumerate 2^k <= 1000 by hand
    oracle = sum(1 for k in range(1, 20) if 2 ** k <= 1000)
    assert oracle == 9
    assert ns.PowersOf(2).count_up_to(1000) == oracle
    assert ns.Cofinite({1, 2, 3}).count_up_to(10) == 7


@given(set_specs)
def test_prefix_matches_reference(spec):
    s = build(spec)
    ref = ref_set(spec)
    bits = s.prefix(N_REF)
    got = {i + 1 for i in np.flatnonzero(bits)}
    assert got == ref


@given(set_specs)
def test_member_matches_reference(spec):
    s = build(spec)
    ref = ref_set(spec)
    for n in (1, 2, 3, 17, 100, 255, N_REF):
        assert s.member(n) == (n in ref)


@given(set_specs, st.integers(1, N_REF))
def test_count_equals_prefix_popcount(spec, N):
    s = build(spec)
    assert s.count_up_to(N) == int(s.prefix(N).sum())


@given(set_specs, set_specs)
def test_de_morgan(a_spec, b_spec):
    a, b = build(a_spec), build(b_spec)
    lhs = ns.Complement(ns.Union((a, b))).prefix(N_REF)
    rhs = ns.Intersection((ns.Complement(a), ns.Complement(b))).prefix(N_REF)
    assert np.array_equal(lhs, rhs)


@given(set_specs)
def test_complement_involution(spec):
    s = build(spec)
    assert np.array_equal(ns.Complement(ns.Complement(s)).prefix(N_REF),
                          s.prefix(N_REF))


def ref_member(spec, n):
    """Membership of any n >= 1 in the recipe's set, read pointwise."""
    kind = spec[0]
    if kind == "finite":
        return n in spec[1]
    if kind == "cofinite":
        return n not in spec[1]
    if kind == "progression":
        return n >= spec[1] and (n - spec[1]) % spec[2] == 0
    if kind == "powers":
        v = spec[1]
        while v < n:
            v *= spec[1]
        return v == n
    if kind == "union":
        return any(ref_member(p, n) for p in spec[1])
    if kind == "intersection":
        return all(ref_member(p, n) for p in spec[1])
    return not ref_member(spec[1], n)


def ref_leaves(spec):
    if spec[0] in ("union", "intersection"):
        for p in spec[1]:
            yield from ref_leaves(p)
    elif spec[0] == "complement":
        yield from ref_leaves(spec[1])
    else:
        yield spec


FAR = 1 << 40       # no power of 2, ..., 7 lies in (FAR, FAR + 55440]


def ref_has_far_members(spec):
    """Whether the recipe's set is infinite, from members far out.

    Past N_REF every finite leaf is behind, so a non-power's membership
    repeats with the lcm L of the progression steps (at most 27720), and
    the window (FAR, FAR + 2L] holds every residue mod L, twice, with no
    power in it.  A power b^j's membership repeats in j with a period
    dividing 60: every cycle of b^j modulo a step of at most 12 divides 60
    and is entered before j = 64, and 4^j is 2^(2j).  So the set is
    infinite exactly when a member lies in that window or is some b^j with
    j in [64, 124).
    """
    leaves = list(ref_leaves(spec))
    period = math.lcm(*(leaf[2] for leaf in leaves if leaf[0] == "progression"))
    bases = {leaf[1] for leaf in leaves if leaf[0] == "powers"}
    return (any(ref_member(spec, n) for n in range(FAR + 1, FAR + 2 * period + 1))
            or any(ref_member(spec, b ** j) for b in bases
                   for j in range(64, 124)))


@given(set_specs)
@example(("intersection", [("progression", 1, 11), ("powers", 6)]))
@example(("intersection", [("progression", 2, 4), ("powers", 2)]))
def test_infinite_certificates_are_sound(spec):
    # a certificate is checked against members far out, where an infinite
    # set always has some: the first member of Progression(1, 11) ∩
    # PowersOf(6) is 6^10, past any window read from 1, and the one member
    # of Progression(2, 4) ∩ PowersOf(2), 2, comes before 2^j mod 4 cycles
    s = build(spec)
    ref_small = ref_set(spec, 4096)
    inf = s.is_infinite()
    if inf is False:
        assert ref_small == ref_set(spec, 2048), "finite set kept growing"
    if inf is not None:
        assert ref_has_far_members(spec) is inf
    cof = s.is_cofinite()
    if cof is True:
        missing = 4096 - len(ref_small)
        assert missing == 2048 - len(ref_set(spec, 2048)), \
            "cofinite set kept missing new elements"


# --- bitmap and tri-state behavior ------------------------------------------

def test_bitmap_unknown_above_horizon():
    bm = ns.PrefixBitmap([1, 0, 1, 1])
    assert bm.member(3) is True
    assert bm.member(5) is None
    with pytest.raises(ns.HorizonExceeded):
        bm.prefix(10)


@pytest.mark.parametrize("density", [Fraction(0), Fraction(1), Fraction(3, 2),
                                     Fraction(-1, 2), Fraction(7, 7)])
def test_tested_set_refuses_a_density_outside_the_open_unit_interval(density):
    with pytest.raises(ValueError, match="must lie in"):
        ns.Tested(lambda n: np.zeros(n, bool), lambda n: False, density=density)
    assert ns.Tested(lambda n: np.zeros(n, bool), lambda n: False,
                     density=Fraction(1, 3)).is_infinite() is True


def test_union_with_short_bitmap_raises_on_prefix():
    s = ns.Union((ns.PrefixBitmap([1, 0]), ns.Progression(1, 2)))
    assert s.member(5) is True        # odd, decided by the progression
    assert s.member(4) is None        # bitmap silent, progression says no
    with pytest.raises(ns.HorizonExceeded):
        s.prefix(8)


def test_depth_cap():
    s = ns.Finite([1])
    for _ in range(32):
        s = ns.Complement(s)
    assert s.depth == 32
    with pytest.raises(ValueError):
        ns.Complement(s)


# --- block unions -----------------------------------------------------------

def pow2_partition():
    return ns.partition_from_tag({"kind": "pow2"})


def test_block_union_all_covers_blocks():
    part = pow2_partition()
    bu = ns.BlockUnion(part, ns.FULL)
    bits = bu.prefix(64)
    for n in range(1, 6):
        lo, hi = part.block(n)
        if hi - 1 <= 64:
            assert bits[lo - 1:hi - 1].all()
    assert not bits[0]                 # below the first boundary


def test_block_union_every_kth():
    part = pow2_partition()
    bu = ns.BlockUnion(part, ns.Progression(2, 2))
    # selected blocks are 2, 4, ...: [4,8) and [16,32)
    ref = set(range(4, 8)) | set(range(16, 32)) | set(range(64, 128))
    bits = bu.prefix(128)
    assert {i + 1 for i in np.flatnonzero(bits)} == ref


def test_block_union_index_set_tristate():
    part = pow2_partition()
    bu = ns.BlockUnion(part, ns.PrefixBitmap([1, 0, 1]))
    assert bu.member(2) is True        # block 1 selected
    assert bu.member(70) is None       # block 6: selector bitmap too short
    assert bu.is_infinite() is None


def test_block_union_infinite_selector_flags():
    part = pow2_partition()
    assert ns.BlockUnion(part, ns.FULL).is_infinite() is True
    assert ns.BlockUnion(part, ns.Progression(3, 3)).is_infinite() is True
    fin_sel = ns.Finite([2, 5])
    assert ns.BlockUnion(part, fin_sel).is_infinite() is False


def _selectors():
    """The three styles of witness-verify selectors (meager's
    _random_infinite_selector), finite selectors and their complements."""
    step = st.sampled_from([1, 2, 3, 5])
    picks = st.lists(st.integers(1, 256), max_size=4).map(sorted)
    return st.one_of(
        step.map(lambda k: ns.Progression(k, k)),
        st.builds(lambda k, adds: ns.Union((ns.Progression(k, k),
                                            ns.Finite(adds))),
                  step, picks),
        st.builds(lambda k, out: ns.Intersection(
            (ns.Progression(k, k), ns.Complement(ns.Finite(out)))),
            step, picks),
        picks.map(ns.Finite),
        picks.map(lambda out: ns.Complement(ns.Finite(out))))


@given(_selectors(), st.integers(1, 1 << 12))
def test_singleton_block_union_is_its_selector(sel, horizon):
    # block n of the singleton partition is {n}: the prefix is the
    # selector's, built without boundaries, and agrees with the boundary
    # walk over the same blocks listed explicitly
    part = ns.partition_from_tag({"kind": "singletons"})
    bits = ns.BlockUnion(part, sel).prefix(horizon)
    assert np.array_equal(bits, sel.prefix(horizon))
    assert bits.tolist() == [sel.member(n) for n in range(1, horizon + 1)]
    assert len(part._iota) == 1
    listed = ns.BlockPartition(prefix=range(1, horizon + 3))
    assert np.array_equal(bits, ns.BlockUnion(listed, sel).prefix(horizon))


def test_counting_closed_forms_at_large_horizon():
    H = 1 << 32
    assert ns.Progression(2, 2).count_up_to(H) == H // 2
    assert ns.Progression(5, 7).count_up_to(H) == (H - 5) // 7 + 1
    assert ns.PowersOf(2).count_up_to(H) == 32
    assert ns.Cofinite([10, 20]).count_up_to(H) == H - 2
    assert ns.Finite([1, H - 1]).count_up_to(H) == 2
    part = pow2_partition()
    bu = ns.BlockUnion(part, ns.Progression(2, 2))
    # full selected blocks below 2^32 plus the single point starting block 32
    want = sum(2 ** n for n in range(2, 32, 2)) + 1
    assert bu.count_up_to(H) == want
    assert ns.BlockUnion(part, ns.FULL).member(H - 7) is True


def test_partition_rejects_bad_boundaries():
    with pytest.raises(ValueError):
        ns.BlockPartition(prefix=[4, 4, 8])
    with pytest.raises(ValueError):
        ns.BlockPartition(prefix=[2])


def test_partition_prefix_only_horizon():
    part = ns.BlockPartition(prefix=[1, 3, 9])
    assert part.block(2) == (3, 9)
    with pytest.raises(ns.HorizonExceeded):
        part.block(3)


# --- serialization ----------------------------------------------------------

ROUND_TRIP_CASES = [
    ns.Finite([3, 7, 9]),
    ns.Cofinite([1, 2]),
    ns.Progression(2, 5),
    ns.PowersOf(3),
    ns.PrefixBitmap([1, 0, 0, 1, 1]),
    ns.Union((ns.Progression(1, 2), ns.Finite([4]))),
    ns.Intersection((ns.Cofinite([9]), ns.Progression(3, 3))),
    ns.Complement(ns.PowersOf(2)),
    ns.BlockUnion(pow2_partition(), ns.Progression(2, 2)),
    ns.BlockUnion(pow2_partition(), ns.Progression(1, 3)),
]


@pytest.mark.parametrize("s", ROUND_TRIP_CASES, ids=lambda s: type(s).__name__)
def test_json_round_trip(s):
    back = ns.loads(s.dumps())
    horizon = s.horizon if isinstance(s, ns.PrefixBitmap) else 200
    assert np.array_equal(back.prefix(horizon), s.prefix(horizon))
    assert back.dumps() == s.dumps()


def test_json_is_stable_text():
    s = ns.Union((ns.Progression(2, 2), ns.Finite([1])))
    assert json.loads(s.dumps()) == s.to_json()


# Block-union selectors in the three forms the library has written.  A
# selector is a set of block indices; each pin is the sha256 of the packed
# prefix(1000) bits these bodies gave when each form had its own class.
GEOMETRIC_3_2 = {"generator": {"kind": "geometric", "ratio": "3/2"},
                 "lengths_unbounded": True}
INDEX_UNION = ns.Union((ns.Progression(2, 5), ns.Finite([1, 3])))
SELECTOR_FORMS = {
    "all": ({"kind": "all"}, ns.FULL,
            "760dc37e235bb6a777fc7f5bdd749aa3aa7bcc7592fab9fb51635a8fe6808aa3"),
    "every-kth": ({"kind": "every-kth", "k": 3}, ns.Progression(3, 3),
                  "b70e2a82d9957e4e549bddef6075841e81886e74e548a0e16691c1fb9eecffa2"),
    "index-set": ({"kind": "index-set", "set": INDEX_UNION.to_json()},
                  INDEX_UNION,
                  "66cb631b65c42a32ce17a4f6c45465963eb4157c362e19c86c34556bed4665ac"),
}


@pytest.mark.parametrize("form", sorted(SELECTOR_FORMS))
def test_block_union_selector_forms_load_as_index_sets(form):
    body, want, pin = SELECTOR_FORMS[form]
    bu = ns.from_json({"kind": "block-union", "partition": GEOMETRIC_3_2,
                       "selector": body})
    assert bu.selector == want
    bits = np.packbits(bu.prefix(1000)).tobytes().hex()
    assert hashlib.sha256(bits.encode()).hexdigest() == pin
    # only the index-set form is written, and it reads back the same set
    out = bu.to_json()
    assert out["selector"] == {"kind": "index-set", "set": want.to_json()}
    back = ns.loads(bu.dumps())
    assert back.selector == want and back.dumps() == bu.dumps()


def test_unknown_block_union_selector_is_refused():
    body = {"kind": "block-union", "partition": GEOMETRIC_3_2,
            "selector": {"kind": "every-other"}}
    with pytest.raises(ValueError, match="every-other"):
        ns.from_json(body)


@pytest.mark.parametrize("ratio", ["1", "5/4", "3/2", "2", "7/3"])
def test_geometric_boundaries_follow_their_recurrence(ratio):
    # iota(1) = 1, iota(n + 1) = max(iota(n) + 1, floor(iota(n) r)), each
    # boundary from the last one rather than from 1
    part = ns.partition_from_tag({"kind": "geometric", "ratio": ratio})
    r, v, want = Fraction(ratio), 1, []
    for _ in range(400):
        want.append(v)
        v = max(v + 1, int(v * r))
    assert [part.iota(n) for n in range(1, 401)] == want
    assert part.iota(3000) > part.iota(2999)


# --- members of a block union over finitely many blocks ----------------------

def test_iter_members_ends_after_a_finite_selector():
    part = ns.partition_from_tag({"kind": "geometric", "ratio": "2"})
    bu = ns.BlockUnion(part, ns.Finite([1, 3, 4, 6]))
    # blocks 3 = [4, 8), 4 = [8, 16), 6 = [32, 64); members from 10 on
    got = list(islice(ns.iter_members(bu, 10), 40))
    assert got == list(range(10, 16)) + list(range(32, 64))
    empty = ns.BlockUnion(part, ns.Finite([]))
    assert list(ns.iter_members(empty)) == []
    # a bound read off an intersection with a finite part ends the walk too
    capped = ns.BlockUnion(
        part, ns.Intersection((ns.Progression(2, 2), ns.Finite([2, 5]))))
    assert list(ns.iter_members(capped)) == [2, 3]


# --- the bounded prefix scan of every other set ---------------------------------

def walk_until_raise(s, start=1):
    """Every member the walk yields, then the HorizonExceeded it must end in."""
    got = []
    with pytest.raises(ns.HorizonExceeded):
        for v in ns.iter_members(s, start):
            got.append(v)
    return got


@pytest.mark.parametrize("horizon", [5, 4095, 4096, 4097, 8193, 20000])
@pytest.mark.parametrize("start", [1, 3, 4096, 9000])
def test_bitmap_walk_yields_to_its_horizon_then_raises(horizon, start):
    bits = np.random.default_rng(horizon).random(horizon) < 0.3
    want = [n for n in range(start, horizon + 1) if bits[n - 1]]
    assert walk_until_raise(ns.PrefixBitmap(bits), start) == want
    # a mixed tree over the bitmap walks the same windows
    mixed = ns.Union((ns.PrefixBitmap(bits), ns.PowersOf(3)))
    want = sorted(set(want) | {3 ** k for k in range(1, 10)
                               if start <= 3 ** k <= horizon})
    assert walk_until_raise(mixed, start) == want
    # where member() knows every index of an undecided window, the walk
    # goes on past it
    covered = ns.Union((ns.PrefixBitmap(bits), ns.Cofinite([2])))
    assert list(islice(ns.iter_members(covered, start), 9000)) == \
        [n for n in range(start, start + 9001) if n != 2][:9000]


def test_member_walk_of_a_set_with_no_closed_form_ends():
    # powers of 2 that are odd and >= 3: empty, but no periodic form says so;
    # the scan stops at SCAN_LIMIT (a member() loop ran for ever)
    code = textwrap.dedent("""
        from idealconv import natset as ns
        s = ns.Intersection((ns.PowersOf(2), ns.Progression(3, 2)))
        try:
            next(ns.iter_members(s))
        except ns.HorizonExceeded as exc:
            print(exc)
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert str(ns.SCAN_LIMIT) in proc.stdout


# --- the periodic normal form against the reference --------------------------

def periodic_case(spec):
    """The built set, its form, and the window [last start, + period)."""
    s = build(spec)
    form = ns.periodic_form(s)
    assert form is not None
    lo = form.starts[-1]
    return s, form, lo, lo + form.period


@given(periodic_specs)
def test_periodic_form_membership_matches_reference(spec):
    s, form, lo, hi = periodic_case(spec)
    # the normal form: no empty segment, and neighbours differ
    assert form.starts[0] == 1
    assert all(a < b for a, b in zip(form.starts, form.starts[1:]))
    assert all(a != b for a, b in zip(form.masks, form.masks[1:]))
    ref = ref_set(spec, max(N_REF, hi))
    for n in list(range(1, N_REF + 1)) + list(range(lo, hi)):
        assert form.member(n) == (n in ref), n


@given(periodic_specs, st.lists(st.integers(1, 1 << 70), min_size=1,
                                max_size=20))
def test_prefix_gather_at_far_values_matches_the_periodic_form(spec, values):
    s = build(spec)
    form = ns.periodic_form(s)
    got = ns.prefix_gather(s, np.array(values, dtype=object))
    assert got.tolist() == [form.member(v) for v in values]


@given(periodic_specs)
def test_exact_density_counts_one_period_past_the_last_start(spec):
    s, form, lo, hi = periodic_case(spec)
    window = {n for n in ref_set(spec, hi - 1) if n >= lo}
    assert ns.exact_density(s) == Fraction(len(window), form.period)


@given(periodic_specs)
def test_infinite_and_cofinite_agree_with_the_tail_mask(spec):
    # a periodic form always answers: neither is ever None
    s, form, lo, hi = periodic_case(spec)
    tail = form.masks[-1]
    assert s.is_infinite() is (tail != 0)
    assert s.is_cofinite() is (tail == (1 << form.period) - 1)


def test_is_cofinite_reads_the_periodic_tail():
    # no part is cofinite, but together they cover every residue mod 2
    halves = ns.Union((ns.Progression(1, 2), ns.Progression(2, 2)))
    assert halves.is_cofinite() is True
    assert ns.Complement(halves).is_cofinite() is False
    assert ns.Intersection((halves, ns.Cofinite([4]))).is_cofinite() is True
    # the evens without 2: infinite and coinfinite
    odds_and_two = ns.Union((ns.Progression(1, 2), ns.Finite([2])))
    assert ns.Complement(odds_and_two).is_cofinite() is False


@given(periodic_specs)
def test_iter_members_walks_the_periodic_form(spec):
    s, form, lo, hi = periodic_case(spec)
    got = list(islice(ns.iter_members(s), 64))
    # a walk that stops short of 64 members has passed the last start
    top = got[-1] if len(got) == 64 else max(N_REF, hi)
    assert got == sorted(ref_set(spec, top))[:64]


@given(periodic_specs)
def test_finxfin_verdict_follows_each_tail_residue_class(spec):
    # the residue class of n past the last start is Progression(n, period),
    # in Fin x Fin iff nu2(n) < nu2(period)
    s, form, lo, hi = periodic_case(spec)
    window = [n for n in ref_set(spec, hi - 1) if n >= lo]
    want = all(nu2(n) < nu2(form.period) for n in window)
    got = decide_membership(builtin("fin-x-fin"), s).verdict
    assert got is (Verdict.IN if want else Verdict.NOT_IN)


@given(set_specs)
def test_valuation_rows_count_members_by_nu2(spec):
    want: dict[int, int] = {}
    for n in ref_set(spec):
        want[nu2(n)] = want.get(nu2(n), 0) + 1
    assert valuation_rows(build(spec), N_REF) == want


def test_periodic_form_size_cap():
    # a progression's form holds one bit, whatever its first and step
    far = ns.Progression(5, 1 << 40)
    assert ns.exact_density(far) == Fraction(1, 1 << 40)
    assert list(islice(ns.iter_members(far), 3)) == [5 + k * (1 << 40)
                                                     for k in range(3)]
    fxf = builtin("fin-x-fin")
    assert decide_membership(fxf, far).verdict is Verdict.IN
    late = ns.Progression((1 << 40) - 1, 1 << 40)
    assert ns.exact_density(late) == Fraction(1, 1 << 40)
    assert decide_membership(fxf, late).verdict is Verdict.IN
    # complements and combinations would build masks of segments x period
    # bits, past PERIODIC_BITS here: they get no form, and no density
    assert ns.periodic_form(ns.Complement(far)) is None
    both = ns.Union((ns.Progression(1, (1 << 21) + 1),
                     ns.Progression(1, (1 << 21) + 3)))
    assert ns.periodic_form(both) is None and ns.exact_density(both) is None
    assert both.is_infinite() is True


# --- infiniteness of trees with powers leaves ---------------------------------

@pytest.mark.parametrize("b", [2, 3, 5])
@pytest.mark.parametrize("k", range(1, 13))
def test_powers_in_a_progression_are_infinite_iff_a_power_recurs(k, b):
    # b^j mod k repeats with a cycle of at most k steps, entered long
    # before j = 64, so the window [64, 64 + k] holds every recurring residue
    for r in range(1, k + 1):
        s = ns.Intersection((ns.Progression(r, k), ns.PowersOf(b)))
        want = any(pow(b, j, k) == r % k for j in range(64, 65 + k))
        assert s.is_infinite() is want, (r, k, b)


STEPS = [1, 2, 3, 4, 5, 6, 8, 12]     # any lcm of them divides 120


def _powers_tree(draw, b, depth):
    if depth == 0 or draw(st.booleans()):
        kind = draw(st.sampled_from(["progression", "powers", "finite",
                                     "cofinite"]))
        if kind == "progression":
            k = draw(st.sampled_from(STEPS))
            return ns.Progression(draw(st.integers(1, k)), k)
        if kind == "powers":
            return ns.PowersOf(b)
        values = draw(st.lists(st.integers(1, 40), max_size=4))
        return ns.Finite(values) if kind == "finite" else ns.Cofinite(values)
    kind = draw(st.sampled_from(["union", "intersection", "complement"]))
    if kind == "complement":
        return ns.Complement(_powers_tree(draw, b, depth - 1))
    parts = [_powers_tree(draw, b, depth - 1) for _ in range(2)]
    return (ns.Union if kind == "union" else ns.Intersection)(parts)


@st.composite
def powers_trees(draw):
    b = draw(st.sampled_from([2, 3, 5]))
    return b, _powers_tree(draw, b, 3)


@settings(max_examples=200)
@given(powers_trees())
def test_trees_with_powers_of_one_base_know_their_infiniteness(case):
    # past 2^30 every finite leaf and segment start is behind, so a window
    # of 240 = 2 x 120 integers there holds every residue a tail of
    # positive density needs, and b^j with j in [64, 64 + 120] passes every
    # residue mod 120 that b^j recurs on
    b, s = case
    powers = ns.PowersOf(b)
    dense = any(s.member(n) for n in range(1 << 30, (1 << 30) + 240)
                if not powers.member(n))
    want = dense or any(s.member(b ** j) for j in range(64, 65 + 120))
    assert s.is_infinite() is want


# --- batched takes against the member walk -----------------------------------

def ref_take(s, start, want, stop):
    """``want`` members of the walk from ``start``, cut after the first past
    ``stop``; a walk that raises HorizonExceeded ends the list there."""
    out = []
    try:
        for v in islice(ns.iter_members(s, start), want):
            out.append(v)
            if stop is not None and v > stop:
                break
    except ns.HorizonExceeded:
        pass
    return out


take_starts = st.integers(1, 700) | st.integers(1, 1 << 40)
take_wants = st.integers(0, 90)
stops = st.none() | st.integers(0, 800)


@settings(max_examples=200)
@given(periodic_specs, take_starts, take_wants, stops)
# segments shorter than the period: [1, 3) holds every residue mod 4, and
# [7, 8) every residue mod 5, but each ends inside its first period
@example(("union", [("progression", 3, 4), ("finite", [1, 2])]), 1, 10, None)
@example(("union", [("progression", 3, 5), ("finite", [7])]), 2, 10, 9)
def test_take_members_equals_the_walk_on_periodic_forms(spec, start, want,
                                                        stop):
    # multi-residue masks, finite forms and far starts alike
    s = build(spec)
    assert ns.take_members(s, start, want, stop) == \
        ref_take(s, start, want, stop)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 20000), st.sampled_from([4099, 6000, 8192]),
       st.lists(st.integers(1, 30000), max_size=4), st.integers(1, 30000),
       st.integers(0, 9000), st.none() | st.integers(0, 40000))
def test_take_members_of_a_dense_mask(first, step, extra, start, want, stop):
    # more than LISTED_RESIDUES residues: members come from the chunked walk
    s = ns.Union((ns.Complement(ns.Progression(first, step)),
                  ns.Finite(extra)))
    assert ns.periodic_form(s).masks[-1].bit_count() > ns.LISTED_RESIDUES
    assert ns.take_members(s, start, want, stop) == \
        ref_take(s, start, want, stop)


TAKE_SETS = {
    "powers2": ns.PowersOf(2),
    "powers7": ns.PowersOf(7),
    "finite": ns.Finite([3, 8, 9, 40]),
    "block-union": ns.BlockUnion(
        ns.partition_from_tag({"kind": "geometric", "ratio": "3/2"}),
        ns.Progression(2, 3)),
    "finite-block-union": ns.BlockUnion(
        ns.partition_from_tag({"kind": "geometric", "ratio": "2"}),
        ns.Finite([1, 3, 4, 6])),
    "bitmap": ns.PrefixBitmap(np.arange(1, 301) % 7 < 3),
    "mixed": ns.Union((ns.PowersOf(3), ns.Progression(5, 11))),
}


@pytest.mark.parametrize("name", sorted(TAKE_SETS))
@given(st.integers(1, 400), st.integers(0, 80), stops)
def test_take_members_equals_the_walk_on_other_sets(name, start, want, stop):
    s = TAKE_SETS[name]
    assert ns.take_members(s, start, want, stop) == \
        ref_take(s, start, want, stop)


def test_take_members_of_powers_passes_2_62():
    # 64 powers of 2 reach 2^64: no int64 bound may end the take
    got = ns.take_members(ns.PowersOf(2), 1, 64)
    assert got == [1 << k for k in range(1, 65)]
    assert ns.take_members(ns.PowersOf(2), 1 << 62, 3, 1 << 63) == \
        [1 << 62, 1 << 63, 1 << 64]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(2, 5)]),
       st.integers(1, 6), st.integers(1, 5000), st.integers(0, 60), stops)
def test_take_members_of_rationals_balls(center, level, start, want, stop):
    # the rationals' balls are Tested sets with their own take, which the
    # batched walk reads too
    ball = indicator_set(zoo.get_sequence("rationals"), (center,),
                         Fraction(1, 1 << level))
    assert isinstance(ball, ns.Tested)
    assert ns.take_members(ball, start, want, stop) == \
        ref_take(ball, start, want, stop)


def test_take_members_of_an_empty_set_with_no_closed_form_ends():
    # the odd powers of 2 from 3: the take ends, empty, at SCAN_LIMIT
    code = textwrap.dedent("""
        from idealconv import natset as ns
        s = ns.Intersection((ns.PowersOf(2), ns.Progression(3, 2)))
        print(ns.take_members(s, 1, 5, 100), ns.take_members(s, 9, 5))
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["[]", "[]"]
