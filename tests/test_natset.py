"""Set algebra against an independent reference evaluator.

The oracle builds plain Python sets over [1, N] from the same recipe and
compares membership pointwise, so the symbolic prefix/count machinery is
never trusted to check itself.
"""

import hashlib
import json
from bisect import bisect_right
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, strategies as st

from idealconv import natset as ns
from idealconv.ideals import (Verdict, builtin, decide_membership, nu2,
                              valuation_rows)

N_REF = 512


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


@given(set_specs)
def test_infinite_certificates_are_sound(spec):
    s = build(spec)
    ref_small = ref_set(spec, 4096)
    inf = s.is_infinite()
    if inf is False:
        assert ref_small == ref_set(spec, 2048), "finite set kept growing"
    if inf is True:
        assert len(ref_set(spec, 4096)) > len(ref_set(spec, 64)) or \
            len(ref_small) >= 1
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


# --- the periodic normal form against the reference --------------------------

def periodic_case(spec):
    """The built set, its form, and the window [last start, + period)."""
    s = build(spec)
    form = ns.periodic_form(s)
    assert form is not None
    lo = form.starts[-1]
    return s, form, lo, lo + form.period


def form_member(form, n):
    mask = form.masks[bisect_right(form.starts, n) - 1]
    return bool(mask >> ((n - form.offset) % form.period) & 1)


@given(periodic_specs)
def test_periodic_form_membership_matches_reference(spec):
    s, form, lo, hi = periodic_case(spec)
    # the normal form: no empty segment, and neighbours differ
    assert form.starts[0] == 1
    assert all(a < b for a, b in zip(form.starts, form.starts[1:]))
    assert all(a != b for a, b in zip(form.masks, form.masks[1:]))
    ref = ref_set(spec, max(N_REF, hi))
    for n in list(range(1, N_REF + 1)) + list(range(lo, hi)):
        assert form_member(form, n) == (n in ref), n


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
