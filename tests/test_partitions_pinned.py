"""Pinned outputs of the interval-partition layer.

Every walk over the blocks of a partition (block unions, the density family,
witness construction and reloading) goes through ``BlockPartition.blocks``.
The sha256 pins below were taken before those walks were merged into it, so
they fix what the walks return and what they raise.  Each case also records
the partition's JSON after the call.  That JSON is the partition's
definition (its generator tag, or an explicit prefix in full), so it must
not depend on what the walk has materialized; the tests at the end check
that directly.
"""

import hashlib
import json
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from idealconv import natset as ns
from idealconv import submeasure as sm
from idealconv.ideals import builtin
from idealconv.meager import WitnessIntervals, build_witness

F = Fraction


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def attempt(call):
    """The call's result, or the name of the HorizonExceeded it raised."""
    try:
        return call()
    except ns.HorizonExceeded:
        return "HorizonExceeded"


# --- block unions over every partition kind ----------------------------------------

PARTITION_TAGS = {
    "pow2": {"kind": "pow2"},
    "singletons": {"kind": "singletons"},
    "valuation-cover": {"kind": "valuation-cover"},
    "geometric-2": {"kind": "geometric", "ratio": "2"},
    "geometric-3/2": {"kind": "geometric", "ratio": "3/2"},
    "ratio-search": {"kind": "ratio-search", "q": "1/3"},
    "phi-search-summable": {"kind": "phi-search", "ideal": "summable",
                            "q": "1/2"},
    "phi-search-gdi": {"kind": "phi-search", "ideal": "gdi", "q": "1/4"},
}


def fresh_partition(name):
    if name == "explicit":
        # block 4 needs iota(5), which this prefix does not have
        return ns.BlockPartition(prefix=[3, 9, 20, 50])
    return ns.partition_from_tag(PARTITION_TAGS[name])


SELECTORS = {
    "all": ns.FULL,
    "every-2": ns.Progression(2, 2),
    "index-finite": ns.Finite([1, 3, 4, 6]),
    # undecided from block 6 on
    "index-bitmap": ns.PrefixBitmap([1, 0, 1, 1, 0]),
}

HORIZONS = (1, 2, 7, 19, 40, 64, 1000)


def block_union_observations(name):
    out = []
    for sel_name, sel in SELECTORS.items():
        for horizon in HORIZONS:
            bu = ns.BlockUnion(fresh_partition(name), sel)
            bits = attempt(lambda: np.packbits(bu.prefix(horizon)).tobytes().hex())
            out.append([sel_name, horizon, "prefix", bits,
                        bu.partition.to_json()])
            bu = ns.BlockUnion(fresh_partition(name), sel)
            out.append([sel_name, horizon, "count", attempt(
                lambda: bu.count_up_to(horizon)), bu.partition.to_json()])
        if sel_name == "index-finite":
            continue        # iter_members walks on for ever past a finite union
        for start in (1, 10):
            bu = ns.BlockUnion(fresh_partition(name), sel)
            got = []
            try:
                got.extend(islice(ns.iter_members(bu, start), 40))
            except ns.HorizonExceeded:
                got.append("HorizonExceeded")
            out.append([sel_name, start, "members", got,
                        bu.partition.to_json()])
    return out


BLOCK_UNION_PINS = {
    "pow2":
        "cd1fffded1afe82ff0eecdc30148c0b0b6a38dcdb4c759b5aefbbe48d9997940",
    "singletons":
        "0f0d1f510f861ac20d0c1fcb128839a959f6d0949e3c71b06b4ef3de88ee1c8b",
    "valuation-cover":
        "81fbaf870ec8ece8b54f094c7564417fa87790c0b8fe06ea31d45204ba4636c4",
    "geometric-2":
        "e5ba1f9dbde9bc0fc6a664d50da340148df0c8fcf70d552fb1a0f56c3f9fac24",
    "geometric-3/2":
        "a9aac2744919c46b53099319b3b0620a26dabdc32fbe67c8ce532e60626222b8",
    "ratio-search":
        "4449c3a95a3ed357aada6dbc3ad47a9ed2eed6ec5b490785e70a3b1c8df685eb",
    "phi-search-summable":
        "c7aadc610c6b9b97984bb410d64d7b6817e76954ca4090d93a4a6f10917fa2fd",
    "phi-search-gdi":
        "60982ca6d373f9337fdfeb1a8116e4bb6fb9e41c91e277defa94722873176427",
    "explicit":
        "9d628105b5c8a6f55897e45afd1632e6a18479634d86f560cacebdef47f8648c",
}


@pytest.mark.parametrize("name", sorted(BLOCK_UNION_PINS))
def test_block_union_walks_pinned(name):
    assert digest(block_union_observations(name)) == BLOCK_UNION_PINS[name]


# --- witnesses of the five built-in ideals -------------------------------------------

WITNESS_CASES = {
    "fin": ("fin", "1/2", 64),
    "density-zero-1/2": ("density-zero", "1/2", 1024),
    "density-zero-1/3": ("density-zero", "1/3", 1024),
    "summable": ("summable", "1/2", 4096),
    "gdi-1/2": ("gdi", "1/2", 4096),
    "gdi-1/4": ("gdi", "1/4", 1024),
    "fin-x-fin": ("fin-x-fin", "1/2", 1024),
}


def witness_observations(case):
    ideal, q, horizon = WITNESS_CASES[case]
    w = build_witness(builtin(ideal), F(q), horizon)
    built = w.to_json()
    blocks = list(w.blocks_within(4 * horizon))
    return [built, blocks, w.to_json()]


WITNESS_PINS = {
    "fin":
        "37e646c342a7cf6f63bf5b20e1f74ad7fe628739deb3ef4eaca48ea9c391f80a",
    "density-zero-1/2":
        "43289469bb7eeb8911637dc854b2e12ed7145bfbf302b55ceddf4ea1069e8e91",
    "density-zero-1/3":
        "2262886be72487a97f5c81236e2bffec8c534f2e3a8cbc445b1151aa6033dcb1",
    "summable":
        "529ec491e2d2c6a5e17cbad3089654bd7a1e209d83ccbfce3c965a6196815202",
    "gdi-1/2":
        "2ee2ba41c994d84d4e8d654a2bf387f7ffff6b3a91ad215520041cf6312ac986",
    "gdi-1/4":
        "31d162abba0caca85514d7d2bc3fcd4ca3cfe2fa872eb7176444127013d2391c",
    "fin-x-fin":
        "77e73dacc430951ddd89251dd71bdde48af075fbdcb747ba8e5a4d0bc3609719",
}


@pytest.mark.parametrize("case", sorted(WITNESS_PINS))
def test_built_witness_json_pinned(case):
    assert digest(witness_observations(case)) == WITNESS_PINS[case]


# --- the density family: phi of points, tail values, interval phi -----------------------

# fresh per test, so the recorded partition JSON depends on this test alone
FAMILIES = {
    "gdi": lambda: builtin("gdi").lscsm,
    "headed": lambda: sm.DensityFamily(
        partition=ns.partition_from_tag({"kind": "geometric", "ratio": "3/2"}),
        head_weights=(F(1, 2), F(3), F(1, 3)), tail_weight=F(2)),
}


def density_family_observations(m):
    rng = np.random.default_rng(5)
    out = []
    point_sets = [[], [1], [1, 2, 3], [5, 6, 7, 8], list(range(100, 140)),
                  [700, 3, 41]]
    point_sets += [sorted(set(rng.integers(1, 2000, size=k).tolist()))
                   for k in (3, 30, 300)]
    for pts in point_sets:
        out.append(["phi_points", pts, m.phi_points(pts)])
    for horizon in (1, 7, 64, 1000, 3000):
        for density in (0.05, 0.5):
            bits = rng.random(horizon) < density
            cuts = [0, 1, 5, 30, horizon // 2, horizon - 1]
            out.append(["tail_value", horizon, density,
                        m.tail_value(bits, cuts)])
    for lo, hi in ((1, 1), (1, 2), (1, 10), (3, 17), (100, 357), (513, 514),
                   (2, 5000)):
        out.append(["interval", lo, hi, m.interval_mass(lo, hi)])
    out.append(m.partition.to_json())
    return out


DENSITY_FAMILY_PINS = {
    "gdi":
        "6a325ab2680ffe4ecad8c5f28470007083ee8b7278ff176d76f96978fbf22d43",
    "headed":
        "014218cd8ec7a05a58841ffbf80a60c53fc6a231ee3132b21e68d9ebc067bea6",
}


@pytest.mark.parametrize("name", sorted(DENSITY_FAMILY_PINS))
def test_density_family_walks_pinned(name):
    m = FAMILIES[name]()
    assert digest(density_family_observations(m)) == DENSITY_FAMILY_PINS[name]


# --- reloading a witness from its JSON -----------------------------------------------

def round_trip_observations():
    summable = builtin("summable")
    w = build_witness(summable, F(1, 2), 4096)
    body = w.to_json()
    again = WitnessIntervals.from_json(body)
    loaded = again.to_json()
    blocks = list(again.blocks_within(4096))
    certified = [again.certify_block(n, summable.lscsm) for n, _, _ in blocks]
    # the same witness as an explicit boundary prefix: the blocks inside the
    # horizon and the first block past it
    explicit_body = {k: v for k, v in body.items() if k != "generator"}
    explicit_body["iota"] = w.boundary_prefix(len(blocks) + 2)
    explicit = WitnessIntervals.from_json(explicit_body)
    return [loaded, blocks, certified, again.to_json(),
            list(explicit.blocks_within(4096)), explicit.to_json(),
            attempt(lambda: explicit.block(len(explicit_body["iota"])))]


ROUND_TRIP_PIN = (
    "b2daf0544cb58db4564458e0481f04f33ee9d70ed160e76baf233966382a3c44")


def test_summable_witness_round_trip_pinned():
    summable = builtin("summable")
    w = build_witness(summable, F(1, 2), 4096)
    again = WitnessIntervals.from_json(w.to_json())
    assert list(again.blocks_within(4096)) == list(w.blocks_within(4096))
    assert again.to_json() == w.to_json()
    assert digest(round_trip_observations()) == ROUND_TRIP_PIN


# --- partition JSON is the definition, not the materialized boundaries -----------

@pytest.mark.parametrize("name", sorted(PARTITION_TAGS))
def test_partition_json_ignores_materialization(name):
    p = ns.partition_from_tag(PARTITION_TAGS[name])
    body = p.to_json()
    assert body == {"generator": PARTITION_TAGS[name],
                    "lengths_unbounded": p.guarantees.lengths_unbounded}
    list(p.blocks_within(1 << 16))
    assert p.to_json() == body


def test_explicit_partition_round_trips_in_full():
    iota = [2 * k * k + 1 for k in range(39)]
    p = ns.BlockPartition(prefix=iota)
    back = ns.BlockPartition.from_json(json.loads(json.dumps(p.to_json())))
    assert back.to_json() == p.to_json()
    assert back.boundary_prefix(39) == iota
    assert back.block(30) == (iota[29], iota[30])
    with pytest.raises(ns.HorizonExceeded):
        back.block(39)


def test_generator_partition_needs_a_tag():
    with pytest.raises(ValueError, match="tag"):
        ns.BlockPartition(fn=lambda n: 2 ** n, tag=None)


# --- what each partition kind guarantees ------------------------------------------

G = ns.BlockGuarantees
GUARANTEES = {
    "pow2": G(ratio=F(1, 2), proportional=True, pairs_from=1,
              lengths_unbounded=True),
    "valuation-cover": G(proportional=True, pairs_from=1,
                         lengths_unbounded=True),
    "singletons": G(singletons=True),
    "geometric-2": G(ratio=F(1, 2), proportional=True, pairs_from=2,
                     lengths_unbounded=True),
    "geometric-3/2": G(proportional=True, lengths_unbounded=True),
    "ratio-search": G(ratio=F(1, 3), proportional=True, pairs_from=4,
                      lengths_unbounded=True),
    "phi-search-summable": G(pairs_from=4, lengths_unbounded=True,
                             mass=F(1, 2), mass_ideal=("summable", None)),
    "phi-search-gdi": G(pairs_from=16, lengths_unbounded=True, mass=F(1, 4),
                        mass_ideal=("gdi", None)),
    "explicit": G(),
    "density-ratio-1/2": G(ratio=F(1, 2), proportional=True, pairs_from=1,
                           lengths_unbounded=True),
    "density-ratio-1/3": G(ratio=F(1, 3), proportional=True, pairs_from=4,
                           lengths_unbounded=True),
}


@pytest.mark.parametrize("name", sorted(GUARANTEES))
def test_partition_guarantees_table(name):
    if name.startswith("density-ratio-"):
        p = build_witness(builtin("Z"), F(name.rpartition("-")[2]), 1 << 10)
    else:
        p = fresh_partition(name)
    g = p.guarantees
    assert g == GUARANTEES[name]
    # and the blocks inside 2^12 keep what the row promises
    mass = None if g.mass is None else builtin(
        g.mass_ideal[0], gdi_spec=g.mass_ideal[1]).lscsm
    for n, lo, hi in p.blocks_within(1 << 12):
        assert g.ratio is None or F(hi - lo, hi) >= g.ratio
        assert g.pairs_from is None or lo - 1 < g.pairs_from or hi - lo >= 2
        assert not g.singletons or hi - lo == 1
        assert mass is None or mass.interval_mass_cmp(lo, hi, g.mass) >= 0
