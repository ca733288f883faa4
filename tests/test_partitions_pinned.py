"""Pinned outputs of the interval-partition layer.

Every walk over the blocks of a partition (block unions, the density family,
witness construction and reloading) goes through ``BlockPartition.blocks``.
The sha256 pins below were taken before those walks were merged into it, so
they fix what the walks return, what they raise, and which boundaries they
materialize: a partition's JSON lists every boundary materialized so far,
and each case records that JSON after the call.
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
from idealconv.meager import WitnessIntervals, _phi_interval, build_witness

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
    "all": ns.AllBlocks(),
    "every-2": ns.EveryKth(2),
    "index-finite": ns.IndexSet(ns.Finite([1, 3, 4, 6])),
    # undecided from block 6 on
    "index-bitmap": ns.IndexSet(ns.PrefixBitmap([1, 0, 1, 1, 0])),
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
        "ee5c62f2699dd953b2c5ed4cba0efff8bb429e41d48c7a14edea46a16c587433",
    "singletons":
        "ab5a0bb0c8fd8d89e59f370fd30cde11766357cb3d9fbb8319d5df40609eef4f",
    "valuation-cover":
        "ce844c71d97eebb71db662a6e452445f80e7a2f6ba73dbd77866f237cf806547",
    "geometric-2":
        "858f7188b4d12396b7e239e82154f8c5c9d95a09a77a7af65f3c537f73b860bd",
    "geometric-3/2":
        "2f4709226075d73ef20a1886548e25cb183038169ecdc07abc7da4d3810aa56b",
    "ratio-search":
        "1d6a5ba429b4729d4f18177107676c957dcd5c2ff05dbdb225cc63f9a28fb9c9",
    "phi-search-summable":
        "4ee321858402545edaf407465183633cf3d671477d324158b26027f81b6594ab",
    "phi-search-gdi":
        "e4c0a3ae975b94e406f4c0fd7afb894770c6ac2996853a84b95aa8086201bf21",
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
        "2f02a612a7f8cebba7539e5c5200bc42f2fac6acf26a10c4679fdecad38121d6",
    "density-zero-1/2":
        "3f5315b4003e8977c7d1bf236ef17202f131351a734419d106ca7ba0192627e7",
    "density-zero-1/3":
        "e35f1b9b25805c24bdd6630e5315f45912612ac82ff8c64441fe6a1a93504704",
    "summable":
        "a0350e36d18f3646cb4429bfe99346b91602270e6f0347634e8988d0ce8277fa",
    "gdi-1/2":
        "2fea16b8f86de5464e73a5f2215cebe3c24c88431b616f6c54ff97cb07a4cd6c",
    "gdi-1/4":
        "51cb93b7d3b86505b1d087c6a0d7582b952507104d8d460155a2c9897f127ca9",
    "fin-x-fin":
        "a0634bb8d92a7f22f2ddeee2ef5897b807a1f4feaa18e0021f1a18cb7402e7fb",
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
        out.append(["interval", lo, hi, _phi_interval(m, lo, hi)])
    out.append(m.partition.to_json())
    return out


DENSITY_FAMILY_PINS = {
    "gdi":
        "252070a2bfcc69d38d27fa254b3a9a9d5b379c996bcb7c7ab77b7eb931525b93",
    "headed":
        "1eac4786cc1a96a327d1a8987ad29d4b49e4edde5866dbe7ee746a4c081e191c",
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
    # the same witness without its generator: an explicit boundary prefix
    explicit = WitnessIntervals.from_json(
        {k: v for k, v in body.items() if k != "generator"})
    return [loaded, blocks, certified, again.to_json(),
            list(explicit.blocks_within(4096)), explicit.to_json(),
            attempt(lambda: explicit.block(len(body["iota"])))]


ROUND_TRIP_PIN = (
    "8ff9bdf05380f1fbd87e02e2c587174a831faa7944ebc1163cc4fea1601b3cd3")


def test_summable_witness_round_trip_pinned():
    summable = builtin("summable")
    w = build_witness(summable, F(1, 2), 4096)
    again = WitnessIntervals.from_json(w.to_json())
    assert list(again.blocks_within(4096)) == list(w.blocks_within(4096))
    assert again.to_json() == w.to_json()
    assert digest(round_trip_observations()) == ROUND_TRIP_PIN
