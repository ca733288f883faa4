"""The constructive paths' array, slice and join forms against the loops
they replaced.

- ``cli.json_text``, and the file ``cli._emit`` streams, against
  ``json.dumps(..., sort_keys=True, indent=2)``; ``_emit``'s memory.
- ``MemberSupply.run`` against one step per member.
- the block-local ``DensityFamily.interval_mass`` against the walk from
  block 1.
- ``natset.prefix_gather`` (the audit's gather) against one ``member()``
  per value, for object-dtype tables and for values past the prefix bound.
- ``iter_members`` (batches of ``Periodic.take``) over a dense mask with a
  large period, in small memory.
- the ``rationals`` enumeration, sized to the horizon it serves and held
  by one sequence.
- ``random_sigma`` tables, pinned by sha256 before the gap law was parsed
  once per map instead of once per draw; the law is the one its RNG key
  names.
"""

import gc
import hashlib
import json
import tracemalloc
import weakref
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idealconv import cli
from idealconv import natset as ns
from idealconv import transforms as tr
from idealconv import zoo
from idealconv.cli import json_text
from idealconv.ideals import builtin
from idealconv.meager import build_witness
from idealconv.sequences import AnalysisParams, RadiusSchedule, indicator_set

F = Fraction


def outcome(call):
    """The call's result, or the type and text of the exception it raised."""
    try:
        return ("ok", call())
    except (ns.HorizonExceeded, tr.ExhaustedA) as exc:
        return (type(exc).__name__, str(exc))


# --- the report writer ------------------------------------------------------------

json_scalars = (st.none() | st.booleans() | st.integers()
                | st.integers(1 << 64, 1 << 200)
                | st.integers(-(1 << 200), -(1 << 64))
                | st.floats() | st.text()
                | st.text(st.characters(max_codepoint=0x1f) | st.sampled_from(
                    "\"\\/é€ \U0001f600")))
# lists of one exact scalar type, which the writer hands to the C encoder
one_type_lists = (
    st.lists(st.floats() | st.sampled_from([float("nan"), float("inf"),
                                            float("-inf")]))
    | st.lists(st.booleans()) | st.lists(st.none())
    | st.lists(st.text(st.characters(max_codepoint=0x1f) | st.sampled_from(
        "\"\\/é€ \U0001f600")))
    | st.lists(st.integers(1 << 64, 1 << 200)
               | st.integers(-(1 << 200), -(1 << 64))))
json_values = st.recursive(
    json_scalars | one_type_lists,
    lambda kids: (st.lists(kids) | st.lists(st.integers())
                  | st.lists(kids).map(tuple)
                  | st.dictionaries(st.text(), kids)
                  | st.dictionaries(st.integers(), kids)
                  | st.dictionaries(st.floats(allow_nan=False), kids)),
    max_leaves=40)


@pytest.fixture(scope="module")
def report_prefix(tmp_path_factory):
    return str(tmp_path_factory.mktemp("writer") / "r")


def assert_written_as_stdlib(value, prefix):
    """json_text, and the PREFIX.json that _emit streams, against the
    stdlib pretty form."""
    want = json.dumps(value, sort_keys=True, indent=2)
    assert json_text(value) == want
    cli._emit(prefix, value)
    with open(prefix + ".json", encoding="ascii", newline="") as f:
        assert f.read() == want + "\n"


@settings(max_examples=400)
@given(value=json_values)
def test_writer_equals_stdlib_pretty_form(report_prefix, value):
    assert_written_as_stdlib(value, report_prefix)


@pytest.mark.parametrize("value", [
    list(range(cli._SLICE)),                    # one slice of the C encoder
    [-n for n in range(cli._SLICE + 1)],        # and one item more
    # a two-slice table nested three deep, longer than one write
    {"result": {"map": {"table": [n * n for n in range(2 * cli._SLICE)],
                        "tail": "none"}, "z": [[], {}]}},
    [],
    {},
], ids=["one-slice", "one-slice-and-one", "two-slice-table", "empty-list",
        "empty-dict"])
def test_writer_at_slice_bounds(report_prefix, value):
    assert_written_as_stdlib(value, report_prefix)


def test_writer_keys_and_errors_follow_the_stdlib():
    for keyed in ({True: 1, 2.5: {}, 7: "x", 0: []}, {None: [1]},
                  {float("inf"): 0, -1e300: 1}):
        assert json_text({"a": keyed}) == json.dumps({"a": keyed},
                                                     sort_keys=True, indent=2)
    for bad in ({"k": object()}, {(1, 2): 0}, {"a": 1, 2: 3}):
        with pytest.raises(TypeError):
            json.dumps(bad, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            json_text(bad)
    # an int past the int-to-str digit limit, in a list of ints
    past_limit = {"table": [1, 10 ** 4400, 3]}
    with pytest.raises(ValueError) as want:
        json.dumps(past_limit, sort_keys=True, indent=2)
    with pytest.raises(ValueError) as got:
        json_text(past_limit)
    assert str(got.value) == str(want.value)


def test_emit_holds_a_small_share_of_a_long_report(tmp_path, monkeypatch):
    # a 2^18 permutation report streams into its file: the table goes to
    # the C encoder a slice at a time and the text a buffer at a time, so
    # _emit's own allocations stay below a quarter of the report (about 3x
    # its size when the text was built whole before the write)
    payloads = []
    monkeypatch.setattr(cli, "_emit",
                        lambda out, payload, *rest: payloads.append(payload))
    assert cli.main(["preserve", "pi", "--seq", "cycle:0,0,5/8", "--ideal",
                     "gdi", "--mode", "add", "--ell", "5/8", "--q", "1/2",
                     "--horizon", str(1 << 18)]) == 0
    monkeypatch.undo()
    out = str(tmp_path / "r")
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        cli._emit(out, payloads[0])
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    size = (tmp_path / "r.json").stat().st_size
    assert size > 1 << 21
    assert peak < size / 4


def test_writer_on_a_preserve_report():
    # preserve reports' 4096-entry sigma and pi tables, their fills and
    # their targets
    x, handle = zoo.get_sequence("cycle:0,1/2,1"), builtin("gdi")
    params = AnalysisParams(horizon=4096, schedule=RadiusSchedule.dyadic(4))
    w = build_witness(handle, F(1, 2), 4096)
    for build in (tr.cluster_adding_sigma, tr.cluster_adding_pi):
        body = build(x, (F(1, 2),), handle, w, params).to_json()
        assert len(body["map"]["table"]) == 4096
        assert json_text(body) == json.dumps(body, sort_keys=True, indent=2)


# --- member runs --------------------------------------------------------------------

def ref_run(supply, length, floor):
    """The replaced loop: one step, a one-member take, per member."""
    out = []
    for _ in range(length):
        floor = supply.run(1, floor)[0]
        out.append(floor)
    return out


# a harmonic subsequence whose map's table ends at position 500: the walk
# past it raises HorizonExceeded instead of ending
SHORT_SIGMA = tr.SubsequenceMap(range(2, 1002, 2), tr.NO_TAIL, horizon=500)
FINITE_LETTER = ('alphabet:{"letters":["0","1"],"sets":['
                 '{"kind":"complement","part":{"kind":"finite",'
                 '"members":[4,9,10,11,30]}},'
                 '{"kind":"finite","members":[4,9,10,11,30]}]}')
RUN_SEQUENCES = {
    "evens": lambda: zoo.get_sequence("char:evens"),
    "harmonic": lambda: zoo.get_sequence("harmonic"),
    "rationals": lambda: zoo.get_sequence("rationals"),
    "finite-letter": lambda: zoo.get_sequence(FINITE_LETTER),
    "short-map": lambda: tr.apply(SHORT_SIGMA, zoo.get_sequence("harmonic")),
}


@settings(max_examples=150)
@given(st.sampled_from(sorted(RUN_SEQUENCES)),
       st.sampled_from([F(0), F(1, 2), F(1), F(1, 3)]),
       st.integers(1, 6),
       st.lists(st.tuples(st.integers(0, 40), st.integers(-30, 400)),
                min_size=1, max_size=12))
def test_run_equals_one_walk_step_per_member(seq, center, level, calls):
    # floors may fall below the last member drawn: both forms then start
    # from that member again, as a walk does
    x = RUN_SEQUENCES[seq]()
    eps = RadiusSchedule.dyadic(6).radii[level - 1]
    got_supply = tr.MemberSupply(x, (center,), eps)
    want_supply = tr.MemberSupply(x, (center,), eps)
    floor = 0
    for length, step in calls:
        floor = max(0, floor + step)
        got = outcome(lambda: got_supply.run(length, floor))
        want = outcome(lambda: ref_run(want_supply, length, floor))
        assert got == want
        if got[0] != "ok":
            # the supply stays exhausted, naming the same last member
            assert outcome(lambda: got_supply.run(1, floor)) == \
                outcome(lambda: ref_run(want_supply, 1, floor))
            break
        if got[1]:
            floor = got[1][-1]


def test_run_exhausted_names_the_last_member_drawn():
    supply = tr.MemberSupply(zoo.get_sequence(FINITE_LETTER), (F(1),), F(1, 4))
    assert supply.run(2, 0) == [4, 9]
    with pytest.raises(tr.ExhaustedA, match="after 30$"):
        supply.run(4, 9)


# --- block-local interval masses ---------------------------------------------------

def ref_phi_interval(m, lo, hi):
    """The replaced walk: every block from block 1."""
    best = F(0)
    for n, blo, bhi in m.partition.blocks(hi - 1):
        cnt = max(0, min(hi, bhi) - max(lo, blo))
        if cnt:
            best = max(best, m.weight(n) * F(cnt, bhi - blo))
    return best


GDI_SPECS = {
    "default": None,
    "headed": {"partition": {"generator": {"kind": "geometric",
                                           "ratio": "3/2"}},
               "head_weights": ["1/2", "3", "1/3", "5/4"],
               "tail_weight": "2"},
    "explicit": {"partition": {"iota": [2, 3, 7, 12, 40, 41, 300, 1000]},
                 "head_weights": ["1", "1/7"], "tail_weight": "1/2"},
}


@settings(max_examples=300)
@given(st.sampled_from(sorted(GDI_SPECS)),
       st.integers(1, 1 << 17) | st.integers(1, 1200),
       st.integers(0, 1 << 16) | st.integers(0, 50))
def test_block_local_phi_interval_equals_full_walk(name, lo, length):
    m = builtin("gdi", gdi_spec=GDI_SPECS[name]).lscsm
    hi = lo + length
    got = outcome(lambda: m.interval_mass(lo, hi))
    want = outcome(lambda: ref_phi_interval(m, lo, hi))
    if length == 0:
        # an empty interval has mass 0 without reading any block
        assert got == ("ok", 0)
    else:
        assert got[0] == want[0] and (got[0] != "ok" or got == want)


# --- gathers ------------------------------------------------------------------------

def ref_gather(s, values):
    out = []
    for v in values:
        m = s.member(int(v))
        if m is None:
            raise ns.HorizonExceeded(f"membership undecided at {v}")
        out.append(m)
    return out


leaf_sets = st.one_of(
    st.builds(ns.Progression, st.integers(1, 40), st.integers(1, 12)),
    st.lists(st.integers(1, 5000), max_size=6).map(ns.Finite),
    st.lists(st.integers(1, 5000), max_size=6).map(ns.Cofinite),
    st.sampled_from([ns.PowersOf(2), ns.PowersOf(3)]),
    st.lists(st.booleans(), min_size=1, max_size=300).map(ns.PrefixBitmap))
gather_sets = st.recursive(
    leaf_sets,
    lambda kids: (st.lists(kids, min_size=1, max_size=3).map(
                      lambda p: ns.Union(tuple(p)))
                  | st.lists(kids, min_size=1, max_size=3).map(
                      lambda p: ns.Intersection(tuple(p)))
                  | kids.map(ns.Complement)),
    max_leaves=5)


@settings(max_examples=300)
@given(gather_sets,
       st.lists(st.integers(1, 6000), min_size=1, max_size=40)
       | st.lists(st.integers(1 << 25, 1 << 80), min_size=1, max_size=40))
def test_object_gather_equals_member(s, values):
    # near values take one prefix, far ones member(); both must read as
    # member() does, failing where it fails
    got = outcome(lambda: ns.prefix_gather(s, np.array(values, dtype=object))
                  .tolist())
    want = outcome(lambda: ref_gather(s, values))
    assert got[0] == want[0] and (got[0] != "ok" or got == want)


def test_audit_gather_of_a_subsequence_table_equals_member():
    # a sigma table is gathered as Python ints, one prefix of the ball per
    # fill; a table whose values pass the prefix bound takes member()
    x, handle = zoo.get_sequence("cycle:0,1/2,1"), builtin("Z")
    params = AnalysisParams(horizon=4096, schedule=RadiusSchedule.dyadic(4))
    w = build_witness(handle, F(1, 2), 4096)
    result = tr.cluster_adding_sigma(x, (F(1, 2),), handle, w, params)
    schedule = list(params.schedule)
    assert result.blocks
    for f in result.blocks:
        ball = indicator_set(x, f.candidate, schedule[f.radius_index - 1])
        seg = result.map.table[f.lo - 1:f.hi - 1]
        for values in (seg, [v + (3 << 40) for v in seg]):
            assert ns.prefix_gather(ball, np.asarray(values, dtype=object)) \
                .tolist() == ref_gather(ball, values)
    tr._audit(result.map, result.blocks)
    assert all(f.verified for f in result.blocks)


def test_object_gather_reads_no_prefix_past_its_spread():
    # a short object segment far out is tested per value, a dense one (or
    # an int64 one, a permutation's) reads one prefix
    asked = []

    def bits(n):
        asked.append(n)
        return np.arange(1, n + 1) % 3 == 0

    s = ns.Tested(bits, lambda n: n % 3 == 0)
    far = [ns.GATHER_SPREAD * 4 + k for k in range(3)]
    dense = list(range(1, 2 * ns.GATHER_SPREAD + 1, 2))
    assert ns.prefix_gather(s, np.array(far, dtype=object)).tolist() == \
        [v % 3 == 0 for v in far] and asked == []
    assert ns.prefix_gather(s, np.array(dense, dtype=object)).tolist() == \
        [v % 3 == 0 for v in dense] and asked == [max(dense)]
    assert ns.prefix_gather(s, np.array(far, dtype=np.int64)).tolist() == \
        [v % 3 == 0 for v in far] and asked[-1] == max(far)


# --- member walks -------------------------------------------------------------------

def test_dense_walk_lists_no_residues():
    s = ns.Complement(ns.Progression(1, 1 << 21))
    assert ns.periodic_form(s) is not None
    tracemalloc.start()
    try:
        first = list(islice(ns.iter_members(s), 5))
        far = list(islice(ns.iter_members(s, (1 << 21) - 2), 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == [2, 3, 4, 5, 6]
    assert far == [(1 << 21) - 2, (1 << 21) - 1, 1 << 21, (1 << 21) + 2]
    assert peak < 20 << 20


@settings(max_examples=40)
@given(st.integers(1, 3 * 8192), st.sampled_from([4099, 6000, 8192]),
       st.lists(st.integers(1, 30000), max_size=4), st.integers(1, 30000))
def test_dense_walk_equals_member(first, step, extra, start):
    s = ns.Union((ns.Complement(ns.Progression(first, step)),
                  ns.Finite(extra)))
    got = list(islice(ns.iter_members(s, start), 2 * step))
    assert got == [n for n in range(start, got[-1] + 1) if s.member(n)]


# --- the rationals enumeration -----------------------------------------------------

def counted_enumerations(monkeypatch) -> list:
    """The size of each enumeration zoo builds from now on, and a weak
    reference to its numerators."""
    built = []
    build = zoo._rational_enum

    def counted(count):
        nums, dens = build(count)
        built.append((len(nums), weakref.ref(nums)))
        return nums, dens

    monkeypatch.setattr(zoo, "_rational_enum", counted)
    return built


def test_rationals_enumeration_sized_to_the_horizon(monkeypatch):
    # a ball's prefix at 4096 builds the sequence's 4096-entry enumeration,
    # no more, and the sequence keeps it for its later reads up to 4096
    built = counted_enumerations(monkeypatch)
    x = zoo.get_sequence("rationals")
    x.ball_fn((F(1, 3),), F(1, 16)).prefix(4096)
    assert [size for size, _ in built] == [4096]
    assert x.point(4096) == (F(47, 116),)
    x.ball_fn((F(1, 2),), F(1, 8)).prefix(4096)
    assert [size for size, _ in built] == [4096]
    assert built[0][1]() is not None


def test_cli_calls_share_no_rationals_enumeration(tmp_path, monkeypatch):
    # each command builds its own enumeration, once, and keeps none of it
    # after it returns
    built = counted_enumerations(monkeypatch)
    argv = ["sample", "--seq", "rationals", "--ideal", "Z", "--maps", "2",
            "--length", "512", "--horizon", "4096", "--radii", "2",
            "--pitch", "1/4"]
    for k in range(2):
        assert cli.main([*argv, "--out", str(tmp_path / f"s{k}")]) == 0
        gc.collect()
        assert len(built) == k + 1 and built[k][1]() is None


# --- seeded random maps -------------------------------------------------------------

RANDOM_SIGMA_PINS = [
    (0, "geometric:1/2", 256,
     "5c3b627a8d167c1920b631212b53953181edee4390eed1fac4f6abff713806ab"),
]


@pytest.mark.parametrize("seed,law,length,sha", RANDOM_SIGMA_PINS)
def test_random_sigma_tables_pinned(seed, law, length, sha):
    assert law == "geometric:1/2"
    table = tr.random_sigma(seed, length=length).table
    assert hashlib.sha256(json.dumps(table).encode()).hexdigest() == sha
