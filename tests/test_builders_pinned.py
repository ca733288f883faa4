"""The shared block filler against its former bodies, and pinned outputs
of the six builders.

The permutation filler once had a second copy for selector-driven builds,
the selector filler walked positions one at a time, and subsequences and
permutations had a filler each.  Those bodies are kept below as
references: the one filler, driven by the generic builders' routing or by
arbitrary payload plans, must produce the same tables and fills.  The
sha256 pins are of ``BuildResult.to_json()`` as the builders returned it
before the fillers, audits and routing tables were merged; the two sigma
pins were re-taken when a partition's JSON became its generator tag alone
(each target's certified subset is a block union over a witness partition);
with partition JSON removed, their outputs hash as before.
"""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from idealconv import natset as ns
from idealconv import transforms as tr
from idealconv import zoo
from idealconv.ideals import builtin
from idealconv.meager import build_witness
from idealconv.sequences import AnalysisParams, RadiusSchedule

F = Fraction


# --- the former bodies ----------------------------------------------------------

class RefSetSupply:
    """Fresh members of a symbolic set, ascending, restartable by floor."""

    def __init__(self, a):
        self._iter = ns.iter_members(a, 1)
        self._last = 0

    def draw_many(self, count, floor):
        out = []
        v = self._last
        while len(out) < count:
            try:
                v = next(self._iter)
            except (StopIteration, ns.HorizonExceeded):
                raise tr.ExhaustedA(f"source exhausted after {self._last}")
            if v > floor:
                out.append(v)
        self._last = v
        return out


def ref_fill_pi_table_selected(w, horizon, selector, draw_many):
    table = []
    fills = []
    frontier = 0
    pending = []
    blocks = iter(w.blocks_within(horizon))
    nxt = next(blocks, None)
    p = 1
    while p <= horizon:
        if pending:
            table.append(pending.pop(0))
            p += 1
            continue
        while nxt is not None and nxt[2] <= p:
            nxt = next(blocks, None)
        if nxt is not None and nxt[1] == p:
            k, lo, hi = nxt
            sel = selector.member(k)
            if sel is None:
                raise ns.HorizonExceeded(f"selector undecided at block {k}")
            if sel:
                drawn = draw_many(hi - lo, frontier)
                new_frontier = drawn[-1]
                flush_len = (new_frontier - frontier) - (hi - lo)
                if hi + flush_len - 1 <= horizon:
                    table.extend(drawn)
                    used = set(drawn)
                    pending = [v for v in range(frontier + 1, new_frontier + 1)
                               if v not in used]
                    frontier = new_frontier
                    fills.append(tr.BlockFill(k, lo, hi, None, None, False))
                    p = hi
                    continue
                # unaffordable: fall through to identity filling
        table.append(frontier + 1)
        frontier += 1
        p += 1
    return table, fills


def ref_fill_pi_table(w, horizon, draw):
    """The permutation filler's per-position body: one identity value per
    position, and each payload's displaced values listed by a membership
    test against the drawn ones."""
    table = []
    fills = []
    frontier = 0
    blocks = iter(w.blocks_within(horizon))
    nxt = next(blocks, None)
    p = 1
    while p <= horizon:
        while nxt is not None and nxt[2] <= p:
            nxt = next(blocks, None)
        if nxt is not None and nxt[1] == p:
            k, lo, hi = nxt
            spec = draw(k, len(fills) + 1, hi - lo, frontier)
            if spec is not None:
                drawn = spec[0]
                flush_len = (drawn[-1] - frontier) - (hi - lo)
                if hi + flush_len - 1 <= horizon:
                    used = set(drawn)
                    table.extend(drawn)
                    table.extend(v for v in range(frontier + 1, drawn[-1])
                                 if v not in used)
                    frontier = drawn[-1]
                    fills.append(tr.BlockFill(k, lo, hi, spec[1], spec[2],
                                              False))
                    p = hi + flush_len
                    continue
        table.append(frontier + 1)
        frontier += 1
        p += 1
    return table, fills


def ref_fill_sigma_table(w, horizon, plan):
    table = []
    fills = []
    blocks = list(w.blocks_within(horizon))
    cursor = 0
    active = None
    for p in range(1, horizon + 1):
        while cursor < len(blocks) and blocks[cursor][2] <= p:
            cursor += 1
        prev = table[-1] if table else 0
        spec = None
        if cursor < len(blocks):
            k, lo, hi = blocks[cursor]
            if lo <= p < hi:
                if active is None or active[0] != k:
                    active = (k, plan(k))
                spec = active[1]
                if spec is not None:
                    table.append(spec[0](prev))
                    if p == hi - 1:
                        fills.append(tr.BlockFill(k, lo, hi, spec[1], spec[2],
                                                  False))
                    continue
        table.append(prev + 1)
    return table, fills


def ref_generic_sigma_plan(a, selector):
    members = ns.iter_members(a, 1)
    state = {"last": 0}

    def next_member(floor):
        v = state["last"]
        while v <= floor:
            try:
                v = next(members)
            except (StopIteration, ns.HorizonExceeded):
                raise tr.ExhaustedA(f"source exhausted after {state['last']}")
        state["last"] = v
        return v

    def plan(k):
        sel = selector.member(k)
        if sel is None:
            raise ns.HorizonExceeded(f"selector undecided at block {k}")
        return (next_member, None, None) if sel else None
    return plan


# --- strategies -----------------------------------------------------------------

sources = st.one_of(
    st.builds(ns.Progression, st.integers(1, 9), st.integers(1, 7)),
    st.builds(ns.PowersOf, st.integers(2, 4)))
selectors = st.one_of(st.just(ns.FULL),
                      st.builds(lambda k: ns.Progression(k, k),
                                st.integers(2, 4)))
witnesses = st.sampled_from([("fin", F(1, 2)), ("density-zero", F(1, 2)),
                             ("density-zero", F(1, 4))])
horizons = st.integers(16, 4096)


def spans(fills):
    return [(f.block, f.lo, f.hi) for f in fills]


def fell_through(table, w, horizon, selector, fills):
    """Selected blocks reached with no flush backlog that stayed uncovered:
    their payload was unaffordable and identity filling took over."""
    covered = {f.block for f in fills}
    out = []
    for k, lo, hi in w.blocks_within(horizon):
        if (selector.member(k) and k not in covered
                and max(table[:lo - 1], default=0) == lo - 1):
            out.append(k)
    return out


# --- the permutation filler -----------------------------------------------------

@given(a=sources, selector=selectors, wit=witnesses, horizon=horizons)
def test_generic_permutation_matches_the_former_selected_filler(
        a, selector, wit, horizon):
    w = build_witness(builtin(wit[0]), wit[1], horizon)
    ref_table, ref_fills = ref_fill_pi_table_selected(
        w, horizon, selector, RefSetSupply(a).draw_many)
    if not ref_fills:
        with pytest.raises(tr.BijectivityOverflow):
            tr.generic_permutation(a, w, selector, horizon)
        return
    res = tr.generic_permutation(a, w, selector, horizon)
    assert list(res.map.table) == ref_table
    assert spans(res.blocks) == spans(ref_fills)
    assert all(f.verified and f.candidate is None and f.radius_index is None
               for f in res.blocks)


class Blocks:
    """Consecutive blocks [bounds[i], bounds[i + 1]), numbered from 1, as
    ``WitnessIntervals.blocks_within`` yields them."""

    def __init__(self, bounds):
        self.bounds = bounds

    def blocks_within(self, horizon):
        for k, (lo, hi) in enumerate(zip(self.bounds, self.bounds[1:]), 1):
            if hi - 1 > horizon:
                return
            yield k, lo, hi


def logged_draw(plans, log):
    """Block k's payload steps up from the frontier by the gaps of plan
    k mod len(plans), cycled; a plan of None skips the block.  Every call
    is logged."""
    def draw(k, j, length, frontier):
        log.append((k, j, length, frontier))
        gaps = plans[k % len(plans)]
        if gaps is None:
            return None
        values, v = [], frontier
        for i in range(length):
            v += gaps[i % len(gaps)]
            values.append(v)
        return values, (F(k),), j, None
    return draw


def fill_events(bounds, horizon, plans):
    """What a fill met: a skipped block, an unaffordable payload, a cursor
    left inside a block by a flush."""
    log, events = [], set()
    table, fills = ref_fill_pi_table(Blocks(bounds), horizon,
                                     logged_draw(plans, log))
    covered = {f.block for f in fills}
    for k, _, length, _ in log:
        if k not in covered:
            events.add("skipped" if plans[k % len(plans)] is None
                       else "unaffordable")
    # a flush ends where the positions reach the payload's last value
    for f in fills:
        cursor = max(table[:f.hi - 1]) + 1
        if cursor <= horizon and cursor not in bounds:
            events.add("inside")
    return events


block_bounds = st.lists(st.integers(1, 6), min_size=1, max_size=30).map(
    lambda lengths: [1 + sum(lengths[:i]) for i in range(len(lengths) + 1)])
payload_plans = st.lists(
    st.none() | st.lists(st.integers(1, 4) | st.sampled_from([9, 60]),
                         min_size=1, max_size=4),
    min_size=1, max_size=6)


@example(bounds=[1, 3, 6, 8, 12, 15], horizon=14, plans=[None, [2], [9]])
@given(bounds=block_bounds, horizon=st.integers(1, 120), plans=payload_plans)
def test_pi_filler_equals_the_per_position_loop(bounds, horizon, plans):
    got_log, want_log = [], []
    got = tr._fill_table(Blocks(bounds), horizon,
                         logged_draw(plans, got_log), True)
    want = ref_fill_pi_table(Blocks(bounds), horizon,
                             logged_draw(plans, want_log))
    assert got == want and got_log == want_log
    assert sorted(got[0]) == list(range(1, horizon + 1))


def test_pi_filler_example_meets_every_case():
    # the explicit example above skips a block, finds a payload it cannot
    # afford, and leaves the cursor inside a block after a flush
    assert fill_events([1, 3, 6, 8, 12, 15], 14, [None, [2], [9]]) == {
        "skipped", "unaffordable", "inside"}


@pytest.mark.parametrize("horizon", [24, 100, 300, 1000, 4000])
@pytest.mark.parametrize("base", [2, 3])
def test_unaffordable_payloads_fall_through_to_identity(base, horizon):
    # sparse sources displace ever more values, so late payloads no longer
    # fit inside the horizon and identity filling takes over
    w = build_witness(builtin("fin"), F(1, 2), horizon)
    a, selector = ns.PowersOf(base), ns.FULL
    res = tr.generic_permutation(a, w, selector, horizon)
    ref_table, ref_fills = ref_fill_pi_table_selected(
        w, horizon, selector, RefSetSupply(a).draw_many)
    table = list(res.map.table)
    assert table == ref_table and spans(res.blocks) == spans(ref_fills)
    skipped = fell_through(table, w, horizon, selector, res.blocks)
    assert skipped
    # after the last flush the values used are exactly [1, last drawn]
    start = table[res.blocks[-1].hi - 2] + 1
    assert table[start - 1:] == list(range(start, horizon + 1))
    assert sorted(table) == list(range(1, horizon + 1))


def test_flush_lists_the_displaced_values_in_ascending_order():
    w = build_witness(builtin("fin"), F(1, 2), 64)
    res = tr.generic_permutation(ns.PowersOf(2), w, ns.FULL, 64)
    # payload 2 at 1, flush 1; payload 4 at 3, flush 3; payload 8 at 5, ...
    assert list(res.map.table[:12]) == [2, 1, 4, 3, 8, 5, 6, 7, 16, 9, 10, 11]


# --- the selector filler --------------------------------------------------------

@given(a=sources, selector=selectors, wit=witnesses, horizon=horizons)
def test_sigma_filler_matches_the_former_positionwise_walk(
        a, selector, wit, horizon):
    w = build_witness(builtin(wit[0]), wit[1], horizon)
    ref_table, ref_fills = ref_fill_sigma_table(
        w, horizon, ref_generic_sigma_plan(a, selector))
    table, fills = tr._fill_table(w, horizon, tr._selected(a, selector),
                                  False)
    assert table == ref_table
    assert spans(fills) == spans(ref_fills)


def ref_fill_sigma_by_position(w, horizon, draw):
    """The subsequence filler position by position: a block's first
    position asks ``draw`` for its payload, whose values then take the
    block's positions one each; every other position takes the previous
    value plus one."""
    table, fills, payload = [], [], []
    starts = {lo: (k, hi) for k, lo, hi in w.blocks_within(horizon)}
    for p in range(1, horizon + 1):
        prev = table[-1] if table else 0
        if p in starts:
            k, hi = starts[p]
            spec = draw(k, len(fills) + 1, hi - p, prev)
            if spec is not None:
                payload = list(spec[0])
                fills.append(tr.BlockFill(k, p, hi, spec[1], spec[2], False))
        table.append(payload.pop(0) if payload else prev + 1)
    return table, fills


@example(bounds=[1, 3, 6, 8, 12, 15], horizon=14, plans=[None, [2], [9]])
@given(bounds=block_bounds, horizon=st.integers(1, 120), plans=payload_plans)
def test_sigma_filler_equals_the_per_position_loop(bounds, horizon, plans):
    got_log, want_log = [], []
    got = tr._fill_table(Blocks(bounds), horizon,
                         logged_draw(plans, got_log), False)
    want = ref_fill_sigma_by_position(Blocks(bounds), horizon,
                                      logged_draw(plans, want_log))
    assert got == want and got_log == want_log
    assert len(got[0]) == horizon
    assert all(a < b for a, b in zip(got[0], got[0][1:]))


# --- pinned builder outputs -------------------------------------------------------

Z = builtin("density-zero")
GDI = builtin("gdi")
SMALL = AnalysisParams(horizon=1 << 10, schedule=RadiusSchedule.dyadic(4),
                       pitch=F(1, 64))

PINNED = {
    "generic_subsequence": (
        lambda: tr.generic_subsequence(
            ns.PowersOf(2), build_witness(Z, F(1, 2), 1 << 10),
            ns.Progression(2, 2), 1 << 10),
        "4a9af301c51a76af1c7100bbcd891b846b6506462185eeb6e0515b79764de298"),
    "generic_permutation": (
        lambda: tr.generic_permutation(
            ns.Progression(3, 5), build_witness(Z, F(1, 4), 1 << 10),
            ns.Progression(3, 3), 1 << 10),
        "bb2bec4f05badfaa8c6932e927b5270a25069dabf37fd7ac61659bd0070c9851"),
    "cluster_adding_sigma": (
        lambda: tr.cluster_adding_sigma(
            zoo.char_powers2(), (F(1),), Z,
            build_witness(Z, F(1, 2), 1 << 10), SMALL),
        "6de6ff6697164d1369e15bba10e1d7228278f3f8194342ac45e5789477fb46a3"),
    "cluster_adding_pi": (
        lambda: tr.cluster_adding_pi(
            zoo.char_evens(), (F(0),), Z,
            build_witness(Z, F(1, 4), 1 << 14), SMALL),
        "b60b9a03a2318094fff14dd5e2078e53264d690f7f83446df6a3f35593e389ee"),
    "cluster_preserving_sigma": (
        lambda: tr.cluster_preserving_sigma(
            zoo.get_sequence("cycle:0,1/2,1"), Z,
            build_witness(Z, F(1, 4), 1 << 14), SMALL),
        "98fad5e1e9f5c7fa2e6ce5ebcd677f2e2bcb5a7f4bb5ca6d1a40859fdf60e56e"),
    "cluster_preserving_pi": (
        lambda: tr.cluster_preserving_pi(
            zoo.char_evens(), Z, build_witness(Z, F(1, 4), 1 << 14), SMALL),
        "84de3504bfb7d9201936eaceeb7772b2191ce3cf941d26802d0922504be0d8ec"),
    # a point sequence, whose grid has candidates outside the limit points;
    # the values were taken when gamma_preserved came from reading the built
    # image, so they hold the theorem's answer equal to that reading
    "cluster_preserving_sigma-harmonic": (
        lambda: tr.cluster_preserving_sigma(
            zoo.harmonic(), Z, build_witness(Z, F(1, 4), 1 << 14), SMALL),
        "d53928303687ab964e56dca2b2643ca4cfaea48c8727231d2a84f7683b8b5fe7"),
    "cluster_preserving_pi-harmonic": (
        lambda: tr.cluster_preserving_pi(
            zoo.harmonic(), GDI, build_witness(GDI, F(1, 4), 1 << 14), SMALL),
        "07c92843af8e8ddbb4b8e455c587c33e938c7ddd9695f6618c77d60dfca6f467"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_builder_output_is_pinned(name):
    build, expected = PINNED[name]
    result = build()
    # the writer copies tables as they are: every entry is a Python int
    assert all(type(v) is int for v in result.map.table)
    body = json.dumps(result.to_json(), sort_keys=True)
    assert hashlib.sha256(body.encode()).hexdigest() == expected
