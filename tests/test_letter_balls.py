"""Alphabet balls: one index set per letter subset, one decision per set.

An alphabet sequence's ball is the union of the letters inside it.  The
letter distances are taken once per center (``Balls``), each letter subset
has one set object (``Alphabet.union``), and each analysis leg decides each
subset once.  The balls are fuzzed against the per-point exact distance, the
reports are pinned to the bytes written when every (center, radius) ball was
rebuilt and decided afresh, and the decision counts are checked.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from idealconv import natset as ns
from idealconv import sequences as sq
from idealconv import zoo
from idealconv.cli import main
from idealconv.ideals import builtin
from idealconv.sequences import (AnalysisParams, Balls, RadiusSchedule,
                                 complement_indicator_set, distance,
                                 gamma_estimate, ideal_convergence_check,
                                 indicator_set, lambda_estimate,
                                 limit_points_estimate)

F = Fraction
N = 256
VALUES = [F(j, 8) for j in range(-4, 9)]


def _prog(r, k):
    return {"kind": "progression", "first": r, "step": k}


def _union(parts):
    return parts[0] if len(parts) == 1 else {"kind": "union", "parts": parts}


def _alphabet(letters, sets):
    return zoo.alphabet_from_json({"letters": letters, "sets": sets,
                                   "bound": "2"})


@st.composite
def letter_sequences(draw):
    """A cycle with repeated values, a residue alphabet, a nested tree with a
    powers leaf, or a 2-D alphabet, as the CLI builds them."""
    shape = draw(st.sampled_from(["cycle", "residues", "nested", "plane"]))
    if shape == "cycle":
        return zoo.cycle(draw(st.lists(st.sampled_from(VALUES[3:8]),
                                       min_size=1, max_size=7)))
    if shape in ("residues", "plane"):
        k = draw(st.integers(1, 8))
        owner = draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
        used = sorted(set(owner))
        sets = [_union([_prog(r + 1, k) for r in range(k) if owner[r] == i])
                for i in used]
        if shape == "residues":
            letters = draw(st.lists(st.sampled_from(VALUES), min_size=len(used),
                                    max_size=len(used), unique=True))
            return _alphabet([str(v) for v in letters], sets)
        letters = draw(st.lists(st.tuples(st.sampled_from(VALUES),
                                          st.sampled_from(VALUES)),
                                min_size=len(used), max_size=len(used),
                                unique=True))
        return _alphabet([[str(a), str(b)] for a, b in letters], sets)
    k = draw(st.integers(2, 5))
    prog = _prog(draw(st.integers(1, k)), k)
    powers = {"kind": "powers", "base": draw(st.sampled_from([2, 3]))}
    sets = [{"kind": "intersection",
             "parts": [prog, {"kind": "complement", "part": powers}]},
            {"kind": "intersection", "parts": [prog, powers]},
            {"kind": "complement", "part": prog}]
    letters = draw(st.lists(st.sampled_from(VALUES), min_size=3, max_size=3,
                            unique=True))
    return _alphabet([str(v) for v in letters], sets)


@st.composite
def walks(draw):
    """A sequence, a center (a letter, or any point of the grid), and a
    strictly decreasing radius schedule that also holds radii equal to
    letter distances, where the ball's open boundary sits on a letter."""
    x = draw(letter_sequences())
    letters = x.alphabet.letters
    if draw(st.booleans()):
        center = draw(st.sampled_from(letters))
    else:
        center = tuple(F(draw(st.integers(-24, 40)), 16) for _ in range(x.dim))
    on_letters = [d for d in (distance(L, center) for L in letters) if d > 0]
    drawn = draw(st.lists(st.integers(1, 64), min_size=1, max_size=8))
    radii = set(F(v, 16) for v in drawn)
    radii |= set(draw(st.lists(st.sampled_from(on_letters), max_size=3))
                 if on_letters else [])
    return x, center, sorted(radii, reverse=True)


@settings(max_examples=150, deadline=None)
@given(walks())
def test_alphabet_balls_match_pointwise_distance(case):
    x, center, radii = case
    points = [x.point(n) for n in range(1, N + 1)]
    balls = Balls(x, center)
    for eps in radii:
        want = [distance(p, center) < eps for p in points]
        assert balls.key(eps) == sum(
            1 << i for i, letter in enumerate(x.alphabet.letters)
            if distance(letter, center) < eps)
        for inside, public in ((True, indicator_set),
                               (False, complement_indicator_set)):
            expect = want if inside else [not w for w in want]
            walked = balls.set(eps, inside)
            assert walked is public(x, center, eps)
            assert walked.prefix(N).tolist() == expect
            assert [walked.member(n) for n in range(1, N + 1)] == expect


def test_each_letter_subset_has_one_set_object():
    x = zoo.cycle(["0", "1/2", "0", "1"])
    letters = x.alphabet
    # {0, 1/2}: around 1/4 within 1/2, and around 0 within 3/4
    assert indicator_set(x, (F(1, 4),), F(1, 2)) is indicator_set(
        x, (F(0),), F(3, 4))
    assert indicator_set(x, (F(0),), F(3, 4)) == ns.Union(
        (letters.index_sets[0], letters.index_sets[1]))
    assert indicator_set(x, (F(0),), F(2)) is ns.FULL
    assert indicator_set(x, (F(5),), F(1)) is ns.EMPTY
    assert complement_indicator_set(x, (F(1),), F(1, 4)) is indicator_set(
        x, (F(1, 4),), F(1, 2))
    # a letter's own set, not a one-part union
    assert indicator_set(x, (F(1),), F(1, 4)) is letters.index_sets[2]


# --- pinned reports ------------------------------------------------------------

RES = ('alphabet:{"letters":["0","1/4","3/4"],"sets":['
       '{"kind":"union","parts":[{"kind":"progression","first":1,"step":6},'
       '{"kind":"progression","first":4,"step":6}]},'
       '{"kind":"union","parts":[{"kind":"progression","first":2,"step":6},'
       '{"kind":"progression","first":3,"step":6},'
       '{"kind":"progression","first":6,"step":6}]},'
       '{"kind":"progression","first":5,"step":6}],"name":"residues-mod-6"}')
NEST = ('alphabet:{"letters":["0","1/2","1"],"sets":['
        '{"kind":"intersection","parts":[{"kind":"progression","first":1,'
        '"step":3},{"kind":"complement","part":{"kind":"powers","base":2}}]},'
        '{"kind":"intersection","parts":[{"kind":"progression","first":1,'
        '"step":3},{"kind":"powers","base":2}]},'
        '{"kind":"complement","part":{"kind":"progression","first":1,'
        '"step":3}}],"name":"nested-1-3-2"}')
PLANE = ('alphabet:{"letters":[["0","0"],["1/2","0"],["0","1/2"]],"sets":['
         '{"kind":"progression","first":1,"step":3},'
         '{"kind":"progression","first":2,"step":3},'
         '{"kind":"progression","first":3,"step":3}],"name":"plane"}')
CYC = "cycle:0,1/2,0,1,1/2"
SHAPE = ["--horizon", "8192", "--radii", "6", "--pitch", "1/64"]


# the .json and .csv digests, and the meta routes, written when each
# (center, radius) ball was rebuilt from its letter distances and decided
@pytest.mark.parametrize("args, code, json_digest, csv_digest, routes", [
    (["--seq", "charblocks:2", "--ideal", "gdi", "--mode", "all"], 2,
     "a00965db4bccc9413df2676c834c5de6bb670d421e29092411c06cf3de38e05f",
     "61e7a34e7552433995430a78b05fcb782e9e2ebb061367e5dd530048871ef95f",
     {"gamma": {"tail-trend": 12}, "lambda": {"tail-trend": 12},
      "limit_points": {"infiniteness": 12}}),
    (["--seq", "charblocks:2", "--ideal", "fin-x-fin", "--mode", "gamma"], 0,
     "26aa4414aa6ce3af624a4f60e91e6225b68521ae3eda01290afd0b80c60e454c",
     "51b47e97e612c670486c3eb20bc99c1fe31e5034dad4f01a5a58b29a23810fc1",
     {"gamma": {"row-rule": 12}}),
    (["--seq", "charblocks:2", "--ideal", "Z", "--mode", "convergence",
      "--ell", "1"], 0,
     "0d2eb8eeaba3a2c4c383c03c4235f316482b0547874696d39997e26283fd42fe",
     None,
     {"convergence": {"cross": {"witness-blocks": 12},
                      "primary": {"witness-blocks": 6}}}),
    (["--seq", CYC, "--ideal", "fin", "--mode", "limits"], 0,
     "d3f1acbd9c5dcf144e38be4bea3458367fc90354b2222d50e6f8ff4741325c73",
     "ea81075e9a767af02f950bb8e5cbef45c1f43c06fdcd0c48493c8ac34529a1c4",
     {"limit_points": {"infiniteness": 18}}),
    (["--seq", CYC, "--ideal", "Z", "--mode", "convergence", "--ell", "0"], 0,
     "82eec5c3836f484cc81ce25ca3e632998b25ec67e653c1c4c084c653968880a2",
     None,
     {"convergence": {"cross": {"exact-norm": 18},
                      "primary": {"exact-norm": 6}}}),
    (["--seq", CYC, "--ideal", "summable", "--mode", "all"], 0,
     "afe81208c1dc809b0a13025314d976ce3e8f6667afa2c5555cde4a8c87a0b669",
     "22ceac793abea609c8a6c4e4e9fc788b88fc256be2d80ac071398be467c83eb2",
     {"gamma": {"exact-norm": 18}, "lambda": {"exact-norm": 18},
      "limit_points": {"infiniteness": 18}}),
    (["--seq", RES, "--ideal", "summable", "--mode", "lambda-q",
      "--q", "1/4"], 0,
     "ba6e39333517ff52e9521776cf7ad8405380c028424ee8e847646b14f9f8e4f5",
     "38e99c5ed56d3ccbf17b09e3a5ef1806c54578245eae0ce8bc03a4b3dd9e9e91",
     {"lambda_q": {"exact-norm": 18}}),
    (["--seq", RES, "--ideal", "fin", "--mode", "all"], 0,
     "5e1db94f97341a4e51a9a3cd1987ec3b427e887156fcf97985c341c53dbe36ac",
     "38e99c5ed56d3ccbf17b09e3a5ef1806c54578245eae0ce8bc03a4b3dd9e9e91",
     {"gamma": {"exact-norm": 18}, "lambda": {"exact-norm": 18},
      "limit_points": {"infiniteness": 18}}),
    (["--seq", RES, "--ideal", "gdi", "--mode", "convergence",
      "--ell", "1/4"], 0,
     "a8474af7c917a0ee072100ee202cf4121b0db3336e39d31f745364afb2004ee2",
     None,
     {"convergence": {"cross": {"exact-norm": 18},
                      "primary": {"exact-norm": 6}}}),
    (["--seq", RES, "--ideal", "fin-x-fin", "--mode", "gamma"], 0,
     "e24c132f6f2a43c5785daccd4458611c06f2ca51dc8eafaa78ea84dddff84652",
     "d8dcf0c47c1c725063b542fd7999bf5b1171349eadc1a0bf809833d320225fad",
     {"gamma": {"row-rule": 18}}),
    (["--seq", NEST, "--ideal", "summable", "--mode", "lambda"], 0,
     "7e58320f25199e55eb0064e3fa697dfcf6266e2cd6306a6314ed83359dafbd91",
     "4b47af4d39d5667af2a59f0c8443854489935f7b439a4e4ecbe8a368399d1569",
     {"lambda": {"exact-norm": 12, "tail-trend": 6}}),
    (["--seq", NEST, "--ideal", "gdi", "--mode", "all"], 0,
     "a9a4ddff78b5e58cb7acf434bad8fa02283472cd6a1bda3cef38e7a5e74df08d",
     "63cf58c03d4bd552eb4f82fdc8d22003394991ab6d45553a9ba4e345a1e88440",
     {"gamma": {"exact-norm": 12, "tail-trend": 6},
      "lambda": {"exact-norm": 12, "tail-trend": 6},
      "limit_points": {"infiniteness": 18}}),
    (["--seq", PLANE, "--ideal", "Z", "--mode", "gamma"], 0,
     "a35bcbc3f24bf1cb9e5805587adb8c5abf1003c692943cac60a756ae22c78991",
     "3b7b9c1c7cf7332922073bb2313ee8406058dcaa39c8e6fe3f9384ef998e7d78",
     {"gamma": {"exact-norm": 18}}),
])
def test_alphabet_reports_are_pinned(tmp_path, args, code, json_digest,
                                     csv_digest, routes):
    out = tmp_path / "a"
    assert main(["analyze", *args, *SHAPE, "--out", str(out)]) == code

    def digest(suffix):
        path = Path(f"{out}{suffix}")
        return (hashlib.sha256(path.read_bytes()).hexdigest()
                if path.exists() else None)

    assert digest(".json") == json_digest
    assert digest(".csv") == csv_digest
    meta = json.loads(Path(f"{out}.meta.json").read_text())
    assert meta.get("routes") == routes


# --- one decision per subset ---------------------------------------------------

def _count_top_level_decisions(monkeypatch):
    """Every set the sequences module hands to decide_each, by its value
    (the decisions a Union makes on its parts go through the ideals module
    and are not counted)."""
    seen: list[str] = []
    decide = sq.decide_each

    def counted(handle, sets, params):
        seen.extend(s.dumps() for s in sets)
        return decide(handle, sets, params)

    monkeypatch.setattr(sq, "decide_each", counted)
    return seen


def test_gamma_decides_each_letter_subset_once(monkeypatch):
    seen = _count_top_level_decisions(monkeypatch)
    x = zoo.char_blocks(2)
    params = AnalysisParams(horizon=1 << 13, schedule=RadiusSchedule.dyadic(10))
    report = gamma_estimate(x, builtin("gdi"), params)
    assert len(report.candidates) == 2
    assert sum(len(c.radii) for c in report.candidates) == 20
    # two letters: at most the four subsets, and no subset twice
    assert 0 < len(seen) <= 4
    assert len(seen) == len(set(seen))


def test_no_decision_outlives_its_call(monkeypatch):
    seen = _count_top_level_decisions(monkeypatch)
    x = zoo.char_blocks(2)
    params = AnalysisParams(horizon=1 << 12, schedule=RadiusSchedule.dyadic(6))
    Z = builtin("Z")
    gamma_estimate(x, Z, params)
    first = len(seen)
    gamma_estimate(x, Z, params)
    assert len(seen) == 2 * first
    # the convergence legs keep one memo each: every complement of a ball
    # around 1 is letter 0's set, which the primary leg decides once and
    # the cross leg's gamma_estimate decides again
    del seen[:]
    ideal_convergence_check(x, Z, F(1), params)
    assert len(seen) == 1 + first
    assert seen.count(x.alphabet.index_sets[0].dumps()) == 2


def _reports(x, handle, params):
    out = {"limits": limit_points_estimate(x, params).to_json(),
           "gamma": gamma_estimate(x, handle, params).to_json(),
           "lambda": lambda_estimate(x, handle, params).to_json()}
    for ell in x.alphabet.letters:
        out[f"convergence {ell}"] = ideal_convergence_check(
            x, handle, ell, params).to_json()
    return out


@pytest.mark.parametrize("spec", ["charblocks:2", CYC, RES, NEST])
def test_one_spec_under_two_handles_and_horizons(spec):
    shared = zoo.get_sequence(spec)
    for name in ("Z", "gdi"):
        for horizon in (1 << 11, 1 << 13):
            params = AnalysisParams(horizon=horizon,
                                    schedule=RadiusSchedule.dyadic(6))
            handle = builtin(name)
            assert (_reports(shared, handle, params)
                    == _reports(zoo.get_sequence(spec), handle, params))


@pytest.mark.parametrize("spec", [
    "char:evens", "char:odds", "char:powers2", "charblocks:1", "charblocks:2",
    "charblocks:5", CYC, "const:3/4"])
def test_zoo_alphabets_partition_by_construction(spec):
    # only alphabet:<json> bodies are checked when they are built
    zoo.get_sequence(spec).alphabet.validate_partition(1 << 16)
