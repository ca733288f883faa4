"""The inclusion lattice of the paper's point sets, as properties.

For an ideal I, L is the set of ordinary limit points, Γ_I the I-cluster
points and Λ_I the I-limit points (the level sets of the limiting norm).
Over random alphabet sequences of the zoo (cycles, the characteristic
sequences, dyadic block letters, residue classes, and nested trees with
powers leaves) the reports must respect what holds for every sequence:

- a letter ball's index set knows whether it is infinite, so every
  limit-point radius is decided by that (route ``infiniteness``);
- Γ_fin = L;
- Λ_I ⊆ Γ_I ⊆ L for fin, Z, summable and gdi, and Γ_{fin×fin} ⊆ L;
- I ⊆ J gives Γ_J ⊆ Γ_I, so for fin ⊆ summable ⊆ Z, fin ⊆ gdi ⊆ Z and
  fin ⊆ fin-x-fin a point certified a cluster point under the larger ideal
  is never certified not one under the smaller.

An ``undecided`` classification never fails a property, and only a
certified one (every radius decided by an exact route) is held to the last.
"""

import json
from fractions import Fraction

from hypothesis import given, strategies as st

from idealconv import zoo
from idealconv.ideals import builtin
from idealconv.sequences import (AnalysisParams, RadiusSchedule,
                                 gamma_estimate, lambda_estimate,
                                 limit_points_estimate)

F = Fraction
ANALYTIC = ["fin", "density-zero", "summable", "gdi"]
# (smaller, larger) ideal pairs
INCLUSIONS = [("fin", "summable"), ("summable", "density-zero"),
              ("fin", "gdi"), ("gdi", "density-zero"), ("fin", "fin-x-fin")]
CERTIFIED = {"exact-norm", "witness-blocks", "row-rule", "infiniteness"}
LETTERS = [str(F(j, 16)) for j in range(17)]


def _prog(r, k):
    return {"kind": "progression", "first": r, "step": k}


def _union(parts):
    return parts[0] if len(parts) == 1 else {"kind": "union", "parts": parts}


def _alphabet(draw, sets, name):
    letters = draw(st.lists(st.sampled_from(LETTERS), min_size=len(sets),
                            max_size=len(sets), unique=True))
    body = {"letters": letters, "sets": sets, "name": name}
    return "alphabet:" + json.dumps(body, separators=(",", ":"))


@st.composite
def residue_alphabets(draw):
    """Letters on unions of residue classes mod k."""
    k = draw(st.integers(2, 6))
    n = draw(st.integers(2, min(4, k)))
    owner = draw(st.permutations(
        list(range(n)) + draw(st.lists(st.integers(0, n - 1),
                                       min_size=k - n, max_size=k - n))))
    sets = [_union([_prog(r + 1, k) for r in range(k) if owner[r] == i])
            for i in range(n)]
    return _alphabet(draw, sets, f"residues-mod-{k}")


@st.composite
def nested_alphabets(draw):
    """r mod k less the powers of b, r mod k among them, and the other
    residues, the last two merged into one letter or not."""
    k = draw(st.integers(2, 5))
    r = draw(st.integers(1, k))
    powers = {"kind": "powers", "base": draw(st.sampled_from([2, 3]))}
    dense = {"kind": "intersection",
             "parts": [_prog(r, k), {"kind": "complement", "part": powers}]}
    sparse = {"kind": "intersection", "parts": [_prog(r, k), powers]}
    rest = {"kind": "complement", "part": _prog(r, k)}
    if draw(st.booleans()):
        return _alphabet(draw, [dense, sparse, rest], "nested")
    return _alphabet(draw, [dense, {"kind": "union", "parts": [rest, sparse]}],
                     "nested2")


@st.composite
def cycles(draw):
    return "cycle:" + ",".join(draw(st.lists(st.sampled_from(LETTERS),
                                             min_size=1, max_size=5)))


sequences = st.one_of(
    cycles(),
    st.sampled_from(["char:evens", "char:odds", "char:powers2"]),
    st.integers(1, 4).map(lambda k: f"charblocks:{k}"),
    residue_alphabets(),
    nested_alphabets())


@st.composite
def cases(draw):
    horizon = draw(st.sampled_from([1 << 10, 1 << 12]))
    params = AnalysisParams(horizon=horizon, schedule=RadiusSchedule.dyadic(4),
                            pitch=F(1, 16))
    return zoo.get_sequence(draw(sequences), horizon), params


def classes(report, certified_only=False):
    """Each candidate's class, or None where it is undecided (or, with
    ``certified_only``, not decided by exact routes at every radius)."""
    out = {}
    for c in report.candidates:
        exact = all(r.reason in CERTIFIED for r in c.radii)
        decided = c.classification != "undecided"
        out[c.point] = (c.classification
                        if decided and (exact or not certified_only) else None)
    return out


def assert_subset(small, big, what):
    """No point in the smaller set is decided outside the bigger one."""
    for point, cls in small.items():
        if cls == "cluster":
            assert big[point] != "not-cluster", (what, point)


@given(cases())
def test_every_limit_point_radius_is_decided_by_infiniteness(case):
    x, params = case
    report = limit_points_estimate(x, params)
    assert all(r.reason == "infiniteness"
               for c in report.candidates for r in c.radii)


@given(cases())
def test_fin_cluster_points_are_the_limit_points(case):
    x, params = case
    limits = classes(limit_points_estimate(x, params))
    fin = classes(gamma_estimate(x, builtin("fin"), params))
    assert_subset(fin, limits, "Γ_fin ⊆ L")
    assert_subset(limits, fin, "L ⊆ Γ_fin")


@given(cases())
def test_limit_points_contain_cluster_points_contain_ideal_limits(case):
    x, params = case
    limits = classes(limit_points_estimate(x, params))
    for name in ANALYTIC + ["fin-x-fin"]:
        handle = builtin(name)
        gamma = classes(gamma_estimate(x, handle, params))
        assert_subset(gamma, limits, f"Γ_{name} ⊆ L")
        if handle.lscsm is not None:
            lam = classes(lambda_estimate(x, handle, params))
            assert_subset(lam, gamma, f"Λ_{name} ⊆ Γ_{name}")


@given(cases())
def test_a_larger_ideal_certifies_no_new_cluster_point(case):
    x, params = case
    gamma = {name: classes(gamma_estimate(x, builtin(name), params), True)
             for name in {n for pair in INCLUSIONS for n in pair}}
    for smaller, larger in INCLUSIONS:
        assert_subset(gamma[larger], gamma[smaller],
                      f"Γ_{larger} ⊆ Γ_{smaller}")
