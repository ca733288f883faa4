"""Escape moves and full game runs, with transcript replay checks."""

import json
from fractions import Fraction

import pytest

from idealconv import submeasure as sm
from idealconv import zoo
from idealconv.games import (GameState, GameTarget, SupplyExhausted,
                             escape_extension, escape_extension_pi,
                             level_cycle, run_game)
from idealconv.ideals import builtin
from idealconv.sequences import NotAnalyticP, RadiusSchedule

F = Fraction
SCHED = RadiusSchedule.dyadic(10)


def test_escape_extension_evens():
    state = GameState("sigma")
    mv = escape_extension(state, zoo.char_evens(), (F(1),), 1, F(1, 4),
                          sm.RunningDensity(), 10 ** 5, SCHED)
    # oracle: the filled interval's running density must exceed a quarter
    n1, n2 = mv.start, mv.start + len(mv.values) - 1
    assert F(n2 - n1 + 1, n2) > F(1, 4)
    assert mv.phi_value == F(n2 - n1 + 1, n2)
    assert all(v % 2 == 0 for v in mv.values)


def test_escape_extension_minimal_for_convergent():
    state = GameState("sigma")
    mv = escape_extension(state, zoo.harmonic(), (F(0),), 1, F(1, 2),
                          sm.RunningDensity(), 10 ** 5, SCHED)
    assert len(mv.values) >= 1 and mv.phi_value > F(1, 2)


def test_escape_extension_supply_exhausted():
    state = GameState("sigma")
    # eat the small powers first, as a hostile prefix would
    state.extend([2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048])
    with pytest.raises(SupplyExhausted):
        for _ in range(10):
            escape_extension(state, zoo.char_powers2(), (F(1),), 1, F(1, 2),
                             sm.RunningDensity(), 10 ** 4, SCHED)


def test_escape_extension_pi_respects_used_values():
    state = GameState("pi")
    state.extend([2, 4, 6])       # adversary consumed small evens
    mv = escape_extension_pi(state, zoo.char_evens(), (F(1),), 1, F(1, 4),
                             sm.RunningDensity(), 10 ** 5, SCHED)
    assert all(v % 2 == 0 and v not in (2, 4, 6) for v in mv.values)
    assert len(set(state.values)) == len(state.values)


def test_level_cycle_prefix():
    assert level_cycle(6) == [1, 1, 2, 1, 2, 3]
    assert level_cycle(20)[:10] == [1, 1, 2, 1, 2, 3, 1, 2, 3, 4]


def test_run_game_win_and_loss():
    Z = builtin("density-zero")
    target1 = GameTarget((F(1),), F(1, 4), SCHED)
    t = run_game(zoo.char_evens(), Z, target1, rounds=20, horizon=10 ** 5, seed=3)
    assert t.verdict == "win"
    reached = max(level_cycle(20))
    assert set(t.level_certificates) == set(range(1, reached + 1))
    assert all(v > F(1, 4) for v in t.level_certificates.values())
    t2 = run_game(zoo.char_powers2(), Z, target1, rounds=20, horizon=10 ** 5,
                  seed=3)
    assert t2.verdict == "loss" and "SupplyExhausted" in t2.reason


def test_run_game_zero_rounds_undetermined():
    Z = builtin("density-zero")
    t = run_game(zoo.char_evens(), Z, GameTarget((F(0),), F(1, 4), SCHED),
                 rounds=0, horizon=10 ** 4, seed=1)
    assert t.verdict == "undetermined"


def test_run_game_replay_identical():
    Z = builtin("density-zero")
    target = GameTarget((F(0),), F(1, 4), SCHED)
    a = run_game(zoo.char_evens(), Z, target, rounds=15, horizon=10 ** 5, seed=9)
    b = run_game(zoo.char_evens(), Z, target, rounds=15, horizon=10 ** 5, seed=9)
    assert json.dumps(a.to_json(), sort_keys=True) \
        == json.dumps(b.to_json(), sort_keys=True)
    c = run_game(zoo.char_evens(), Z, target, rounds=15, horizon=10 ** 5, seed=10)
    assert json.dumps(c.to_json(), sort_keys=True) \
        != json.dumps(a.to_json(), sort_keys=True)


def test_run_game_pi_kind():
    Z = builtin("density-zero")
    t = run_game(zoo.char_evens(), Z, GameTarget((F(1),), F(1, 4), SCHED),
                 rounds=12, horizon=10 ** 5, seed=2, kind="pi")
    assert t.verdict == "win"
    # the prefix stayed injective throughout
    moves_values = [v for m in t.moves for v in m.values]
    assert len(moves_values) == len(set(moves_values))


@pytest.mark.parametrize("first, more", [
    ([3, 1], [2, 2]),          # a value twice in one extension
    ([3, 1], [4, 1]),          # a value used by an earlier one
])
def test_pi_extension_refuses_a_repeated_value(first, more):
    state = GameState("pi")
    state.extend(first)
    assert state.frontier == 3 and state.used == {1, 3}
    with pytest.raises(ValueError, match="pi prefix must stay injective"):
        state.extend(more)
    state.extend([2, 5])
    assert state.values == [3, 1, 2, 5] and state.frontier == 5


def test_run_game_needs_submeasure():
    fxf = builtin("fin-x-fin")
    with pytest.raises(NotAnalyticP):
        run_game(zoo.char_evens(), fxf, GameTarget((F(1),), F(1, 4), SCHED),
                 rounds=3, horizon=10 ** 4, seed=0)


def test_strategy_moves_strictly_extend():
    Z = builtin("density-zero")
    t = run_game(zoo.char_evens(), Z, GameTarget((F(1),), F(1, 4), SCHED),
                 rounds=10, horizon=10 ** 5, seed=4)
    pos = 0
    for m in t.moves:
        assert m.start == pos + 1 and len(m.values) >= 1
        pos += len(m.values)
