"""Finite-extension games on selector and rearrangement prefixes.

An adversary and a strategy alternate finite extensions of a map prefix.
The strategy's escape move, at radius level k, appends positions drawn from
the target neighborhood until the appended interval's phi mass exceeds q —
a certified exit from the level-k trap set.  Radius levels cycle
1, 1, 2, 1, 2, 3, ... so every level recurs; the strategy wins a finite game
when every level it reached carries at least one exact certificate.
A run is a pure function of its seed, so transcripts replay bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import submeasure as sm
from .ideals import IdealHandle
from .sequences import (Point, RadiusSchedule, SequenceSpec, as_point,
                        format_point, NotAnalyticP)
from .transforms import BijectivityOverflow, ExhaustedA, MemberSupply


class SupplyExhausted(Exception):
    """The neighborhood ran out of fresh indices below the value horizon."""


@dataclass
class GameTarget:
    ell: Point
    q: Fraction
    schedule: RadiusSchedule

    def to_json(self) -> dict:
        return {"ell": format_point(self.ell), "q": str(self.q),
                "radii": [str(r) for r in self.schedule]}


@dataclass
class Move:
    player: str                 # "adversary" | "strategy"
    level: Optional[int]        # radius index for strategy moves
    start: int                  # first position filled by this move
    values: list[int]
    phi_value: Optional[Fraction] = None

    def to_json(self) -> dict:
        return {"player": self.player, "level": self.level,
                "start": self.start, "values": self.values,
                "phi": None if self.phi_value is None else str(self.phi_value)}


@dataclass
class GameState:
    kind: str                              # "sigma" | "pi"
    values: list[int] = field(default_factory=list)
    used: set[int] = field(default_factory=set)
    frontier: int = 0                      # pi only: max value used so far

    def next_position(self) -> int:
        return len(self.values) + 1

    def floor(self) -> int:
        if self.kind == "sigma":
            return self.values[-1] if self.values else 0
        return self.frontier

    def extend(self, vals: list[int]) -> None:
        if self.kind == "sigma":
            last = self.floor()
            for v in vals:
                if v <= last:
                    raise ValueError("sigma prefix must stay increasing")
                last = v
        elif vals:
            fresh = set(vals)
            if len(fresh) < len(vals) or not self.used.isdisjoint(fresh):
                raise ValueError("pi prefix must stay injective")
            self.used |= fresh
            self.frontier = max(self.frontier, max(vals))
        self.values.extend(vals)


@dataclass
class GameTranscript:
    kind: str
    target: GameTarget
    moves: list[Move]
    verdict: str                # "win" | "loss" | "undetermined"
    reason: str
    level_certificates: dict[int, Fraction]
    seed: int
    rounds: int
    horizon: int

    def to_json(self) -> dict:
        return {"kind": self.kind, "target": self.target.to_json(),
                "moves": [m.to_json() for m in self.moves],
                "verdict": self.verdict, "reason": self.reason,
                "level_certificates": {str(k): str(v) for k, v
                                       in sorted(self.level_certificates.items())},
                "seed": self.seed, "rounds": self.rounds,
                "horizon": self.horizon}


def _draw_until_mass(state: GameState, supply: MemberSupply, q: Fraction,
                     m: sm.Lscsm, horizon: int) -> tuple[list[int], Fraction]:
    """Fill the next positions with fresh neighborhood members, increasing
    and above the state's floor, until the filled interval's phi mass
    exceeds q, and return them with that interval's exact mass.

    The length is fixed before any value is drawn: the least one whose mass
    exceeds q, from the submeasure's own inverse of its interval mass
    (``Lscsm.mass_length``).  The values lie in (floor, horizon], so at most
    horizon - floor fit, and that caps the length; with no length up to the
    cap, the draw asks for one value more than fit.  The values come in one
    batched take of the supply (``MemberSupply.run``), which ends after the
    first member past the horizon.  A member past the horizon, or a supply
    that runs out, raises SupplyExhausted.
    """
    n1 = state.next_position()
    floor = state.floor()
    length = m.mass_length(n1, q, horizon - floor, strict=True)
    try:
        vals = supply.run(length or max(0, horizon - floor) + 1, floor,
                          horizon)
    except ExhaustedA:
        raise SupplyExhausted(f"no fresh member above {floor}")
    if vals[-1] > horizon:
        raise SupplyExhausted(f"next member {vals[-1]} exceeds horizon {horizon}")
    return vals, m.interval_mass(n1, n1 + length)


def _escape(state: GameState, x: SequenceSpec, ell, k: int, q: Fraction,
            m: sm.Lscsm, horizon: int, schedule: RadiusSchedule) -> Move:
    supply = MemberSupply(x, as_point(ell, x.dim), schedule.radii[k - 1])
    start = state.next_position()
    vals, mass = _draw_until_mass(state, supply, q, m, horizon)
    if state.kind == "pi" and len(state.used) + len(vals) > horizon:
        raise BijectivityOverflow("displaced values exceed the horizon")
    state.extend(vals)
    return Move("strategy", k, start, vals, mass)


def escape_extension(state: GameState, x: SequenceSpec, ell, k: int,
                     q: Fraction, m: sm.Lscsm, horizon: int,
                     schedule: RadiusSchedule) -> Move:
    """Strategy move on selector prefixes: exit the level-k trap set.

    Values come increasingly from the radius-k neighborhood of ell; the move
    is minimal, stopping at the first position where the appended interval
    carries phi mass above q, and the exact mass is the certificate.
    """
    if state.kind != "sigma":
        raise ValueError("state is not a selector prefix")
    return _escape(state, x, ell, k, q, m, horizon, schedule)


def escape_extension_pi(state: GameState, x: SequenceSpec, ell, k: int,
                        q: Fraction, m: sm.Lscsm, horizon: int,
                        schedule: RadiusSchedule) -> Move:
    """Strategy move on rearrangement prefixes.

    Fresh neighborhood members are enumerated increasingly and routed to the
    next positions; displaced smaller integers stay queued for the adversary
    rounds, the prefix itself only ever needs injectivity.
    """
    if state.kind != "pi":
        raise ValueError("state is not a rearrangement prefix")
    return _escape(state, x, ell, k, q, m, horizon, schedule)


def _adversary_move(state: GameState, rng: random.Random,
                    horizon: int) -> Move:
    """Random finite extension: geometric length, small random gaps for
    selector prefixes, smallest-displaced-first values for rearrangements."""
    length = 1
    while rng.random() < 0.5 and length < 64:
        length += 1
    start = state.next_position()
    vals: list[int] = []
    if state.kind == "sigma":
        v = state.floor()
        for _ in range(length):
            gap = 1
            while rng.random() < 0.5 and gap < 16:
                gap += 1
            v += gap
            vals.append(v)
    else:
        candidate = 1
        for _ in range(length):
            while candidate in state.used or candidate in vals:
                candidate += 1
            if rng.random() < 0.25:
                spread = candidate + rng.randrange(1, 32)
                while spread in state.used or spread in vals:
                    spread += 1
                vals.append(spread)
            else:
                vals.append(candidate)
    state.extend(vals)
    return Move("adversary", None, start, vals)


def level_cycle(rounds: int) -> list[int]:
    """1, 1, 2, 1, 2, 3, ... — every level recurs within a finite run."""
    out: list[int] = []
    width = 1
    while len(out) < rounds:
        out.extend(range(1, width + 1))
        width += 1
    return out[:rounds]


def run_game(x: SequenceSpec, handle: IdealHandle, target: GameTarget,
             rounds: int, horizon: int, seed: int,
             kind: str = "sigma") -> GameTranscript:
    """Play adversary vs. strategy for the given number of rounds.

    Win: every radius level reached has a certified escape (exact phi mass
    above q).  A strategy starved of fresh neighborhood members below the
    horizon loses with the reason recorded.  Zero rounds is undetermined.
    A q at or above phi(N), which no escape can exceed, is refused.
    """
    if handle.lscsm is None:
        raise NotAnalyticP(f"{handle.name} carries no submeasure")
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    full = handle.lscsm.full_norm()
    if target.q >= full:
        # no interval's phi mass exceeds phi(N), so no escape exists
        raise ValueError(f"q must lie below {full}, phi(N)")
    levels = level_cycle(rounds)
    needed = max(levels, default=0)
    if needed > len(target.schedule):
        raise ValueError(f"{rounds} rounds reach radius level {needed}, but "
                         f"the schedule holds {len(target.schedule)} radii; "
                         f"at least {needed} radii are needed")
    m = handle.lscsm
    rng = random.Random(("game", kind, seed).__repr__())
    state = GameState(kind=kind)
    moves: list[Move] = []
    certificates: dict[int, Fraction] = {}
    verdict, reason = "undetermined", "no rounds played"
    escape = escape_extension if kind == "sigma" else escape_extension_pi
    for r in range(rounds):
        moves.append(_adversary_move(state, rng, horizon))
        k = levels[r]
        try:
            mv = escape(state, x, target.ell, k, target.q, m, horizon,
                        target.schedule)
        except (SupplyExhausted, BijectivityOverflow) as exc:
            verdict, reason = "loss", f"{type(exc).__name__}: {exc}"
            break
        moves.append(mv)
        if k not in certificates or mv.phi_value > certificates[k]:
            certificates[k] = mv.phi_value
    else:
        if rounds > 0:
            reached = max(levels[:rounds])
            if all(k in certificates and certificates[k] > target.q
                   for k in range(1, reached + 1)):
                verdict = "win"
                reason = f"certified levels 1..{reached}"
            else:
                verdict, reason = "loss", "missing level certificate"
    return GameTranscript(kind, target, moves, verdict, reason, certificates,
                          seed, rounds, horizon)
