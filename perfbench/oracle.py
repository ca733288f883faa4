"""Output checks, run after the timed jobs, and the failure ledger.

A job fails when an exception escapes ``cli.main``, when it exits 1 or 4, or
when its output disagrees with a check here.  Each failure is matched against
the named known failures of the program; one that matches none is a finding
and makes the run incorrect.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction as F
from pathlib import Path

from idealconv import meager, transforms, zoo
from idealconv.ideals import builtin, builtin_names
from idealconv.sequences import RadiusSchedule, as_point, distance
from jobs import IDEAL_NAMES

# Known failures of the program at the commit the benchmark was written for.
# The benchmark does not work around them: they count in fail_share.
KNOWN_FAILURES = {
    "digit-limit": "analyze exits 1 with 'Exceeds the limit (4300 digits) for "
                   "integer string conversion' when a report prints exact "
                   "summable tail numerics (lambda at horizon >= 2^15)",
    "exhausted-a-escapes": "preserve pi --mode preserve lets an uncaught "
                           "ExhaustedA escape cli.main",
    "int64-ball-test": "zoo.harmonic / zoo.rationals test ball membership "
                       "with int64 products that overflow for centres with "
                       "large denominators, so hit_bits disagree with the "
                       "exact reference",
}

HIT_SAMPLES = 64
INT64 = 1 << 63
UNDECIDED = {"undecided", "undetermined"}


class Outcome:
    def __init__(self):
        self.problems: list[tuple[str, str | None]] = []   # (text, known)
        self.decided = 0
        self.undecided = 0

    def fail(self, text: str, known: str | None = None) -> None:
        self.problems.append((text, known))

    def verdict(self, value: str) -> None:
        if value in UNDECIDED:
            self.undecided += 1
        else:
            self.decided += 1

    @property
    def known(self) -> str | None:
        """The known failure that explains every problem, if one does."""
        names = {k for _, k in self.problems}
        return names.pop() if len(names) == 1 and None not in names else None


def _flag(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _ideal_name(argv: list[str]) -> str:
    return builtin(_flag(argv, "--ideal")).name


def _schedule(argv: list[str]) -> list[F]:
    return list(RadiusSchedule.dyadic(int(_flag(argv, "--radii", 10))))


# ---------------------------------------------------------------------------
# Ground truth for the sequences the jobs use
# ---------------------------------------------------------------------------

def _union_facts(facts: list[dict]) -> dict:
    """Facts of a union of letter index sets (the sets are disjoint)."""
    infinite = any(f["infinite"] for f in facts)
    inn = {}
    for ideal in IDEAL_NAMES:
        vals = [f["in"].get(ideal) for f in facts]
        if all(v is True for v in vals):
            inn[ideal] = True
        elif any(v is False for v in vals):
            inn[ideal] = False
    dens = [f["density"] for f in facts]
    norm = {"fin": F(int(infinite))}
    if all(d is not None for d in dens):
        total = sum((F(d) for d in dens), F(0))
        norm.update({"density-zero": total, "gdi": total,
                     "summable": F(int(total > 0))})
    return {"infinite": infinite, "in": inn, "norm": norm}


def ball_facts(model: dict, c: F, eps: F, inside: bool = True) -> dict | None:
    """Known facts of {n : d(x_n, c) < eps} (or its complement)."""
    kind = model["type"]
    if kind == "alphabet":
        chosen = [L["facts"] for L in model["letters"]
                  if (abs(F(L["value"]) - c) < eps) == inside]
        if not chosen:
            return {"infinite": False, "norm": {},
                    "in": {i: True for i in IDEAL_NAMES}}
        return _union_facts(chosen)
    if kind == "harmonic":
        # 1/n -> 0: the ball is cofinite when it reaches 0, else finite
        cofinite = abs(c) < eps or c == eps
        big = cofinite == inside
        return {"infinite": big,
                "in": {i: not big for i in IDEAL_NAMES},
                "norm": {i: F(int(big)) for i in IDEAL_NAMES[:4]}}
    if kind == "rationals":
        # every interval of positive length inside [0, 1] holds a positive
        # share of the enumeration; single points appear once
        if inside:
            positive = c + eps > 0 and c - eps < 1
        else:
            positive = c - eps > 0 or c + eps < 1
        inn = {i: not positive for i in IDEAL_NAMES[:4]}
        if not positive:
            inn["fin-x-fin"] = True
        return {"infinite": positive, "in": inn,
                "norm": {"fin": F(int(positive)),
                         "summable": F(int(positive))}}
    return None


def _int64_overflow(seq: str, c: F, eps: F, horizon: int) -> bool:
    """Whether zoo's int64 ball test can overflow for this centre."""
    p0, q0 = abs(c.numerator), c.denominator
    e1, e2 = eps.numerator, eps.denominator
    if seq == "harmonic":
        return max((q0 + horizon * p0) * e2, e1 * horizon * q0) >= INT64
    qmax = zoo.get_sequence("rationals").point(horizon)[0].denominator
    return max(qmax * (p0 + q0) * e2, e1 * qmax * q0) >= INT64


# ---------------------------------------------------------------------------
# Checks per command
# ---------------------------------------------------------------------------

def check_hit_bits(out: Outcome, x, seq: str, c: F, eps: F, horizon: int,
                   rng: random.Random, base_seq: str | None) -> None:
    """Spot-check hit_bits against distance(x.point(n), c) < eps."""
    bits = x.hit_bits(as_point(c), eps, horizon)
    ns = sorted(rng.sample(range(1, horizon + 1), min(HIT_SAMPLES, horizon)))
    wrong = [n for n in ns
             if bool(bits[n - 1]) != (distance(x.point(n), (c,)) < eps)]
    if wrong:
        known = ("int64-ball-test"
                 if base_seq is not None and _int64_overflow(base_seq, c, eps,
                                                             horizon)
                 else None)
        out.fail(f"{seq}: hit_bits({c}, {eps}) wrong at n={wrong[:5]}", known)


def _check_cluster_report(out: Outcome, rep: dict, model, ideal) -> None:
    for cand in rep["candidates"]:
        out.verdict(cand["classification"])
        c = F(cand["point"])
        for r in cand["radii"]:
            if model is None:
                continue
            eps = F(r["eps"])
            facts = ball_facts(model, c, eps)
            if rep["mode"] == "limit-points":
                if model["type"] == "alphabet" and r["verdict"] != "undecided":
                    want = "cluster" if facts["infinite"] else "not-cluster"
                    if r["verdict"] != want:
                        out.fail(f"limit point {c} at {eps}: {r['verdict']} "
                                 f"!= {want}")
                continue
            if r.get("exact") is None:
                continue      # estimated, not certified: nothing to hold
            exact = F(r["exact"])
            want_norm = facts["norm"].get(ideal)
            if want_norm is not None and exact != want_norm:
                out.fail(f"{rep['mode']} {c} at {eps}: exact norm {exact} "
                         f"!= {want_norm}")
            if rep["mode"] == "gamma":
                inn = facts["in"].get(ideal)
                if inn is not None and r["verdict"] != ("in" if inn else "not-in"):
                    out.fail(f"gamma {c} at {eps}: certified {r['verdict']} "
                             f"is wrong under {ideal}")


def check_analyze(out: Outcome, job: dict, payload: dict, rng) -> None:
    argv, model = job["argv"], job["model"]
    ideal = _ideal_name(argv)
    seq = _flag(argv, "--seq")
    horizon = int(_flag(argv, "--horizon", 1 << 16))
    schedule = _schedule(argv)
    reports = payload["reports"]
    for key in ("gamma", "lambda", "lambda_q", "limit_points"):
        if key in reports:
            _check_cluster_report(out, reports[key], model, ideal)
    conv = reports.get("convergence")
    if conv is not None:
        out.verdict(conv["verdict"])
        ell = F(conv["ell"])
        if conv["verdict"] != "undecided" and model is not None:
            comps = [ball_facts(model, ell, eps, inside=False)["in"].get(ideal)
                     for eps in schedule]
            if None not in comps:
                want = "converges" if all(comps) else "diverges"
                if conv["verdict"] != want:
                    out.fail(f"convergence to {ell}: {conv['verdict']} != "
                             f"{want}")
    if model is not None and model["type"] in ("harmonic", "rationals"):
        x = zoo.get_sequence(seq)
        if conv is not None:
            centres = [F(conv["ell"])]
        else:
            points = [F(c["point"]) for rep in reports.values()
                      for c in rep.get("candidates", [])]
            centres = rng.sample(points, min(3, len(points)))
        for c in centres:
            for eps in schedule:
                check_hit_bits(out, x, seq, c, eps, horizon, rng, seq)
        if any(k == "int64-ball-test" for _, k in out.problems):
            # wrong indicator bits corrupt every verdict built on them
            out.problems = [(p, k or "int64-ball-test") for p, k in out.problems]


def check_sample(out: Outcome, job: dict, payload: dict, rng) -> None:
    argv = job["argv"]
    seq = _flag(argv, "--seq")
    x = zoo.get_sequence(seq)
    cfg = payload["config"]
    horizon = min(cfg["length"], cfg["horizon"])
    pitch = F(cfg["pitch"])
    schedule = _schedule(argv)
    for row in payload["samples"][:2]:
        y = transforms.apply(transforms.random_sigma(row["seed"],
                                                     length=cfg["length"]), x)
        c = pitch * rng.randrange(int(1 / pitch) + 1)
        check_hit_bits(out, y, f"sigma({seq})", c, rng.choice(schedule),
                       horizon, rng, None)


def check_witness_build(out: Outcome, job: dict, payload: dict) -> None:
    """Reload the witness and re-certify every block inside the horizon."""
    ideal = builtin(_flag(job["argv"], "--ideal"))
    horizon = int(_flag(job["argv"], "--horizon"))
    w = meager.WitnessIntervals.from_json(payload["witness"])
    for n, lo, hi in w.blocks_within(horizon):
        if not w.certify_block(n, ideal.lscsm):
            out.fail(f"witness block {n} = [{lo}, {hi}) fails {w.rule}")
            return


def check_witness_verify(out: Outcome, job: dict, payload: dict) -> None:
    rep = payload["report"]
    if any(s["verdict"] == "in" for s in rep["samples"]):
        out.fail("a sampled block union was decided in the ideal")
    if any(m["first_k"] is None for m in rep["members"]):
        out.fail("a sampled member passed no separating cutoff")
    if not rep["cofinite_all_fail"]:
        out.fail("a cofinite set passed a separating cutoff")


def check_game(out: Outcome, job: dict, payload: dict) -> None:
    """Recompute each strategy move's phi mass and its ball membership."""
    argv = job["argv"]
    tr = payload["transcript"]
    out.verdict(tr["verdict"])
    m = builtin(_flag(argv, "--ideal")).lscsm
    x = zoo.get_sequence(_flag(argv, "--seq"))
    q = F(tr["target"]["q"])
    ell = F(tr["target"]["ell"])
    radii = [F(r) for r in tr["target"]["radii"]]
    values = [v for mv in tr["moves"] for v in mv["values"]]
    if tr["kind"] == "sigma" and any(b <= a for a, b in zip(values, values[1:])):
        out.fail("sigma prefix is not increasing")
    if tr["kind"] == "pi" and len(set(values)) != len(values):
        out.fail("pi prefix is not injective")
    for mv in tr["moves"]:
        if mv["player"] != "strategy":
            continue
        start, vals = mv["start"], mv["values"]
        phi = m.phi_points(list(range(start, start + len(vals))))
        if phi != F(mv["phi"]) or not phi > q:
            out.fail(f"move at {start}: phi {phi} vs reported {mv['phi']}, "
                     f"q {q}")
        eps = radii[mv["level"] - 1]
        if any(not distance(x.point(v), (ell,)) < eps for v in vals):
            out.fail(f"move at {start} leaves the level-{mv['level']} ball")


def check_preserve(out: Outcome, job: dict, payload: dict) -> None:
    res = payload["result"]
    table = res["map"]["table"]
    if res["map"]["type"] == "sigma":
        if any(b <= a for a, b in zip(table, table[1:])) or (table and
                                                             table[0] < 1):
            out.fail("sigma table is not strictly increasing")
    elif res["map"]["rule"] is None and sorted(table) != list(
            range(1, len(table) + 1)):
        out.fail("pi table is not a permutation of an initial segment")
    if not all(b["verified"] for b in res["blocks"]):
        out.fail("a filled block is not verified")


def check_ideals_list(out: Outcome, payload: dict) -> None:
    if [e["name"] for e in payload["ideals"]] != builtin_names():
        out.fail("ideals list differs from the built-in names")


# ---------------------------------------------------------------------------
# One job
# ---------------------------------------------------------------------------

def check_job(job: dict, record: dict, seed: int, index: int) -> Outcome:
    out = Outcome()
    argv = job["argv"]
    exc, rc = record["exception"], record["rc"]
    if exc is not None:
        known = ("exhausted-a-escapes"
                 if exc["type"] == "ExhaustedA" and argv[:2] == ["preserve", "pi"]
                 and _flag(argv, "--mode") == "preserve" else None)
        out.fail(f"{exc['type']} escaped cli.main: {exc['detail'][:200]}",
                 known)
        return out
    if rc in (1, 4):
        known = ("digit-limit" if rc == 1 and "Exceeds the limit (4300 digits)"
                 in record["stderr"] else None)
        out.fail(f"exit {rc}: {record['stderr'].strip()[-300:]}", known)
        return out
    path = Path(job["out"] + ".json")
    if rc == 3:
        return out        # hypothesis failed: a valid answer with no report
    if rc not in (0, 2) or not path.exists():
        out.fail(f"exit {rc} without a report")
        return out
    payload = json.loads(path.read_text())
    rng = random.Random(f"{seed}/{index}")
    command = argv[0] if argv[0] not in ("witness", "game") else \
        f"{argv[0]} {argv[1]}"
    if command == "analyze":
        check_analyze(out, job, payload, rng)
    elif command == "sample":
        check_sample(out, job, payload, rng)
    elif command == "witness build":
        check_witness_build(out, job, payload)
    elif command == "witness verify":
        check_witness_verify(out, job, payload)
    elif command == "game run":
        check_game(out, job, payload)
    elif command == "preserve":
        check_preserve(out, job, payload)
    elif command == "ideals":
        check_ideals_list(out, payload)
    return out
