"""Seeded job lists for the three workloads.

A job is a dict: ``argv`` (what ``idealconv.cli.main`` receives, minus the
``--out`` prefix the worker appends), ``kind`` (the template it came from) and
``model`` (what the output oracle knows about the sequence; the program never
sees it).

Every workload is a list of rounds.  A round holds one job per template, in a
fixed order, and the ideal, mode, horizon and radii of each slot rotate with
the round number, so the mix of job kinds and sizes is the same for every
seed; the seed draws what sits inside each template (alphabets, cycles,
centres, map and game seeds).  That keeps the total work of a run nearly
seed-independent, which is what lets ``jobs_per_s`` be compared across seeds.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction as F

# Nominal cost of one round on a 2-vCPU x86-64 container, Python 3.11,
# numpy 2.4: the run length in seconds sets the number of rounds through it.
ROUND_SECONDS = {"analyze-estimate": 1.25, "analyze-certify": 0.1,
                 "construct": 1.45}
MIN_JOBS = 100

CLI_IDEALS = ["fin", "Z", "summable", "gdi", "fin-x-fin"]
ANALYTIC = ["fin", "Z", "summable", "gdi"]
IDEAL_NAMES = ("fin", "density-zero", "summable", "gdi", "fin-x-fin")
DYADIC = [F(k, 8) for k in range(9)]


def nu2(n: int) -> int:
    return (n & -n).bit_length() - 1


# ---------------------------------------------------------------------------
# Set facts: what is known, independently of the program, about index sets
# ---------------------------------------------------------------------------

def _facts(infinite, density, fxf_in, extra=None):
    """Known facts of one letter's index set.

    ``density`` is the natural density when it exists (None otherwise);
    membership in fin, density-zero, summable and gdi follows from it for the
    shapes generated here (positive density: outside all four; density zero:
    inside all four unless infinite, where fin differs).
    """
    inn = {}
    if density is not None:
        pos = density > 0
        inn = {"fin": not infinite, "density-zero": not pos,
               "summable": not pos, "gdi": not pos}
    if extra:
        inn.update(extra)
    if fxf_in is not None:
        inn["fin-x-fin"] = fxf_in
    return {"infinite": infinite,
            "density": None if density is None else str(density),
            "in": inn}


def residues_facts(residues: list[int], k: int) -> dict:
    """Union of the progressions r, r + k, r + 2k, ... for r in residues."""
    return _facts(bool(residues), F(len(residues), k),
                  all(nu2(r) < nu2(k) for r in residues))


def powers_in_progression_infinite(r: int, k: int, b: int) -> bool:
    """Whether {b^j : j >= 1} meets the progression r mod k infinitely often."""
    v = b % k
    seen = []
    for _ in range(3 * k + 2):
        seen.append(v)
        v = (v * b) % k
    return (r % k) in seen[k + 1:]


# ---------------------------------------------------------------------------
# Sequence builders (spec string + model)
# ---------------------------------------------------------------------------

def _prog(r, k):
    return {"kind": "progression", "first": r, "step": k}


def _union(parts):
    return parts[0] if len(parts) == 1 else {"kind": "union", "parts": parts}


def _alphabet(values, sets, facts, name):
    body = {"letters": [str(v) for v in values], "sets": sets, "name": name}
    spec = "alphabet:" + json.dumps(body, separators=(",", ":"))
    return spec, {"type": "alphabet",
                  "letters": [{"value": str(v), "facts": f}
                              for v, f in zip(values, facts)]}


def zoo_char(name: str):
    """char:evens / char:odds / char:powers2 with their letter facts."""
    if name == "char:evens":
        one, zero = residues_facts([2], 2), residues_facts([1], 2)
    elif name == "char:odds":
        one, zero = residues_facts([1], 2), residues_facts([2], 2)
    else:
        one = _facts(True, F(0), True)
        zero = _facts(True, F(1), False)
    return name, {"type": "alphabet",
                  "letters": [{"value": "0", "facts": zero},
                              {"value": "1", "facts": one}]}


def zoo_charblocks(k: int):
    """Every k-th dyadic block [2^n, 2^(n+1)) is 1, the rest 0."""
    if k == 1:
        one = _facts(True, F(1), False)
        zero = _facts(False, F(0), True)
    else:
        # both letters hold infinitely many whole dyadic blocks: no natural
        # density, but outside every ideal here (blocks of unbounded length
        # also fill every 2-adic row)
        outside = {i: False for i in IDEAL_NAMES}
        one = _facts(True, None, False, outside)
        zero = _facts(True, None, False, outside)
    return f"charblocks:{k}", {"type": "alphabet",
                               "letters": [{"value": "0", "facts": zero},
                                           {"value": "1", "facts": one}]}


def random_cycle(rng: random.Random, length: int):
    values = [rng.choice(DYADIC) for _ in range(length)]
    letters = []
    for v in values:
        if v not in letters:
            letters.append(v)
    facts = [residues_facts([i + 1 for i, w in enumerate(values) if w == v],
                            length) for v in letters]
    spec = "cycle:" + ",".join(str(v) for v in values)
    return spec, {"type": "alphabet",
                  "letters": [{"value": str(v), "facts": f}
                              for v, f in zip(letters, facts)]}


def random_residue_alphabet(rng: random.Random, k: int | None = None):
    """Letters on unions of progressions mod k that partition N (k drawn
    when not given)."""
    if k is None:
        k = rng.choice([2, 3, 4, 6, 8])
    n_letters = rng.randint(2, min(4, k))
    values = rng.sample([F(j, 16) for j in range(17)], n_letters)
    owner = list(range(n_letters)) + [rng.randrange(n_letters)
                                      for _ in range(k - n_letters)]
    rng.shuffle(owner)
    groups = [[r + 1 for r in range(k) if owner[r] == i]
              for i in range(n_letters)]
    sets = [_union([_prog(r, k) for r in g]) for g in groups]
    facts = [residues_facts(g, k) for g in groups]
    return _alphabet(values, sets, facts, f"residues-mod-{k}")


def random_nested_alphabet(rng: random.Random):
    """Letters on trees such as Progression ∩ Complement(PowersOf): no closed
    form applies, so decisions fall through to tail estimation."""
    k = rng.choice([2, 3, 4, 5])
    r = rng.randint(1, k)
    b = rng.choice([2, 3])
    prog = _prog(r, k)
    powers = {"kind": "powers", "base": b}
    sparse = {"kind": "intersection", "parts": [prog, powers]}
    dense = {"kind": "intersection",
             "parts": [prog, {"kind": "complement", "part": powers}]}
    rest = {"kind": "complement", "part": prog}
    others = [i for i in range(1, k + 1) if i != r]
    rest_facts = residues_facts(others, k)
    sparse_inf = powers_in_progression_infinite(r, k, b)
    dense_facts = _facts(True, F(1, k), nu2(r) < nu2(k))
    sparse_facts = _facts(sparse_inf, F(0), True)
    values = rng.sample([F(j, 16) for j in range(17)], 3)
    if rng.random() < 0.5:
        return _alphabet(values, [dense, sparse, rest],
                         [dense_facts, sparse_facts, rest_facts],
                         f"nested-{r}-{k}-{b}")
    merged = {"kind": "union", "parts": [rest, sparse]}
    merged_facts = _facts(rest_facts["infinite"] or sparse_inf,
                          F(len(others), k), rest_facts["in"]["fin-x-fin"])
    return _alphabet(values[:2], [dense, merged], [dense_facts, merged_facts],
                     f"nested2-{r}-{k}-{b}")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _job(kind, argv, model=None, **extra):
    job = {"kind": kind, "argv": [str(a) for a in argv], "model": model}
    job.update(extra)
    return job


def _big_ell(rng, bits_lo, bits_hi):
    """A centre whose reduced denominator has bits_lo + 1 .. bits_hi + 1
    bits (odd denominator, numerator 1 or 2, so nothing cancels)."""
    den = (1 << rng.randint(bits_lo, bits_hi)) + 2 * rng.randrange(1 << 12) + 1
    return F(rng.randint(1, 2), den)


HARMONIC = ("harmonic", {"type": "harmonic"})
RATIONALS = ("rationals", {"type": "rationals"})


def round_analyze_estimate(rng: random.Random, rnd: int) -> list[dict]:
    jobs = []
    for i, (seq, model) in enumerate([HARMONIC, RATIONALS]):
        for j, mode in enumerate(["gamma", "convergence", "lambda"]):
            slot = rnd + 2 * i + j
            ideal = ANALYTIC[slot % 4]
            # harmonic x summable at 2^14 takes minutes: summable stays at
            # 2^12 and 4 radii
            summable = ideal == "summable"
            horizon = 1 << (12 if summable else 12 + (rnd + j) % 3)
            radii = 4 if summable else 4 + (rnd + i) % 3
            argv = ["analyze", "--seq", seq, "--ideal", ideal, "--mode", mode,
                    "--horizon", horizon, "--radii", radii,
                    "--pitch", F(1, 1 << radii)]
            if mode == "convergence":
                argv += ["--ell", rng.choice([F(0), F(1, 2), F(1, 4),
                                              F(1, 3)])]
            jobs.append(_job(f"{seq}-{mode}", argv, model))
    for i, (seq, model) in enumerate([HARMONIC, RATIONALS]):
        # random sigma maps keep the bitmap path of transforms.apply busy
        ideal = ["Z", "gdi", "fin"][(rnd + i) % 3]
        argv = ["sample", "--seq", seq, "--ideal", ideal, "--kind", "sigma",
                "--maps", 3, "--length", 512, "--seed", rng.randrange(1000),
                "--horizon", 1 << 12, "--radii", 4, "--pitch", "1/16"]
        jobs.append(_job(f"sample-{seq}", argv, model))
    for j in range(6):
        spec, model = random_nested_alphabet(rng)
        ideal = ANALYTIC[(rnd + j) % 4]
        mode = "lambda" if j % 2 == 0 else "lambda-q"
        horizon = 1 << (12 if ideal == "summable" else 12 + (rnd + j) % 3)
        argv = ["analyze", "--seq", spec, "--ideal", ideal, "--mode", mode,
                "--horizon", horizon, "--radii", 4 + j % 3]
        if mode == "lambda-q":
            argv += ["--q", ["1/8", "1/4", "1/2"][(rnd + j) % 3]]
        jobs.append(_job(f"nested-{mode}", argv, model))
    # convergence at an ell with a large denominator: below 2^31 the int64
    # ball test is exact; in the upper ranges its products overflow and
    # about half of the 2^12 bits come out wrong
    for i, (seq, model) in enumerate([HARMONIC, RATIONALS]):
        for bits in ((20, 30), (52, 58) if seq == "harmonic" else (57, 60)):
            ideal = ["fin", "Z", "gdi"][(rnd + i) % 3]
            argv = ["analyze", "--seq", seq, "--ideal", ideal,
                    "--mode", "convergence", "--ell", _big_ell(rng, *bits),
                    "--horizon", 1 << 12, "--radii", 4, "--pitch", "1/16"]
            jobs.append(_job(f"{seq}-big-ell-{bits[0]}", argv, model))
    if rnd == 0:
        # summable lambda on an alphabet sequence at 2^15: its exact
        # numerics pass the interpreter's 4300-digit str limit
        seq, model = zoo_char(rng.choice(["char:evens", "char:odds"]))
        jobs.append(_job("summable-lambda-2^15",
                         ["analyze", "--seq", seq, "--ideal", "summable",
                          "--mode", "lambda", "--horizon", 1 << 15], model))
    return jobs


def round_analyze_certify(rng: random.Random, rnd: int) -> list[dict]:
    const = rng.choice(DYADIC)
    seqs = [zoo_char("char:evens"), zoo_char("char:odds"),
            zoo_char("char:powers2"),
            zoo_charblocks(1 + rnd % 4), zoo_charblocks(2 + (rnd + 2) % 4),
            random_cycle(rng, 2 + rnd % 3), random_cycle(rng, 3 + rnd % 4),
            (f"const:{const}", {"type": "alphabet", "letters": [
                {"value": str(const), "facts": residues_facts([1], 1)}]}),
            random_residue_alphabet(rng), random_residue_alphabet(rng),
            random_residue_alphabet(rng)]
    jobs = []
    modes = ["gamma", "limits", "convergence"]
    for j, (spec, model) in enumerate(seqs):
        ideal = CLI_IDEALS[(rnd + j) % 5]
        mode = modes[(rnd // 5 + j) % 3]
        argv = ["analyze", "--seq", spec, "--ideal", ideal, "--mode", mode]
        if mode == "convergence":
            letters = [F(L["value"]) for L in model["letters"]]
            argv += ["--ell", rng.choice(letters + [F(1, 3)])]
        jobs.append(_job(f"certify-{mode}", argv, model))
    jobs.append(_job("ideals-list", ["ideals", "list"]))
    return jobs


def round_construct(rng: random.Random, rnd: int, workdir: str) -> list[dict]:
    jobs = []
    for j, ideal in enumerate(CLI_IDEALS):
        if ideal == "summable":
            horizon, q = [(1 << 12, "1/3"), (1 << 13, "1/2"),
                          (1 << 14, "1/2")][rnd % 3]
        else:
            horizon = 1 << (14 + (rnd + j) % 3)
            q = ["1/2", "1/3", "1/4"][(rnd + j) % 3]
        wfile = f"{workdir}/r{rnd}w{j}"
        jobs.append(_job("witness-build",
                         ["witness", "build", "--ideal", ideal, "--q", q,
                          "--horizon", horizon], out=wfile))
        vh = min(horizon, 1 << (11 if ideal == "summable" else 13))
        jobs.append(_job("witness-verify",
                         ["witness", "verify", "--ideal", ideal, "--q", q,
                          "--witness", wfile + ".json", "--trials",
                          8 + (rnd + j) % 9, "--horizon", vh,
                          "--seed", rng.randrange(1000)]))
    for j, (kind, mode) in enumerate([("sigma", "add"), ("sigma", "preserve"),
                                      ("pi", "add"), ("pi", "preserve")]):
        ideal = ["Z", "gdi", "summable"][(rnd + j) % 3]
        # the modulus rotates with the round: it sets most of the cost
        spec, model = (random_cycle(rng, 2 + (rnd + j) % 3) if j % 2 == 0
                       else random_residue_alphabet(
                           rng, [2, 3, 4, 6, 8][(rnd + j) % 5]))
        horizon = 1 << (12 + (rnd + j) % 2 if ideal == "summable"
                        else 12 + (rnd + j) % 5)
        argv = ["preserve", kind, "--seq", spec, "--ideal", ideal,
                "--mode", mode, "--horizon", horizon,
                "--q", "1/4" if ideal == "summable" else "1/2"]
        if mode == "add":
            argv += ["--ell", rng.choice([L["value"] for L in model["letters"]])]
        jobs.append(_job(f"preserve-{kind}-{mode}", argv, model))
    game_seqs = [zoo_char(["char:evens", "char:odds", "char:powers2"][rnd % 3]),
                 RATIONALS, HARMONIC]
    for j, (spec, model) in enumerate(game_seqs):
        for kind in ("sigma", "pi"):
            slot = rnd + 2 * j + (kind == "pi")
            ideal = ANALYTIC[slot % 4]
            # the centre rotates with the round, as it sets much of the
            # game's length; the seed draws the game's own seed
            if spec == "harmonic":
                ell = F(0)
            elif spec == "rationals":
                ell = [F(0), F(1, 2), F(1, 3), F(2, 5)][slot % 4]
            else:
                ell = F([L["value"] for L in model["letters"]
                         if L["facts"]["infinite"]][slot % 2])
            # summable at q = 1/2 runs for minutes; it stays at 1/4
            q = "1/4" if ideal == "summable" else ["1/4", "1/3"][slot % 2]
            argv = ["game", "run", "--seq", spec, "--ideal", ideal,
                    "--ell", ell, "--q", q, "--kind", kind,
                    "--rounds", 10 + (slot * 7) % 11,
                    "--seed", rng.randrange(1000)]
            jobs.append(_job(f"game-{kind}", argv, model))
    return jobs


WORKLOADS = ("analyze-estimate", "analyze-certify", "construct")


def make_jobs(workload: str, seed: int, seconds: float,
              workdir: str) -> list[dict]:
    """The run's fixed job list: whole rounds, at least MIN_JOBS jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    rounds = max(1, round(seconds / ROUND_SECONDS[workload]))
    jobs: list[dict] = []
    rnd = 0
    while rnd < rounds or len(jobs) < MIN_JOBS:
        if workload == "analyze-estimate":
            jobs += round_analyze_estimate(rng, rnd)
        elif workload == "analyze-certify":
            jobs += round_analyze_certify(rng, rnd)
        else:
            jobs += round_construct(rng, rnd, workdir)
        rnd += 1
    for i, job in enumerate(jobs):
        job.setdefault("out", f"{workdir}/j{i:05d}")
    return jobs
