"""Command-line surface.

Commands: analyze, witness build/verify, preserve sigma/pi, game run,
sample, ideals list.  ``_COMMANDS`` names the settings each command takes:
its flags, and the keys of a JSON config file, which explicit flags
override.  Outputs are deterministic for a fixed config and seed —
timestamps live only in the sidecar ``<out>.meta.json``.

Exit codes: 0 ok, 1 usage or config error, 2 undecided-dominated report,
3 builder hypothesis failed (preserve: cluster set short of the limit
points; add: ell not a limit point), 4 internal audit failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Optional

from . import natset as ns
from .ideals import DecisionParams, UnknownIdeal, builtin, builtin_names

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNDECIDED = 2
EXIT_HYPOTHESIS = 3
EXIT_AUDIT = 4

# the largest horizon a run may ask for: the farthest a member walk scans
MAX_HORIZON = ns.SCAN_LIMIT

# the least value of each count a command may take; a seed may be any
# integer, and a sampled map's table has at least two entries
_LEAST = {"horizon": 1, "radii": 1, "hit_min": 0, "rounds": 0, "trials": 0,
          "maps": 0, "length": 2}

HEURISTIC_BANNER = ("HEURISTIC: sampled maps estimate frequencies only; "
                    "topological largeness is not a sampling property")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value such as -1/3 is a negative fraction, not an option flag
        self._negative_number_matcher = re.compile(
            r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclass
class RunConfig:
    command: str
    seq: Optional[str] = None
    ideal: Optional[str] = None
    gdi_file: Optional[str] = None
    horizon: int = 1 << 16
    radii: int = 10
    pitch: str = "1/1024"
    theta: str = "1/100"
    hit_min: int = 16
    q: str = "1/2"
    q_grid: list[str] = field(default_factory=lambda: ["1/8", "1/4", "1/2"])
    ell: Optional[str] = None
    mode: Optional[str] = None
    kind: Optional[str] = None
    rounds: int = 20
    trials: int = 100
    maps: int = 50
    length: int = 256
    seed: int = 0
    witness_file: Optional[str] = None
    out: Optional[str] = None

    def validate(self, settings: tuple[str, ...]) -> None:
        """Check the values of ``settings``, the ones the command takes."""
        for name in settings:
            value = getattr(self, name)
            if name in ("pitch", "theta", "q") and self.number(name) <= 0:
                raise ValueError(f"{name} must be positive")
            if name in _LEAST and value < _LEAST[name]:
                raise ValueError(f"{name} {value} must be at least "
                                 f"{_LEAST[name]}")
            # a walk's horizon, and a sampled map's table
            if name in ("horizon", "length") and value > MAX_HORIZON:
                raise ValueError(f"{name} {value} exceeds the limit of "
                                 f"{MAX_HORIZON}")

    def number(self, name: str):
        """The numeric setting ``name`` as exact rationals: a Fraction, or a
        tuple of them for a list such as q_grid.  Each is parsed on its
        first read and kept on this config, which serves one command."""
        parsed = self.__dict__.setdefault("_parsed", {})
        if name not in parsed:
            text = getattr(self, name)
            parsed[name] = (tuple(map(Fraction, text)) if type(text) is list
                            else Fraction(text))
        return parsed[name]

    def to_json(self) -> dict:
        # output location is not analysis config
        body = {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "out"}
        body["q_grid"] = list(self.q_grid)
        return body

    def analysis_params(self) -> AnalysisParams:
        from .sequences import AnalysisParams, RadiusSchedule
        return AnalysisParams(
            horizon=self.horizon,
            schedule=RadiusSchedule.dyadic(self.radii),
            pitch=self.number("pitch"),
            hit_min=self.hit_min,
            theta=self.number("theta"),
            q_grid=self.number("q_grid"))

    def ideal_handle(self):
        if self.ideal is None:
            raise ValueError(f"{self.command} needs --ideal")
        spec = None
        if self.gdi_file:
            spec = json.loads(Path(self.gdi_file).read_text())
        return builtin(self.ideal, gdi_spec=spec)


_quote = json.encoder.encode_basestring_ascii
_JSON_WORDS = {None: "null", True: "true", False: "false",
               "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _JSON_WORDS.get(text, text)


# the text of a JSON scalar, by its exact type
_SCALARS = {str: _quote, int: int.__repr__, float: _float_text,
            bool: _JSON_WORDS.__getitem__, type(None): _JSON_WORDS.__getitem__}
_EXACT = frozenset((*_SCALARS, list, tuple, dict))
# a subclass is written as the first of these it is an instance of
_BASES = (str, int, float, list, tuple, dict)
# the items of a scalar list per C encoder call, the other items per piece
# of report text, and the characters held before each write to a file
_SLICE = 4096
_RUN = 1024
_BUFFER = 1 << 16
_CREATE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def json_text(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte: the
    join of ``_pieces``."""
    return "".join(_pieces(obj))


def _pieces(obj):
    """The text of ``json_text(obj)`` in pieces of about ``_RUN`` items and
    at most one ``_SLICE`` of a scalar list, so no piece grows with the
    document.

    The stdlib writes an indented document in Python one item at a time
    (its C encoder takes no indent).  Here one loop walks the document with
    a stack of its open containers, each value is dispatched on its exact
    type, and a list of one scalar type, such as a map's table, is written
    by the C encoder ``_SLICE`` items at a time, its items separated by a
    comma and the indent.
    """
    run = []            # the text written since the last piece
    stack = []          # each open container: items, indent, close, keyed
    # the value to write next, the text before it, and the newline and
    # indent that close it
    value, text, pad = obj, "", "\n"
    while True:
        kind = type(value)
        if kind not in _EXACT:
            kind = next((b for b in _BASES if isinstance(value, b)), None)
            if kind is None:
                raise TypeError(f"Object of type {type(value).__name__} "
                                f"is not JSON serializable")
        scalar = _SCALARS.get(kind)
        if scalar is not None:
            run.append(text + scalar(value))
            lead = ","
        elif not value:
            run.append(text + ("{}" if kind is dict else "[]"))
            lead = ","
        elif (kind is not dict and len(kinds := set(map(type, value))) == 1
              and kinds.pop() in _SCALARS):
            # each slice "[a,<inner>b]" from C, reframed as "<text>a,<inner>b";
            # a slice ends the piece before the next one
            inner = pad + "  "
            encode = _scalar_list_encoder(inner)
            text += "[" + inner
            for start in range(0, len(value), _SLICE):
                if start:
                    yield "".join(run)
                    run, text = [], "," + inner
                run.append(text + "".join(
                    encode(value[start:start + _SLICE], 0))[1:-1])
            run.append(pad + "]")
            lead = ","
        elif kind is dict:
            # the keys of a dict are distinct, so sorting its items compares
            # keys alone, in the order of the stdlib's sorted items
            stack.append((iter(sorted(value.items())), pad + "  ",
                          pad + "}", True))
            lead = text + "{"
        else:
            stack.append((iter(value), pad + "  ", pad + "]", False))
            lead = text + "["
        # the scalar items that follow, up to the next container value
        while stack:
            items, pad, close, keyed = stack[-1]
            text, comma = lead + pad, "," + pad
            for value in items:
                if len(run) >= _RUN:
                    yield "".join(run)
                    run = []
                if keyed:
                    key, value = value
                    text += (_quote(key if type(key) is str else _json_key(key))
                             + ": ")
                scalar = _SCALARS.get(type(value))
                if scalar is None:
                    break
                run.append(text + scalar(value))
                text = comma
            else:
                run.append(close)
                stack.pop()
                lead = ","
                continue
            break
        else:
            yield "".join(run)
            return


@functools.lru_cache(maxsize=None)
def _scalar_list_encoder(inner: str):
    """The stdlib's C encoder writing a list of JSON scalars with items
    separated by a comma and ``inner``; it writes each scalar as
    ``json.dumps`` does (NaN and the infinities by name, strings as ASCII,
    an int past the digit limit raising its ValueError)."""
    return json.encoder.c_make_encoder(
        None, None, _quote, None, ": ", "," + inner, True, False, True)


def _json_key(key) -> str:
    """A dict key as the stdlib writes it: strings as they are, and the
    scalars int, float, bool and None as their JSON text."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json_text(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {type(key).__name__}")


def _write(path: str, pieces) -> None:
    """Write the text ``pieces`` to the file ``path`` as ASCII bytes, in
    ``_chunks``.  The file is created or truncated at the first chunk, with
    the parent directories it lacks, and closed after the last: one open,
    the writes, one close.  A new file gets the mode ``open()`` gives it,
    0o666 less the umask.  If a piece raises, the file is removed, so a
    failed report leaves no partial file."""
    fd = None
    try:
        for text in _chunks(pieces):
            if fd is None:
                try:
                    fd = os.open(path, _CREATE, 0o666)
                except FileNotFoundError:
                    os.makedirs(os.path.dirname(path), exist_ok=True)
                    fd = os.open(path, _CREATE, 0o666)
            data = memoryview(text.encode("ascii"))
            while data:
                data = data[os.write(fd, data):]
    except BaseException:
        if fd is not None:
            os.close(fd)
            os.unlink(path)
        raise
    os.close(fd)


def _chunks(pieces):
    """The pieces joined into texts of at least ``_BUFFER`` characters, then
    the rest, perhaps empty."""
    held, size = [], 0
    for piece in pieces:
        held.append(piece)
        size += len(piece)
        if size >= _BUFFER:
            yield "".join(held)
            held, size = [], 0
    yield "".join(held)


def _emit(out: Optional[str], payload: dict, csv_rows=None,
          routes: Optional[dict] = None) -> None:
    """Write PREFIX.json (and PREFIX.csv), or print the JSON without --out.
    The sidecar PREFIX.meta.json holds the run statistics that stay out of
    the primary outputs: the time, and ``routes``, the count of each
    report's decisions per deciding route."""
    if out is None:
        sys.stdout.write(json_text(payload) + "\n")
        return
    base = str(Path(out))
    _write(base + ".json", chain(_pieces(payload), ("\n",)))
    if csv_rows is not None:
        _write(base + ".csv", (",".join(row) + "\n" for row in csv_rows))
    meta = {"written_at_unix": time.time()}
    if routes:
        meta["routes"] = routes
    _write(base + ".meta.json", (json.dumps(meta, sort_keys=True), "\n"))


def cmd_analyze(cfg: RunConfig) -> int:
    from . import zoo
    from .sequences import (gamma_estimate, ideal_convergence_check,
                            lambda_estimate, lambda_q_estimate,
                            limit_points_estimate)
    x = zoo.get_sequence(cfg.seq, cfg.horizon)
    handle = cfg.ideal_handle()
    params = cfg.analysis_params()
    mode = cfg.mode or "all"
    cluster = {}
    if mode in ("all", "limits"):
        cluster["limit_points"] = limit_points_estimate(x, params)
    if mode in ("all", "gamma"):
        cluster["gamma"] = gamma_estimate(x, handle, params)
    if mode == "lambda" or (mode == "all" and handle.analytic_p):
        cluster["lambda"] = lambda_estimate(x, handle, params)
    if mode == "lambda-q":
        cluster["lambda_q"] = lambda_q_estimate(x, handle, cfg.number("q"),
                                                params)
    reports = {key: rep.to_json() for key, rep in cluster.items()}
    routes = {key: counts for key, rep in cluster.items()
              if (counts := rep.route_counts())}
    undecided_shares = [rep.undecided_share for key, rep in cluster.items()
                        if key != "limit_points"]
    if mode == "convergence":
        if cfg.ell is None:
            raise ValueError("convergence mode needs --ell")
        conv = ideal_convergence_check(x, handle, cfg.number("ell"), params)
        reports["convergence"] = conv.to_json()
        routes["convergence"] = conv.routes
    payload = {"config": cfg.to_json(), "reports": reports}
    main_key = next((key for key in ("gamma", "lambda", "lambda_q",
                                     "limit_points") if key in cluster), None)
    csv_rows = cluster[main_key].csv_rows() if main_key else None
    _emit(cfg.out, payload, csv_rows, routes)
    if undecided_shares and max(undecided_shares) > Fraction(1, 2):
        return EXIT_UNDECIDED
    return EXIT_OK


def cmd_witness_build(cfg: RunConfig) -> int:
    from .meager import build_witness
    handle = cfg.ideal_handle()
    w = build_witness(handle, cfg.number("q"), cfg.horizon)
    payload = {"config": cfg.to_json(), "witness": w.to_json()}
    _emit(cfg.out, payload)
    return EXIT_OK


def cmd_witness_verify(cfg: RunConfig) -> int:
    from .meager import (WitnessIntervals, build_witness, certify_witness,
                         verify_witness)
    handle = cfg.ideal_handle()
    if cfg.witness_file:
        w = WitnessIntervals.from_json(
            json.loads(Path(cfg.witness_file).read_text())["witness"])
        certify_witness(handle, w, cfg.horizon)
    else:
        w = build_witness(handle, cfg.number("q"), cfg.horizon)
    report = verify_witness(handle, w, cfg.trials, cfg.horizon, cfg.seed,
                            DecisionParams(cfg.horizon, cfg.number("theta")))
    payload = {"config": cfg.to_json(), "report": report.to_json()}
    _emit(cfg.out, payload)
    return EXIT_OK


def cmd_preserve(cfg: RunConfig) -> int:
    from . import transforms as tr, zoo
    from .meager import build_witness
    from .sequences import as_point
    x = zoo.get_sequence(cfg.seq, cfg.horizon)
    handle = cfg.ideal_handle()
    params = cfg.analysis_params()
    w = build_witness(handle, cfg.number("q"), cfg.horizon)
    mode = cfg.mode or "preserve"
    if mode == "add":
        if cfg.ell is None:
            raise ValueError("add mode needs --ell")
        ell = as_point(cfg.number("ell"), x.dim)
        if cfg.kind == "pi":
            result = tr.cluster_adding_pi(x, ell, handle, w, params)
        else:
            result = tr.cluster_adding_sigma(x, ell, handle, w, params)
    else:
        if cfg.kind == "pi":
            result = tr.cluster_preserving_pi(x, handle, w, params)
        else:
            result = tr.cluster_preserving_sigma(x, handle, w, params)
    payload = {"config": cfg.to_json(), "result": result.to_json()}
    _emit(cfg.out, payload)
    # a preserving build whose reverse inclusion is unproven is undecided
    if mode != "add" and result.gamma_preserved is None:
        return EXIT_UNDECIDED
    return EXIT_OK


def cmd_game(cfg: RunConfig) -> int:
    from . import games as gm, zoo
    from .sequences import RadiusSchedule, as_point
    if cfg.ell is None:
        raise ValueError("game run needs --ell")
    x = zoo.get_sequence(cfg.seq, cfg.horizon)
    handle = cfg.ideal_handle()
    target = gm.GameTarget(ell=as_point(cfg.number("ell"), x.dim),
                           q=cfg.number("q"),
                           schedule=RadiusSchedule.dyadic(cfg.radii))
    transcript = gm.run_game(x, handle, target, cfg.rounds, cfg.horizon,
                             cfg.seed, kind=cfg.kind or "sigma")
    payload = {"config": cfg.to_json(), "transcript": transcript.to_json()}
    _emit(cfg.out, payload)
    return EXIT_OK


def cmd_sample(cfg: RunConfig) -> int:
    from . import transforms as tr, zoo
    from .sequences import candidate_grid, format_point, gamma_estimate
    x = zoo.get_sequence(cfg.seq, cfg.horizon)
    handle = cfg.ideal_handle()
    params = cfg.analysis_params()
    # only cluster points are printed, so no report keeps radius records
    grid = candidate_grid(x, params)
    base = gamma_estimate(x, handle, params, candidates=grid, records=False)
    base_set = set(base.points())
    preserved = 0
    rows = []
    for i in range(cfg.maps):
        seed_i = cfg.seed * 100003 + i
        if cfg.kind == "pi":
            t = tr.random_pi(seed_i, length=cfg.length)
        else:
            t = tr.random_sigma(seed_i, length=cfg.length)
        y = tr.apply(t, x)
        # a map's table ends at its length, so its analysis stops there
        sub_params = replace(params, horizon=min(cfg.length, params.horizon))
        g = gamma_estimate(y, handle, sub_params, candidates=grid,
                           records=False)
        same = set(g.points()) == base_set
        preserved += same
        rows.append({"seed": seed_i, "preserved": same,
                     "clusters": [format_point(p) for p in g.points()]})
    payload = {
        "banner": HEURISTIC_BANNER,
        "heuristic": True,
        "config": cfg.to_json(),
        "base_clusters": [format_point(p) for p in sorted(base_set)],
        "preserved_fraction": f"{preserved}/{cfg.maps}",
        "samples": rows,
    }
    _emit(cfg.out, payload)
    return EXIT_OK


def cmd_ideals_list(cfg: RunConfig) -> int:
    entries = []
    for name in builtin_names():
        h = builtin(name)
        entries.append({
            "name": name,
            "analytic_p": h.analytic_p,
            "lscsm": None if h.lscsm is None else h.lscsm.name,
            "special_rule": h.special_rule,
            "witness_rule": h.witness_rule,
        })
    payload = {"config": cfg.to_json(), "ideals": entries}
    _emit(cfg.out, payload)
    return EXIT_OK


# each command's parser path -> its handler and the settings it takes, each
# both a flag and a config-file key (q_grid is a key only); preserve takes
# its kind from its subcommand
_PRESERVE = (cmd_preserve, (
    "seq", "ideal", "gdi_file", "horizon", "radii", "pitch", "theta",
    "hit_min", "q", "ell", "mode", "out"))
_COMMANDS = {
    ("analyze",): (cmd_analyze, (
        "seq", "ideal", "gdi_file", "horizon", "radii", "pitch", "theta",
        "hit_min", "q", "q_grid", "ell", "mode", "out")),
    ("witness", "build"): (cmd_witness_build, (
        "ideal", "gdi_file", "horizon", "q", "out")),
    ("witness", "verify"): (cmd_witness_verify, (
        "ideal", "gdi_file", "horizon", "q", "theta", "trials", "seed",
        "witness_file", "out")),
    ("preserve", "sigma"): _PRESERVE,
    ("preserve", "pi"): _PRESERVE,
    ("game", "run"): (cmd_game, (
        "seq", "ideal", "gdi_file", "horizon", "radii", "q", "ell", "rounds",
        "seed", "kind", "out")),
    ("sample",): (cmd_sample, (
        "seq", "ideal", "gdi_file", "horizon", "radii", "pitch", "theta",
        "maps", "length", "seed", "kind", "out")),
    ("ideals", "list"): (cmd_ideals_list, ("out",)),
}

# the values a flag may take, by command and setting
_CHOICES = {
    ("analyze", "mode"): ("all", "gamma", "lambda", "lambda-q", "limits",
                          "convergence"),
    ("preserve", "mode"): ("add", "preserve"),
    ("game", "kind"): ("sigma", "pi"),
    ("sample", "kind"): ("sigma", "pi"),
}

# each RunConfig field's annotation
_TYPES = {f.name: f.type for f in fields(RunConfig)}


@functools.cache
def _build_parser() -> _Parser:
    """The argparse tree of ``_COMMANDS``, built on the first call and
    shared by later ones (parse_args returns a fresh namespace each time).
    Each parser sets ``command`` to its path."""
    p = _Parser(prog="idealconv",
                description="ideal convergence analysis at desk scale")
    p.add_argument("--config", help="JSON config file; flags override it")
    p.set_defaults(command=())
    parsers, subparsers = {(): p}, {}
    for path, (_, settings) in _COMMANDS.items():
        for i in range(1, len(path) + 1):
            head, parent = path[:i], path[:i - 1]
            if head not in parsers:
                if parent not in subparsers:
                    subparsers[parent] = parsers[parent].add_subparsers()
                parsers[head] = subparsers[parent].add_parser(head[-1])
                parsers[head].set_defaults(command=head)
        for name in settings:
            if name != "q_grid":
                parsers[path].add_argument(
                    "--witness" if name == "witness_file"
                    else "--" + name.replace("_", "-"), dest=name,
                    type=int if _TYPES[name] == "int" else None,
                    choices=_CHOICES.get((path[0], name)))
    return p


# the values a config file may give a RunConfig field, by its annotation;
# type() rather than isinstance, so a JSON true is no int
_FILE_TYPES = {
    "int": lambda v: type(v) is int,
    "str": lambda v: type(v) is str,
    "Optional[str]": lambda v: v is None or type(v) is str,
    "list[str]": lambda v: type(v) is list and all(type(x) is str for x in v),
}


def _merge_config(args: argparse.Namespace,
                  settings: tuple[str, ...]) -> RunConfig:
    file_values = {}
    if args.config:
        file_values = json.loads(Path(args.config).read_text())
        if type(file_values) is not dict:
            raise ValueError("a config file must hold a JSON object")
    path = args.command
    cfg = RunConfig(command="-".join(path))
    if path[0] == "preserve":
        cfg.command, cfg.kind = path
    for key, value in file_values.items():
        if key not in settings:
            raise ValueError(f"config key {key!r} is not a setting of "
                             f"{' '.join(path)}")
        if not _FILE_TYPES[_TYPES[key]](value):
            raise ValueError(f"config value {key} = {value!r} is not "
                             f"of type {_TYPES[key]}")
        setattr(cfg, key, value)
    for key in settings:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    return cfg


def _loaded(*names: str) -> tuple[type, ...]:
    """The exception classes ``module.Class`` of the modules loaded so far.
    A class is raised only once its module is loaded, so main maps every
    exception to its exit code without importing a module for it."""
    found = []
    for name in names:
        module, _, cls = name.rpartition(".")
        mod = sys.modules.get(f"{__package__}.{module}")
        if mod is not None:
            found.append(getattr(mod, cls))
    return tuple(found)


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    path = args.command
    if path not in _COMMANDS:
        if not path:
            parser.print_help()
            return EXIT_USAGE
        subs = " or ".join(p[len(path)] for p in _COMMANDS
                           if p[:len(path)] == path)
        sys.stderr.write(f"{' '.join(path)} needs a subcommand: {subs}\n")
        return EXIT_USAGE
    handler, settings = _COMMANDS[path]
    try:
        cfg = _merge_config(args, settings)
        cfg.validate(settings)
        return handler(cfg)
    except _loaded("transforms.HypothesisFailed",
                   "transforms.NotALimitPoint") as exc:
        sys.stderr.write(json.dumps({"error": "hypothesis-failed",
                                     "detail": str(exc)}) + "\n")
        return EXIT_HYPOTHESIS
    except (*_loaded("meager.WitnessRefuted"), AssertionError) as exc:
        sys.stderr.write(json.dumps({"error": "audit-failure",
                                     "detail": str(exc)}) + "\n")
        return EXIT_AUDIT
    except (UnknownIdeal, *_loaded("sequences.NotAnalyticP"), ValueError,
            KeyError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(json.dumps({"error": "config",
                                     "detail": str(exc)}) + "\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
