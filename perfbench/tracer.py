"""Spans and counters around the public functions of each idealconv module.

The program is not changed: ``Tracer.install`` replaces functions and methods
with timing wrappers from outside, in the defining module and in every
idealconv module that imported the same object by name.  A span is (name,
start, end, parent span, job index); spans live in flat arrays until the run
ends.  A span's self time is its duration minus the durations of its direct
children, so the self times of all spans add up to the time spent inside
``cli.main``.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("zoo", "natset", "sequences", "submeasure", "ideals", "meager",
          "transforms", "games", "cli")
TAIL_VARIANTS = ("running-density", "counting-cap", "weighted-sum",
                 "density-family")
ROUTES = ("exact-norm", "witness-blocks", "row-rule", "row-profile",
          "superset-of-nonmember", "finite-union-of-members",
          "subset-of-member", "tail-trend", "horizon-exceeded")
BUILDERS = ("cluster_adding_sigma", "cluster_adding_pi",
            "cluster_preserving_sigma", "cluster_preserving_pi")

# span names with both .calls and .self_s in the per-layer report
SPAN_NAMES = (
    ["zoo.indicator", "natset.prefix", "natset.prefix_gather",
     "sequences.indicator_set", "sequences.complement_indicator_set",
     "sequences.candidates"]
    + [f"submeasure.tail_value.{v}" for v in TAIL_VARIANTS]
    + ["submeasure.norm_estimate", "submeasure.exact_norm",
       "ideals.decide_membership", "meager.build_witness",
       "meager.certify_block", "meager.verify_witness", "meager.fk_holds"]
    + [f"transforms.{b}" for b in BUILDERS]
    + ["transforms.apply", "games.run_game", "games.escape", "cli.main",
       "cli.emit"])

# work counts, recorded at the same boundaries
COUNT_NAMES = (
    ["zoo.indicator.indices", "natset.prefix.bits", "natset.prefix_gather.bits",
     "sequences.candidates.count", "submeasure.exact_norm.attempts",
     "submeasure.exact_norm.hits"]
    + [f"ideals.route.{r}" for r in ROUTES]
    + ["ideals.undecided", "meager.blocks_certified", "transforms.table_len",
       "games.moves", "games.values_drawn", "cli.report_bytes"])


class Tracer:
    def __init__(self):
        self.job = -1
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job_of = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def parent_name(self) -> str | None:
        """Name of the span enclosing the one that just closed."""
        return self.names[self.name_of[self.stack[-1]]] if self.stack else None

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(tracer, args, result)`` counts work
        once the span has closed, so counting is not charged to it."""
        nid = self._id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.job_of.append(self.job)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation --------------------------------------------------------

    def _patch_function(self, module, attr: str, name: str, after=None) -> None:
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "idealconv" or mod_name.startswith("idealconv."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def _patch_method(self, cls, attr: str, name: str, after=None) -> None:
        setattr(cls, attr, self.wrap(name, cls.__dict__[attr], after))

    def install(self) -> None:
        from idealconv import (cli, games, ideals, meager, natset, sequences,
                               submeasure, transforms, zoo)

        def add(key, amount):
            self.counts[key] += amount

        # zoo: the bitmap indicators of harmonic and rationals
        def indicator_counted(t, args, result):
            add("zoo.indicator.indices", int(args[2]))

        def traced_factory(factory):
            def build(*args, **kwargs):
                spec = factory(*args, **kwargs)
                spec.indicator_fn = self.wrap("zoo.indicator",
                                              spec.indicator_fn,
                                              indicator_counted)
                return spec
            return build

        for attr in ("harmonic", "rationals"):
            original = getattr(zoo, attr)
            setattr(zoo, attr, traced_factory(original))

        # natset: every variant's prefix, and gathers at arbitrary values
        def bits(key):
            return lambda t, args, result: add(key, int(result.shape[0]))

        for cls in vars(natset).values():
            if (isinstance(cls, type) and issubclass(cls, natset.NatSet)
                    and "prefix" in cls.__dict__ and cls is not natset.NatSet):
                self._patch_method(cls, "prefix", "natset.prefix",
                                   bits("natset.prefix.bits"))
        self._patch_function(natset, "prefix_gather", "natset.prefix_gather",
                             bits("natset.prefix_gather.bits"))

        # sequences
        self._patch_function(sequences, "indicator_set",
                             "sequences.indicator_set")
        self._patch_function(sequences, "complement_indicator_set",
                             "sequences.complement_indicator_set")
        self._patch_function(
            sequences, "candidate_grid", "sequences.candidates",
            lambda t, args, result: add("sequences.candidates.count",
                                        len(result)))

        # submeasure
        for cls in (submeasure.RunningDensity, submeasure.CountingCap,
                    submeasure.WeightedSum, submeasure.DensityFamily):
            self._patch_method(cls, "tail_value",
                               f"submeasure.tail_value.{cls.name}")
        self._patch_function(submeasure, "norm_estimate",
                             "submeasure.norm_estimate")

        def exact_norm_counted(t, args, result):
            # closed-form attempts are counted at the outermost call only;
            # the recursion over union and intersection parts is one attempt
            if t.parent_name() != "submeasure.exact_norm":
                add("submeasure.exact_norm.attempts", 1)
                add("submeasure.exact_norm.hits", result is not None)

        self._patch_method(submeasure.Lscsm, "exact_norm",
                           "submeasure.exact_norm", exact_norm_counted)

        # ideals: routes of the outermost decisions
        def decision_counted(t, args, result):
            if t.parent_name() == "ideals.decide_membership":
                return
            reason = result.reason
            if reason.startswith("rows-at-horizon"):
                reason = "row-profile"
            add(f"ideals.route.{reason}", 1)
            add("ideals.undecided",
                result.verdict is ideals.Verdict.UNDECIDED)

        self._patch_function(ideals, "decide_membership",
                             "ideals.decide_membership", decision_counted)

        # meager
        self._patch_function(meager, "build_witness", "meager.build_witness")
        self._patch_method(
            meager.WitnessIntervals, "certify_block", "meager.certify_block",
            lambda t, args, result: add("meager.blocks_certified", bool(result)))
        self._patch_function(meager, "verify_witness", "meager.verify_witness")
        self._patch_function(meager, "fk_holds", "meager.fk_holds")

        # transforms
        for builder in BUILDERS:
            self._patch_function(
                transforms, builder, f"transforms.{builder}",
                lambda t, args, result: add("transforms.table_len",
                                            len(result.map.table)))
        self._patch_function(transforms, "apply", "transforms.apply")

        # games
        def moves_counted(t, args, result):
            add("games.moves", len(result.moves))

        def drawn_counted(t, args, result):
            add("games.values_drawn", len(result.values))

        self._patch_function(games, "run_game", "games.run_game", moves_counted)
        self._patch_function(games, "escape_extension", "games.escape",
                             drawn_counted)
        self._patch_function(games, "escape_extension_pi", "games.escape",
                             drawn_counted)

        # cli: report bytes are the primary outputs the emit call wrote
        def emitted(t, args, result):
            out = args[0]
            if out is None:
                return
            for suffix in (".json", ".csv"):
                path = Path(str(out) + suffix)
                if path.exists():
                    add("cli.report_bytes", path.stat().st_size)

        self._patch_function(cli, "_emit", "cli.emit", emitted)
        self._patch_function(cli, "main", "cli.main")

    # -- results -------------------------------------------------------------

    def _self_times(self) -> tuple[np.ndarray, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=dur.size)
        return dur - child, np.frombuffer(self.name_of, dtype=np.uint16)

    def summary(self) -> dict:
        self_s, name_of = self._self_times()
        per_name = np.bincount(name_of, weights=self_s,
                               minlength=len(self.names))
        calls = np.bincount(name_of, minlength=len(self.names))
        spans = {name: {"calls": int(calls[i]), "self_s": float(per_name[i])}
                 for i, name in enumerate(self.names)}
        return {"spans": spans, "counts": dict(self.counts),
                "span_count": int(name_of.size),
                "total_self_s": float(self_s.sum())}

    def write_spans(self, path: Path) -> None:
        """All spans as parallel arrays: name id (into ``names``), start,
        end, parent span index (-1 at the top) and job index."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.name_of, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            job=np.frombuffer(self.job_of, dtype=np.int64))


def per_layer_metrics(summary: dict, untraced_jobs_per_s: float,
                      traced_jobs_per_s: float) -> dict:
    """name -> (value, unit) for every per-layer metric of the benchmark."""
    spans, counts = summary["spans"], summary["counts"]
    total = summary["total_self_s"] or 1.0
    out = {}
    for name in SPAN_NAMES:
        s = spans.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = (s["calls"], "count")
        out[f"{name}.self_s"] = (s["self_s"], "s")
    for name in COUNT_NAMES:
        if not name.startswith("submeasure.exact_norm."):
            unit = "bytes" if name == "cli.report_bytes" else "count"
            out[name] = (counts.get(name, 0), unit)
    attempts = counts.get("submeasure.exact_norm.attempts", 0)
    out["submeasure.exact_norm.hit_ratio"] = (
        counts.get("submeasure.exact_norm.hits", 0) / attempts
        if attempts else 0.0, "ratio")
    for layer in LAYERS:
        layer_s = sum(s["self_s"] for n, s in spans.items()
                      if n.split(".", 1)[0] == layer)
        out[f"{layer}.self_share"] = (layer_s / total, "ratio")
    tail = sum(s["self_s"] for n, s in spans.items()
               if n.startswith("submeasure.tail_value."))
    out["submeasure.tail_value.self_share"] = (tail / total, "ratio")
    out["trace.spans"] = (summary["span_count"], "count")
    out["trace.untraced_jobs_per_s"] = (untraced_jobs_per_s, "1/s")
    out["trace.traced_jobs_per_s"] = (traced_jobs_per_s, "1/s")
    out["trace.overhead"] = (untraced_jobs_per_s / traced_jobs_per_s, "ratio")
    return out
