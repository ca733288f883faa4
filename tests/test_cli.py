"""Command surface: exit codes, schemas, overrides, reproducibility."""

import argparse
import dataclasses
import hashlib
import inspect
import json
import os
import re
import stat
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from idealconv import cli, games, meager, sequences, transforms, zoo
from idealconv.cli import RunConfig, main
from idealconv.ideals import builtin
from idealconv.meager import WitnessIntervals


def run(args):
    return main(args)


def read(path):
    return json.loads(Path(path).read_text())


def test_run_config_round_trip():
    cfg = RunConfig(command="analyze", seq="char:evens", ideal="density-zero",
                    horizon=4096, q="1/4", seed=9)
    body = cfg.to_json()
    again = RunConfig(**{**body, "out": None})
    assert again.to_json() == body
    with pytest.raises(ValueError):
        RunConfig(command="analyze", horizon=0).validate(("horizon",))


def test_analyze_writes_reports(tmp_path):
    out = tmp_path / "rep"
    code = run(["analyze", "--seq", "char:powers2", "--ideal", "density-zero",
                "--horizon", "8192", "--out", str(out)])
    assert code == 0
    body = read(f"{out}.json")
    gamma = body["reports"]["gamma"]
    clusters = [c["point"] for c in gamma["candidates"]
                if c["classification"] == "cluster"]
    assert clusters == ["0"]
    limits = body["reports"]["limit_points"]
    assert sorted(c["point"] for c in limits["candidates"]
                  if c["classification"] == "cluster") == ["0", "1"]
    csv = Path(f"{out}.csv").read_text().splitlines()
    assert csv[0] == "candidate,eps,exact,numeric,class"
    assert Path(f"{out}.meta.json").exists()


def test_analyze_harmonic_under_fin(tmp_path):
    out = tmp_path / "hf"
    assert run(["analyze", "--seq", "harmonic", "--ideal", "fin",
                "--horizon", "4096", "--radii", "4", "--pitch", "1/16",
                "--out", str(out)]) == 0
    body = read(f"{out}.json")["reports"]
    gamma = {c["point"] for c in body["gamma"]["candidates"]
             if c["classification"] == "cluster"}
    limits = {c["point"] for c in body["limit_points"]["candidates"]
              if c["classification"] == "cluster"}
    assert gamma == limits and "0" in gamma


def test_harmonic_at_a_short_horizon_keeps_its_limit_point(tmp_path):
    # the grid is the pitch lattice of harmonic's box [0, 1], not of the
    # values up to the horizon: 0, the limit of 1/n, is a candidate though
    # 1/512 lies above the default pitch 1/1024
    out = tmp_path / "h512"
    assert run(["analyze", "--seq", "harmonic", "--ideal", "Z",
                "--horizon", "512", "--out", str(out)]) == 0
    body = read(f"{out}.json")["reports"]
    for mode in ("limit_points", "gamma", "lambda"):
        cands = body[mode]["candidates"]
        assert len(cands) == 1025 and cands[0]["point"] == "0"
        assert cands[0]["classification"] == "cluster"


def test_analyze_lambda_mode(tmp_path):
    out = tmp_path / "lam"
    code = run(["analyze", "--seq", "char:evens", "--ideal", "density-zero",
                "--mode", "lambda-q", "--q", "1/4", "--horizon", "8192",
                "--out", str(out)])
    assert code == 0
    lam = read(f"{out}.json")["reports"]["lambda_q"]
    assert sorted(c["point"] for c in lam["candidates"]
                  if c["classification"] == "cluster") == ["0", "1"]


def test_analyze_convergence_mode(tmp_path):
    out = tmp_path / "conv"
    code = run(["analyze", "--seq", "harmonic", "--ideal", "fin",
                "--mode", "convergence", "--ell", "0",
                "--horizon", "8192", "--out", str(out)])
    assert code == 0
    assert read(f"{out}.json")["reports"]["convergence"]["verdict"] == "converges"


def test_negative_fraction_after_a_flag_is_a_value(tmp_path):
    # argparse reads -1 and -.5 after a flag as values, and now -1/3 too
    argv = ["analyze", "--seq", "harmonic", "--ideal", "Z",
            "--mode", "convergence", "--horizon", "4096", "--radii", "4",
            "--pitch", "1/16"]
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    assert run([*argv, "--ell", "-1/3", "--out", str(spaced)]) == 0
    assert run([*argv, "--ell=-1/3", "--out", str(joined)]) == 0
    body = Path(f"{spaced}.json").read_bytes()
    assert body == Path(f"{joined}.json").read_bytes()
    assert json.loads(body)["config"]["ell"] == "-1/3"


def test_meta_counts_the_deciding_routes(tmp_path):
    args = ["analyze", "--seq", "harmonic", "--ideal", "summable",
            "--horizon", "4096", "--radii", "4", "--pitch", "1/16"]
    assert run(args + ["--out", str(tmp_path / "a")]) == 0
    # 17 candidates x 4 radii, every ball decided by its exact norm, and
    # every limit-point radius by the ball's infiniteness
    assert read(tmp_path / "a.meta.json")["routes"] == {
        "gamma": {"exact-norm": 68}, "lambda": {"exact-norm": 68},
        "limit_points": {"infiniteness": 68}}
    # the counts stay out of the primary outputs, which rerun byte for byte
    assert run(args + ["--out", str(tmp_path / "b")]) == 0
    for suffix in (".json", ".csv"):
        text = (tmp_path / f"a{suffix}").read_text()
        assert "exact-norm" not in text
        assert text == (tmp_path / f"b{suffix}").read_text()
    # rationals balls carry their Farey-interval densities: both
    # convergence legs are decided by exact norms
    assert run(["analyze", "--seq", "rationals", "--ideal", "Z",
                "--mode", "convergence", "--ell", "1/2", "--horizon", "4096",
                "--radii", "4", "--pitch", "1/16",
                "--out", str(tmp_path / "c")]) == 0
    routes = read(tmp_path / "c.meta.json")["routes"]["convergence"]
    assert set(routes) == {"primary", "cross"}
    assert routes["primary"] == {"exact-norm": 4}
    assert routes["cross"] == {"exact-norm": 17 * 4}


def test_missing_ideal_exits_one(capsys):
    assert run(["analyze", "--seq", "harmonic", "--mode", "convergence",
                "--ell", "0"]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "config", "detail": "analyze needs --ideal"}


def test_parser_is_built_once_and_reused(tmp_path):
    # each command's output through a reused parser equals its output from
    # a first call, which builds the parser; the witness build sets options
    # that ideals list leaves at their defaults
    commands = [["witness", "build", "--ideal", "Z", "--q", "1/3",
                 "--horizon", "4096"],
                ["ideals", "list"]]

    def output(i, name):
        out = tmp_path / name
        assert run(commands[i] + ["--out", str(out)]) == 0
        return Path(f"{out}.json").read_text()

    first = []
    for i in range(len(commands)):
        cli._build_parser.cache_clear()
        first.append(output(i, f"first{i}"))
    assert cli._build_parser.cache_info().misses == 1
    for rep in range(2):
        for i in range(len(commands)):
            assert output(i, f"again{rep}{i}") == first[i]
    assert cli._build_parser.cache_info().misses == 1


def test_witness_build_and_verify(tmp_path):
    out = tmp_path / "w"
    assert run(["witness", "build", "--ideal", "Z", "--q", "1/2",
                "--horizon", "1048576", "--out", str(out)]) == 0
    body = read(f"{out}.json")["witness"]
    assert WitnessIntervals.from_json(body).boundary_prefix(4) == [2, 4, 8, 16]
    assert body["rule"] == "density-ratio"
    vout = tmp_path / "v"
    assert run(["witness", "verify", "--ideal", "Z",
                "--witness", f"{out}.json", "--trials", "10",
                "--horizon", "65536", "--seed", "3", "--out", str(vout)]) == 0
    rep = read(f"{vout}.json")["report"]
    assert all(s["verdict"] != "in" for s in rep["samples"])
    assert rep["cofinite_all_fail"] is True


def test_witness_verify_decides_at_the_given_theta(tmp_path, monkeypatch):
    thetas = []
    decide = meager.decide_each

    def spy(handle, sets, params, *args):
        thetas.append(params.theta)
        return decide(handle, sets, params, *args)

    monkeypatch.setattr(meager, "decide_each", spy)
    assert run(["witness", "verify", "--ideal", "Z", "--q", "1/2",
                "--horizon", "4096", "--trials", "3", "--seed", "1",
                "--theta", "1/7", "--out", str(tmp_path / "v")]) == 0
    assert thetas and set(thetas) == {Fraction(1, 7)}


def test_witness_verify_certifies_a_loaded_file(tmp_path, capsys):
    # pow2 blocks have density ratio 1/2, so a declared q0 of 9/10 is refuted
    # before any set is sampled
    wfile = tmp_path / "over.json"
    wfile.write_text(json.dumps({"witness": {
        "generator": {"kind": "pow2"}, "lengths_unbounded": True,
        "rule": "density-ratio", "q0": "9/10"}}))
    out = tmp_path / "v"
    assert run(["witness", "verify", "--ideal", "Z", "--witness", str(wfile),
                "--horizon", "4096", "--trials", "3", "--seed", "1",
                "--out", str(out)]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "audit-failure" and "block 1" in err["detail"]
    assert not Path(f"{out}.json").exists()


def test_witness_verify_refuses_a_boundary_list_short_of_the_horizon(
        tmp_path, capsys):
    # block 16 = [2^16, 2^17) straddles the horizon, and the block past it
    # needs a boundary the list does not have
    wfile = tmp_path / "short.json"
    wfile.write_text(json.dumps({"witness": {
        "iota": [2 ** k for k in range(1, 18)], "lengths_unbounded": True,
        "rule": "density-ratio", "q0": "1/2"}}))
    assert run(["witness", "verify", "--ideal", "Z", "--witness", str(wfile),
                "--horizon", "65536", "--trials", "3", "--seed", "1",
                "--out", str(tmp_path / "v")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "stops before the block past horizon 65536" in err["detail"]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 8")
@pytest.mark.parametrize("seed", [1, 2, 3, 7])
def test_sound_explicit_witness_is_not_refuted(tmp_path, seed):
    # pow2's blocks listed up to 2^19, each of density ratio 1/2: a sound
    # witness, refuted today by a tail-trend In sample or by a member that
    # no cutoff separates, since an explicit list has no pairs_from
    wfile = tmp_path / "pow2.json"
    wfile.write_text(json.dumps({"witness": {
        "iota": [2 ** k for k in range(1, 20)], "lengths_unbounded": True,
        "rule": "density-ratio", "q0": "1/2"}}))
    assert run(["witness", "verify", "--ideal", "Z", "--witness", str(wfile),
                "--horizon", "65536", "--seed", str(seed),
                "--out", str(tmp_path / "v")]) in (0, 2)


def test_preserve_sigma_and_exit_codes(tmp_path):
    out = tmp_path / "p"
    assert run(["preserve", "sigma", "--seq", "char:evens",
                "--ideal", "density-zero", "--q", "1/4",
                "--horizon", "16384", "--radii", "6", "--pitch", "1/64",
                "--out", str(out)]) == 0
    res = read(f"{out}.json")["result"]
    assert res["gamma_preserved"] is True
    assert res["map"]["type"] == "sigma"
    # the negative direction exits with the dedicated code
    assert run(["preserve", "sigma", "--seq", "char:powers2",
                "--ideal", "density-zero", "--q", "1/4",
                "--horizon", "16384", "--radii", "6", "--pitch", "1/64",
                "--out", str(tmp_path / "pf")]) == 3


def test_preserve_add_mode(tmp_path):
    out = tmp_path / "padd"
    assert run(["preserve", "sigma", "--seq", "char:powers2",
                "--ideal", "density-zero", "--mode", "add", "--ell", "1",
                "--q", "1/2", "--horizon", "4096", "--out", str(out)]) == 0
    res = read(f"{out}.json")["result"]
    assert all(b["verified"] for b in res["blocks"])


def test_game_run_and_reproducibility(tmp_path):
    out = tmp_path / "g"
    args = ["game", "run", "--seq", "char:evens", "--ideal", "density-zero",
            "--ell", "1", "--q", "1/4", "--rounds", "20", "--seed", "7",
            "--horizon", "100000", "--out", str(out)]
    assert run(args) == 0
    first = Path(f"{out}.json").read_bytes()
    assert run(args) == 0
    assert Path(f"{out}.json").read_bytes() == first
    assert read(f"{out}.json")["transcript"]["verdict"] == "win"


def test_sample_is_labeled_heuristic(tmp_path):
    out = tmp_path / "s"
    assert run(["sample", "--seq", "char:evens", "--ideal", "density-zero",
                "--maps", "5", "--length", "512", "--horizon", "4096",
                "--radii", "6", "--seed", "2", "--out", str(out)]) == 0
    body = read(f"{out}.json")
    assert body["heuristic"] is True and "HEURISTIC" in body["banner"]
    assert body["preserved_fraction"].endswith("/5")


SAMPLE_SHAPE = ["--maps", "3", "--length", "512", "--horizon", "4096",
                "--radii", "4", "--pitch", "1/16"]


# digests of the reports written when every candidate was decided at every
# radius; stopping at a candidate's first radius not decided NotIn keeps them
@pytest.mark.parametrize("args, digest", [
    (["--seq", "harmonic", "--ideal", "Z", "--seed", "839", "--kind", "sigma"],
     "1ca9e17394b00901d01af901387bdaaff7b001ceb52b2e55d74c21fff7a03a47"),
    (["--seq", "rationals", "--ideal", "gdi", "--seed", "107",
      "--kind", "sigma"],
     "fa1089f70ae131506897da48dbe1621ab18e18aaa655412998b3e3b662df6e7d"),
    (["--seq", "rationals", "--ideal", "Z", "--seed", "11", "--kind", "pi"],
     "04e32831022c15081d65bf473b59a716160d76bed6341288ee4c136ae123289e"),
])
def test_sample_output_bytes_are_pinned(tmp_path, args, digest):
    out = tmp_path / "s"
    assert run(["sample", *args, *SAMPLE_SHAPE, "--out", str(out)]) == 0
    got = hashlib.sha256(Path(f"{out}.json").read_bytes()).hexdigest()
    assert got == digest


@pytest.mark.parametrize("length", [0, 1, cli.MAX_HORIZON + 1])
def test_sample_length_out_of_range_exits_one(tmp_path, capsys, monkeypatch,
                                              length):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the length was checked")

    monkeypatch.setattr(zoo, "get_sequence", refuse)
    monkeypatch.setattr(transforms, "random_sigma", refuse)
    out = tmp_path / "len"
    assert run(["sample", "--seq", "harmonic", "--ideal", "Z",
                "--length", str(length), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert f"length {length}" in err["detail"]
    assert not Path(f"{out}.json").exists()


def test_analyze_product_ideal_skips_level_sets(tmp_path):
    out = tmp_path / "fx"
    assert run(["analyze", "--seq", "charblocks:2", "--ideal", "fin-x-fin",
                "--horizon", "8192", "--out", str(out)]) == 0
    body = read(f"{out}.json")["reports"]
    assert "lambda" not in body          # no submeasure capability
    gamma = {c["point"] for c in body["gamma"]["candidates"]
             if c["classification"] == "cluster"}
    assert gamma == {"0", "1"}
    # asking for the level sets explicitly is a usage error
    assert run(["analyze", "--seq", "charblocks:2", "--ideal", "fin-x-fin",
                "--mode", "lambda", "--horizon", "8192"]) == 1


def test_ideals_list(capsys):
    assert run(["ideals", "list"]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3818f9b2fd64fc6c04f98a401a7283760adc2bc3c45a4240f8af828a621aea3f")
    body = json.loads(text)
    names = [e["name"] for e in body["ideals"]]
    assert names == ["fin", "density-zero", "summable", "gdi", "fin-x-fin"]
    fxf = body["ideals"][-1]
    assert fxf["analytic_p"] is False and fxf["lscsm"] is None


def test_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "seq": "char:powers2", "ideal": "density-zero", "horizon": 8192}))
    out = tmp_path / "o"
    assert run(["--config", str(cfg_file), "analyze",
                "--seq", "char:evens", "--out", str(out)]) == 0
    body = read(f"{out}.json")
    assert body["config"]["seq"] == "char:evens"       # flag wins
    assert body["config"]["horizon"] == 8192           # file value survives


@pytest.mark.parametrize("field, value", [
    ("horizon", "4096"), ("radii", True), ("q", 0.5), ("seq", 7),
    ("q_grid", "1/2"), ("q_grid", [0.5]), ("q_grid", None)])
def test_config_file_value_of_wrong_type_exits_one(tmp_path, capsys, field,
                                                    value):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({field: value}))
    out = tmp_path / "o"
    assert run(["--config", str(cfg_file), "analyze", "--seq", "char:evens",
                "--ideal", "Z", "--mode", "gamma", "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and f"config value {field} " in err["detail"]
    assert not Path(f"{out}.json").exists()


def _path(argv):
    """The command path that starts ``argv``, such as ``witness build``."""
    return " ".join(w for w in argv[:2] if not w.startswith("--"))


LIMITS = ["analyze", "--seq", "char:evens", "--ideal", "Z", "--mode", "limits"]


@pytest.mark.parametrize("command, key", [
    pytest.param(LIMITS, "horizn", id="horizn"),
    pytest.param(LIMITS, "command", id="command"),
    # a setting of another command
    pytest.param(LIMITS, "seed", id="analyze-seed"),
    pytest.param(["witness", "build", "--ideal", "Z"], "radii",
                 id="witness-build-radii"),
    pytest.param(["sample", "--seq", "char:evens", "--ideal", "Z"], "q_grid",
                 id="sample-q_grid"),
    # preserve takes its kind from its subcommand alone
    pytest.param(["preserve", "sigma", "--seq", "char:evens", "--ideal", "Z"],
                 "kind", id="preserve-sigma-kind"),
])
def test_config_file_unknown_key_exits_one(tmp_path, capsys, command, key):
    # a misspelt key used to be dropped, so the run went on at the default,
    # and another command's setting was accepted and ignored
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({key: 64}))
    out = tmp_path / "o"
    assert run(["--config", str(cfg_file), *command, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and repr(key) in err["detail"]
    assert err["detail"].endswith(f"is not a setting of {_path(command)}")
    assert not Path(f"{out}.json").exists()


# the flags each command used to accept and ignore
DROPPED = [
    (["analyze", "--seq", "char:evens", "--ideal", "Z"], "--seed", "1"),
    *[(["witness", "build", "--ideal", "Z"], flag, value) for flag, value in
      [("--radii", "3"), ("--pitch", "1/8"), ("--theta", "1/7"),
       ("--hit-min", "2"), ("--seed", "5")]],
    *[(["witness", "verify", "--ideal", "Z"], flag, value) for flag, value in
      [("--radii", "3"), ("--pitch", "1/8"), ("--hit-min", "2")]],
    *[(["preserve", kind, "--seq", "char:evens", "--ideal", "Z"], "--seed",
       "1") for kind in ("sigma", "pi")],
    *[(["game", "run", "--seq", "char:evens", "--ideal", "Z", "--ell", "1"],
       flag, value) for flag, value in
      [("--pitch", "1/8"), ("--theta", "1/7"), ("--hit-min", "2")]],
    *[(["sample", "--seq", "char:evens", "--ideal", "Z"], flag, value)
      for flag, value in [("--hit-min", "2"), ("--q", "1/4")]],
]


@pytest.mark.parametrize("command, flag, value", DROPPED,
                         ids=[f"{_path(c)} {f}" for c, f, _ in DROPPED])
def test_flag_a_command_does_not_read_exits_one(tmp_path, capsys, command,
                                                flag, value):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run([*command, flag, value, "--out", str(out)])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not Path(f"{out}.json").exists()


# every mode of every command
EVERY_MODE = [
    *[["analyze", "--seq", "char:evens", "--ideal", "Z", "--mode", mode,
       "--horizon", "4096", "--radii", "4", "--pitch", "1/16", *more]
      for mode, *more in [("all",), ("gamma",), ("lambda",),
                          ("lambda-q", "--q", "1/4"), ("limits",),
                          ("convergence", "--ell", "0")]],
    ["witness", "build", "--ideal", "Z", "--horizon", "4096"],
    ["witness", "verify", "--ideal", "Z", "--horizon", "4096", "--trials",
     "3"],
    ["witness", "verify", "--ideal", "Z", "--horizon", "4096", "--trials",
     "3", "--witness", "{w}"],
    *[["preserve", kind, "--seq", seq, "--ideal", "density-zero", "--mode",
       mode, "--horizon", horizon, "--radii", "3", "--pitch", "1/16", *more]
      for kind in ("sigma", "pi")
      for seq, mode, horizon, *more in [
          ("char:evens", "preserve", "16384"),
          ("char:powers2", "add", "4096", "--ell", "1")]],
    *[["game", "run", "--seq", "char:evens", "--ideal", "density-zero",
       "--ell", "1", "--q", "1/4", "--rounds", "4", "--kind", kind]
      for kind in ("sigma", "pi")],
    *[["sample", "--seq", "char:evens", "--ideal", "Z", "--maps", "2",
       "--length", "64", "--horizon", "1024", "--radii", "3", "--kind", kind]
      for kind in ("sigma", "pi")],
    ["ideals", "list"],
]


def test_every_setting_a_command_takes_is_read(tmp_path, monkeypatch):
    # a setting the handler never reads would be accepted and ignored
    names = {f.name for f in dataclasses.fields(RunConfig)}
    reads, recording = set(), {"on": False}
    get, number = RunConfig.__getattribute__, RunConfig.number
    to_json = RunConfig.to_json

    def spy(self, name):
        if recording["on"] and name in names:
            reads.add(name)
        return get(self, name)

    def number_spy(self, name):
        # validate has parsed it already, so number() reads no field
        if recording["on"]:
            reads.add(name)
        return number(self, name)

    def unread(self):
        # the report's config block shows every field
        on, recording["on"] = recording["on"], False
        try:
            return to_json(self)
        finally:
            recording["on"] = on

    def recorded(handler):
        def run_handler(cfg):
            recording["on"] = True
            try:
                return handler(cfg)
            finally:
                recording["on"] = False
        return run_handler

    monkeypatch.setattr(RunConfig, "__getattribute__", spy)
    monkeypatch.setattr(RunConfig, "number", number_spy)
    monkeypatch.setattr(RunConfig, "to_json", unread)
    for path, (handler, settings) in cli._COMMANDS.items():
        monkeypatch.setitem(cli._COMMANDS, path, (recorded(handler), settings))
    assert run(["witness", "build", "--ideal", "Z", "--horizon", "4096",
                "--out", str(tmp_path / "w")]) == 0
    read_by = {path: set() for path in cli._COMMANDS}
    for i, argv in enumerate(EVERY_MODE):
        argv = [a.format(w=tmp_path / "w.json") for a in argv]
        reads.clear()
        assert run([*argv, "--out", str(tmp_path / str(i))]) == 0
        read_by[tuple(_path(argv).split())] |= reads
    unread_settings = {" ".join(path): sorted(set(settings) - read_by[path])
                       for path, (_, settings) in cli._COMMANDS.items()}
    assert unread_settings == {" ".join(path): [] for path in cli._COMMANDS}


def test_config_file_not_an_object_exits_one(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text("[4096]")
    assert run(["--config", str(cfg_file), "ideals", "list"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "JSON object" in err["detail"]


@pytest.mark.parametrize("grid", [[], ["0", "1/2"], ["1/2", "3/2"], ["-1/4"]])
def test_q_grid_outside_unit_interval_exits_one(tmp_path, capsys, grid):
    # a level q = 0 would count a point of limiting norm 0 as a cluster point
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"q_grid": grid}))
    out = tmp_path / "o"
    assert run(["--config", str(cfg_file), "analyze", "--seq", "char:powers2",
                "--ideal", "Z", "--mode", "lambda", "--horizon", "1024",
                "--radii", "3", "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "q_grid" in err["detail"]
    assert not Path(f"{out}.json").exists()
    cfg_file.write_text(json.dumps({"q_grid": ["1/8", "1"]}))
    assert run(["--config", str(cfg_file), "analyze", "--seq", "char:powers2",
                "--ideal", "Z", "--mode", "lambda", "--horizon", "1024",
                "--radii", "3", "--out", str(out)]) == 0
    lam = read(f"{out}.json")["reports"]["lambda"]
    assert {c["point"]: c["classification"] for c in lam["candidates"]}["1"] \
        == "not-cluster"


def test_undecided_dominated_exits_two(tmp_path):
    # index bitmaps end far below the horizon: nothing can be decided
    spec = json.dumps({
        "letters": ["0", "1"],
        "sets": [{"kind": "prefix-bitmap", "bits": "10" * 64},
                 {"kind": "prefix-bitmap", "bits": "01" * 64}],
        "bound": "1", "name": "shortmaps"})
    out = tmp_path / "und"
    assert run(["analyze", "--seq", f"alphabet:{spec}",
                "--ideal", "density-zero", "--horizon", "4096",
                "--out", str(out)]) == 2
    gamma = read(f"{out}.json")["reports"]["gamma"]
    assert all(c["classification"] == "undecided"
               for c in gamma["candidates"])


def test_usage_errors_exit_one(tmp_path):
    assert run(["analyze", "--seq", "no-such", "--ideal", "density-zero"]) == 1
    assert run(["analyze", "--seq", "char:evens", "--ideal", "no-such"]) == 1
    assert run([]) == 1
    assert run(["witness"]) == 1
    with pytest.raises(SystemExit) as exc:
        run(["analyze", "--horizon", "not-a-number"])
    assert exc.value.code == 1


def test_alphabet_json_sequence(tmp_path):
    spec = json.dumps({
        "letters": ["0", "1"],
        "sets": [{"kind": "progression", "first": 1, "step": 2},
                 {"kind": "progression", "first": 2, "step": 2}],
        "bound": "1", "name": "custom"})
    out = tmp_path / "alpha"
    assert run(["analyze", "--seq", f"alphabet:{spec}",
                "--ideal", "density-zero", "--horizon", "4096",
                "--out", str(out)]) == 0
    gamma = read(f"{out}.json")["reports"]["gamma"]
    assert sorted(c["point"] for c in gamma["candidates"]
                  if c["classification"] == "cluster") == ["0", "1"]


def test_gdi_config_file(tmp_path):
    gdi = tmp_path / "gdi.json"
    gdi.write_text(json.dumps({
        "partition": {"generator": {"kind": "geometric", "ratio": "2"},
                      "iota": [1, 2], "lengths_unbounded": True},
        "tail_weight": "1"}))
    out = tmp_path / "og"
    assert run(["analyze", "--seq", "char:evens", "--ideal", "gdi",
                "--gdi-file", str(gdi), "--horizon", "4096",
                "--out", str(out)]) == 0
    gamma = read(f"{out}.json")["reports"]["gamma"]
    assert sorted(c["point"] for c in gamma["candidates"]
                  if c["classification"] == "cluster") == ["0", "1"]


def test_game_run_refuses_too_few_radii(tmp_path, capsys):
    # 20 rounds of the level cycle reach level 5; four radii cannot serve it
    out = tmp_path / "g"
    assert run(["game", "run", "--seq", "char:evens", "--ideal", "Z",
                "--ell", "1", "--q", "1/4", "--radii", "4", "--rounds", "20",
                "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "at least 5 radii" in err["detail"]
    assert not Path(f"{out}.json").exists()
    assert run(["game", "run", "--seq", "char:evens", "--ideal", "Z",
                "--ell", "1", "--q", "1/4", "--radii", "5", "--rounds", "20",
                "--out", str(out)]) == 0


@pytest.mark.parametrize("q", ["1", "3/2"])
def test_game_run_refuses_q_no_escape_exceeds(tmp_path, capsys, monkeypatch, q):
    # every built-in submeasure is normalized: no interval's mass exceeds 1
    def refuse(*args, **kwargs):
        raise AssertionError("a move was played before q was checked")

    monkeypatch.setattr(games, "_adversary_move", refuse)
    out = tmp_path / "g"
    assert run(["game", "run", "--seq", "char:evens", "--ideal", "Z",
                "--ell", "1", "--q", q, "--rounds", "1",
                "--horizon", "16777216", "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "q must lie below 1" in err["detail"]
    assert not Path(f"{out}.json").exists()


def test_add_mode_without_close_hits_exits_3(tmp_path, capsys):
    # char:evens never comes near 1/3, so the adding builders' hypothesis fails
    for kind in ("sigma", "pi"):
        out = tmp_path / kind
        assert run(["preserve", kind, "--seq", "char:evens", "--ideal", "Z",
                    "--mode", "add", "--ell", "1/3", "--horizon", "1024",
                    "--out", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "hypothesis-failed"
        assert "1/3" in err["detail"]
        assert not Path(f"{out}.json").exists()
    # harmonic's terms 1/n lie within 1/4 of 1/2 only at n = 2 and 3: its
    # finer balls around 1/2 run out of members, which the adding builders
    # report as too few close hits
    for kind, ideal in (("sigma", "Z"), ("pi", "summable")):
        out = tmp_path / f"harmonic-{kind}"
        assert run(["preserve", kind, "--seq", "harmonic", "--ideal", ideal,
                    "--mode", "add", "--ell", "1/2", "--horizon", "4096",
                    "--out", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "hypothesis-failed"
        assert err["detail"] == "1/2 has too few close hits"
        assert not Path(f"{out}.json").exists()


def test_failed_preserve_hypothesis_names_its_points(tmp_path, capsys):
    # under Z, char:powers2 has cluster set {0} and limit points {0, 1}
    out = tmp_path / "p2"
    assert run(["preserve", "sigma", "--seq", "char:powers2", "--ideal", "Z",
                "--mode", "preserve", "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "hypothesis-failed"
    assert "limit points outside the cluster set: 1 (1 in all)" \
        in err["detail"]
    assert "cluster points outside the limit points: none (0 in all)" \
        in err["detail"]
    assert "Fraction(" not in err["detail"]
    assert not Path(f"{out}.json").exists()


# letters 0, 1/2 and 1 on the evens, the odds but 1, and {1}; the last two
# sets read a bitmap, so no ball of 1 is certified finite, only short of hits
_ONE_ONLY = {"kind": "prefix-bitmap", "bits": "1" + "0" * 4095}
UNPROVEN = {"letters": ["0", "1/2", "1"], "sets": [
    {"kind": "progression", "first": 2, "step": 2},
    {"kind": "intersection", "parts": [
        {"kind": "progression", "first": 1, "step": 2},
        {"kind": "complement", "part": _ONE_ONLY}]},
    _ONE_ONLY]}
UNPROVEN_ARGS = ["--ideal", "Z", "--mode", "preserve", "--horizon", "4096",
                 "--radii", "4", "--pitch", "1/16"]


def test_a_candidate_not_certified_finite_leaves_the_cluster_set_unproven():
    x = zoo.alphabet_from_json(UNPROVEN, 4096)
    params = sequences.AnalysisParams(
        horizon=4096, schedule=sequences.RadiusSchedule.dyadic(4),
        pitch=Fraction(1, 16))
    one = sequences.limit_points_estimate(x, params).candidates[2]
    assert one.point == (Fraction(1),) and one.classification == "not-cluster"
    assert {r.reason for r in one.radii} == {"hit-count"}
    handle = builtin("Z")
    res = transforms.cluster_preserving_sigma(
        x, handle, meager.build_witness(handle, Fraction(1, 2), 4096), params)
    assert res.blocks and res.gamma_preserved is None


def test_preserve_with_an_unproven_reverse_inclusion_exits_two(tmp_path):
    out = tmp_path / "unproven"
    assert run(["preserve", "sigma", "--seq",
                f"alphabet:{json.dumps(UNPROVEN)}", *UNPROVEN_ARGS,
                "--out", str(out)]) == 2
    res = read(f"{out}.json")["result"]
    assert res["gamma_preserved"] is None
    assert res["meta"]["candidates"] == ["0", "1/2"]


def test_oversized_candidate_grid_exits_one(tmp_path, capsys):
    # rationals fill [0, 1]: pitch 2^-21 asks for 2^21 + 1 candidates
    out = tmp_path / "grid"
    assert run(["analyze", "--seq", "rationals", "--ideal", "Z",
                "--horizon", "1024", "--pitch", "1/2097152",
                "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "2097153 points" in err["detail"] and "1048576" in err["detail"]
    assert not Path(f"{out}.json").exists()


def test_oversized_horizon_exits_one(tmp_path, capsys):
    out = tmp_path / "big"
    assert run(["witness", "build", "--ideal", "Z", "--horizon", "16777217",
                "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "horizon 16777217" in err["detail"] and "16777216" in err["detail"]
    assert not Path(f"{out}.json").exists()


# two letters on the even indices: index 1 has no value, index 2 has two
OVERLAPPING = ('alphabet:{"letters":["0","1"],"sets":['
               '{"kind":"progression","first":2,"step":2},'
               '{"kind":"progression","first":2,"step":2}]}')


def test_alphabet_that_does_not_partition_is_refused(tmp_path, capsys,
                                                     monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("analysis started before the partition check")

    monkeypatch.setattr(sequences, "ideal_convergence_check", refuse)
    out = tmp_path / "bad"
    assert run(["analyze", "--seq", OVERLAPPING, "--ideal", "Z",
                "--mode", "convergence", "--ell", "1/2", "--radii", "2",
                "--pitch", "1/4", "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "index 1 is not covered" in err["detail"]
    assert not Path(f"{out}.json").exists()


@pytest.mark.parametrize("sets, detail", [
    # periodic letters: decided for all of N, however far the fault sits
    ([{"kind": "progression", "first": 1, "step": 2},
      {"kind": "union", "parts": [
          {"kind": "progression", "first": 2, "step": 2},
          {"kind": "finite", "members": [100001]}]}],
     "index 100001 is covered by 2 letters"),
    # a powers leaf has no periodic form: read over [1, horizon]
    ([{"kind": "intersection", "parts": [
        {"kind": "progression", "first": 1, "step": 2},
        {"kind": "complement", "part": {"kind": "powers", "base": 3}}]},
      {"kind": "progression", "first": 2, "step": 2}],
     "index 3 is not covered"),
])
def test_partition_check_names_the_first_bad_index(capsys, sets, detail):
    spec = "alphabet:" + json.dumps({"letters": ["0", "1"], "sets": sets})
    for command in (["analyze", "--mode", "gamma"],
                    ["game", "run", "--ell", "0"],
                    ["preserve", "sigma", "--mode", "add", "--ell", "0"]):
        assert run([*command, "--seq", spec, "--ideal", "Z",
                    "--horizon", "1024"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and detail in err["detail"]


# --- the output files ---------------------------------------------------------

# sha256 of PREFIX.json and PREFIX.csv, and the routes of PREFIX.meta.json,
# as the files were written through pathlib before each became one
# os.open/os.write/os.close
OUTPUT_PINS = [
    (["analyze", "--seq", "char:evens", "--ideal", "Z", "--mode", "gamma"], 0,
     "ca4644951a846a775a41813858bd08c5c49805541c974ef980c543d8a9bb29ff",
     "bf16c7db0c81fcb26b03617b2a253a6e77689531004192bd8c95c9a7368f93f9",
     {"gamma": {"exact-norm": 20}}),
    (["analyze", "--seq", "harmonic", "--ideal", "gdi", "--horizon", "4096",
      "--radii", "4", "--pitch", "1/16"], 0,
     "de45d7dc4576b9c75302bc86b6470af528f82cadf299607ad23be3eea255acfc",
     "6c810fcf5649b10b694ede31239ba94edad763c47525684b27c193102dac5dd2",
     {"gamma": {"exact-norm": 68}, "lambda": {"exact-norm": 68},
      "limit_points": {"infiniteness": 68}}),
    (["analyze", "--seq", "charblocks:2", "--ideal", "gdi", "--mode", "gamma",
      "--horizon", "4096", "--radii", "4", "--pitch", "1/16"], 2,
     "6fed9afe95ad82ccdcbaa4ff1a1b501c2c0fd91bd9c4ebb43f00e09c316d64c8",
     "d9a20cf1de6a4378335da67601d8d05abf2329413b068fa237da700640cbcd32",
     {"gamma": {"tail-trend": 8}}),
]


def sha256_of(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("args, code, json_sha, csv_sha, routes", OUTPUT_PINS)
def test_output_files_keep_their_bytes(tmp_path, args, code, json_sha,
                                       csv_sha, routes):
    out = tmp_path / "rep"
    assert run([*args, "--out", str(out)]) == code
    assert sha256_of(f"{out}.json") == json_sha
    assert sha256_of(f"{out}.csv") == csv_sha
    meta = read(f"{out}.meta.json")
    assert sorted(meta) == ["routes", "written_at_unix"]
    assert meta["routes"] == routes
    # rewriting over the files truncates them to the same bytes
    assert run([*args, "--out", str(out)]) == code
    assert sha256_of(f"{out}.json") == json_sha


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_output_files_get_the_open_mode(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        assert run(["analyze", "--seq", "char:evens", "--ideal", "Z",
                    "--mode", "gamma", "--out", str(tmp_path / "x")]) == 0
    finally:
        os.umask(old)
    for suffix in (".json", ".csv", ".meta.json"):
        assert stat.S_IMODE(os.stat(tmp_path / f"x{suffix}").st_mode) == mode


@pytest.mark.parametrize("out, written", [
    ("dir/", "dir"),            # pathlib drops a trailing slash
    ("a//b", "a/b"),
    ("a/./b", "a/b"),
    ("a/b/c/d/rep", "a/b/c/d/rep"),     # missing parents are made
])
def test_output_file_names_follow_pathlib(tmp_path, monkeypatch, out,
                                          written):
    monkeypatch.chdir(tmp_path)
    assert run(["ideals", "list", "--out", out]) == 0
    made = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")
                  if p.is_file())
    assert made == [f"{written}.json", f"{written}.meta.json"]


def test_output_under_a_regular_file_exits_one(tmp_path, capsys):
    (tmp_path / "f").write_text("")
    for out in ("f/rep", "f/a/rep"):
        assert run(["ideals", "list", "--out", str(tmp_path / out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f"]


def test_a_report_that_fails_to_encode_leaves_no_file(tmp_path, capsys,
                                                      monkeypatch):
    # the sigma table holds the indices 2^k; one past the int-to-str digit
    # limit raises after the report's first writes to r.json, so the run
    # exits 1 as a config error and removes the partial file
    removed = []
    unlink = os.unlink
    monkeypatch.setattr(os, "unlink",
                        lambda path: removed.append(path) or unlink(path))
    out = tmp_path / "r"
    assert run(["preserve", "sigma", "--seq", "char:powers2", "--ideal",
                "density-zero", "--mode", "add", "--ell", "1", "--horizon",
                "16384", "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "integer string conversion" in err["detail"]
    assert removed == [f"{out}.json"]
    assert list(tmp_path.iterdir()) == []


def test_each_numeric_setting_is_parsed_once(tmp_path, monkeypatch):
    parsed = Counter()

    def counting(*args):
        if len(args) == 1 and isinstance(args[0], str):
            parsed[args[0]] += 1
        return Fraction(*args)

    monkeypatch.setattr(cli, "Fraction", counting)
    assert run(["analyze", "--seq", "char:evens", "--ideal", "Z",
                "--mode", "lambda-q", "--pitch", "1/2048", "--theta", "1/99",
                "--q", "3/5", "--out", str(tmp_path / "x")]) == 0
    assert parsed == {text: 1 for text in
                      ("1/2048", "1/99", "3/5", "1/8", "1/4", "1/2")}


# --- the README names the command-line contract -------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"


def _commands_and_flags(parser, path=()):
    """Every command path of the parser tree, and every long flag."""
    paths, flags = set(), set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                paths.add(path + (name,))
                more_paths, more_flags = _commands_and_flags(sub, path + (name,))
                paths |= more_paths
                flags |= more_flags
        else:
            flags.update(o for o in action.option_strings if o.startswith("--"))
    return paths, flags


def _usage_lines(text):
    """The words of each README line that starts with ``idealconv``, each
    word the set of its ``|`` alternatives."""
    return [[set(word.split("|")) for word in line.split()[1:]]
            for line in text.splitlines() if line.startswith("idealconv ")]


def test_readme_names_every_command_flag_exit_code_and_error_kind():
    text = README.read_text()
    paths, flags = _commands_and_flags(cli._build_parser())
    usage = _usage_lines(text)
    missing = [" ".join(p) for p in sorted(paths)
               if not any(len(words) >= len(p) and
                          all(name in words[i] for i, name in enumerate(p))
                          for words in usage)]
    missing += [f for f in sorted(flags)
                if not re.search(re.escape(f) + r"(?![\w-])", text)]
    codes = text[text.index("Exit codes:"):].split("\n\n")[0]
    missing += [name for name, value in vars(cli).items()
                if name.startswith("EXIT_") and f"`{value}`" not in codes]
    kinds = re.findall(r'"error": "([\w-]+)"', inspect.getsource(cli.main))
    assert len(kinds) == 3
    flat = " ".join(text.split())
    missing += [k for k in kinds if f'"error": "{k}"' not in flat]
    assert not missing
