"""Start-up cost: numpy loads on the first bitmap read, not at import, and
each command imports only the idealconv modules it runs.

Each test runs in a fresh interpreter, since the suite's own process has
numpy imported long before.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import idealconv

SRC = Path(idealconv.__file__).resolve().parents[1]   # the tree under test

PRELUDE = textwrap.dedent("""
    import contextlib, io, json, sys

    def numpy_loaded():
        return sorted(m for m in sys.modules if m.startswith("numpy."))

    def loaded():
        # the modules only some commands run; the rest (_lazy, natset,
        # submeasure, ideals, cli) load with ``import idealconv.cli``
        return [m for m in ("sequences", "zoo", "meager", "transforms",
                            "games") if "idealconv." + m in sys.modules]

    def cli(argv):
        from idealconv import cli
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
""")


def run_fresh(code: str) -> dict:
    """Run ``code`` after PRELUDE in a new interpreter; its last stdout line
    is JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c",
                           PRELUDE + textwrap.dedent(code)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_certified_commands_never_load_numpy():
    got = run_fresh("""
        import idealconv.cli
        from idealconv.ideals import builtin, builtin_names
        handles = [builtin(n) for n in builtin_names()]
        codes = [cli(["ideals", "list"]),
                 cli(["analyze", "--seq", "char:evens", "--ideal", "Z",
                      "--mode", "gamma"])]
        # fin-x-fin reads the row rule off the periodic form's tail mask
        codes += [cli(["analyze", "--seq", seq, "--ideal", "fin-x-fin",
                       "--mode", "gamma"])
                  for seq in ("char:evens", "char:odds", "const:1/2",
                              "cycle:0,1/2,1")]
        # their grids are the pitch lattice of the declared box [0, 1]
        codes += [cli(["analyze", "--seq", "harmonic", "--ideal", "gdi"]),
                  cli(["analyze", "--seq", "rationals", "--ideal", "Z"])]
        print(json.dumps({"codes": codes, "numpy": numpy_loaded()}))
    """)
    assert got == {"codes": [0] * 8, "numpy": []}


def test_a_bitmap_command_loads_numpy_in_the_same_process():
    got = run_fresh("""
        first = cli(["analyze", "--seq", "char:evens", "--ideal", "Z",
                     "--mode", "gamma"])
        before = numpy_loaded()
        second = cli(["sample", "--seq", "harmonic", "--ideal", "gdi",
                      "--maps", "1", "--length", "256", "--horizon", "4096",
                      "--radii", "4", "--pitch", "1/16"])
        print(json.dumps({"codes": [first, second], "before": before,
                          "after": bool(numpy_loaded())}))
    """)
    assert got == {"codes": [0, 0], "before": [], "after": True}


def test_import_fails_at_once_without_numpy():
    got = run_fresh("""
        class NoNumpy:
            def find_spec(self, name, path=None, target=None):
                if name == "numpy" or name.startswith("numpy."):
                    raise ModuleNotFoundError(f"no {name}", name=name)
                return None

        sys.meta_path.insert(0, NoNumpy())
        try:
            import idealconv
        except ImportError as exc:
            print(json.dumps({"raised": type(exc).__name__,
                              "partial": "idealconv.cli" in sys.modules}))
        else:
            print(json.dumps({"raised": None}))
    """)
    assert got == {"raised": "ModuleNotFoundError", "partial": False}


def test_setup_and_ideals_list_load_no_command_module():
    got = run_fresh("""
        import idealconv.cli
        from idealconv.ideals import builtin, builtin_names
        handles = [builtin(n) for n in builtin_names()]
        setup = loaded()
        code = cli(["ideals", "list"])
        print(json.dumps({"setup": setup, "code": code, "list": loaded()}))
    """)
    assert got == {"setup": [], "code": 0, "list": []}


def test_analyze_loads_no_construction_module():
    got = run_fresh("""
        codes = [cli(["analyze", "--seq", "char:evens", "--ideal", "Z",
                      "--mode", "gamma"]),
                 cli(["analyze", "--seq", "harmonic", "--ideal", "gdi",
                      "--horizon", "4096", "--radii", "4",
                      "--pitch", "1/16"])]
        print(json.dumps({"codes": codes, "loaded": loaded()}))
    """)
    assert got == {"codes": [0, 0], "loaded": ["sequences", "zoo"]}


def test_witness_build_loads_only_meager():
    got = run_fresh("""
        code = cli(["witness", "build", "--ideal", "Z"])
        print(json.dumps({"code": code, "loaded": loaded()}))
    """)
    assert got == {"code": 0, "loaded": ["meager"]}


def test_witness_verify_loads_only_meager():
    got = run_fresh("""
        code = cli(["witness", "verify", "--ideal", "Z", "--horizon", "4096",
                    "--trials", "3"])
        print(json.dumps({"code": code, "loaded": loaded()}))
    """)
    assert got == {"code": 0, "loaded": ["meager"]}


def test_preserve_and_sample_load_no_game_module():
    # sample loads meager through transforms
    for argv in (["preserve", "sigma", "--seq", "char:evens", "--ideal", "Z",
                  "--horizon", "4096", "--radii", "3", "--pitch", "1/16"],
                 ["sample", "--seq", "char:evens", "--ideal", "Z", "--maps",
                  "2", "--length", "64", "--horizon", "1024", "--radii",
                  "3"]):
        got = run_fresh(f"""
            code = cli({argv!r})
            print(json.dumps({{"code": code, "loaded": loaded()}}))
        """)
        assert got == {"code": 0, "loaded": ["sequences", "zoo", "meager",
                                             "transforms"]}, argv


def test_game_run_loads_every_command_module():
    got = run_fresh("""
        code = cli(["game", "run", "--seq", "char:evens", "--ideal", "Z",
                    "--ell", "1", "--q", "1/4", "--rounds", "2"])
        print(json.dumps({"code": code, "loaded": loaded()}))
    """)
    assert got == {"code": 0, "loaded": ["sequences", "zoo", "meager",
                                         "transforms", "games"]}


def test_every_export_is_its_defining_modules_object():
    got = run_fresh("""
        import importlib
        import idealconv
        wrong = [name for name, module in idealconv._MODULE_OF.items()
                 if getattr(idealconv, name) is not getattr(
                     importlib.import_module("idealconv." + module), name)]
        wrong += [name for name in idealconv._EXPORTS
                  if getattr(idealconv, name)
                  is not sys.modules["idealconv." + name]]
        listed = set(dir(idealconv))
        missing = sorted(set(idealconv.__all__) - listed)
        print(json.dumps({"wrong": wrong, "missing": missing,
                          "count": len(idealconv.__all__)}))
    """)
    assert got == {"wrong": [], "missing": [], "count": 81}


def test_cli_seams_resolve_in_a_fresh_process():
    # a handler imports the names it runs when it is called, so a
    # replacement made in the defining module before a command runs is the
    # one the command uses
    got = run_fresh("""
        import idealconv.cli
        import idealconv.sequences as sq

        def refuse(*args, **kwargs):
            raise ValueError("replaced")

        sq.ideal_convergence_check = refuse
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli(["analyze", "--seq", "char:evens", "--ideal", "Z",
                        "--mode", "convergence", "--ell", "0"])
        print(json.dumps({"code": code, "err": json.loads(err.getvalue())}))
    """)
    assert got == {"code": 1, "err": {"error": "config", "detail": "replaced"}}
