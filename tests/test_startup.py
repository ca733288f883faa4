"""Start-up cost: numpy loads on the first bitmap read, not at import.

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
        print(json.dumps({"codes": codes, "numpy": numpy_loaded()}))
    """)
    assert got == {"codes": [0] * 6, "numpy": []}


def test_a_bitmap_command_loads_numpy_in_the_same_process():
    got = run_fresh("""
        first = cli(["analyze", "--seq", "char:evens", "--ideal", "Z",
                     "--mode", "gamma"])
        before = numpy_loaded()
        second = cli(["analyze", "--seq", "harmonic", "--ideal", "gdi",
                      "--mode", "gamma", "--horizon", "4096", "--radii", "4",
                      "--pitch", "1/16"])
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
