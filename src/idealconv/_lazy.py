"""Deferred imports: numpy, and the idealconv modules a command runs.

A certified answer (an exact norm, a periodic form) reads no bitmap, so a
command that only certifies need not pay numpy's import.  The modules that
use numpy bind ``np = lazy_numpy()``: numpy then loads on the first
attribute read, such as the first ``np.empty`` of a prefix.  The package
imports the other modules on first use through ``load``; each CLI handler
imports the modules it runs.
"""

from __future__ import annotations

import importlib.util
import sys
from types import ModuleType


def lazy_numpy() -> ModuleType:
    """numpy, loaded on its first attribute read.

    When numpy is already imported, the module itself.  Otherwise a module
    whose body runs on first use through ``importlib.util.LazyLoader``; the
    module is found now, so a missing numpy still raises ImportError here.
    """
    module = sys.modules.get("numpy")
    if module is not None:
        return module
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


def load(name: str) -> ModuleType:
    """The module ``name``, imported as an import statement imports it, so
    ``python -X importtime`` lists it (``importlib.import_module`` does not
    pass through the timed path)."""
    __import__(name)
    return sys.modules[name]
