"""numpy for the package's modules, executed on its first attribute access.

`import gipower` then runs no numpy code, and the scalar paths, which are
plain `math` (the gate, the standard frame, the closed form, the oracle's
value and the CLI's `verify` and `ip` from flags), never load it.
"""

import importlib.util
import sys


class _Absent:
    """Stands in for a module that cannot be imported: any attribute access raises."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        raise ModuleNotFoundError(f"No module named {self._name!r}", name=self._name)


def _lazy(name: str):
    """The module name, registered in sys.modules now and executed on first attribute access.

    A module already in sys.modules is returned as it is.  Where the module
    cannot be found, or is blocked by sys.modules[name] = None, the
    ModuleNotFoundError comes on first attribute access too.  Before
    Python 3.12 LazyLoader takes no lock, so two threads making that first
    access at once can see a half-executed module: a program that calls
    gipower from several threads imports numpy itself first.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        return _Absent(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")
