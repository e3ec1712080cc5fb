"""Import the commcert package of this checkout and nothing else.

The benchmark measures the sources under ``src/`` next to this
directory.  An installed copy elsewhere on the path must never stand in
for them, so a missing ``src/commcert`` is an error.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "commcert"

# The measured layers, in dependency order.
LAYERS = ("quaternion", "matrix", "budget", "normalform", "wordcalc", "certify", "serialize")


class LibraryNotFound(RuntimeError):
    pass


def load() -> SimpleNamespace:
    """Import commcert afresh from ``src/`` and return its layer modules.

    Earlier imports are dropped first, so every call pays the full
    import cost; set-up calls this once per repetition.
    """
    if not (PACKAGE / "__init__.py").is_file():
        raise LibraryNotFound(f"no commcert package under {SRC}")
    for name in [m for m in sys.modules if m == "commcert" or m.startswith("commcert.")]:
        del sys.modules[name]
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    mods = {name: importlib.import_module(f"commcert.{name}") for name in LAYERS}
    for mod in mods.values():
        if Path(mod.__file__).resolve().parent != PACKAGE.resolve():
            raise LibraryNotFound(f"{mod.__name__} was imported from {mod.__file__}")
    return SimpleNamespace(**mods)
