#!/usr/bin/env python
"""Import-order smoke test: every ``repro`` module must import first.

A circular import only shows when the cycle is entered from the wrong
end, so for each module under ``src/repro`` this script clears every
``repro.*`` entry from ``sys.modules`` and imports that module first.
It prints each module that fails, with the error, and exits non-zero if
any did.

Usage::

    PYTHONPATH=src python scripts/import_smoke.py
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import traceback

import repro


def repro_modules() -> list[str]:
    """Every module and package under ``repro``, sorted by name."""
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(info.name)
    return sorted(names)


def import_first(name: str) -> str | None:
    """Import ``name`` with no ``repro`` module loaded; the traceback on failure."""
    for loaded in [key for key in sys.modules if key == "repro" or key.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception:  # noqa: BLE001 - every failure is reported, none is fatal here
        return traceback.format_exc(limit=-3)
    return None


def main() -> int:
    names = repro_modules()
    failures = {name: error for name in names if (error := import_first(name)) is not None}
    for name, error in failures.items():
        print(f"FAIL {name}\n{error}")
    print(f"{len(names) - len(failures)}/{len(names)} modules import first")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
