"""Locate the checkout and import upse from its own src/ tree.

The benchmark runs from the root of a plain checkout, so it must never pick
up an installed copy of upse: the import is checked to come from src/.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"


class MissingProgram(RuntimeError):
    pass


def import_upse():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import upse
    except ImportError as exc:
        raise MissingProgram(f"cannot import upse from {SRC}: {exc}") from exc
    if Path(upse.__file__).resolve().parent.parent != SRC:
        raise MissingProgram(f"upse was imported from {upse.__file__}, not {SRC}")
    return upse


def import_helpers():
    """tests/helpers.py, whose generators the workloads use.

    helpers imports networkx for a function the benchmark never calls; a stub
    keeps the benchmark on the standard library and its start-up time free of
    that import."""
    import_upse()
    sys.modules.setdefault("networkx", types.ModuleType("networkx"))
    if str(TESTS) not in sys.path:
        sys.path.insert(0, str(TESTS))
    try:
        import helpers
    except ImportError as exc:
        raise MissingProgram(f"cannot import {TESTS / 'helpers.py'}: {exc}") from exc
    return helpers
