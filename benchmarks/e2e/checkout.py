"""Where the program under test lives, relative to this benchmark.

The benchmark runs from a plain checkout of the repository and imports the
program from the checkout's ``src`` directory, never from an installed copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: The repository root: ``benchmarks/e2e`` sits two levels below it.
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: Scratch space for traces and temporary cache stores (git-ignored).
OUT = Path(__file__).resolve().parent / "out"


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` package to measure."""


def require_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path``, or raise."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program to measure: {SRC / 'repro'} is missing")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))


def check_imported(module: object) -> None:
    """Raise unless *module* was imported from this checkout's ``src``."""
    origin = Path(getattr(module, "__file__", "") or "").resolve()
    if SRC not in origin.parents:
        raise MissingProgram(f"imported {origin}, not the program under {SRC}")
