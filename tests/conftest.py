"""Subprocess tests run `python -m etacalc` from the source tree under test.

pytest puts `src` on its own import path (pyproject's `pythonpath`); child
processes see it through PYTHONPATH, so no install is needed.
"""

from __future__ import annotations

import os
from pathlib import Path

import etacalc

_SRC = str(Path(etacalc.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
