"""The traced benchmark (perfbench/spans.py) wraps the methods in its
METHODS list by looking each up in its class's __dict__; a method that was
renamed, deleted or moved to a base class would break `--trace 1` with a
KeyError.  This checks every listed method is still defined by its class.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_traced_method_is_defined_by_its_class():
    sys.path.insert(0, str(ROOT))
    try:
        spans = importlib.import_module("perfbench.spans")
    finally:
        sys.path.remove(str(ROOT))
    missing = [f"{module}.{cls}.{meth}" for module, cls, meth, _name in spans.METHODS
               if meth not in vars(getattr(importlib.import_module(f"instantons.{module}"), cls))]
    assert missing == []
