"""perfbench/tracing.py wraps flatmu functions by name; every name must exist.

A rename in flatmu would otherwise surface only as an AttributeError in
`perfbench/run.py --trace 1`. The tracing module imports only the
standard library, and it is executed from its source here so that
nothing is written next to it.
"""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / 'perfbench' / 'tracing.py'


def _tracing():
    module = types.ModuleType('perfbench_tracing')
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), 'exec'), module.__dict__)
    return module


def test_every_traced_name_resolves_in_flatmu():
    tracing = _tracing()
    for module, attr, _ in tracing.WRAPPED:
        assert callable(getattr(importlib.import_module(module), attr))
    for module, cls, method, _ in (tracing.TIMED_METHODS
                                   + tracing.COUNTED_METHODS):
        owner = getattr(importlib.import_module(module), cls)
        assert callable(getattr(owner, method))
