"""Every definition in the package is used by the package itself.

A function, class or method that no code under src/ names is dead weight
that only tests keep alive. Dunders are called by Python, and
_ArgParser.error by argparse, so they are exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / 'src' / 'flatmu'
CALLED_FROM_OUTSIDE = {('cli.py', '_ArgParser', 'error')}


def _definitions_and_names():
    defined, named = [], set()
    for path in sorted(SRC.glob('*.py')):
        tree = ast.parse(path.read_text(), str(path))
        for owner in ast.walk(tree):
            for node in ast.iter_child_nodes(owner):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    outer = getattr(owner, 'name', None)
                    defined.append((path.name, outer, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return defined, named


def test_every_definition_is_named_somewhere_in_src():
    defined, named = _definitions_and_names()
    unused = [d for d in defined
              if d[2] not in named
              and not (d[2].startswith('__') and d[2].endswith('__'))
              and d not in CALLED_FROM_OUTSIDE]
    assert unused == []
