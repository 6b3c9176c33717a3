"""Every definition and module-level name in the package is used by the
package itself.

A function, class or method that no code under src/ names is dead weight
that only tests keep alive, and so is a module-level name that no code
under src/ reads. Dunders are called or read by Python, and
_ArgParser.error by argparse, so they are exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / 'src' / 'flatmu'
CALLED_FROM_OUTSIDE = {('cli.py', '_ArgParser', 'error')}


def _trees():
    return [(path.name, ast.parse(path.read_text(), str(path)))
            for path in sorted(SRC.glob('*.py'))]


def _is_dunder(name):
    return name.startswith('__') and name.endswith('__')


def _definitions_and_names():
    defined, named = [], set()
    for name, tree in _trees():
        for owner in ast.walk(tree):
            for node in ast.iter_child_nodes(owner):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    outer = getattr(owner, 'name', None)
                    defined.append((name, outer, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return defined, named


def _module_assignments_and_reads():
    """(file, name) of every name a module's top level assigns, and the
    names read anywhere: loaded as names or as attributes."""
    assigned, read = [], set()
    for name, tree in _trees():
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                targets = [stmt.target]
            else:
                continue
            assigned += [(name, node.id) for target in targets
                         for node in ast.walk(target)
                         if isinstance(node, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return assigned, read


def test_every_definition_is_named_somewhere_in_src():
    defined, named = _definitions_and_names()
    unused = [d for d in defined
              if d[2] not in named and not _is_dunder(d[2])
              and d not in CALLED_FROM_OUTSIDE]
    assert unused == []


def test_every_module_level_name_is_read_somewhere_in_src():
    assigned, read = _module_assignments_and_reads()
    unread = [a for a in assigned if a[1] not in read and not _is_dunder(a[1])]
    assert unread == []
