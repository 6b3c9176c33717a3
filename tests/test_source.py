"""Every definition, module-level name, class field and parameter
default in the package is used by the package itself, the package
never imports numpy, and only syntax and closure name the grammar
position class.

A function, class or method that no code under src/ names is dead weight
that only tests keep alive, and so is a module-level name that no code
under src/ reads, or a field declared in a class body that no code under
src/ reads as an attribute. Dunders are called or read by Python, and
_ArgParser.error by argparse, so they are exempt. A parameter default
that no call under src/ overrides is a knob nobody turns; cli.main's
argv is set by the console script and by tests, so it is exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / 'src' / 'flatmu'
CALLED_FROM_OUTSIDE = {('cli.py', '_ArgParser', 'error')}
SET_FROM_OUTSIDE = {('cli.py', 'main', 'argv')}


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


def _fields_and_attribute_reads():
    """(file, class, field) of every annotated name in a class body, and
    the names read anywhere as attributes."""
    fields, read = [], set()
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                fields += [(name, node.name, stmt.target.id)
                           for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)
                           and isinstance(stmt.target, ast.Name)]
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return fields, read


def _signature(owner, node):
    """(callee name, parameter names a call can pass) of a definition:
    a method drops self or cls, and __init__ is called by its class."""
    params = [a.arg for a in node.args.posonlyargs + node.args.args]
    if not isinstance(owner, ast.ClassDef):
        return node.name, params
    static = any(getattr(d, 'id', None) == 'staticmethod'
                 for d in node.decorator_list)
    params = params if static else params[1:]
    return (owner.name if node.name == '__init__' else node.name), params


def _defaults_and_overrides():
    """(file, callee, parameter) of every parameter default, and the
    (callee, parameter) pairs that some call under src/ sets.

    Calls match definitions by name. A parameter counts as set when a
    call passes it by keyword or by position, or passes a *args or
    **kwargs that could reach it.
    """
    trees = _trees()
    defaults, signatures = [], {}
    for name, tree in trees:
        for owner in ast.walk(tree):
            for node in ast.iter_child_nodes(owner):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    callee, params = _signature(owner, node)
                    signatures.setdefault(callee, []).append(params)
                    args = node.args
                    given = params[len(params) - len(args.defaults):] + [
                        a.arg for a, d in zip(args.kwonlyargs,
                                              args.kw_defaults)
                        if d is not None]
                    defaults += [(name, callee, p) for p in given]
    overridden = set()
    for _, tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            callee = getattr(call.func, 'id', None) or \
                getattr(call.func, 'attr', None)
            for params in signatures.get(callee, ()):
                for i, arg in enumerate(call.args):
                    reached = params[i:] if isinstance(arg, ast.Starred) \
                        else params[i:i + 1]
                    overridden.update((callee, p) for p in reached)
                for kw in call.keywords:
                    reached = params if kw.arg is None else [kw.arg]
                    overridden.update((callee, p) for p in reached)
    return defaults, overridden


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


def test_every_class_field_is_read_as_an_attribute_in_src():
    fields, read = _fields_and_attribute_reads()
    assert [f for f in fields if f[2] not in read] == []


def test_every_parameter_default_is_overridden_somewhere_in_src():
    defaults, overridden = _defaults_and_overrides()
    unturned = [d for d in defaults if d[1:] not in overridden
                and d not in SET_FROM_OUTSIDE]
    assert unturned == []


def test_src_never_imports_numpy():
    # the lanes are Python ints, so no command loads it (see test_cli)
    found = [(name, node.lineno) for name, tree in _trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Import)
             and any(a.name.split('.')[0] == 'numpy' for a in node.names)
             or isinstance(node, ast.ImportFrom)
             and (node.module or '').split('.')[0] == 'numpy']
    assert found == []


def test_only_syntax_and_closure_name_the_grammar_position():
    # the rest reads a deferral's dnode.kind and dnode.children
    found = [(name, node.lineno) for name, tree in _trees()
             if name not in ('syntax.py', 'closure.py')
             for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == 'Position'
             or isinstance(node, ast.Attribute) and node.attr == 'Position'
             or isinstance(node, ast.alias) and node.name == 'Position']
    assert found == []
