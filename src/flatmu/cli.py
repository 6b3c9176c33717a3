"""Command line front end.

One binary with subcommands that wire the modules together: formula
normalization, closure and atom listings, model checking, bounded
satisfiability search, guardification, network inspection, construction
runs, and the release selftest.

Diagnostics go to stderr, machine output to stdout. Exit codes: 0 for a
positive answer, 1 for usage or input trouble, 2 for a negative or
inconclusive one. Every run is a pure function of its inputs; there is
no randomness to seed, and the --seed flag is rejected on purpose.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import acceptance
from .closure import enumerate_atoms, fl_closure
from .construct import Budget, Stuck, build
from .network import (
    NetworkContext, compute_timeouts, find_defects, network_from_json, to_dot,
    validate,
)
from .semantics import KripkeModel, brute_force_sat, eval_bits
from .syntax import (
    FileShapeError, ParseError, classify_disjunctive, connectives_from_json,
    guardify, parse, to_string,
)


class _CliError(Exception):
    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


class _ArgParser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print('%s: error: %s' % (self.prog, message), file=sys.stderr)
        raise SystemExit(1)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise _CliError(str(exc))
    except ValueError as exc:
        raise _CliError('%s: not valid JSON (%s)' % (path, exc))


def _connectives(args):
    if not getattr(args, 'defs', None):
        return {}
    try:
        return connectives_from_json(_load_json(args.defs))
    except (ValueError, KeyError, TypeError) as exc:
        raise _CliError('%s: %s' % (args.defs, exc))


def _formula(args):
    try:
        return parse(args.formula, _connectives(args))
    except ParseError as exc:
        raise _CliError(str(exc))


def _load(path, from_json):
    """from_json of the file at path; a file of the wrong shape is an error
    of one line per problem."""
    try:
        return from_json(_load_json(path))
    except FileShapeError as exc:
        raise _CliError('\n'.join('%s: %s' % (path, p) for p in exc.problems))
    except (KeyError, TypeError, ValueError, ParseError) as exc:
        raise _CliError('%s: %s' % (path, exc))


def _emit(obj):
    print(json.dumps(obj, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_parse(args):
    print(to_string(_formula(args)))
    return 0


def _cmd_closure(args):
    sigma = fl_closure(_formula(args))
    if args.json:
        _emit([to_string(f) for f in sigma.formulas])
    else:
        for f in sigma.formulas:
            print(to_string(f))
    return 0


def _cmd_atoms(args):
    sigma = fl_closure(_formula(args))
    atoms = list(enumerate_atoms(sigma))
    if args.count:
        print(len(atoms))
        return 0
    for bits in atoms:
        members = [to_string(sigma.formulas[i]) for i in range(len(sigma))
                   if bits >> i & 1]
        print(json.dumps({'bits': bits, 'members': members},
                         sort_keys=True))
    return 0


def _cmd_check(args):
    model = _load(args.model, KripkeModel.from_json)
    if not 0 <= args.state < model.states:
        raise _CliError('state %d outside 0..%d'
                        % (args.state, model.states - 1))
    holds = bool(eval_bits(_formula(args), model) >> args.state & 1)
    print('true' if holds else 'false')
    return 0 if holds else 2


def _cmd_sat(args):
    if args.max_states < 1:
        raise _CliError('--max-states must be at least 1, not %d'
                        % args.max_states)
    hit = brute_force_sat(_formula(args), args.max_states)
    if hit is None:
        print('none')
        return 2
    model, state = hit
    _emit({'model': model.to_json(), 'state': state})
    return 0


def _cmd_guardify(args):
    table = _connectives(args)
    chi = table.get(args.name)
    if chi is None:
        raise _CliError('no connective named %r in %s (have: %s)'
                        % (args.name, args.defs,
                           ', '.join(sorted(table)) or 'nothing'))
    if classify_disjunctive(chi) == 'none':
        print('flatmu: %r is not disjunctive; nothing to split'
              % args.name, file=sys.stderr)
        return 2
    res = guardify(chi)
    if args.json:
        _emit({'gamma1': to_string(res.gamma1),
               'gamma2': {'name': res.gamma2.name,
                          'arity': res.gamma2.arity,
                          'body': to_string(res.gamma2.body)},
               'equivalence': to_string(res.equivalence)})
    else:
        print('gamma1: %s' % to_string(res.gamma1))
        print('gamma2: %s' % to_string(res.gamma2.body))
        print('equivalence: %s' % to_string(res.equivalence))
    return 0


def _cmd_net(args):
    n = _load(args.network, network_from_json)
    problems = validate(n)
    if args.query == 'validate':
        if not problems:
            print('ok')
            return 0
        for line in problems:
            print(line)
        return 2
    if problems:
        raise _CliError('%s: not a network: %s'
                        % (args.network, '; '.join(problems)))
    if args.query == 'defects':
        defects = find_defects(n)
        if not defects:
            print('none')
            return 0
        for d in defects:
            print(d.describe(n.ctx))
        return 2
    for (u, did), steps in sorted(compute_timeouts(n).items()):
        print('node %d  deferral %d (%s): %s'
              % (u, did, n.ctx.table.describe(did),
                 'unfinished' if steps is None else steps))
    return 0


def _cmd_build(args):
    f = _formula(args)
    sigma = fl_closure(f)
    ctx = NetworkContext(sigma)
    fi = sigma.index_of(f)
    try:
        budget = Budget(args.max_nodes, args.max_depth, args.max_rounds)
    except ValueError as exc:
        raise _CliError(str(exc))
    if args.atom is not None:
        candidates = [args.atom]
    else:
        candidates = [a for a in ctx.atoms_by_duty if a >> fi & 1]
        if not candidates:
            print('flatmu: no viable atom contains %s' % to_string(f),
                  file=sys.stderr)
            return 2
    reports = []
    for bits in candidates:
        try:
            report = build(ctx, bits, budget)
        except ValueError as exc:
            raise _CliError(str(exc))
        reports.append((bits, report))
        if not args.all and report.verdict == 'perfect':
            break
    if args.all:
        reports.sort(key=lambda r: r[0])
        chosen = max(reports, key=lambda r: (r[1].verdict == 'perfect',
                                             -r[0]))
        _emit({'formula': to_string(f),
               'runs': [{'atom': bits, 'report': rep.to_json()}
                        for bits, rep in reports]})
    else:
        chosen = next(
            (r for r in reports if r[1].verdict == 'perfect'), reports[0])
        _emit({'formula': to_string(f), 'atom': chosen[0],
               'tried': len(reports), 'report': chosen[1].to_json()})
    if args.dot:
        with open(args.dot, 'w') as fh:
            fh.write(to_dot(chosen[1].network))
    return 0 if chosen[1].verdict == 'perfect' else 2


def _cmd_selftest(args):
    only = None
    if args.only:
        only = {part.strip() for chunk in args.only
                for part in chunk.split(',') if part.strip()}
    try:
        rows = acceptance.run_all(only=only, mutate=args.mutate)
    except ValueError as exc:
        raise _CliError(str(exc))
    if not rows:
        raise _CliError('no checks selected')
    print(acceptance.format_table(rows))
    return 0 if all(r.passed for r in rows) else 2


# ---------------------------------------------------------------------------
# wiring

def _build_parser():
    top = _ArgParser(
        prog='flatmu',
        description='flat two-way fixpoint logic toolkit')
    shared = _ArgParser(add_help=False)
    shared.add_argument('--seed', default=None, metavar='N',
                        help='reserved; always rejected, runs are '
                             'deterministic')
    sub = top.add_subparsers(dest='subcommand', required=True,
                             parser_class=_ArgParser)

    def add(name, fn, help_text, **kw):
        p = sub.add_parser(name, parents=[shared], help=help_text, **kw)
        p.set_defaults(fn=fn)
        return p

    p = add('parse', _cmd_parse, 'normalize a formula and print it')
    p.add_argument('formula')
    p.add_argument('--defs', metavar='PATH',
                   help='JSON connective table used while parsing')

    p = add('closure', _cmd_closure, 'list the closure of a formula')
    p.add_argument('formula')
    p.add_argument('--defs', metavar='PATH')
    p.add_argument('--json', action='store_true',
                   help='one JSON array instead of one line per member')

    p = add('atoms', _cmd_atoms, 'enumerate the atoms of a closure')
    p.add_argument('formula')
    p.add_argument('--defs', metavar='PATH')
    p.add_argument('--count', action='store_true',
                   help='print only how many atoms there are')

    p = add('check', _cmd_check, 'evaluate a formula at a model state')
    p.add_argument('model', help='model JSON path')
    p.add_argument('state', type=int)
    p.add_argument('formula')
    p.add_argument('--defs', metavar='PATH')

    p = add('sat', _cmd_sat, 'search small models for a witness')
    p.add_argument('formula')
    p.add_argument('--defs', metavar='PATH')
    p.add_argument('--max-states', type=int, default=4, metavar='N')

    p = add('guardify', _cmd_guardify,
            'split a disjunctive connective into a guarded form')
    p.add_argument('defs', help='JSON connective table')
    p.add_argument('name')
    p.add_argument('--json', action='store_true')

    p = add('net', _cmd_net, 'inspect a network JSON file')
    p.add_argument('query', choices=('validate', 'defects', 'timeouts'))
    p.add_argument('network', help='network JSON path')

    p = add('build', _cmd_build,
            'grow a network for an atom containing the formula')
    p.add_argument('formula')
    p.add_argument('--defs', metavar='PATH')
    p.add_argument('--atom', type=int, default=None, metavar='BITS',
                   help='build this atom only instead of scanning')
    p.add_argument('--all', action='store_true',
                   help='build every candidate atom, ordered by value')
    p.add_argument('--max-nodes', type=int, default=200)
    p.add_argument('--max-depth', type=int, default=6)
    p.add_argument('--max-rounds', type=int, default=8)
    p.add_argument('--dot', metavar='PATH',
                   help='also write the final network as Graphviz DOT')

    p = add('selftest', _cmd_selftest, 'run the release checks')
    p.add_argument('--only', nargs='*', metavar='ID',
                   help='run only these check identifiers')
    p.add_argument('--mutate', default=None,
                   choices=sorted(acceptance.MUTATIONS),
                   help='corrupt one input on purpose; the matching row '
                        'must fail')

    return top


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.seed is not None:
        print('flatmu: error: --seed is reserved; every run is '
              'deterministic by construction', file=sys.stderr)
        return 1
    try:
        return args.fn(args)
    except _CliError as exc:
        for line in str(exc).splitlines():
            print('flatmu: error: %s' % line, file=sys.stderr)
        return exc.code
    except Stuck as exc:
        print('flatmu: stuck: %s' % exc, file=sys.stderr)
        return 2
    except RecursionError:
        print('flatmu: error: input is nested too deeply to process',
              file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 1
