"""Formula AST, concrete syntax, and fixpoint-connective analysis.

The primitive grammar has six constructors: bottom, variables, negation,
disjunction, and the two diamonds (forward and backward).  On top of that
sits the applied fixpoint connective ``#name(...)``.  Everything else the
surface syntax offers (top, conjunction, implication, boxes, nabla) is
desugared by the parser into those primitives, so every algorithm in the
package pattern-matches on exactly seven node shapes.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import repeat


def _hash_once(cls):
    """cls as a frozen dataclass whose hash is computed once per node.

    The stored value is the generated dataclass hash, hash of the field
    tuple, so dicts and sets of formulas iterate in the same order as
    without the cache. Equality stays structural. A node stores it when
    built, from its children's, so no hash recurses. String hashes are
    seeded per process, so copies and pickles leave it out and hash anew.
    """
    check = cls.__dict__.get('__post_init__', lambda self: None)

    def __post_init__(self):
        check(self)
        object.__setattr__(self, '_hash', self._field_hash())

    cls.__post_init__ = __post_init__
    cls = dataclass(frozen=True)(cls)
    cls._field_hash = cls.__hash__
    cls.__hash__ = _stored_hash
    cls.__getstate__ = _state_without_hash
    return cls


def _stored_hash(self):
    try:
        return self._hash
    except AttributeError:
        h = self._field_hash()
        object.__setattr__(self, '_hash', h)
        return h


def _state_without_hash(self):
    state = dict(self.__dict__)
    state.pop('_hash', None)
    return state


class Formula:
    """Base class for AST nodes. All nodes are frozen and hashable, and
    each hashes its subtree once."""

    __slots__ = ()


@_hash_once
class Bottom(Formula):
    pass


@_hash_once
class Var(Formula):
    name: str


@_hash_once
class Neg(Formula):
    child: Formula


@_hash_once
class Or(Formula):
    left: Formula
    right: Formula


# the two directions in output order, and each one's converse
DIRECTIONS = {'F': 'forward', 'B': 'backward'}
CONVERSE = {'F': 'B', 'B': 'F'}


@_hash_once
class Dia(Formula):
    direction: str  # a key of DIRECTIONS
    child: Formula

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ValueError("diamond direction must be 'F' or 'B'")


@_hash_once
class Sharp(Formula):
    connective: "FixpointConnective"
    args: tuple

    def __post_init__(self):
        object.__setattr__(self, 'args', tuple(self.args))
        if len(self.args) != self.connective.arity:
            raise ValueError(
                "connective %r takes %d argument(s), got %d"
                % (self.connective.name, self.connective.arity, len(self.args)))


# ---------------------------------------------------------------------------
# derived connectives (constructors and recognizers)

def top() -> Formula:
    return Neg(Bottom())


def and_(a: Formula, b: Formula) -> Formula:
    return Neg(Or(Neg(a), Neg(b)))


def box(direction: str, f: Formula) -> Formula:
    return Neg(Dia(direction, Neg(f)))


def implies(a: Formula, b: Formula) -> Formula:
    return Or(Neg(a), b)


def iff(a: Formula, b: Formula) -> Formula:
    return and_(implies(a, b), implies(b, a))


def nabla(direction: str, components) -> Formula:
    """Expand the cover modality.

    nabla{f1..fn} becomes <d>f1 & ... & <d>fn & [d](f1 | ... | fn) with
    both chains associated to the left; the empty nabla becomes [d]_|_.
    """
    comps = tuple(components)
    if not comps:
        return box(direction, Bottom())
    parts = [Dia(direction, c) for c in comps]
    parts.append(box(direction, reduce(Or, comps)))
    return reduce(and_, parts)


def as_and(f: Formula):
    """Return (a, b) when f is the expansion of a & b, else None."""
    if (isinstance(f, Neg) and isinstance(f.child, Or)
            and isinstance(f.child.left, Neg) and isinstance(f.child.right, Neg)):
        return (f.child.left.child, f.child.right.child)
    return None


def as_box(f: Formula):
    """Return (direction, child) when f is the expansion of [d]child."""
    if (isinstance(f, Neg) and isinstance(f.child, Dia)
            and isinstance(f.child.child, Neg)):
        return (f.child.direction, f.child.child.child)
    return None


# ---------------------------------------------------------------------------
# basic structural analysis

def immediate_subformulas(f: Formula) -> tuple:
    """A Neg's or a Dia's child, an Or's two sides, a Sharp's arguments
    (connective bodies excluded)."""
    if isinstance(f, (Neg, Dia)):
        return (f.child,)
    if isinstance(f, Or):
        return (f.left, f.right)
    if isinstance(f, Sharp):
        return f.args
    return ()


@lru_cache(maxsize=None)
def free_vars(f: Formula) -> frozenset:
    if isinstance(f, Var):
        return frozenset((f.name,))
    return frozenset().union(*map(free_vars, immediate_subformulas(f)))


def subformulas(f: Formula):
    """Preorder walk over f (connective bodies excluded) that yields each
    distinct node once, by identity as size counts them."""
    seen, stack = set(), [f]
    while stack:
        g = stack.pop()
        if id(g) not in seen:
            seen.add(id(g))
            yield g
            stack.extend(reversed(immediate_subformulas(g)))


def size(f: Formula, _memo=None) -> int:
    """Node count of f read as a tree, as printing walks it: a subtree
    with k parents counts k times but is visited once."""
    memo = {} if _memo is None else _memo
    if id(f) not in memo:
        count = 1
        for g in immediate_subformulas(f):
            count += size(g, memo)
        memo[id(f)] = count
    return memo[id(f)]


@lru_cache(maxsize=None)
def _polarities(f: Formula, v: str) -> frozenset:
    """Set of polarities (True = even negation count) at which v occurs in f.

    Occurrences inside a Sharp argument compose the argument-internal
    polarity with the polarity at which that parameter occurs in the
    connective body.
    """
    if isinstance(f, Var):
        return frozenset((True,)) if f.name == v else frozenset()
    if isinstance(f, Neg):
        return frozenset(not b for b in _polarities(f.child, v))
    if isinstance(f, Sharp):
        return frozenset(
            p == c for i, a in enumerate(f.args) for c in _polarities(a, v)
            for p in _polarities(f.connective.body, 'q%d' % (i + 1)))
    return frozenset().union(
        *(_polarities(g, v) for g in immediate_subformulas(f)))


def is_positive_in(f: Formula, v: str) -> bool:
    """True iff every occurrence of v in f sits under evenly many negations."""
    return False not in _polarities(f, v)


def _has_unguarded(f: Formula, v: str) -> bool:
    if isinstance(f, Var):
        return f.name == v
    if isinstance(f, Dia):
        return False
    # map, not a generator, keeps this as deep as free_vars can reach
    return any(map(_has_unguarded, immediate_subformulas(f), repeat(v)))


def substitute(f: Formula, mapping: dict, _memo=None) -> Formula:
    """Simultaneous replacement of free variables; mapping is name -> Formula.

    There are no binders inside a Formula (connective bodies are opaque),
    so plain recursion is capture-safe; it visits a shared subtree once.
    """
    memo = {} if _memo is None else _memo
    if id(f) in memo:
        return memo[id(f)]
    if isinstance(f, Var):
        out = mapping.get(f.name, f)
    elif isinstance(f, Bottom):
        out = f
    elif isinstance(f, Neg):
        out = Neg(substitute(f.child, mapping, memo))
    elif isinstance(f, Or):
        out = Or(substitute(f.left, mapping, memo),
                 substitute(f.right, mapping, memo))
    elif isinstance(f, Dia):
        out = Dia(f.direction, substitute(f.child, mapping, memo))
    elif isinstance(f, Sharp):
        out = Sharp(f.connective,
                    tuple(substitute(a, mapping, memo) for a in f.args))
    else:
        raise TypeError(f)
    memo[id(f)] = out
    return out


# ---------------------------------------------------------------------------
# fixpoint connectives

@_hash_once
class FixpointConnective:
    """A named connective chi(x, q1..qn), interpreted as a least fixpoint.

    The body is a plain formula over the recursion variable x and the
    parameters q1..qn.  It must not mention other connectives and must be
    positive in x.  For arity 1, the parameter may be written q; it is
    renamed to q1 on construction.
    """

    name: str
    arity: int
    body: Formula

    def __post_init__(self):
        if self.arity < 0:
            raise ValueError('arity must be >= 0')
        body = self.body
        if self.arity == 1 and 'q' in free_vars(body):
            body = substitute(body, {'q': Var('q1')})
            object.__setattr__(self, 'body', body)
        if any(isinstance(g, Sharp) for g in subformulas(body)):
            raise ValueError(
                'connective %r: body must not contain # applications' % self.name)
        # q1..q<arity>, read off each name: the arity may be huge
        extra = {v for v in free_vars(body) if v != 'x' and not (
            re.fullmatch('q[1-9][0-9]*', v)
            and len(v) <= len(str(self.arity)) + 1
            and int(v[1:]) <= self.arity)}
        if extra:
            raise ValueError(
                'connective %r: stray variables %s in body'
                % (self.name, sorted(extra)))
        if not is_positive_in(body, 'x'):
            raise ValueError(
                'connective %r: body is not positive in x' % self.name)

    @cached_property
    def plan(self):
        """The body as straight-line code: (its slot, steps). Slot 0 holds
        x, slot i qi and slot arity + 1 _|_; each step (op, a, b) fills the
        next slot from earlier ones, one per further distinct subformula in
        post-order: ('neg', child, 0), ('or', left, right) or ('dia',
        direction, child)."""
        slot = {Var('q%d' % i if i else 'x'): i for i in range(self.arity + 1)}
        slot[Bottom()] = len(slot)
        steps = []

        def visit(f):
            if f not in slot:
                if isinstance(f, Or):
                    steps.append(('or', visit(f.left), visit(f.right)))
                elif isinstance(f, Dia):
                    steps.append(('dia', f.direction, visit(f.child)))
                else:
                    steps.append(('neg', visit(f.child), 0))
                slot[f] = len(slot)
            return slot[f]

        return visit(self.body), tuple(steps)

    def instantiate(self, x_value: Formula, args) -> Formula:
        """body[x := x_value, q_i := args[i]]."""
        args = tuple(args)
        if len(args) != self.arity:
            raise ValueError('arity mismatch instantiating %r' % self.name)
        mapping = {'x': x_value}
        for i, a in enumerate(args):
            mapping['q%d' % (i + 1)] = a
        return substitute(self.body, mapping)


def is_guarded(chi: FixpointConnective) -> bool:
    """True iff every x in the body lies below some diamond."""
    return not _has_unguarded(chi.body, 'x')


def connectives_from_json(data) -> dict:
    """Build a name -> FixpointConnective table from decoded JSON.

    Accepts a single {"name", "arity", "body"} object or a list of them;
    FileShapeError lists every shape fault. Bodies are parsed with an
    empty connective table (bodies are #-free).
    """
    data = [data] if isinstance(data, dict) else data
    if not isinstance(data, list):
        raise FileShapeError(['connectives must be an object or a list'])
    problems = []
    for entry in data:
        if not isinstance(entry, dict) or \
                set(entry) != {'name', 'arity', 'body'}:
            problems.append('connective %s must hold exactly a name, an '
                            'arity and a body' % json.dumps(entry))
            continue
        shown, arity = json.dumps(entry['name']), entry['arity']
        if not isinstance(entry['name'], str):
            problems.append('connective name %s is not a string' % shown)
        if not is_int(arity) or arity < 0:
            problems.append('arity of connective %s must be an integer '
                            '>= 0, not %s' % (shown, json.dumps(arity)))
        if not isinstance(entry['body'], str):
            problems.append('body of connective %s is not a string' % shown)
    if problems:
        raise FileShapeError(problems)
    table = {}
    for entry in data:
        name = entry['name']
        if name in table:
            raise ValueError('duplicate connective %r' % name)
        body = parse(entry['body'], {})
        table[name] = FixpointConnective(name, entry['arity'], body)
    return table


# ---------------------------------------------------------------------------
# parser

class ParseError(ValueError):
    pass


class FileShapeError(ValueError):
    """A model, network or connective file has the wrong shape; problems
    lists every fault."""

    def __init__(self, problems):
        super().__init__('; '.join(problems))
        self.problems = problems


def is_int(x):
    """Whether x decoded from JSON is an integer: an int but not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


_TOKEN_RE = re.compile(r"""
      (?P<ws>\s+)
    | (?P<bottom>_\|_)
    | (?P<iff><->)
    | (?P<implies>->)
    | (?P<dia><[FB]>)
    | (?P<box>\[[FB]\])
    | (?P<nabla>nabla[FB])
    | (?P<sharp>\#[a-z0-9_]+)
    | (?P<ident>[a-z][a-z0-9_]*)
    | (?P<punct>[()|&~,{}])
""", re.VERBOSE)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError('syntax error at position %d: unexpected %r'
                             % (pos, text[pos]))
        kind = m.lastgroup
        if kind != 'ws':
            value = m.group()
            if kind == 'punct':
                kind = value
            tokens.append((kind, value, pos))
        pos = m.end()
    tokens.append(('end', '', len(text)))
    return tokens


# binding power and constructor of each binary connective, loosest first;
# -> nests to the right, the others to the left
_BINARY = {'iff': (0, iff), 'implies': (1, implies), '|': (2, Or), '&': (3, and_)}


class _Parser:
    def __init__(self, tokens, connectives):
        self.tokens = tokens
        self.i = 0
        self.connectives = connectives

    def peek(self):
        return self.tokens[self.i][0]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError('syntax error at position %d: expected %r, got %r'
                             % (tok[2], kind, tok[1] or 'end of input'))
        return tok

    def formula(self, loosest=0) -> Formula:
        """Binary connectives of binding power loosest or tighter."""
        f = self.unary()
        while self.peek() in _BINARY:
            power, make = _BINARY[self.peek()]
            if power < loosest:
                break
            right = power if self.next()[0] == 'implies' else power + 1
            f = make(f, self.formula(right))
        return f

    def formulas(self, close) -> list:
        """Comma-separated formulas up to the close token, consumed."""
        out = []
        if self.peek() != close:
            out.append(self.formula())
            while self.peek() == ',':
                self.next()
                out.append(self.formula())
        self.expect(close)
        return out

    def unary(self) -> Formula:
        kind = self.peek()
        if kind == '~':
            self.next()
            return Neg(self.unary())
        if kind in ('dia', 'box'):
            direction = self.next()[1][1]  # <F>, [B]: the second character
            return (Dia if kind == 'dia' else box)(direction, self.unary())
        return self.atom()

    def atom(self) -> Formula:
        kind, value, pos = self.next()
        if kind == 'bottom':
            return Bottom()
        if kind == 'ident':
            return Var(value)
        if kind == '(':
            f = self.formula()
            self.expect(')')
            return f
        if kind == 'nabla':
            self.expect('{')
            return nabla(value[-1], self.formulas('}'))
        if kind == 'sharp':
            name = value[1:]
            conn = self.connectives.get(name)
            if conn is None:
                raise ParseError('unknown connective %r at position %d'
                                 % (name, pos))
            self.expect('(')
            args = self.formulas(')')
            if len(args) != conn.arity:
                raise ParseError(
                    'connective %r takes %d argument(s), got %d (position %d)'
                    % (name, conn.arity, len(args), pos))
            return Sharp(conn, tuple(args))
        raise ParseError('syntax error at position %d: unexpected %r'
                         % (pos, value or 'end of input'))


def parse(text: str, connectives=None) -> Formula:
    """Parse concrete syntax into a primitive-form Formula."""
    p = _Parser(_tokenize(text), connectives or {})
    f = p.formula()
    p.expect('end')
    return f


# ---------------------------------------------------------------------------
# printer
#
# Only |, &, ~, the diamonds and boxes appear in output; conjunction and
# box are printed whenever the tree matches their expansions, so printed
# text reparses to the identical tree.

_LEVEL_OR, _LEVEL_AND = _BINARY['|'][0], _BINARY['&'][0]
_LEVEL_UNARY = _LEVEL_AND + 1


def to_string(f: Formula) -> str:
    return _pp(f, 0)


def _pp(f: Formula, ctx: int) -> str:
    if isinstance(f, Bottom):
        return '_|_'
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Sharp):
        return '#%s(%s)' % (f.connective.name,
                            ', '.join(_pp(a, 0) for a in f.args))
    if isinstance(f, Or):
        s = '%s | %s' % (_pp(f.left, _LEVEL_OR), _pp(f.right, _LEVEL_AND))
        return '(%s)' % s if ctx > _LEVEL_OR else s
    pair = as_and(f)
    if pair is not None:
        s = '%s & %s' % (_pp(pair[0], _LEVEL_AND), _pp(pair[1], _LEVEL_UNARY))
        return '(%s)' % s if ctx > _LEVEL_AND else s
    bx = as_box(f)
    if bx is not None:
        return '[%s]%s' % (bx[0], _pp(bx[1], _LEVEL_UNARY))
    if isinstance(f, Neg):
        return '~%s' % _pp(f.child, _LEVEL_UNARY)
    if isinstance(f, Dia):
        return '<%s>%s' % (f.direction, _pp(f.child, _LEVEL_UNARY))
    raise TypeError(f)


# ---------------------------------------------------------------------------
# disjunctive decomposition
#
# A connective body is disjunctive in direction d when it is generated by
#
#     psi ::= theta (x-free) | x | psi v psi | theta ^ psi (theta x-free)
#           | nabla_d {psi, ..., psi}
#
# where <d>psi and [d]psi count as the nablas {psi, T} and {} v {psi}.
# decompose() matches that grammar directly on the primitive AST. Each
# grammar position is one Position: its kind ('free' for theta, 'x', 'or',
# 'and', or 'dia', 'box' and 'nabla' for the shapes of nabla_d), its source
# subformula, so downstream code can instantiate it inside the closure, and
# its grammar children left to right. An 'and' position's one child is its
# right conjunct; its guard is the left conjunct of src.

@dataclass(frozen=True)
class Position:
    kind: str
    src: Formula
    children: tuple


def _position(kind, f, children):
    """The position, or None when some child left the grammar."""
    if any(c is None for c in children):
        return None
    return Position(kind, f, tuple(children))


def _nabla_components(f: Formula, direction: str):
    """Recognize f as the exact expansion of a nonempty nabla, or None.

    The diamonds' children on f's conjunct spine are the components when
    rebuilding their nabla gives f back. The rebuilt diamonds share f's
    components, so comparing them short-cuts on identity and the check is
    linear in f.
    """
    parts, rest = [], f
    while (pair := as_and(rest)) is not None:
        rest, last = pair
        parts.append(last)
    comps = [p.child for p in [rest] + parts[::-1] if isinstance(p, Dia)]
    return comps if comps and nabla(direction, comps) == f else None


def decompose(f: Formula, direction: str):
    """Match f against the disjunctive grammar in x; None when it fails."""
    if 'x' not in free_vars(f):
        return Position('free', f, ())
    if isinstance(f, Var) and f.name == 'x':
        return Position('x', f, ())
    if isinstance(f, Or):
        return _position('or', f, (decompose(f.left, direction),
                                   decompose(f.right, direction)))
    pair = as_and(f)
    if pair is not None:
        comps = _nabla_components(f, direction)
        if comps is not None:
            node = _position('nabla', f,
                             [decompose(c, direction) for c in comps])
            if node is not None:
                return node
        guard, rest = pair
        if 'x' in free_vars(guard):
            return None
        return _position('and', f, (decompose(rest, direction),))
    if isinstance(f, Dia) and f.direction == direction:
        return _position('dia', f, (decompose(f.child, direction),))
    bx = as_box(f)
    if bx is not None and bx[0] == direction:
        return _position('box', f, (decompose(bx[1], direction),))
    return None


@lru_cache(maxsize=None)
def disjunctive_form(chi: FixpointConnective):
    """(direction, decomposition) for a disjunctive body; None otherwise.

    Bodies matching both grammars report 'F'.
    """
    for d in DIRECTIONS:
        df = decompose(chi.body, d)
        if df is not None:
            return (d, df)
    return None


def classify_disjunctive(chi: FixpointConnective) -> str:
    df = disjunctive_form(chi)
    if df is None:
        return 'none'
    return DIRECTIONS[df[0]]


# ---------------------------------------------------------------------------
# guardification

@dataclass(frozen=True)
class GuardificationResult:
    gamma1: Formula
    gamma2: FixpointConnective
    equivalence: Formula  # body <-> (x & gamma1) | gamma2-body, all vars free


def _split(node):
    """Split a grammar position into (unguarded part, guarded part).

    A subtree with no unguarded x is taken over unchanged into the guarded
    half; only Or/And spines leading to bare x get rewritten.
    """
    if not _has_unguarded(node.src, 'x'):
        return (Bottom(), node.src)
    if node.kind == 'x':
        return (top(), Bottom())
    if node.kind == 'or':
        (c1, g1), (c2, g2) = map(_split, node.children)
        return (Or(c1, c2), Or(g1, g2))
    if node.kind == 'and':
        guard = as_and(node.src)[0]
        c, g = _split(node.children[0])
        return (and_(guard, c), and_(guard, g))
    raise AssertionError('unreachable: nabla positions contain no unguarded x')


def guardify(chi: FixpointConnective) -> GuardificationResult:
    """Rewrite a disjunctive connective as (x & gamma1) | gamma2 with
    gamma2 guarded; the least fixpoints agree, which the semantic test
    suite checks rather than assumes."""
    df = disjunctive_form(chi)
    if df is None:
        raise ValueError('connective %r is not disjunctive' % chi.name)
    gamma1, gamma2_body = _split(df[1])
    gamma2 = FixpointConnective(chi.name + '_g', chi.arity, gamma2_body)
    equivalence = iff(chi.body, Or(and_(Var('x'), gamma1), gamma2_body))
    return GuardificationResult(gamma1, gamma2, equivalence)

