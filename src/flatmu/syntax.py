"""Formula AST, concrete syntax, and fixpoint-connective analysis.

The primitive grammar has six constructors: bottom, variables, negation,
disjunction, and the two diamonds (forward and backward).  On top of that
sits the applied fixpoint connective ``#name(...)``.  Everything else the
surface syntax offers (top, conjunction, implication, boxes, nabla) is
desugared by the parser into those primitives, so every algorithm in the
package pattern-matches on exactly seven node shapes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache, reduce


class Formula:
    """Base class for AST nodes. All nodes are frozen and hashable."""

    __slots__ = ()


@dataclass(frozen=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True)
class Var(Formula):
    name: str


@dataclass(frozen=True)
class Neg(Formula):
    child: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Dia(Formula):
    direction: str  # 'F' (forward) or 'B' (backward)
    child: Formula

    def __post_init__(self):
        if self.direction not in ('F', 'B'):
            raise ValueError("diamond direction must be 'F' or 'B'")


@dataclass(frozen=True)
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

@lru_cache(maxsize=None)
def free_vars(f: Formula) -> frozenset:
    if isinstance(f, Bottom):
        return frozenset()
    if isinstance(f, Var):
        return frozenset((f.name,))
    if isinstance(f, Neg):
        return free_vars(f.child)
    if isinstance(f, Or):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, Dia):
        return free_vars(f.child)
    if isinstance(f, Sharp):
        out = frozenset()
        for a in f.args:
            out |= free_vars(a)
        return out
    raise TypeError(f)


def subformulas(f: Formula):
    """Preorder walk over f, yielding every node (connective bodies excluded)."""
    yield f
    if isinstance(f, Neg):
        yield from subformulas(f.child)
    elif isinstance(f, Or):
        yield from subformulas(f.left)
        yield from subformulas(f.right)
    elif isinstance(f, Dia):
        yield from subformulas(f.child)
    elif isinstance(f, Sharp):
        for a in f.args:
            yield from subformulas(a)


def size(f: Formula) -> int:
    return sum(1 for _ in subformulas(f))


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
    if isinstance(f, Or):
        return _polarities(f.left, v) | _polarities(f.right, v)
    if isinstance(f, Dia):
        return _polarities(f.child, v)
    if isinstance(f, Sharp):
        out = set()
        for i, a in enumerate(f.args):
            inner = _polarities(a, v)
            if not inner:
                continue
            outer = _polarities(f.connective.body, 'q%d' % (i + 1))
            for p in outer:
                for c in inner:
                    out.add(p == c)
        return frozenset(out)
    return frozenset()


def is_positive_in(f: Formula, v: str) -> bool:
    """True iff every occurrence of v in f sits under evenly many negations."""
    return False not in _polarities(f, v)


def _has_unguarded(f: Formula, v: str) -> bool:
    if isinstance(f, Var):
        return f.name == v
    if isinstance(f, Neg):
        return _has_unguarded(f.child, v)
    if isinstance(f, Or):
        return _has_unguarded(f.left, v) or _has_unguarded(f.right, v)
    if isinstance(f, Dia):
        return False
    if isinstance(f, Sharp):
        return any(_has_unguarded(a, v) for a in f.args)
    return False


def substitute(f: Formula, mapping: dict) -> Formula:
    """Simultaneous replacement of free variables; mapping is name -> Formula.

    There are no binders inside a Formula (connective bodies are opaque),
    so plain recursion is capture-safe.
    """
    if isinstance(f, Var):
        return mapping.get(f.name, f)
    if isinstance(f, Bottom):
        return f
    if isinstance(f, Neg):
        return Neg(substitute(f.child, mapping))
    if isinstance(f, Or):
        return Or(substitute(f.left, mapping), substitute(f.right, mapping))
    if isinstance(f, Dia):
        return Dia(f.direction, substitute(f.child, mapping))
    if isinstance(f, Sharp):
        return Sharp(f.connective, tuple(substitute(a, mapping) for a in f.args))
    raise TypeError(f)


# ---------------------------------------------------------------------------
# fixpoint connectives

@dataclass(frozen=True)
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
        allowed = {'x'} | {'q%d' % (i + 1) for i in range(self.arity)}
        extra = free_vars(body) - allowed
        if extra:
            raise ValueError(
                'connective %r: stray variables %s in body'
                % (self.name, sorted(extra)))
        if not is_positive_in(body, 'x'):
            raise ValueError(
                'connective %r: body is not positive in x' % self.name)

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

    Accepts a single {"name", "arity", "body"} object or a list of them.
    Bodies are parsed with an empty connective table (bodies are #-free).
    """
    if isinstance(data, dict):
        data = [data]
    table = {}
    for entry in data:
        name = entry['name']
        if name in table:
            raise ValueError('duplicate connective %r' % name)
        body = parse(entry['body'], {})
        table[name] = FixpointConnective(name, int(entry['arity']), body)
    return table


# ---------------------------------------------------------------------------
# parser

class ParseError(ValueError):
    pass


class FileShapeError(ValueError):
    """A model or network file has the wrong shape; problems lists every
    fault."""

    def __init__(self, problems):
        super().__init__('; '.join(problems))
        self.problems = problems


_TOKEN_RE = re.compile(r"""
      (?P<ws>\s+)
    | (?P<bottom>_\|_)
    | (?P<iff><->)
    | (?P<implies>->)
    | (?P<diaf><F>)
    | (?P<diab><B>)
    | (?P<boxf>\[F\])
    | (?P<boxb>\[B\])
    | (?P<nablaf>nablaF)
    | (?P<nablab>nablaB)
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

    def formula(self) -> Formula:
        f = self.implication()
        while self.peek() == 'iff':
            self.next()
            f = iff(f, self.implication())
        return f

    def implication(self) -> Formula:
        f = self.disjunction()
        if self.peek() == 'implies':
            self.next()
            return implies(f, self.implication())
        return f

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek() == '|':
            self.next()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        while self.peek() == '&':
            self.next()
            f = and_(f, self.unary())
        return f

    def unary(self) -> Formula:
        kind = self.peek()
        if kind == '~':
            self.next()
            return Neg(self.unary())
        if kind == 'diaf':
            self.next()
            return Dia('F', self.unary())
        if kind == 'diab':
            self.next()
            return Dia('B', self.unary())
        if kind == 'boxf':
            self.next()
            return box('F', self.unary())
        if kind == 'boxb':
            self.next()
            return box('B', self.unary())
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
        if kind in ('nablaf', 'nablab'):
            direction = 'F' if kind == 'nablaf' else 'B'
            self.expect('{')
            comps = []
            if self.peek() != '}':
                comps.append(self.formula())
                while self.peek() == ',':
                    self.next()
                    comps.append(self.formula())
            self.expect('}')
            return nabla(direction, comps)
        if kind == 'sharp':
            name = value[1:]
            conn = self.connectives.get(name)
            if conn is None:
                raise ParseError('unknown connective %r at position %d'
                                 % (name, pos))
            self.expect('(')
            args = []
            if self.peek() != ')':
                args.append(self.formula())
                while self.peek() == ',':
                    self.next()
                    args.append(self.formula())
            self.expect(')')
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

_LEVEL_OR, _LEVEL_AND, _LEVEL_UNARY, _LEVEL_ATOM = 1, 2, 3, 4


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
# decompose() matches that grammar directly on the primitive AST, keeping
# for every grammar position its source subformula, so downstream code can
# instantiate positions and land inside the closure.

@dataclass(frozen=True)
class DFree:
    src: Formula


@dataclass(frozen=True)
class DX:
    src: Formula


@dataclass(frozen=True)
class DOr:
    left: object
    right: object
    src: Formula


@dataclass(frozen=True)
class DAnd:
    guard: Formula  # x-free left conjunct
    child: object
    src: Formula


@dataclass(frozen=True)
class DNabla:
    direction: str
    kind: str  # 'dia' | 'box' | 'nabla'
    components: tuple
    src: Formula


def _left_spine(f: Formula, split):
    parts = []
    while True:
        p = split(f)
        if p is None:
            parts.append(f)
            parts.reverse()
            return parts
        a, b = p
        parts.append(b)
        f = a


def _split_or(f):
    return (f.left, f.right) if isinstance(f, Or) else None


def _nabla_components(f: Formula, direction: str):
    """Recognize f as the exact expansion of a nonempty nabla, or None."""
    parts = _left_spine(f, as_and)
    if len(parts) < 2:
        return None
    dias, last = parts[:-1], parts[-1]
    if not all(isinstance(p, Dia) and p.direction == direction for p in dias):
        return None
    bx = as_box(last)
    if bx is None or bx[0] != direction:
        return None
    comps = [p.child for p in dias]
    if _left_spine(bx[1], _split_or) != comps:
        return None
    return comps


def decompose(f: Formula, direction: str, var: str = 'x'):
    """Match f against the disjunctive grammar; None when it fails."""
    if var not in free_vars(f):
        return DFree(f)
    if isinstance(f, Var) and f.name == var:
        return DX(f)
    if isinstance(f, Or):
        left = decompose(f.left, direction, var)
        right = decompose(f.right, direction, var)
        if left is None or right is None:
            return None
        return DOr(left, right, f)
    pair = as_and(f)
    if pair is not None:
        comps = _nabla_components(f, direction)
        if comps is not None:
            sub = tuple(decompose(c, direction, var) for c in comps)
            if all(s is not None for s in sub):
                return DNabla(direction, 'nabla', sub, f)
        guard, rest = pair
        if var in free_vars(guard):
            return None
        child = decompose(rest, direction, var)
        if child is None:
            return None
        return DAnd(guard, child, f)
    if isinstance(f, Dia) and f.direction == direction:
        child = decompose(f.child, direction, var)
        if child is None:
            return None
        return DNabla(direction, 'dia', (child,), f)
    bx = as_box(f)
    if bx is not None and bx[0] == direction:
        child = decompose(bx[1], direction, var)
        if child is None:
            return None
        return DNabla(direction, 'box', (child,), f)
    return None


@lru_cache(maxsize=None)
def disjunctive_form(chi: FixpointConnective):
    """(direction, decomposition) for a disjunctive body; None otherwise.

    Bodies matching both grammars report 'F'.
    """
    for d in ('F', 'B'):
        df = decompose(chi.body, d)
        if df is not None:
            return (d, df)
    return None


def classify_disjunctive(chi: FixpointConnective) -> str:
    df = disjunctive_form(chi)
    if df is None:
        return 'none'
    return 'forward' if df[0] == 'F' else 'backward'


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
    if isinstance(node, DX):
        return (top(), Bottom())
    if isinstance(node, DOr):
        c1, g1 = _split(node.left)
        c2, g2 = _split(node.right)
        return (Or(c1, c2), Or(g1, g2))
    if isinstance(node, DAnd):
        c, g = _split(node.child)
        return (and_(node.guard, c), and_(node.guard, g))
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

