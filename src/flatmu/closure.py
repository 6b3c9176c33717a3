"""Fischer-Ladner closure, Hintikka atoms, deferrals, and atom coherence.

Atoms are represented as plain int bitmasks over the closure's formula
indices throughout the package; this module owns the conversions.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .syntax import (
    Bottom, Dia, Neg, Or, Sharp, Var, box, disjunctive_form,
    free_vars, immediate_subformulas, subformulas, substitute, to_string,
)


class ClosureSet:
    """Finite formula set closed under subformulas, single negation, and
    fixpoint unfolding, always containing [F]_|_ and [B]_|_."""

    def __init__(self, formulas, origin):
        self.formulas = tuple(formulas)
        self.origin = origin
        self.index = {f: i for i, f in enumerate(self.formulas)}

    def __len__(self):
        return len(self.formulas)

    def index_of(self, f):
        return self.index[f]

    @cached_property
    def dia_pairs(self):
        """direction -> list of (index of <d>rho, index of rho), index order."""
        out = {'F': [], 'B': []}
        for i, f in enumerate(self.formulas):
            if isinstance(f, Dia):
                out[f.direction].append((i, self.index[f.child]))
        return out

    @cached_property
    def sharp_indices(self):
        return tuple(i for i, f in enumerate(self.formulas) if isinstance(f, Sharp))

    @cached_property
    def sharp_unfoldings(self):
        """sharp index -> (index of chi(sharp, args), index of chi(_|_, args))."""
        out = {}
        for i in self.sharp_indices:
            f = self.formulas[i]
            unfold = f.connective.instantiate(f, f.args)
            bottomed = f.connective.instantiate(Bottom(), f.args)
            out[i] = (self.index[unfold], self.index[bottomed])
        return out

    @cached_property
    def shapes(self):
        """(index, node class, child indices) for every formula, each
        after its children.

        The children are syntax.immediate_subformulas. Atom enumeration
        and the Hintikka check read this table instead of looking up
        subformulas.
        """
        table = {}

        def place(i):
            if i not in table:
                f = self.formulas[i]
                kids = tuple(self.index[g] for g in immediate_subformulas(f))
                for k in kids:
                    place(k)
                table[i] = (type(f), kids)

        for i in range(len(self.formulas)):
            place(i)
        return tuple((i, cls, kids) for i, (cls, kids) in table.items())

    @cached_property
    def var_names(self):
        return tuple(sorted({f.name for f in self.formulas if isinstance(f, Var)}))

    @cached_property
    def box_bottom_index(self):
        return {'F': self.index[box('F', Bottom())],
                'B': self.index[box('B', Bottom())]}


def _children(f):
    out = list(immediate_subformulas(f))
    if isinstance(f, Sharp):
        out.append(f.connective.instantiate(f, f.args))
        out.append(f.connective.instantiate(Bottom(), f.args))
    return out


def fl_closure(origin) -> ClosureSet:
    """Smallest closed set containing the origin, [F]_|_ and [B]_|_.

    Worklist breadth-first walk; the unfoldings of a # formula are added
    once (structural dedup), which bounds the closure size.
    """
    seeds = [origin, box('F', Bottom()), box('B', Bottom())]
    seen = {}
    queue = deque()
    for f in seeds:
        if f not in seen:
            seen[f] = len(seen)
            queue.append(f)
    while queue:
        f = queue.popleft()
        todo = _children(f)
        if not isinstance(f, Neg):
            todo.append(Neg(f))
        for g in todo:
            if g not in seen:
                seen[g] = len(seen)
                queue.append(g)
    formulas = sorted(seen, key=seen.get)
    return ClosureSet(formulas, origin)


# ---------------------------------------------------------------------------
# atoms

def atom_formulas(sigma: ClosureSet, bits: int):
    return [f for i, f in enumerate(sigma.formulas) if bits >> i & 1]


def is_atom(bits: int, sigma: ClosureSet) -> bool:
    """Hintikka conditions on a bitset: no bottom, or-coherent,
    negation-complete, and every # formula agrees with its unfolding.

    Every non-Neg formula's negation is in the closure, so an atom is
    exactly a bitset that _settled, on one lane, leaves alone and keeps.
    """
    if bits >> len(sigma) != 0:
        raise ValueError('bitset uses indices outside the closure')
    given = [bits >> i & 1 for i in range(len(sigma))]
    v = list(given)
    return _settled(sigma, v, 1) == 1 and v == given


def _settled(sigma: ClosureSet, v, full) -> int:
    """Set every Neg, Or and _|_ slice of v from its children's, in
    sigma.shapes order, keeping the Var, Dia and # slices. Returns the
    lanes where each # slice equals its unfolding's."""
    for i, cls, kids in sigma.shapes:
        if cls is Neg:
            v[i] = full ^ v[kids[0]]
        elif cls is Or:
            v[i] = v[kids[0]] | v[kids[1]]
        elif cls is Bottom:
            v[i] = 0
    keep = full
    for i, (unfold_i, _) in sigma.sharp_unfoldings.items():
        keep &= ~(v[i] ^ v[unfold_i])
    return keep


LANES = 1 << 16   # candidates evaluated together by enumerate_atoms
MAX_FREE_BITS = 20   # enumerate_atoms walks 2^k candidates for k free bits


def enumerate_atoms(sigma: ClosureSet):
    """All atoms over sigma, ascending as bitset integers.

    Bits for variables, diamonds and # formulas are free choices; boolean
    structure determines the rest. Candidates are bit-sliced, up to LANES
    at a time: each closure index holds an int whose lane m is its value
    in candidate m, the free bits take the lane patterns of m's binary
    digits, and _settled makes every Neg, Or and _|_ one big-int
    operation. Only the lanes it keeps are decoded, ascending. Raises
    ValueError beyond MAX_FREE_BITS free bits.
    """
    base = [i for i, cls, _ in sigma.shapes if cls in (Var, Dia, Sharp)]
    if len(base) > MAX_FREE_BITS:
        raise ValueError('the closure has %d free atom bits (letters, '
                         'diamonds and # formulas); atoms are enumerated '
                         'for at most %d' % (len(base), MAX_FREE_BITS))
    width = min(1 << len(base), LANES)
    full = (1 << width) - 1
    # lane m of pattern[k] is bit k of m, for the digits inside a chunk:
    # 2**k zeros then 2**k ones, repeated across the chunk
    pattern = []
    for k in range(width.bit_length() - 1):
        block = (1 << (1 << k)) - 1 << (1 << k)
        pattern.append(full // ((1 << (2 << k)) - 1) * block)
    digits = '0%db' % width     # lane m is the character at width - 1 - m
    out = []
    for start in range(0, 1 << len(base), width):
        v = [0] * len(sigma)
        for k, i in enumerate(base):
            if k < len(pattern):
                v[i] = pattern[k]
            elif start >> k & 1:
                v[i] = full
        keep = format(_settled(sigma, v, full), digits)
        spots = [m.start() for m in re.finditer('1', keep)]
        if spots:
            # one row of characters per kept lane, spelling its bitset
            pick = itemgetter(*spots)
            rows = zip(*(pick(format(col, digits)) for col in reversed(v)))
            out.extend(int(''.join(row), 2) for row in rows)
    out.sort()
    return out


def coherent(a_bits: int, b_bits: int, sigma: ClosureSet) -> bool:
    """May an edge run from a node labeled A to one labeled B?

    Diamond formulation: rho in B forces <F>rho in A, and rho in A forces
    <B>rho in B. By negation completeness of atoms this is the same as
    propagating box members across the edge.
    """
    for dia_i, child_i in sigma.dia_pairs['F']:
        if b_bits >> child_i & 1 and not a_bits >> dia_i & 1:
            return False
    for dia_i, child_i in sigma.dia_pairs['B']:
        if a_bits >> child_i & 1 and not b_bits >> dia_i & 1:
            return False
    return True


# ---------------------------------------------------------------------------
# deferrals

@dataclass(frozen=True)
class Deferral:
    """One x-containing position of a host's body, resolved in the closure.

    children holds one pair per grammar child of dnode, in the order of
    dnode.children: where the child's instantiation sits in the closure,
    and its own deferral unless the child is x-free. An x position also
    records where chi(_|_, args) sits and the deferral of the whole body
    it unfolds to; other positions hold None there.
    """
    host: object          # the Sharp formula in the closure
    body_part: object     # source subformula of the connective body
    dnode: object         # syntax.Position (None when the body is not disjunctive)
    index: int            # closure index of body_part[x -> host, q -> args]
    direction: object     # direction of the host's disjunctive form, or None
    children: tuple       # (closure index, deferral id or None) per child
    bottom: object        # x only: closure index of chi(_|_, args)
    body: object          # x only: deferral id of the whole body


def _dform_walk(node):
    yield node
    for child in node.children:
        yield from _dform_walk(child)


class DeferralTable:
    """Indexed deferrals of a closure, host-major then body preorder.

    Every grammar position is resolved against the closure once, here, so
    readers of a Deferral deal in closure indices and deferral ids only.

    d counts the deferrals. Saturation always wants at least one witness
    per diamond, so the multiplicity used by network operations is
    max(1, d); keep the two apart.
    """

    def __init__(self, sigma: ClosureSet):
        deferrals = []
        for i in sigma.sharp_indices:
            host = sigma.formulas[i]
            chi = host.connective
            mapping = {'x': host}
            for k, a in enumerate(host.args):
                mapping['q%d' % (k + 1)] = a
            df = disjunctive_form(chi)
            direction = None if df is None else df[0]
            if df is None:
                slots = dict.fromkeys(part for part in subformulas(chi.body)
                                      if 'x' in free_vars(part))
            else:
                slots = {}
                for node in _dform_walk(df[1]):
                    if node.kind != 'free':
                        slots.setdefault(node.src, node)
            ids = {src: len(deferrals) + k for k, src in enumerate(slots)}

            def resolve(child):
                inst = sigma.index_of(substitute(child.src, mapping))
                return inst, None if child.kind == 'free' else ids[child.src]

            bottom = sigma.sharp_unfoldings[i][1]
            for src, node in slots.items():
                kind, parts = (None, ()) if node is None else \
                    (node.kind, node.children)
                at_x = kind == 'x'
                index = sigma.index_of(substitute(src, mapping))
                deferrals.append(Deferral(
                    host, src, node, index, direction,
                    tuple(resolve(c) for c in parts),
                    bottom if at_x else None, ids[chi.body] if at_x else None))
        self.deferrals = tuple(deferrals)
        self.d = len(deferrals)

    @cached_property
    def multiplicity(self) -> int:
        return max(1, self.d)

    @cached_property
    def readers(self):
        """(same, across): per deferral id, the deferrals that read its
        value at their own node, and the (deferral, direction) modal
        clauses that read it at a direction-neighbour."""
        same = [[] for _ in self.deferrals]
        across = [[] for _ in self.deferrals]
        for did, dfl in enumerate(self.deferrals):
            for cid in [dfl.body] + [c for _, c in dfl.children]:
                if cid is None:
                    continue
                if dfl.dnode.kind in ('dia', 'box', 'nabla'):
                    across[cid].append((did, dfl.direction))
                else:
                    same[cid].append(did)
        return same, across

    def describe(self, did: int) -> str:
        dfl = self.deferrals[did]
        return '%d: %s at %s' % (did, to_string(dfl.body_part),
                                 to_string(dfl.host))
