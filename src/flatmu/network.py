"""Finite labeled DAGs of atoms: prenetworks, networks, and their algebra.

A prenetwork carries an atom at every node, runs coherently along edges,
and is acyclic. Nodes recorded as forward (backward) saturated must carry
full successor (predecessor) families: one same-labeled witness group of
size max(1, d) per diamond member of the node's label, pairwise disjoint
across diamonds.

Timeouts track how quickly each active deferral resolves; a node/deferral
pair with no finite resolution is a defect, as is any node missing a
saturation flag.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

from .closure import (
    ClosureSet, DeferralTable, coherent, enumerate_atoms, fl_closure, is_atom,
)
from .syntax import (
    DNabla, DX, FileShapeError, Sharp, connectives_from_json, parse,
    subformulas, to_string,
)

INF = math.inf


def orient(u, w, direction):
    """The pair (u, w) read as an edge from u to its neighbour w in
    direction: (u, w) forward, (w, u) backward. Coherence of labels is
    oriented the same way."""
    return (u, w) if direction == 'F' else (w, u)


class NetworkContextError(ValueError):
    """Operation mixed networks over different closures."""


class InvariantError(AssertionError):
    """A postcondition of a network operation failed: a bug, not bad input.

    Raised explicitly, so the check survives `python -O`.
    """


class NetworkContext:
    """Closure, deferral table, and atom list shared by a family of networks."""

    def __init__(self, sigma: ClosureSet):
        self.sigma = sigma
        self.table = DeferralTable(sigma)

    @cached_property
    def atoms(self):
        return tuple(enumerate_atoms(self.sigma))

    def coherent(self, a: int, b: int) -> bool:
        return coherent(a, b, self.sigma)

    def dia_members(self, bits: int, direction: str):
        """(dia index, child index) pairs of the direction's diamonds in bits."""
        return [(i, c) for i, c in self.sigma.dia_pairs[direction]
                if bits >> i & 1]

    def witnesses(self, bits, child_i, direction, among=None):
        """Atoms a direction-neighbour of a node labeled bits may carry to
        witness its diamond over child_i: those of among that hold the
        child and cohere, in order. among defaults to atoms_by_duty."""
        for b in self.atoms_by_duty if among is None else among:
            if b >> child_i & 1 and self.coherent(*orient(bits, b, direction)):
                yield b

    @cached_property
    def _viable(self):
        alive = set(self.atoms)
        while True:
            dropped = {a for a in alive if any(
                a >> dia_i & 1 and
                next(self.witnesses(a, child_i, direction, alive), None) is None
                for direction in ('F', 'B')
                for dia_i, child_i in self.sigma.dia_pairs[direction])}
            if not dropped:
                return frozenset(alive)
            alive -= dropped

    def doomed(self, bits: int) -> bool:
        """True when some diamond of bits can never get a witness: no
        coherent partner contains the child, among atoms passing the same
        test. Doomed atoms label no fresh node; saturating one gets stuck."""
        return bits not in self._viable

    @cached_property
    def atoms_by_duty(self):
        """Atoms worth giving to a fresh node, cheapest first.

        Doomed atoms are out. The rest are ordered by how many diamonds
        they carry, then by value: every diamond is a future witness
        family, so labels that close off come first.
        """
        dias = [i for pairs in self.sigma.dia_pairs.values()
                for i, _ in pairs]

        def duty(a):
            return sum(a >> i & 1 for i in dias)

        return tuple(sorted((a for a in self.atoms if not self.doomed(a)),
                            key=lambda a: (duty(a), a)))


def cones(nodes, edges):
    """Reflexive reachability of a relation, as (down, up) int bitsets.

    Bit i stands for nodes[i]. down[x] holds x and every node reachable
    from x along edges (the upward cone of upgen), up[x] holds x and every
    node that reaches x. Every edge must join two of the nodes. Raises
    ValueError when the relation has a cycle.
    """
    bit = {x: 1 << i for i, x in enumerate(nodes)}
    succ = {x: [] for x in nodes}
    indeg = dict.fromkeys(nodes, 0)
    for a, b in edges:
        succ[a].append(b)
        indeg[b] += 1
    order = [x for x in indeg if not indeg[x]]
    for x in order:
        for y in succ[x]:
            indeg[y] -= 1
            if not indeg[y]:
                order.append(y)
    if len(order) != len(indeg):
        raise ValueError('relation has a cycle')
    down = {}
    for x in reversed(order):
        acc = bit[x]
        for y in succ[x]:
            acc |= down[y]
        down[x] = acc
    up = dict(bit)
    for x in order:
        for y in succ[x]:
            up[y] |= up[x]
    return down, up


def members(bits, nodes):
    """The nodes whose bits are set in bits, in the order of nodes."""
    while bits:
        low = bits & -bits
        yield nodes[low.bit_length() - 1]
        bits ^= low


class GrowingCones:
    """The cones of a separated network as edges go in one at a time.

    Seeded from Network.cones, so bit i stands for n.nodes[i]; every
    fresh node takes the next bit. Separation means no two paths join the
    same pair of nodes (see Network.separated). An edge a->b keeps it
    exactly when no node above a already reaches a node below b, and it
    only grows the down-cones above a and the up-cones below b (a cycle
    is the case where a itself sits below b). Linked edges must be new.
    """

    def __init__(self, n):
        down, up = n.cones
        self.nodes = list(n.nodes)
        self.down = dict(down)
        self.up = dict(up)

    def _add(self, a, b):
        below, above = self.down[b], self.up[a]
        for x in members(above, self.nodes):
            self.down[x] |= below
        for y in members(below, self.nodes):
            self.up[y] |= above

    def link(self, a, b):
        """Add the edge a->b when the graph stays separated; say whether."""
        below = self.down[b]
        if any(self.down[x] & below for x in members(self.up[a], self.nodes)):
            return False
        self._add(a, b)
        return True

    def add_leaf(self, w, a, b):
        """Add the fresh node w with its one edge a->b."""
        self.down[w] = self.up[w] = 1 << len(self.nodes)
        self.nodes.append(w)
        self._add(a, b)

    def hand_to(self, n):
        """Cache these cones on n, the network the edges grew into."""
        if list(n.nodes) == self.nodes:
            n.__dict__.update(cones=(self.down, self.up), separated=True)


@dataclass(eq=False)
class Network:
    ctx: NetworkContext
    nodes: tuple
    edges: frozenset
    label: dict
    sat_f: frozenset
    sat_p: frozenset

    def __post_init__(self):
        self.nodes = tuple(sorted(self.nodes))
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError('duplicate node ids')
        self.edges = frozenset((int(a), int(b)) for a, b in self.edges)
        self.sat_f = frozenset(self.sat_f)
        self.sat_p = frozenset(self.sat_p)
        here = set(self.nodes)
        for a, b in self.edges:
            if a not in here or b not in here:
                raise ValueError('edge (%s, %s) leaves the node set' % (a, b))
        if set(self.label) != here:
            raise ValueError('label must cover exactly the nodes')
        if not self.sat_f <= here or not self.sat_p <= here:
            raise ValueError('saturation flags must name nodes')

    @cached_property
    def succ(self):
        out = {u: [] for u in self.nodes}
        for a, b in sorted(self.edges):
            out[a].append(b)
        return {u: tuple(vs) for u, vs in out.items()}

    @cached_property
    def pred(self):
        out = {u: [] for u in self.nodes}
        for a, b in sorted(self.edges):
            out[b].append(a)
        return {u: tuple(vs) for u, vs in out.items()}

    def neighbors(self, u, direction):
        return self.succ[u] if direction == 'F' else self.pred[u]

    def saturated(self, u, direction):
        return u in (self.sat_f if direction == 'F' else self.sat_p)

    @cached_property
    def cones(self):
        """cones(nodes, edges) of this network; raises on a cycle."""
        return cones(self.nodes, self.edges)

    @cached_property
    def separated(self):
        """Acyclic, with at most one path from any node to any other.

        Then the cones of distinct successors of a node never meet, nor do
        those of distinct predecessors: two paths between one pair part
        at some node and meet at another. This is stronger than
        anticonfluence, and it is what keeps per-neighbour extensions
        amalgamable in both directions.
        """
        try:
            down, _ = self.cones
        except ValueError:
            return False
        for u in self.nodes:
            seen = 0
            for v in self.succ[u]:
                if seen & down[v]:
                    return False
                seen |= down[v]
        return True

    def structure(self):
        return (self.nodes, self.edges,
                tuple(sorted(self.label.items())), self.sat_f, self.sat_p)

    def replace(self, **kw):
        base = dict(ctx=self.ctx, nodes=self.nodes, edges=self.edges,
                    label=dict(self.label), sat_f=self.sat_f, sat_p=self.sat_p)
        base.update(kw)
        return Network(**base)

    def __repr__(self):
        return 'Network(%d nodes, %d edges, satF=%d, satP=%d)' % (
            len(self.nodes), len(self.edges), len(self.sat_f), len(self.sat_p))


def _same_ctx(a: Network, b: Network):
    if a.ctx is b.ctx:
        return
    if a.ctx.sigma.formulas != b.ctx.sigma.formulas:
        raise NetworkContextError('networks built over different closures')


# ---------------------------------------------------------------------------
# validation

def _family_slots(n: Network, u: int, direction: str):
    """Greedy feasibility of the saturation condition at u via matching.

    Neighbour groups (by label) provide floor(size / multiplicity) family
    slots; every diamond member needs a slot whose label contains its
    child. Classic bipartite matching with augmenting paths.
    """
    ctx = n.ctx
    d = ctx.table.multiplicity
    members = ctx.dia_members(n.label[u], direction)
    groups = {}
    for w in n.neighbors(u, direction):
        groups.setdefault(n.label[w], []).append(w)
    slots = []
    for bits in sorted(groups):
        slots.extend(bits for _ in range(len(groups[bits]) // d))
    owner = {}

    def assign(k, seen):
        child = members[k][1]
        for s, bits in enumerate(slots):
            if s in seen or not bits >> child & 1:
                continue
            seen.add(s)
            if s not in owner or assign(owner[s], seen):
                owner[s] = k
                return True
        return False

    for k in range(len(members)):
        if not assign(k, set()):
            return False
    return True


def validate(n: Network):
    """Problems as strings; empty means n is a network."""
    out = []
    sigma = n.ctx.sigma
    for u in n.nodes:
        if n.label[u] >> len(sigma) or not is_atom(n.label[u], sigma):
            out.append('label of %d is not an atom' % u)
    try:
        n.cones
    except ValueError:
        out.append('relation has a cycle')
    else:
        if not is_anticonfluent(n):
            out.append('relation is not anticonfluent')
    for a, b in sorted(n.edges):
        if not n.ctx.coherent(n.label[a], n.label[b]):
            out.append('edge (%d, %d) is not coherent' % (a, b))
    for u in sorted(n.sat_f):
        if not _family_slots(n, u, 'F'):
            out.append('node %d lacks forward families' % u)
    for u in sorted(n.sat_p):
        if not _family_slots(n, u, 'B'):
            out.append('node %d lacks backward families' % u)
    return out


def is_anticonfluent(n: Network) -> bool:
    """No two incomparable nodes share both an ancestor and a descendant.

    Comparable pairs never count, so chains and trees always pass; the
    forbidden shape is a genuine diamond, two paths that part ways and
    meet again.
    """
    down, up = n.cones
    for i, v in enumerate(n.nodes):
        for j, v2 in enumerate(n.nodes[i + 1:], i + 1):
            if down[v] >> j & 1 or down[v2] >> i & 1:
                continue
            if down[v] & down[v2] and up[v] & up[v2]:
                return False
    return True


# ---------------------------------------------------------------------------
# containment and generated subsets

def _is_contained(a: Network, b: Network) -> bool:
    if not set(a.nodes) <= set(b.nodes):
        return False
    if any(a.label[u] != b.label[u] for u in a.nodes):
        return False
    here = set(a.nodes)
    induced = {e for e in b.edges if e[0] in here and e[1] in here}
    if a.edges != induced:
        return False
    return a.sat_f <= b.sat_f and a.sat_p <= b.sat_p


def is_subnetwork(a: Network, b: Network) -> bool:
    """Containment plus frozen frontiers: saturated nodes of a keep their
    complete neighbourhoods inside a."""
    _same_ctx(a, b)
    if not _is_contained(a, b):
        return False
    here = set(a.nodes)
    for u in a.sat_f:
        if any(v not in here for v in b.succ[u]):
            return False
    for u in a.sat_p:
        if any(v not in here for v in b.pred[u]):
            return False
    return True


def union(networks) -> Network:
    networks = list(networks)
    if not networks:
        raise ValueError('union of nothing')
    first = networks[0]
    label = {}
    nodes, edges = set(), set()
    sat_f, sat_p = set(), set()
    for n in networks:
        _same_ctx(first, n)
        for u in n.nodes:
            if u in label and label[u] != n.label[u]:
                raise ValueError('conflicting labels at node %d' % u)
            label[u] = n.label[u]
        nodes |= set(n.nodes)
        edges |= n.edges
        sat_f |= n.sat_f
        sat_p |= n.sat_p
    return Network(first.ctx, tuple(sorted(nodes)), frozenset(edges),
                   label, frozenset(sat_f), frozenset(sat_p))


def restrict(n: Network, xs) -> Network:
    keep = set(xs) & set(n.nodes)
    return Network(
        n.ctx, tuple(sorted(keep)),
        frozenset(e for e in n.edges if e[0] in keep and e[1] in keep),
        {u: n.label[u] for u in keep},
        n.sat_f & keep, n.sat_p & keep)


def _node_set(xs):
    if isinstance(xs, int):
        return {xs}
    return set(xs)


def _gen(n: Network, xs, direction) -> frozenset:
    down, up = n.cones
    cone = down if direction == 'F' else up
    acc = 0
    for u in _node_set(xs):
        acc |= cone[u]
    return frozenset(members(acc, n.nodes))


def upgen(n: Network, xs) -> frozenset:
    """xs and every node reachable from them: their upward cone."""
    return _gen(n, xs, 'F')


def downgen(n: Network, xs) -> frozenset:
    """xs and every node that reaches them: their downward cone."""
    return _gen(n, xs, 'B')


def _eq_outside(a: Network, b: Network, xs, direction) -> bool:
    _same_ctx(a, b)
    ra = restrict(a, set(a.nodes) - _gen(a, xs, direction))
    rb = restrict(b, set(b.nodes) - _gen(b, xs, direction))
    return ra.structure() == rb.structure()


def equp(a: Network, b: Network, xs) -> bool:
    """Equality of the two networks outside the upward cones of xs."""
    return _eq_outside(a, b, xs, 'F')


def eqdown(a: Network, b: Network, xs) -> bool:
    """Equality of the two networks outside the downward cones of xs."""
    return _eq_outside(a, b, xs, 'B')


def _is_cofinal(a: Network, b: Network, direction) -> bool:
    _same_ctx(a, b)
    if not _is_contained(a, b):
        return False
    here = set(a.nodes)
    return all(v in here for u in a.nodes for v in b.neighbors(u, direction))


def is_down_cofinal(a: Network, b: Network) -> bool:
    """Inside b, nothing sits strictly below a outside of a."""
    return _is_cofinal(a, b, 'B')


def is_up_cofinal(a: Network, b: Network) -> bool:
    """Inside b, nothing sits strictly above a outside of a."""
    return _is_cofinal(a, b, 'F')


def extension_fault(base: Network, ext: Network, u, direction):
    """Why ext does not grow base only inside u's cone in direction, or None.

    Forward growth keeps everything outside u's upward cone and adds no
    ancestors to base; backward growth is the mirror image.
    """
    forward = direction == 'F'
    if not is_subnetwork(base, ext):
        return 'base is not a subnetwork of the extension at %s' % u
    if not (equp if forward else eqdown)(base, ext, u):
        return 'extension at %s edits outside its %s cone' % (
            u, 'upward' if forward else 'downward')
    if not (is_down_cofinal if forward else is_up_cofinal)(base, ext):
        return 'extension at %s adds %s the base' % (
            u, 'ancestors below' if forward else 'descendants above')
    return None


def _check_amalgamation(base: Network, pairs, direction):
    grown = []
    for u, ext in pairs:
        if u not in base.nodes:
            return 'node %s missing from the base' % u
        fault = extension_fault(base, ext, u, direction)
        if fault is not None:
            return fault
        grown.append(_gen(ext, u, direction))
    for i in range(len(grown)):
        for j in range(i + 1, len(grown)):
            if grown[i] & grown[j]:
                return 'cones %d and %d overlap' % (i, j)
    return None


def amalgamate(base: Network, pairs) -> Network:
    """Glue pairwise cone-disjoint extensions of base back together.

    pairs is a list of (node, extension). All extensions must grow the
    same way; forward growth is tried first, then backward.
    """
    pairs = list(pairs)
    if not pairs:
        return base
    fwd = _check_amalgamation(base, pairs, 'F')
    if fwd is not None:
        bwd = _check_amalgamation(base, pairs, 'B')
        if bwd is not None:
            raise ValueError('amalgamation preconditions fail: %s / %s'
                             % (fwd, bwd))
    out = union([base] + [ext for _, ext in pairs])
    if not is_subnetwork(base, out):
        raise InvariantError('the base is not a subnetwork of the amalgam')
    for u, ext in pairs:
        if not is_subnetwork(ext, out):
            raise InvariantError('the extension at node %s is not a '
                                 'subnetwork of the amalgam' % u)
    return out


# ---------------------------------------------------------------------------
# timeouts

def _component_value(n, values, w, comp):
    inst, cid = comp
    if not n.label[w] >> inst & 1:
        return INF
    if cid is None:
        return 0
    return values.get((w, cid), INF)


def _clause_value(n: Network, values, u, dfl):
    node = dfl.dnode
    if node is None:
        return INF
    if isinstance(node, DX):
        best = INF
        if n.label[u] >> dfl.bottom & 1:
            best = 0
        return min(best, values.get((u, dfl.body), INF) + 1)
    comps = dfl.children
    if not isinstance(node, DNabla):
        # a disjunction or a guarded conjunct: its best component
        return min(_component_value(n, values, u, c) for c in comps)
    direction = node.direction
    if node.kind == 'box':
        best = INF
        if n.label[u] >> n.ctx.sigma.box_bottom_index[direction] & 1:
            best = 0
        if n.saturated(u, direction):
            nbrs = n.neighbors(u, direction)
            if nbrs:
                best = min(best, max(
                    _component_value(n, values, w, comps[0]) for w in nbrs))
        return best
    if not n.saturated(u, direction):
        return INF
    nbrs = n.neighbors(u, direction)
    if not nbrs:
        return INF
    if node.kind == 'dia':
        return min(_component_value(n, values, w, comps[0]) for w in nbrs)
    rows = [[_component_value(n, values, w, c) for c in comps] for w in nbrs]
    covered = max(min(row) for row in rows)
    used = max(min(rows[i][j] for i in range(len(nbrs)))
               for j in range(len(comps)))
    return max(covered, used)


def compute_timeouts(n: Network):
    """{(node, deferral id): steps to resolution, or None when unresolved}.

    Keys exist exactly for the active pairs: the deferral's instantiation
    is in the node's label. The dict is cached on n; callers only read it.
    """
    cached = getattr(n, '_timeouts', None)
    if cached is not None:
        return cached
    deferrals = n.ctx.table.deferrals
    active = [(u, did) for u in n.nodes for did, dfl in enumerate(deferrals)
              if n.label[u] >> dfl.index & 1]
    values = {pair: INF for pair in active}
    changed = True
    while changed:
        changed = False
        for u, did in active:
            v = _clause_value(n, values, u, deferrals[did])
            if v < values[u, did]:
                values[u, did] = v
                changed = True
    cap = len(n.nodes) * len(deferrals) + 1
    out = {pair: (int(v) if v is not INF and v <= cap else None)
           for pair, v in values.items()}
    n._timeouts = out
    return out


# ---------------------------------------------------------------------------
# defects

_KIND_ORDER = {'diaF': 0, 'diaB': 1, 'mu': 2}


@dataclass(frozen=True)
class Defect:
    kind: str
    node: int
    deferral: int = None

    def describe(self, ctx: NetworkContext) -> str:
        if self.kind == 'mu':
            return 'mu defect at %d (%s)' % (
                self.node, ctx.table.describe(self.deferral))
        side = 'forward' if self.kind == 'diaF' else 'backward'
        return '%s saturation missing at %d' % (side, self.node)


def find_defects(n: Network):
    out = [Defect('diaF', u) for u in n.nodes if u not in n.sat_f]
    out += [Defect('diaB', u) for u in n.nodes if u not in n.sat_p]
    out += [Defect('mu', u, did)
            for (u, did), steps in compute_timeouts(n).items() if steps is None]
    out.sort(key=lambda d: (_KIND_ORDER[d.kind], d.node,
                            -1 if d.deferral is None else d.deferral))
    return out


# ---------------------------------------------------------------------------
# serialization

def network_to_json(n: Network):
    sigma = n.ctx.sigma
    seen = {}
    for f in subformulas(sigma.origin):
        if isinstance(f, Sharp) and f.connective.name not in seen:
            seen[f.connective.name] = f.connective
    return {
        'closure': {
            'formula': to_string(sigma.origin),
            'connectives': [
                {'name': c.name, 'arity': c.arity, 'body': to_string(c.body)}
                for _, c in sorted(seen.items())],
        },
        'nodes': [{'id': u, 'atom': [i for i in range(len(sigma))
                                     if n.label[u] >> i & 1]}
                  for u in n.nodes],
        'edges': sorted([a, b] for a, b in n.edges),
        'satF': sorted(n.sat_f),
        'satP': sorted(n.sat_p),
    }


def _is_id(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _file_problems(obj, need_closure):
    """What keeps obj from describing a network, closure size aside."""
    if not isinstance(obj, dict):
        return ['the file is not a JSON object']
    keys = ['nodes', 'edges', 'satF', 'satP']
    if need_closure:
        keys.insert(0, 'closure')
    out = ['missing key %r' % k for k in keys if k not in obj]
    if need_closure and 'closure' in obj:
        closure = obj['closure']
        if not (isinstance(closure, dict)
                and isinstance(closure.get('formula'), str)
                and isinstance(closure.get('connectives'), list)):
            out.append('closure must hold a formula string and a '
                       'connectives list')
    nodes = obj.get('nodes')
    if 'nodes' in obj and not (isinstance(nodes, list) and nodes):
        out.append('nodes must be a non-empty list')
    ids = set()
    for rec in nodes if isinstance(nodes, list) else ():
        if not isinstance(rec, dict) or 'id' not in rec or 'atom' not in rec:
            out.append('node %s needs an id and an atom' % json.dumps(rec))
            continue
        u = rec['id']
        if not _is_id(u):
            out.append('node id %s is not an integer' % json.dumps(u))
        elif u in ids:
            out.append('node id %d appears twice' % u)
        else:
            ids.add(u)
        atom = rec['atom']
        if not isinstance(atom, list) or not all(map(_is_id, atom)):
            out.append('atom of node %s must list closure indices'
                       % json.dumps(u))
    lists = {}
    for key in ('edges', 'satF', 'satP'):
        lists[key] = obj.get(key, [])
        if not isinstance(lists[key], list):
            out.append('%s must be a list' % key)
            lists[key] = []
    for e in lists['edges']:
        if not isinstance(e, list) or len(e) != 2 or \
                not all(_is_id(u) and u in ids for u in e):
            out.append('edge %s must join two node ids' % json.dumps(e))
    for key in ('satF', 'satP'):
        for u in lists[key]:
            if not (_is_id(u) and u in ids):
                out.append('%s names %s, which is no node id'
                           % (key, json.dumps(u)))
    return out


def network_from_json(obj, ctx: NetworkContext = None) -> Network:
    """The network a JSON object describes. FileShapeError lists every
    shape fault, checked before anything is built."""
    problems = _file_problems(obj, ctx is None)
    if problems:
        raise FileShapeError(problems)
    if ctx is None:
        defs = connectives_from_json(obj['closure']['connectives'])
        sigma = fl_closure(parse(obj['closure']['formula'], defs))
        ctx = NetworkContext(sigma)
    size = len(ctx.sigma)
    label = {}
    for rec in obj['nodes']:
        bits = 0
        for i in rec['atom']:
            if not 0 <= i < size:
                problems.append('atom of node %d has index %d outside '
                                '[0, %d)' % (rec['id'], i, size))
            else:
                bits |= 1 << i
        label[rec['id']] = bits
    if problems:
        raise FileShapeError(problems)
    return Network(ctx, tuple(label), frozenset(map(tuple, obj['edges'])),
                   label, frozenset(obj['satF']), frozenset(obj['satP']))


def to_dot(n: Network):
    """Graphviz lines; saturation shown by style, open deferrals listed."""
    tt = compute_timeouts(n)
    lines = ['digraph network {', '  rankdir=LR;',
             '  node [shape=box, fontname="monospace"];']
    for u in n.nodes:
        marks = []
        if u in n.sat_f:
            marks.append('F')
        if u in n.sat_p:
            marks.append('P')
        text = '%d%s' % (u, (' [%s]' % ''.join(marks)) if marks else '')
        open_ids = [str(did) for (w, did), steps in sorted(tt.items())
                    if w == u and steps is None]
        if open_ids:
            text += '\\nopen: ' + ','.join(open_ids)
        style = 'filled' if u in n.sat_f and u in n.sat_p else 'solid'
        lines.append('  n%d [label="%s", style=%s];' % (u, text, style))
    for a, b in sorted(n.edges):
        lines.append('  n%d -> n%d;' % (a, b))
    lines.append('}')
    return '\n'.join(lines) + '\n'
