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

import math
from dataclasses import dataclass
from functools import cached_property

from .closure import (
    ClosureSet, coherent, deferral_table, enumerate_atoms, fl_closure, is_atom,
)
from .syntax import (
    DAnd, DFree, DNabla, DOr, DX, Sharp, connectives_from_json, parse,
    subformulas, to_string,
)

INF = math.inf


class NetworkContextError(ValueError):
    """Operation mixed networks over different closures."""


class NetworkContext:
    """Closure, deferral table, and atom list shared by a family of networks."""

    def __init__(self, sigma: ClosureSet):
        self.sigma = sigma
        self.table = deferral_table(sigma)

    @cached_property
    def atoms(self):
        return tuple(enumerate_atoms(self.sigma))

    def coherent(self, a: int, b: int) -> bool:
        return coherent(a, b, self.sigma)

    def dia_members(self, bits: int, direction: str):
        """(dia index, child index) pairs of the direction's diamonds in bits."""
        return [(i, c) for i, c in self.sigma.dia_pairs[direction]
                if bits >> i & 1]

    @cached_property
    def _viable(self):
        alive = set(self.atoms)
        while True:
            dropped = set()
            for a in alive:
                for direction in ('F', 'B'):
                    for dia_i, child_i in self.sigma.dia_pairs[direction]:
                        if not a >> dia_i & 1:
                            continue
                        if direction == 'F':
                            found = any(b >> child_i & 1 and self.coherent(a, b)
                                        for b in alive)
                        else:
                            found = any(b >> child_i & 1 and self.coherent(b, a)
                                        for b in alive)
                        if not found:
                            dropped.add(a)
                            break
                    if a in dropped:
                        break
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
    """Reflexive reachability of a relation, as (down, up).

    down[x] holds x and every node reachable from x along edges (the
    upward cone of upgen), up[x] holds x and every node that reaches x.
    Every edge must join two of the nodes. Raises ValueError when the
    relation has a cycle.
    """
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
        acc = {x}
        for y in succ[x]:
            acc |= down[y]
        down[x] = frozenset(acc)
    up = {x: {x} for x in order}
    for x in order:
        for y in succ[x]:
            up[y] |= up[x]
    return down, {x: frozenset(acc) for x, acc in up.items()}


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
        for v2 in n.nodes[i + 1:]:
            if v2 in down[v] or v in down[v2]:
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
    out = set()
    for u in _node_set(xs):
        out |= cone[u]
    return frozenset(out)


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
    assert is_subnetwork(base, out)
    for _, ext in pairs:
        assert is_subnetwork(ext, out)
    return out


# ---------------------------------------------------------------------------
# timeouts

class TimeoutTable:
    """(node, deferral) -> steps to resolution, None when unresolved.

    Keys exist exactly for the active pairs: the deferral's instantiation
    is in the node's label.
    """

    def __init__(self, entries):
        self.entries = dict(entries)

    def value(self, u, did):
        return self.entries[(u, did)]

    def finished(self, u, did) -> bool:
        return self.entries.get((u, did), None) is not None

    def is_active(self, u, did) -> bool:
        return (u, did) in self.entries

    def unfinished_pairs(self):
        return sorted(k for k, v in self.entries.items() if v is None)

    def __eq__(self, other):
        return isinstance(other, TimeoutTable) and self.entries == other.entries

    def __repr__(self):
        done = sum(1 for v in self.entries.values() if v is not None)
        return 'TimeoutTable(%d active, %d finished)' % (len(self.entries), done)


def _component_value(n, values, host, w, comp):
    table = n.ctx.table
    inst = table.pos_inst[(host, comp.src)]
    if not n.label[w] >> inst & 1:
        return INF
    if isinstance(comp, DFree):
        return 0
    return values.get((w, table.index_of(host, comp.src)), INF)


def _clause_value(n: Network, values, u, did):
    table = n.ctx.table
    dfl = table.deferrals[did]
    if dfl.dnode is None:
        return INF
    host = dfl.host
    node = dfl.dnode
    if isinstance(node, DX):
        best = INF
        if n.label[u] >> table.bottom_inst[host] & 1:
            best = 0
        root = values.get((u, table.index_of(host, host.connective.body)), INF)
        return min(best, root + 1)
    if isinstance(node, DOr):
        best = INF
        for branch in (node.left, node.right):
            best = min(best, _component_value(n, values, host, u, branch))
        return best
    if isinstance(node, DAnd):
        return _component_value(n, values, host, u, node.child)
    assert isinstance(node, DNabla)
    direction = node.direction
    if node.kind == 'box':
        best = INF
        if n.label[u] >> n.ctx.sigma.box_bottom_index[direction] & 1:
            best = 0
        if n.saturated(u, direction):
            nbrs = n.neighbors(u, direction)
            if nbrs:
                best = min(best, max(
                    _component_value(n, values, host, w, node.components[0])
                    for w in nbrs))
        return best
    if not n.saturated(u, direction):
        return INF
    nbrs = n.neighbors(u, direction)
    if not nbrs:
        return INF
    if node.kind == 'dia':
        return min(_component_value(n, values, host, w, node.components[0])
                   for w in nbrs)
    rows = [[_component_value(n, values, host, w, c) for c in node.components]
            for w in nbrs]
    covered = max(min(row) for row in rows)
    used = max(min(rows[i][j] for i in range(len(nbrs)))
               for j in range(len(node.components)))
    return max(covered, used)


def compute_timeouts(n: Network) -> TimeoutTable:
    cached = getattr(n, '_timeouts', None)
    if cached is not None:
        return cached
    table = n.ctx.table
    active = [(u, did) for u in n.nodes for did in range(len(table))
              if n.label[u] >> table.inst_index(did) & 1]
    values = {pair: INF for pair in active}
    changed = True
    while changed:
        changed = False
        for pair in active:
            v = _clause_value(n, values, pair[0], pair[1])
            if v < values[pair]:
                values[pair] = v
                changed = True
    cap = len(n.nodes) * table.d + 1
    out = TimeoutTable({
        pair: (int(v) if v is not INF and v <= cap else None)
        for pair, v in values.items()})
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
    tt = compute_timeouts(n)
    out += [Defect('mu', u, did) for (u, did) in tt.unfinished_pairs()]
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


def network_from_json(obj, ctx: NetworkContext = None) -> Network:
    if ctx is None:
        defs = connectives_from_json(obj['closure']['connectives'])
        sigma = fl_closure(parse(obj['closure']['formula'], defs))
        ctx = NetworkContext(sigma)
    label = {}
    for rec in obj['nodes']:
        bits = 0
        for i in rec['atom']:
            bits |= 1 << i
        label[rec['id']] = bits
    return Network(ctx, tuple(label), frozenset(map(tuple, obj['edges'])),
                   label, frozenset(obj['satF']), frozenset(obj['satP']))


def to_dot(n: Network, annotate: bool = True):
    """Graphviz lines; saturation shown by style, open deferrals listed."""
    tt = compute_timeouts(n) if annotate else None
    lines = ['digraph network {', '  rankdir=LR;',
             '  node [shape=box, fontname="monospace"];']
    for u in n.nodes:
        marks = []
        if u in n.sat_f:
            marks.append('F')
        if u in n.sat_p:
            marks.append('P')
        text = '%d%s' % (u, (' [%s]' % ''.join(marks)) if marks else '')
        if annotate:
            open_ids = [str(did) for (w, did) in tt.unfinished_pairs()
                        if w == u]
            if open_ids:
                text += '\\nopen: ' + ','.join(open_ids)
        style = 'filled' if u in n.sat_f and u in n.sat_p else 'solid'
        lines.append('  n%d [label="%s", style=%s];' % (u, text, style))
    for a, b in sorted(n.edges):
        lines.append('  n%d -> n%d;' % (a, b))
    lines.append('}')
    return '\n'.join(lines) + '\n'
