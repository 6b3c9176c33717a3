"""Finite labeled DAGs of atoms: prenetworks, networks, and their algebra.

A prenetwork carries an atom at every node, runs coherently along edges,
and is acyclic. Nodes recorded as forward (backward) saturated must carry
full successor (predecessor) families: one same-labeled witness group of
size max(1, d) per diamond member of the node's label, pairwise disjoint
across diamonds.

Timeouts track how quickly each active deferral resolves; a node/deferral
pair with no finite resolution is a defect, as is any node missing a
saturation flag. A worklist settles each table from the table of the
sub-network it grew from, re-reading only the clauses whose inputs changed.

A Draft grows a network in place (a one-node cone is read and grown with
no walk) and freezes into one Network, handing it the caches it kept;
only this module fills a Network's caches, and no code edits a Network.
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
    CONVERSE, DIRECTIONS, FileShapeError, Sharp,
    connectives_from_json, is_int, parse, subformulas, to_string,
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
    """Closure, deferral table, and atom list shared by a family of networks,
    and the answers that depend on atoms alone: dia_members by (atom,
    direction), an unflagged node's settled timeouts by atom (leaves), and
    construct's finishing trees by (atom, deferral, depth) (trees).

    Atom elimination runs on lane masks: lane k stands for the k-th atom
    in duty order (see atoms_by_duty), doomed atoms included, and
    having[i] holds the lanes of the atoms that contain closure index i.
    """

    def __init__(self, sigma: ClosureSet):
        self.sigma = sigma
        self.table = DeferralTable(sigma)
        self.trees, self.leaves, self._members = {}, {}, {}

    @cached_property
    def atoms(self):
        return tuple(enumerate_atoms(self.sigma))

    def dia_members(self, bits: int, direction: str):
        """(dia index, child index) pairs of the direction's diamonds in bits."""
        if (bits, direction) not in self._members:
            self._members[bits, direction] = tuple(
                (i, c) for i, c in self.sigma.dia_pairs[direction]
                if bits >> i & 1)
        return self._members[bits, direction]

    @cached_property
    def reads(self):
        """Modal deferral id -> the direction of the neighbours it reads."""
        return {r: d for rs in self.table.readers[1] for r, d in rs}

    @cached_property
    def _lanes(self):
        """(every atom in duty order, having)."""
        dias = sum(1 << i for pairs in self.sigma.dia_pairs.values()
                   for i, _ in pairs)
        order = sorted(self.atoms, key=lambda a: ((a & dias).bit_count(), a))
        # column i of the atoms' digits, read from the last atom, is having[i]
        rows = (format(a, '0%db' % len(self.sigma)) for a in reversed(order))
        return order, [int(''.join(col), 2) for col in zip(*rows)][::-1]

    def _partners(self, bits, direction):
        """Lanes of the atoms that may label a direction-neighbour of a node
        labeled bits: they hold no child of a diamond that bits lacks, and
        the diamond back to each child that bits holds."""
        order, having = self._lanes
        lanes = (1 << len(order)) - 1
        for dia_i, child_i in self.sigma.dia_pairs[direction]:
            if not bits >> dia_i & 1:
                lanes &= ~having[child_i]
        for dia_i, child_i in self.sigma.dia_pairs[CONVERSE[direction]]:
            if bits >> child_i & 1:
                lanes &= having[dia_i]
        return lanes

    def witnesses(self, bits, child_i, direction):
        """Atoms a direction-neighbour of a node labeled bits may carry to
        witness its diamond over child_i: those of atoms_by_duty that hold
        the child and cohere, in order."""
        order, having = self._lanes
        lanes = self._partners(bits, direction) & having[child_i]
        return members(lanes & self._viable, order)

    @cached_property
    def _viable(self):
        """Lanes of the greatest atom set in which every diamond of every
        member has a coherent partner in the set holding its child. Atoms
        alike in the bits _partners reads share one call per direction."""
        order, having = self._lanes
        alive, needs, before = (1 << len(order)) - 1, [], 0
        for direction in DIRECTIONS:
            pairs = self.sigma.dia_pairs[direction]
            read = sum(1 << i for i, _ in pairs) | sum(
                1 << c for _, c in self.sigma.dia_pairs[CONVERSE[direction]])
            for group in {a & read for a in order}:
                partners, atoms = self._partners(group, direction), alive
                for i in members(read, range(len(self.sigma))):
                    atoms &= having[i] if group >> i & 1 else ~having[i]
                wants = [partners & having[child_i]
                         for dia_i, child_i in pairs if group >> dia_i & 1]
                if all(alive & lanes for lanes in wants):
                    needs.append((atoms, wants))
                else:   # doomed at once: no needs kept
                    alive &= ~atoms
        while alive != before:
            before = alive
            for atoms, wants in needs:
                if not all(alive & lanes for lanes in wants):
                    alive &= ~atoms
        return alive

    @cached_property
    def atoms_by_duty(self):
        """Atoms worth giving to a fresh node, cheapest first.

        Doomed atoms are out. The rest are ordered by how many diamonds
        they carry, then by value: every diamond is a future witness
        family, so labels that close off come first.
        """
        return tuple(members(self._viable, self._lanes[0]))


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


@dataclass(eq=False)
class Network:
    ctx: NetworkContext
    edges: frozenset
    label: dict     # node -> its atom; the nodes are its keys
    sat: dict       # direction -> frozenset of the nodes saturated that way

    def __post_init__(self):
        here, size = self.label.keys(), len(self.ctx.sigma)
        for a, b in self.edges:
            if a not in here or b not in here:
                raise ValueError('edge (%s, %s) leaves the node set' % (a, b))
        if not self.sat['F'] | self.sat['B'] <= here:
            raise ValueError('saturation flags must name nodes')
        if any(bits >> size for bits in self.label.values()):
            raise ValueError('a label uses an index outside the closure')

    @cached_property
    def nodes(self):
        """The node ids, ascending."""
        return tuple(sorted(self.label))

    @cached_property
    def nbrs(self):
        """direction -> node -> its direction-neighbours, ascending."""
        out = {d: {u: [] for u in self.nodes} for d in DIRECTIONS}
        for a, b in sorted(self.edges):
            out['F'][a].append(b)
            out['B'][b].append(a)
        return {d: {u: tuple(vs) for u, vs in nbrs.items()}
                for d, nbrs in out.items()}

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
        for succ in self.nbrs['F'].values():
            seen = 0
            for v in succ:
                if seen & down[v]:
                    return False
                seen |= down[v]
        return True

    def structure(self):
        return (self.edges, tuple(sorted(self.label.items())),
                self.sat['F'], self.sat['B'])

    def __repr__(self):
        return 'Network(%d nodes, %d edges, satF=%d, satP=%d)' % (
            len(self.nodes), len(self.edges), len(self.sat['F']),
            len(self.sat['B']))


class Draft:
    """A network under growth, frozen into one Network when done.

    It holds the nodes in ascending id order, the labels, both saturation
    flag sets and, per direction, each node's neighbours as an ascending
    tuple: what Network.nbrs would compute, and all it keeps of the edges.
    With link set and a separated start it keeps the start's cones too,
    each fresh node taking the next bit, so witnesses may be linked across
    the network; otherwise cones is None. up[a] holds a and down[b] holds
    b, so a cone of one bit is that node, read and grown with no walk. A
    draft that raises is dropped, and its start is left as it was.
    """

    def __init__(self, n, link=True):
        self.start = n
        self.ctx = n.ctx
        self.nodes = list(n.nodes)
        self.label = dict(n.label)
        self.sat = {'F': set(n.sat['F']), 'B': set(n.sat['B'])}
        self.nbrs = {'F': dict(n.nbrs['F']), 'B': dict(n.nbrs['B'])}
        self.cones = tuple(map(dict, n.cones)) if link and n.separated \
            else None
        self.same = {}  # label -> its nodes ascending, kept with the cones
        for u in self.nodes if self.cones is not None else ():
            self.same.setdefault(self.label[u], []).append(u)

    def _attach(self, a, b):
        """Add the new edge a->b, growing the cones above a and below b."""
        for nbrs, x, y in ((self.nbrs['F'], a, b), (self.nbrs['B'], b, a)):
            vs = nbrs[x] + (y,)  # a fresh y tops the tuple: no sort
            nbrs[x] = vs if len(vs) < 2 or vs[-2] < y else tuple(sorted(vs))
        if self.cones is not None:
            down, up = self.cones
            below, above = down[b], up[a]
            if above & above - 1:
                for x in members(above, self.nodes):
                    down[x] |= below
            else:  # up[a] is a alone
                down[a] |= below
            if below & below - 1:
                for y in members(below, self.nodes):
                    up[y] |= above
            else:  # down[b] is b alone
                up[b] |= above

    def link(self, u, w, direction):
        """Make w a new direction-neighbour of u when no node above the
        edge's tail already reaches a node below its head, which keeps the
        graph separated (see Network.separated); say whether. Needs cones."""
        a, b = orient(u, w, direction)
        down, up = self.cones
        below, above = down[b], up[a]  # a alone in above: one AND
        if any(down[x] & below for x in members(above, self.nodes)) \
                if above & above - 1 else down[a] & below:
            return False
        self._attach(a, b)
        return True

    def grow(self, u, w, bits, direction):
        """Add the fresh node w, labeled bits, as a direction-neighbour of
        u. Fresh ids exceed every id in the draft."""
        if self.cones is not None:
            for cone in self.cones:
                cone[w] = 1 << len(self.nodes)
            self.same.setdefault(bits, []).append(w)
        self.nodes.append(w)
        self.label[w] = bits
        self.nbrs['F'][w] = self.nbrs['B'][w] = ()
        self._attach(*orient(u, w, direction))

    def freeze(self):
        """The grown Network, handed the draft's nodes, neighbour tuples,
        cones and start (the parent of its timeouts). The draft is spent."""
        edges = frozenset((a, b) for a, bs in self.nbrs['F'].items()
                          for b in bs)
        out = Network(self.ctx, edges, self.label,
                      {d: frozenset(flags) for d, flags in self.sat.items()})
        out.__dict__.update(nodes=tuple(self.nodes), nbrs=self.nbrs,
                            _parent=self.start)
        if self.cones is not None:
            out.__dict__.update(cones=self.cones, separated=True)
        return out


def _same_ctx(a: Network, b: Network):
    if a.ctx is not b.ctx and a.ctx.sigma.formulas != b.ctx.sigma.formulas:
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
    for w in n.nbrs[direction][u]:
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
    sigma = n.ctx.sigma
    out = ['label of %d is not an atom' % u for u in n.nodes
           if not is_atom(n.label[u], sigma)]
    try:
        n.cones
    except ValueError:
        out.append('relation has a cycle')
    else:
        if not is_anticonfluent(n):
            out.append('relation is not anticonfluent')
    for a, b in sorted(n.edges):
        if not coherent(n.label[a], n.label[b], sigma):
            out.append('edge (%d, %d) is not coherent' % (a, b))
    for d, side in DIRECTIONS.items():
        out += ['node %d lacks %s families' % (u, side)
                for u in sorted(n.sat[d]) if not _family_slots(n, u, d)]
    return out


def is_anticonfluent(n: Network) -> bool:
    """No two incomparable nodes share both an ancestor and a descendant.

    Comparable pairs never count, so chains and trees always pass; the
    forbidden shape is a genuine diamond, two paths that part ways and
    meet again.

    One pass each way: below[v] holds the nodes that share a descendant
    with v, above[v] those that share an ancestor. The verdict is kept on
    n, as its timeouts are.
    """
    if '_anticonfluent' in n.__dict__:
        return n._anticonfluent
    down, up = n.cones
    order = sorted(n.nodes, key=lambda v: up[v].bit_count())
    above, below = {}, {}
    succ, pred = n.nbrs['F'], n.nbrs['B']
    for v in order:
        above[v] = down[v]
        for p in pred[v]:
            above[v] |= above[p]
    for v in reversed(order):
        below[v] = up[v]
        for s in succ[v]:
            below[v] |= below[s]
    n._anticonfluent = not any(above[v] & below[v] & ~(down[v] | up[v])
                               for v in order)
    return n._anticonfluent


# ---------------------------------------------------------------------------
# containment and generated subsets

def _is_contained(a: Network, b: Network) -> bool:
    """a is b restricted to a's nodes, flags only added: a's edges are
    b's edges between a's nodes (every edge of a joins two of them)."""
    here = a.label.keys()
    return a.label.items() <= b.label.items() and a.edges <= b.edges \
        and not any(x in here and y in here for x, y in b.edges - a.edges) \
        and a.sat['F'] <= b.sat['F'] and a.sat['B'] <= b.sat['B']


def is_subnetwork(a: Network, b: Network) -> bool:
    """Containment plus frozen frontiers: saturated nodes of a keep their
    complete neighbourhoods inside a, which for a contained a is the same
    neighbour tuple in both."""
    _same_ctx(a, b)
    return _is_contained(a, b) and all(
        a.nbrs[d][u] == b.nbrs[d][u] for d, flags in a.sat.items()
        for u in flags)


def union(networks) -> Network:
    networks = list(networks)
    if not networks:
        raise ValueError('union of nothing')
    first = networks[0]
    label = {}
    for n in networks:
        _same_ctx(first, n)
        for u in n.nodes:
            if label.setdefault(u, n.label[u]) != n.label[u]:
                raise ValueError('conflicting labels at node %d' % u)
    return Network(first.ctx,
                   frozenset().union(*(n.edges for n in networks)), label,
                   {d: frozenset().union(*(n.sat[d] for n in networks))
                    for d in DIRECTIONS})


def restrict(n: Network, xs) -> Network:
    keep = n.label.keys() & set(xs)
    return Network(
        n.ctx, frozenset(e for e in n.edges if e[0] in keep and e[1] in keep),
        {u: n.label[u] for u in keep},
        {d: flags & keep for d, flags in n.sat.items()})


def _gen(n: Network, xs, direction) -> frozenset:
    down, up = n.cones
    cone = down if direction == 'F' else up
    acc = 0
    for u in [xs] if isinstance(xs, int) else xs:
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
    keep = a.label.keys() - _gen(a, xs, direction)
    # labels, flags and induced edges of the kept nodes, in keep's order
    outside = lambda n: [(n.label[u], u in n.sat['F'], u in n.sat['B'],
                          [w for w in n.nbrs['F'][u] if w in keep])
                         for u in keep]
    return keep == b.label.keys() - _gen(b, xs, direction) \
        and outside(a) == outside(b)


def equp(a: Network, b: Network, xs) -> bool:
    """Equality of the two networks outside the upward cones of xs."""
    return _eq_outside(a, b, xs, 'F')


def eqdown(a: Network, b: Network, xs) -> bool:
    """Equality of the two networks outside the downward cones of xs."""
    return _eq_outside(a, b, xs, 'B')


def _is_cofinal(a: Network, b: Network, direction) -> bool:
    _same_ctx(a, b)
    return _is_contained(a, b) and all(
        v in a.label for u in a.label for v in b.nbrs[direction][u])


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
        if u not in base.label:
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


def amalgamate(base: Network, pairs, direction) -> Network:
    """Glue pairwise cone-disjoint extensions of base back together.

    pairs is a list of (node, extension); every extension grows base
    inside its node's cone in direction ('F' or 'B').
    """
    pairs = list(pairs)
    if not pairs:
        return base
    fault = _check_amalgamation(base, pairs, direction)
    if fault is not None:
        raise ValueError('amalgamation preconditions fail: %s' % fault)
    out = union([base] + [ext for _, ext in pairs])
    out._parent = base
    if not is_subnetwork(base, out):
        raise InvariantError('the base is not a subnetwork of the amalgam')
    for u, ext in pairs:
        if not is_subnetwork(ext, out):
            raise InvariantError('the extension at node %s is not a '
                                 'subnetwork of the amalgam' % u)
    return out


# ---------------------------------------------------------------------------
# timeouts

def _steps(out, pair):
    """pair's entry in a timeout table, INF when it is None or absent."""
    steps = out.get(pair)
    return INF if steps is None else steps


def _component_value(n, values, w, comp):
    inst, cid = comp
    if not n.label[w] >> inst & 1:
        return INF
    if cid is None:
        return 0
    return _steps(values, (w, cid))


def _clause_value(n: Network, values, u, dfl):
    node = dfl.dnode
    if node is None:
        return INF
    kind = node.kind
    if kind == 'x':
        if n.label[u] >> dfl.bottom & 1:
            return 0
        return _steps(values, (u, dfl.body)) + 1
    comps = dfl.children
    if kind in ('or', 'and'):
        # a disjunction or a guarded conjunct: its best component
        return min(_component_value(n, values, u, c) for c in comps)
    direction = dfl.direction
    if kind == 'box' and \
            n.label[u] >> n.ctx.sigma.box_bottom_index[direction] & 1:
        return 0
    nbrs = n.nbrs[direction][u] if u in n.sat[direction] else ()
    if not nbrs:
        return INF
    if kind == 'box':
        return max(_component_value(n, values, w, comps[0]) for w in nbrs)
    if kind == 'dia':
        return min(_component_value(n, values, w, comps[0]) for w in nbrs)
    rows = [[_component_value(n, values, w, c) for c in comps] for w in nbrs]
    covered = max(min(row) for row in rows)
    used = max(min(rows[i][j] for i in range(len(nbrs)))
               for j in range(len(comps)))
    return max(covered, used)


def _touched(n: Network, parent: Network):
    """The nodes of n that are new or gained a flag; no clause reads the
    neighbours of an unsaturated direction. InvariantError unless parent is
    a sub-network n grew from: nodes and labels kept, flags only added,
    saturated nodes keeping their neighbours."""
    touched = n.label.keys() - parent.label.keys()
    for u, bits in parent.label.items():
        if n.label.get(u) != bits:
            raise InvariantError('node %d of the parent network is missing '
                                 'or relabeled' % u)
    for d, flags in n.sat.items():
        had, nbrs, was = parent.sat[d], n.nbrs[d], parent.nbrs[d]
        touched |= flags - had
        for u in had:
            if u not in flags or nbrs[u] != was[u]:
                raise InvariantError('node %d lost its %s saturation or '
                                     'its neighbours there' % (u, d))
    return touched


def compute_timeouts(n: Network):
    """{(node, deferral id): steps to resolution, or None when unresolved}.

    Keys exist exactly for the active pairs: the deferral's instantiation
    is in the node's label. The dict is cached on n; callers only read it.
    A FIFO worklist settles the greatest fixpoint of _clause_value from
    the table of n's parent, when one was handed over with its table built
    (timeouts never grow under extension), queuing each pair at a fresh
    node and, at a _touched one, the modal pairs toward its new flags;
    otherwise from INF, every node fresh. A fresh node without flags reads
    no neighbour: its values come from ctx.leaves, by atom.
    """
    if getattr(n, '_timeouts', None) is not None:
        return n._timeouts
    parent = n.__dict__.pop('_parent', None)
    if getattr(parent, '_timeouts', None) is None:
        parent, touched, out = None, n.nodes, {}
    else:
        touched = sorted(_touched(n, parent))
        out = dict(parent._timeouts)
    deferrals, reads, leaves = n.ctx.table.deferrals, n.ctx.reads, n.ctx.leaves
    queue, unseen = [], {}  # unseen: atom -> the fresh leaf that settles it
    for u in touched:
        bits = n.label[u]
        fresh = parent is None or u not in parent.label
        new = [d for d, flags in n.sat.items()
               if u in flags and (fresh or u not in parent.sat[d])]
        if fresh and not new:  # a leaf: its values follow from its atom
            if bits in leaves:
                out.update(((u, did), v) for did, v in leaves[bits])
                continue
            unseen.setdefault(bits, u)
        for did, dfl in enumerate(deferrals):
            if bits >> dfl.index & 1 and (fresh or reads.get(did) in new):
                pair = u, did
                if out.setdefault(pair, None) != 0:  # a pair at 0 stays there
                    queue.append(pair)
    queued = set(queue)
    same, across = n.ctx.table.readers
    # a d-clause reads w at the d-saturated neighbours of w the other way
    back = {d: (n.nbrs[CONVERSE[d]], flags) for d, flags in n.sat.items()}
    for pair in queue:  # a list walked while it grows: first in, first out
        queued.discard(pair)
        u, did = pair
        v = _clause_value(n, out, u, deferrals[did])
        if v >= _steps(out, pair):
            continue
        out[pair] = v  # finite: it is below the entry
        readers = [(u, r) for r in same[did]]
        for r, d in across[did]:
            nbrs, sat = back[d]
            readers += [(x, r) for x in nbrs[u] if x in sat]
        for q in readers:
            if q in out and out[q] != 0 and q not in queued:
                queued.add(q)
                queue.append(q)
    for bits, u in unseen.items():
        leaves[bits] = [(did, v) for (w, did), v in out.items() if w == u]
    n._timeouts = out
    return out


# ---------------------------------------------------------------------------
# defects

@dataclass(frozen=True)
class Defect:
    kind: str
    node: int
    deferral: int = None

    def describe(self, ctx: NetworkContext) -> str:
        if self.kind == 'mu':
            return 'mu defect at %d (%s)' % (
                self.node, ctx.table.describe(self.deferral))
        return '%s saturation missing at %d' % (DIRECTIONS[self.kind[-1]],
                                                self.node)


def find_defects(n: Network):
    """n's defects as a fresh list: each missing flag, then each unresolved
    pair of its timeout table. construct reads those two itself."""
    unresolved = sorted(pair for pair, steps in compute_timeouts(n).items()
                        if steps is None)
    return [Defect('dia' + d, u) for d in DIRECTIONS for u in n.nodes
            if u not in n.sat[d]] + [Defect('mu', *p) for p in unresolved]


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
        'satF': sorted(n.sat['F']),
        'satP': sorted(n.sat['B']),
    }


def _file_problems(obj):
    """What keeps obj from describing a network, closure size aside."""
    if not isinstance(obj, dict):
        return ['the file is not a JSON object']
    keys = ['closure', 'nodes', 'edges', 'satF', 'satP']
    out = ['missing key %r' % k for k in keys if k not in obj]
    if 'closure' in obj:
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
        if not is_int(u):
            out.append('node id %s is not an integer' % json.dumps(u))
        elif u in ids:
            out.append('node id %d appears twice' % u)
        else:
            ids.add(u)
        atom = rec['atom']
        if not isinstance(atom, list) or not all(map(is_int, atom)):
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
                not all(is_int(u) and u in ids for u in e):
            out.append('edge %s must join two node ids' % json.dumps(e))
    for key in ('satF', 'satP'):
        for u in lists[key]:
            if not (is_int(u) and u in ids):
                out.append('%s names %s, which is no node id'
                           % (key, json.dumps(u)))
    return out


def network_from_json(obj) -> Network:
    """The network a JSON object describes, over the closure it names.
    FileShapeError lists every shape fault, checked before anything is
    built."""
    problems = _file_problems(obj)
    if problems:
        raise FileShapeError(problems)
    defs = connectives_from_json(obj['closure']['connectives'])
    ctx = NetworkContext(fl_closure(parse(obj['closure']['formula'], defs)))
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
    return Network(ctx, frozenset(map(tuple, obj['edges'])), label,
                   {'F': frozenset(obj['satF']), 'B': frozenset(obj['satP'])})


def to_dot(n: Network):
    """Graphviz lines; saturation shown by style, open deferrals listed."""
    tt = compute_timeouts(n)
    lines = ['digraph network {', '  rankdir=LR;',
             '  node [shape=box, fontname="monospace"];']
    for u in n.nodes:
        marks = ''.join(m for d, m in zip(DIRECTIONS, 'FP') if u in n.sat[d])
        text = '%d%s' % (u, (' [%s]' % marks) if marks else '')
        open_ids = [str(did) for (w, did), steps in sorted(tt.items())
                    if w == u and steps is None]
        if open_ids:
            text += '\\nopen: ' + ','.join(open_ids)
        style = 'filled' if len(marks) == 2 else 'solid'
        lines.append('  n%d [label="%s", style=%s];' % (u, text, style))
    for a, b in sorted(n.edges):
        lines.append('  n%d -> n%d;' % (a, b))
    lines.append('}')
    return '\n'.join(lines) + '\n'
