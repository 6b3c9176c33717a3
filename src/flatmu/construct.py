"""Growing defect-free networks from a single atom.

The builder starts from one seed node and runs repair rounds. A round
first saturates every current node, forward then backward, in one
network.Draft that is frozen into a single Network when the phase ends;
then it finishes every active deferral. Each finished deferral is
re-checked against the extension shapes and containment predicates of
the network module and against anticonfluence, and a round that leaves a
defect at one of its input nodes raises InvariantError. A round that gets
stuck or runs out of budget is dropped whole.

Finishing a deferral below a node that already has neighbours follows the
existing structure, trying a disjunct, a neighbour or a component at a
time: a try already done wins, else the first that finishes, and a
stuck try hands its ids back. Below a fresh leaf it searches for a
finite tree of atoms first and grafts the winner. The search is greedy
across witness families (no cross-family backtracking), which can report
stuck on instances a smarter search would solve; it never reports success
wrongly. Every network a draft freezes (saturations and grafts) and every
amalgam hands compute_timeouts its start as the parent of its table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .closure import is_atom
from .network import (
    Draft, InvariantError, Network, amalgamate, compute_timeouts,
    extension_fault, find_defects, is_anticonfluent, network_to_json,
)
from .semantics import KripkeModel
from .syntax import CONVERSE, DIRECTIONS, Var, to_string


class Stuck(Exception):
    """No admissible growth step exists for the requested repair."""


class BudgetExceeded(Exception):
    """The repair would step outside the configured budget."""


@dataclass(frozen=True)
class Budget:
    max_nodes: int = 200
    max_depth: int = 6
    max_rounds: int = 8

    def __post_init__(self):
        if min(self.max_nodes, self.max_depth, self.max_rounds) < 1:
            raise ValueError('budget limits must be positive')


class _Ids:
    """Monotone id source. The sibling extensions of one finishing share
    it, so amalgamate never glues colliding ids; a try that gets stuck
    hands its ids back (_first_finish), so abandoned branches never leak
    ids into results."""

    def __init__(self, start):
        self.next = start

    def take(self):
        v = self.next
        self.next += 1
        return v


# ---------------------------------------------------------------------------
# saturation

def _saturate(draft, u, direction, ids, budget):
    """Complete the witness families of u, which is not yet saturated in
    direction, inside the draft, and flag it.

    Witnesses come from three sources, cheapest first: neighbour groups
    whose label contains the diamond's child are claimed as they stand,
    then other same-labeled nodes present when the call starts are linked
    in, in id order, when the extra edge keeps the graph separated
    (Network.separated) and touches no frozen frontier, and only the
    remainder is created fresh. A draft without cones links nothing: its
    start was unseparated, and stays so whatever edges go in, or it grows
    inside a finishing cone, which must not reach across the network.
    """
    ctx = draft.ctx
    members = ctx.dia_members(draft.label[u], direction)
    if not members and (not budget or len(draft.nodes) <= budget.max_nodes):
        draft.sat[direction].add(u)  # no diamond: nothing to witness
        return
    d = ctx.table.multiplicity
    pool = {}
    for w in draft.nbrs[direction][u]:
        pool.setdefault(draft.label[w], []).append(w)
    last = draft.nodes[-1]  # the nodes present now are the ids up to last
    frozen = draft.sat[CONVERSE[direction]]
    # u's neighbours, the ones it has now and the ones linked below
    taken = set(draft.nbrs[direction][u])
    for _, child_i in members:
        family = None
        have = 0
        for bits in sorted(pool):
            if pool[bits] and bits >> child_i & 1:
                family = bits
                have = min(d, len(pool[bits]))
                pool[bits] = pool[bits][have:]
                break
        if family is None:
            family = next(ctx.witnesses(draft.label[u], child_i, direction),
                          None)
            if family is None:
                raise Stuck('no coherent %s-witness for %s below node %d' % (
                    direction, to_string(ctx.sigma.formulas[child_i]), u))
        if draft.cones is not None and have < d:
            for w in draft.same.get(family, ()):
                if have >= d or w > last:
                    break
                if w == u or w in taken or w in frozen:
                    continue
                if draft.link(u, w, direction):
                    taken.add(w)
                    have += 1
        for _ in range(d - have):
            draft.grow(u, ids.take(), family, direction)
    if budget is not None and len(draft.nodes) > budget.max_nodes:
        raise BudgetExceeded('node budget %d exceeded while saturating %d'
                             % (budget.max_nodes, u))
    draft.sat[direction].add(u)


def saturate(n, u, direction):
    """Complete the witness families of u in direction ('F' or 'B'),
    with no node budget."""
    if u in n.sat[direction]:
        return n
    draft = Draft(n)
    _saturate(draft, u, direction, _Ids(max(n.nodes) + 1), None)
    return draft.freeze()


def _saturate_all(n, budget):
    """Saturate every node of n forward, then backward, in one draft.

    Each node's saturation sees the nodes and flags its predecessors in
    the phase left behind. Returns (network, log); n itself when every
    node was saturated already.
    """
    draft = Draft(n)
    ids = _Ids(max(n.nodes) + 1)
    log = []
    for direction in DIRECTIONS:
        for u in n.nodes:
            if u not in draft.sat[direction]:
                _saturate(draft, u, direction, ids, budget)
                log.append('sat%s %d' % (direction, u))
    return (draft.freeze() if log else n), log


# ---------------------------------------------------------------------------
# finishing deferrals: tree templates for fresh growth
#
# A component is a (closure index, deferral id or None) pair from a
# Deferral's children: it holds at an atom when the index is in it, and
# it is done there at once when it has no deferral of its own.
#
# A tree template is an (atom, subtrees) pair planning a grafted subtree:
# the subtrees are the d copies of each diamond's witness family in turn,
# each rooted at the family's atom; a root with subtrees gets the
# direction's saturation flag. A modal component heads a copy of the
# family over its instance. The other copies are leaves below a diamond,
# and the first finishing component below a box (the cover of its one
# component) or a cover. A template is a function of (atom, deferral,
# depth) alone, so the context keeps every answer for all its builds.

def _leaf(bits):
    return (bits, ())


def _finish_tree(ctx, bits, did, depth):
    """A tree of fresh atoms, at most depth diamonds high, finishing the
    deferral at its root bits, or None when there is none. The answer is
    read from ctx.trees and searched for once."""
    key = (bits, did, depth)
    if key not in ctx.trees:
        ctx.trees[key] = _search_tree(ctx, bits, did, depth, frozenset())
    return ctx.trees[key]


def _component_tree(ctx, bits, comp, depth):
    inst, cid = comp
    if not bits >> inst & 1:
        return None
    if cid is None:
        return _leaf(bits)
    return _finish_tree(ctx, bits, cid, depth)


def _search_component(ctx, bits, comp, depth, seen):
    inst, cid = comp
    if not bits >> inst & 1:
        return None
    if cid is None:
        return _leaf(bits)
    return _search_tree(ctx, bits, cid, depth, seen)


def _row_filler(ctx, cand, comps, depth):
    """A subtree letting one family copy satisfy the cover duty of a box
    or a full expansion: the first component that finishes there, free
    components tried first."""
    for comp in sorted(comps, key=lambda c: c[1] is not None):
        sub = _component_tree(ctx, cand, comp, depth)
        if sub is not None:
            return sub
    return None


def _family_copies(ctx, cand, dfl, dedicated, depth):
    d = ctx.table.multiplicity
    copies = []
    for comp in dedicated:
        sub = _component_tree(ctx, cand, comp, depth)
        if sub is None:
            return None
        copies.append(sub)
    if len(copies) > d:
        return None
    pad = (_leaf(cand) if dfl.dnode.kind == 'dia'
           else _row_filler(ctx, cand, dfl.children, depth))
    if pad is None:
        return None
    copies.extend([pad] * (d - len(copies)))
    return tuple(copies)


def _search_tree(ctx, bits, did, depth, seen):
    # seen holds the deferrals unfolded at this atom since the last diamond:
    # the walk takes the first component whose derivation avoids them. A
    # choice by Kleene stage would take the least-stage component instead,
    # which can differ, so the depth-first walk stays.
    if did in seen:
        return None
    seen = seen | {did}
    dfl = ctx.table.deferrals[did]
    node = dfl.dnode
    if node is None:
        return None
    kind = node.kind
    if kind == 'x':
        if bits >> dfl.bottom & 1:
            return _leaf(bits)
        return _search_tree(ctx, bits, dfl.body, depth, seen)
    if kind in ('or', 'and'):
        # a disjunction or a guarded conjunct: its first finishable component
        for comp in dfl.children:
            tpl = _search_component(ctx, bits, comp, depth, seen)
            if tpl is not None:
                return tpl
        return None
    direction = dfl.direction
    if kind == 'box' and \
            bits >> ctx.sigma.box_bottom_index[direction] & 1:
        return _leaf(bits)
    if depth < 1:
        return None
    members = ctx.dia_members(bits, direction)
    if not members:
        return None
    # each modal component is homed at the diamond over its instance
    dedicated = {}
    for comp in dfl.children:
        if comp[1] is not None:
            dedicated.setdefault(comp[0], []).append(comp)
    subtrees = []
    for _, child_i in members:
        for cand in ctx.witnesses(bits, child_i, direction):
            copies = _family_copies(ctx, cand, dfl,
                                    dedicated.get(child_i, ()), depth - 1)
            if copies is not None:
                break
        else:
            return None
        subtrees.extend(copies)
    return (bits, tuple(subtrees))


def _graft(n, u, tpl, direction, budget, ids):
    """Materialize a tree template below u with fresh node ids."""
    if tpl[0] != n.label[u]:
        raise InvariantError('the tree template does not start at the '
                             'label of node %d' % u)
    draft = Draft(n, link=False)
    # (parent, subtree) pairs still to grow, the next in preorder on top
    stack = [(u, sub) for sub in reversed(tpl[1])]
    while stack:
        parent, (atom, below) = stack.pop()
        if len(draft.nodes) >= budget.max_nodes:  # amalgams may exceed it
            raise BudgetExceeded('node budget %d exceeded while growing '
                                 'below %d' % (budget.max_nodes, u))
        draft.sat[direction].add(parent)
        w = ids.take()
        draft.grow(parent, w, atom, direction)
        stack.extend((w, sub) for sub in reversed(below))
    return draft.freeze()


# ---------------------------------------------------------------------------
# finishing deferrals: recursion over the existing structure

def _finished(n, u, did):
    return compute_timeouts(n).get((u, did)) is not None


def _finish_component(n, w, comp, budget, ids, seen):
    inst, cid = comp
    if not n.label[w] >> inst & 1:
        raise Stuck('%s is absent at node %d'
                    % (to_string(n.ctx.sigma.formulas[inst]), w))
    if cid is None:
        return n
    return _finish(n, w, cid, budget, ids, seen)


def _fold(n, u, exts, direction):
    pairs = [(w, ext) for w, ext in sorted(exts.items()) if ext is not n]
    if not pairs:
        return n
    try:
        return amalgamate(n, pairs, direction)
    except ValueError as e:  # overlapping, as below an unseparated node
        raise Stuck('below node %d: %s' % (u, e)) from None


def _first_finish(tries, budget, ids, seen):
    """Of the (network, node, component) tries whose component is in the
    node's label, the first already done there, else the first that
    finishes there, as (node, network); None when none does. A try that
    gets stuck hands its ids back."""
    tries = [(n, w, comp) for n, w, comp in tries if n.label[w] >> comp[0] & 1]
    for n, w, (_, cid) in tries:
        if cid is None or _finished(n, w, cid):
            return w, n
    for n, w, comp in tries:
        start = ids.next
        try:
            return w, _finish_component(n, w, comp, budget, ids, seen)
        except Stuck:
            ids.next = start
    return None


def _finish(n, u, did, budget, ids, seen):
    """Grow n inside u's cone until the deferral resolves at u."""
    table = n.ctx.table
    if _finished(n, u, did):
        return n
    if (u, did) in seen:
        raise Stuck('self-supporting unfolding of %s at node %d'
                    % (table.describe(did), u))
    seen = seen | {(u, did)}
    dfl = table.deferrals[did]
    node = dfl.dnode
    comps = dfl.children
    if node is None:
        raise Stuck('%s has no disjunctive reading' % table.describe(did))
    kind = node.kind
    if kind == 'x':
        # the 0-step escape was the finished check above
        return _finish(n, u, dfl.body, budget, ids, seen)
    if kind == 'or':
        hit = _first_finish(((n, u, c) for c in comps), budget, ids, seen)
        if hit is None:
            raise Stuck('no disjunct of %s resolves at node %d'
                        % (table.describe(did), u))
        return hit[1]
    if kind == 'and':
        return _finish_component(n, u, comps[0], budget, ids, seen)
    if kind not in ('dia', 'box', 'nabla'):
        raise InvariantError('unexpected grammar position %r' % (node,))
    direction = dfl.direction
    if u not in n.sat[direction]:
        if not n.nbrs[direction][u]:
            tpl = _finish_tree(n.ctx, n.label[u], did, budget.max_depth)
            if tpl is None:
                raise Stuck('no finishing tree for %s below node %d'
                            % (table.describe(did), u))
            return _graft(n, u, tpl, direction, budget, ids)
        draft = Draft(n, link=False)
        _saturate(draft, u, direction, ids, budget)
        n = draft.freeze()
    nbrs = n.nbrs[direction][u]  # ascending
    if not nbrs:
        raise Stuck('node %d is saturated without neighbours but %s needs one'
                    % (u, table.describe(did)))
    if kind == 'box':
        exts = {w: _finish_component(n, w, comps[0], budget, ids, frozenset())
                for w in nbrs}
        return _fold(n, u, exts, direction)
    if kind == 'dia':
        hit = _first_finish(((n, w, comps[0]) for w in nbrs), budget, ids,
                            frozenset())
        if hit is None:
            raise Stuck('no neighbour of %d can finish %s'
                        % (u, table.describe(did)))
        return hit[1]
    # full expansion: every component finished somewhere, every neighbour
    # covering some finished component
    exts = {}
    for comp, part in zip(comps, node.children):
        hit = _first_finish(((exts.get(w, n), w, comp) for w in nbrs), budget,
                            ids, frozenset())
        if hit is None:
            raise Stuck('component %s of %s has no home below node %d'
                        % (to_string(part.src), table.describe(did), u))
        w, ext = hit
        exts[w] = ext
    for w in nbrs:
        hit = _first_finish(((exts.get(w, n), w, c) for c in comps), budget,
                            ids, frozenset())
        if hit is None:
            raise Stuck('neighbour %d of %d covers no finishable component '
                        'of %s' % (w, u, table.describe(did)))
        exts[w] = hit[1]
    return _fold(n, u, exts, direction)


def finish_deferral(n, u, did, budget=None):
    """Extend n below u until the active deferral did is finished there.

    The result contains n, only differs inside u's cone in the deferral's
    direction, and adds no neighbours to nodes of n on the far side. n
    must be anticonfluent; ValueError otherwise.
    """
    if not is_anticonfluent(n):
        raise ValueError('cannot finish a deferral in a network that is not '
                         'anticonfluent')
    budget = budget or Budget()
    tt = compute_timeouts(n)
    if (u, did) not in tt:
        raise ValueError('deferral %d is not active at node %d' % (did, u))
    if tt[u, did] is not None:
        return n
    out = _finish(n, u, did, budget, _Ids(max(n.nodes) + 1), frozenset())
    fault = extension_fault(n, out, u, n.ctx.table.deferrals[did].direction)
    if fault is not None:
        raise InvariantError('finishing deferral %d at node %d broke the '
                             'extension shape: %s' % (did, u, fault))
    if not _finished(out, u, did):
        raise InvariantError('deferral %d at node %d is still open after '
                             'finishing' % (did, u))
    if not is_anticonfluent(out):
        raise InvariantError('finishing deferral %d at node %d lost '
                             'anticonfluence' % (did, u))
    return out


# ---------------------------------------------------------------------------
# the round loop

def repair_all(n, budget=None):
    """One pass over the current nodes: saturate both ways, then finish
    every active deferral. Returns (network, log of repairs)."""
    budget = budget or Budget()
    todo = n.label.keys()
    n, log = _saturate_all(n, budget)
    tt = compute_timeouts(n)
    # the pairs open at the input nodes, in order; a finished pair stays so
    for u, did in sorted(pair for pair, steps in tt.items()
                         if steps is None and pair[0] in todo):
        if tt[u, did] is None:
            n = finish_deferral(n, u, did, budget)
            tt = compute_timeouts(n)
            log.append('mu %d/%d' % (u, did))
    if todo - (n.sat['F'] & n.sat['B']) or None in tt.values() and todo & {
            u for (u, _), steps in tt.items() if steps is None}:
        raise InvariantError('repairs left defects at the input nodes: %r'
                             % [e for e in find_defects(n) if e.node in todo])
    return n, log


@dataclass
class ConstructionReport:
    verdict: str          # 'perfect' | 'radius' | 'stuck'
    network: Network
    radius: int = None    # clean ball around the seed; None when perfect
    rounds: list = field(default_factory=list)
    detail: str = ''

    def to_json(self):
        return {
            'verdict': self.verdict,
            'radius': self.radius,
            'detail': self.detail,
            'rounds': self.rounds,
            'network': network_to_json(self.network),
        }


def _radius(n):
    """Largest k with no defect within k undirected steps of the seed."""
    defective = n.label.keys() - (n.sat['F'] & n.sat['B']) | {
        u for (u, _), steps in compute_timeouts(n).items() if steps is None}
    if not defective:
        return None
    dist, order = {n.nodes[0]: 0}, [n.nodes[0]]
    for u in order:  # breadth first: a list walked while it grows
        for v in sorted(n.nbrs['F'][u] + n.nbrs['B'][u]):
            if v not in dist:
                dist[v] = dist[u] + 1
                order.append(v)
    return min(dist.get(u, len(n.nodes)) for u in defective) - 1


def build(ctx, seed, budget=None) -> ConstructionReport:
    """Grow a network for one atom until defect-free or out of budget."""
    budget = budget or Budget()
    if not is_atom(seed, ctx.sigma):
        raise ValueError('seed is not an atom of the closure')
    n = Network(ctx, frozenset(), {0: seed},
                {'F': frozenset(), 'B': frozenset()})
    rounds = []
    while None in compute_timeouts(n).values() or \
            len(n.sat['F']) + len(n.sat['B']) < 2 * len(n.label):
        if len(rounds) == budget.max_rounds:
            return ConstructionReport('radius', n, _radius(n), rounds,
                                      'round budget exhausted')
        try:
            n, log = repair_all(n, budget)
        except Stuck as e:
            return ConstructionReport('stuck', n, _radius(n), rounds, str(e))
        except BudgetExceeded as e:
            return ConstructionReport('radius', n, _radius(n), rounds, str(e))
        rounds.append(log)
    return ConstructionReport('perfect', n, None, rounds)


def extract_model(n) -> KripkeModel:
    """Read the network as a model: nodes become states in id order and
    each variable holds where its bit is set."""
    order = {u: i for i, u in enumerate(n.nodes)}
    sigma = n.ctx.sigma
    valuation = {}
    for name in sigma.var_names:
        i = sigma.index_of(Var(name))
        valuation[name] = [order[u] for u in n.nodes if n.label[u] >> i & 1]
    return KripkeModel(len(n.nodes),
                       [(order[a], order[b]) for a, b in n.edges],
                       valuation)
