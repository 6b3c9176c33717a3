"""Growing defect-free networks from a single atom.

The builder starts from one seed node and runs repair rounds: saturate
every current node in both directions, then finish every active deferral.
All growth happens through the sanctioned extension shapes, so each step
is re-checked against the containment predicates of the network module.

Finishing a deferral below a node that already has neighbours follows the
existing structure; below a fresh leaf it searches for a finite tree of
atoms first and grafts the winner. The search is greedy across witness
families (no cross-family backtracking), which can report stuck on
instances a smarter search would solve; it never reports success wrongly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .closure import is_atom
from .network import (
    Network, amalgamate, compute_timeouts, cones, extension_fault,
    find_defects, is_anticonfluent, network_to_json,
)
from .semantics import KripkeModel
from .syntax import DAnd, DFree, DNabla, DOr, DX, Var, to_string


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
    """Monotone id source. Attempts that may fail run on a clone and are
    adopted on success, so abandoned branches never leak ids into results."""

    def __init__(self, start):
        self.next = start

    def take(self):
        v = self.next
        self.next += 1
        return v

    def clone(self):
        return _Ids(self.next)

    def adopt(self, other):
        self.next = other.next


# ---------------------------------------------------------------------------
# saturation

def _least_family_atom(ctx, bits, child_i, direction):
    for cand in ctx.atoms_by_duty:
        if not cand >> child_i & 1:
            continue
        ok = ctx.coherent(bits, cand) if direction == 'F' \
            else ctx.coherent(cand, bits)
        if ok:
            return cand
    return None


def _keeps_separation(nodes, edges):
    """Cones of distinct neighbours of any node must not meet.

    Stronger than anticonfluence: it is what keeps per-neighbour
    extensions amalgamable, in both directions. A cycle fails too.
    """
    try:
        down, up = cones(nodes, edges)
    except ValueError:
        return False
    for cone, side in ((down, 0), (up, 1)):
        nbrs = {}
        for e in edges:
            nbrs.setdefault(e[side], []).append(e[1 - side])
        for ws in nbrs.values():
            for i, v in enumerate(ws):
                for v2 in ws[i + 1:]:
                    if cone[v] & cone[v2]:
                        return False
    return True


def _saturate(n, u, direction, ids, budget=None, fresh_only=False):
    """Complete the witness families of u.

    Witnesses come from three sources, cheapest first: neighbour groups
    whose label contains the diamond's child are claimed as they stand,
    then other same-labeled nodes are linked in when the extra edge keeps
    the graph acyclic and anticonfluent and touches no frozen frontier,
    and only the remainder is created fresh. fresh_only disables linking;
    growth inside a finishing cone must not reach across the network.
    """
    if n.saturated(u, direction):
        return n
    ctx = n.ctx
    d = ctx.table.multiplicity
    pool = {}
    for w in n.neighbors(u, direction):
        pool.setdefault(n.label[w], []).append(w)
    label = dict(n.label)
    edges = set(n.edges)
    nodes = list(n.nodes)
    frozen = n.sat_p if direction == 'F' else n.sat_f
    linked = set()
    for _, child_i in ctx.dia_members(n.label[u], direction):
        family = None
        have = 0
        for bits in sorted(pool):
            if pool[bits] and bits >> child_i & 1:
                family = bits
                have = min(d, len(pool[bits]))
                pool[bits] = pool[bits][have:]
                break
        if family is None:
            family = _least_family_atom(ctx, n.label[u], child_i, direction)
            if family is None:
                raise Stuck('no coherent %s-witness for %s below node %d' % (
                    direction, to_string(ctx.sigma.formulas[child_i]), u))
        if not fresh_only and have < d:
            taken = {b for a, b in edges if a == u} if direction == 'F' \
                else {a for a, b in edges if b == u}
            for w in n.nodes:
                if have >= d:
                    break
                if w == u or w in taken or w in linked or w in frozen:
                    continue
                if n.label[w] != family:
                    continue
                e = (u, w) if direction == 'F' else (w, u)
                if not _keeps_separation(nodes, edges | {e}):
                    continue
                edges.add(e)
                linked.add(w)
                have += 1
        for _ in range(d - have):
            w = ids.take()
            nodes.append(w)
            label[w] = family
            edges.add((u, w) if direction == 'F' else (w, u))
    if budget is not None and len(nodes) > budget.max_nodes:
        raise BudgetExceeded('node budget %d exceeded while saturating %d'
                             % (budget.max_nodes, u))
    sat_f = n.sat_f | {u} if direction == 'F' else n.sat_f
    sat_p = n.sat_p | {u} if direction == 'B' else n.sat_p
    return Network(ctx, tuple(nodes), frozenset(edges), label, sat_f, sat_p)


def saturate(n, u, direction, budget=None):
    """Complete the witness families of u in direction ('F' or 'B')."""
    return _saturate(n, u, direction, _Ids(max(n.nodes) + 1), budget)


# ---------------------------------------------------------------------------
# finishing deferrals: tree templates for fresh growth

@dataclass(frozen=True)
class _Tree:
    """Plan for a grafted subtree: an atom, whether the root gets the
    direction's saturation flag, and one witness family per diamond."""
    atom: int
    sat: bool
    families: tuple  # (child index, family atom, d copies) per member


def _leaf(bits):
    return _Tree(bits, False, ())


def _tree_size(tpl):
    return sum(1 + _tree_size(sub)
               for _, _, copies in tpl.families for sub in copies)


def _finish_tree(ctx, bits, did, direction, depth, memo):
    """Search for a tree of fresh atoms finishing the deferral at its root.

    Successes are cached unconditionally; failures remember the depth they
    were given so only a deeper retry recomputes.
    """
    key = (bits, did)
    hit = memo.get(key)
    if hit is not None:
        tpl, failed_at = hit
        if tpl is not None:
            return tpl
        if depth <= failed_at:
            return None
    tpl = _search_tree(ctx, bits, did, direction, depth, memo, frozenset())
    old = memo.get(key)
    if tpl is not None:
        memo[key] = (tpl, None)
    else:
        worst = depth if old is None else max(depth, old[1])
        memo[key] = (None, worst)
    return tpl


def _component_tree(ctx, bits, comp, host, direction, depth, memo):
    table = ctx.table
    if not bits >> table.pos_inst[(host, comp.src)] & 1:
        return None
    if isinstance(comp, DFree):
        return _leaf(bits)
    return _finish_tree(ctx, bits, table.index_of(host, comp.src),
                        direction, depth, memo)


def _search_component(ctx, bits, comp, host, direction, depth, memo, seen):
    table = ctx.table
    if not bits >> table.pos_inst[(host, comp.src)] & 1:
        return None
    if isinstance(comp, DFree):
        return _leaf(bits)
    return _search_tree(ctx, bits, table.index_of(host, comp.src),
                        direction, depth, memo, seen)


def _row_filler(ctx, cand, node, host, direction, depth, memo):
    """A subtree letting one family copy satisfy the cover duty of a full
    expansion: a free component already in the atom, else the first
    component whose own finish works out."""
    table = ctx.table
    for comp in node.components:
        if isinstance(comp, DFree) and \
                cand >> table.pos_inst[(host, comp.src)] & 1:
            return _leaf(cand)
    for comp in node.components:
        if isinstance(comp, DFree):
            continue
        sub = _component_tree(ctx, cand, comp, host, direction, depth, memo)
        if sub is not None:
            return sub
    return None


def _family_copies(ctx, cand, node, dedicated, host, direction, depth, memo):
    d = ctx.table.multiplicity
    if node.kind == 'box':
        sub = _component_tree(ctx, cand, node.components[0], host,
                              direction, depth, memo)
        return None if sub is None else (sub,) * d
    copies = []
    for comp in dedicated:
        sub = _component_tree(ctx, cand, comp, host, direction, depth, memo)
        if sub is None:
            return None
        copies.append(sub)
    if len(copies) > d:
        return None
    if node.kind == 'nabla':
        filler = _row_filler(ctx, cand, node, host, direction, depth, memo)
        if filler is None:
            return None
        pad = filler
    else:
        pad = _leaf(cand)
    copies.extend([pad] * (d - len(copies)))
    return tuple(copies)


def _search_tree(ctx, bits, did, direction, depth, memo, seen):
    table = ctx.table
    if did in seen:
        return None
    seen = seen | {did}
    dfl = table.deferrals[did]
    node = dfl.dnode
    host = dfl.host
    if node is None:
        return None
    if isinstance(node, DX):
        if bits >> table.bottom_inst[host] & 1:
            return _leaf(bits)
        root_did = table.index_of(host, host.connective.body)
        return _search_tree(ctx, bits, root_did, direction, depth, memo, seen)
    if isinstance(node, DOr):
        for branch in (node.left, node.right):
            tpl = _search_component(ctx, bits, branch, host, direction,
                                    depth, memo, seen)
            if tpl is not None:
                return tpl
        return None
    if isinstance(node, DAnd):
        return _search_component(ctx, bits, node.child, host, direction,
                                 depth, memo, seen)
    assert isinstance(node, DNabla)
    if node.kind == 'box' and \
            bits >> ctx.sigma.box_bottom_index[direction] & 1:
        return _leaf(bits)
    if depth < 1:
        return None
    members = ctx.dia_members(bits, direction)
    if not members:
        return None
    # each modal component is homed at the diamond over its instance
    dedicated = {}
    if node.kind != 'box':
        for comp in node.components:
            if not isinstance(comp, DFree):
                inst = table.pos_inst[(host, comp.src)]
                dedicated.setdefault(inst, []).append(comp)
    families = []
    for dia_i, child_i in members:
        picked = None
        for cand in ctx.atoms_by_duty:
            if not cand >> child_i & 1:
                continue
            ok = ctx.coherent(bits, cand) if direction == 'F' \
                else ctx.coherent(cand, bits)
            if not ok:
                continue
            copies = _family_copies(ctx, cand, node,
                                    dedicated.get(child_i, ()), host,
                                    direction, depth - 1, memo)
            if copies is not None:
                picked = (child_i, cand, copies)
                break
        if picked is None:
            return None
        families.append(picked)
    return _Tree(bits, True, tuple(families))


def _graft(n, u, tpl, direction, budget, ids):
    """Materialize a tree template below u with fresh node ids."""
    assert tpl.atom == n.label[u]
    if budget is not None and \
            len(n.nodes) + _tree_size(tpl) > budget.max_nodes:
        raise BudgetExceeded('node budget %d exceeded while growing below %d'
                             % (budget.max_nodes, u))
    label = dict(n.label)
    edges = set(n.edges)
    nodes = list(n.nodes)
    flagged = set()

    def place(parent, tree):
        if tree.sat:
            flagged.add(parent)
        for _, atom, copies in tree.families:
            for sub in copies:
                w = ids.take()
                nodes.append(w)
                label[w] = atom
                edges.add((parent, w) if direction == 'F' else (w, parent))
                place(w, sub)

    place(u, tpl)
    sat_f = n.sat_f | flagged if direction == 'F' else n.sat_f
    sat_p = n.sat_p | flagged if direction == 'B' else n.sat_p
    return Network(n.ctx, tuple(nodes), frozenset(edges), label, sat_f, sat_p)


# ---------------------------------------------------------------------------
# finishing deferrals: recursion over the existing structure

def _component_done(n, w, host, comp):
    table = n.ctx.table
    if not n.label[w] >> table.pos_inst[(host, comp.src)] & 1:
        return False
    if isinstance(comp, DFree):
        return True
    return compute_timeouts(n).finished(w, table.index_of(host, comp.src))


def _finish_component(n, w, comp, host, direction, budget, ids, memo):
    table = n.ctx.table
    if not n.label[w] >> table.pos_inst[(host, comp.src)] & 1:
        raise Stuck('%s is absent at node %d'
                    % (to_string(table.sigma.formulas[
                        table.pos_inst[(host, comp.src)]]), w))
    if isinstance(comp, DFree):
        return n
    return _finish(n, w, table.index_of(host, comp.src), direction,
                   budget, ids, memo, frozenset())


def _fold(n, exts, direction):
    pairs = [(w, ext) for w, ext in sorted(exts.items()) if ext is not n]
    if not pairs:
        return n
    return amalgamate(n, pairs)


def _finish(n, u, did, direction, budget, ids, memo, seen):
    """Grow n inside u's cone until the deferral resolves at u."""
    table = n.ctx.table
    if compute_timeouts(n).finished(u, did):
        return n
    if (u, did) in seen:
        raise Stuck('self-supporting unfolding of %s at node %d'
                    % (table.describe(did), u))
    seen = seen | {(u, did)}
    dfl = table.deferrals[did]
    node = dfl.dnode
    host = dfl.host
    if node is None:
        raise Stuck('%s has no disjunctive reading' % table.describe(did))
    if isinstance(node, DX):
        # the 0-step escape was the finished() check above
        root_did = table.index_of(host, host.connective.body)
        return _finish(n, u, root_did, direction, budget, ids, memo, seen)
    if isinstance(node, DOr):
        for branch in (node.left, node.right):
            trial = ids.clone()
            try:
                out = _finish_component(n, u, branch, host, direction,
                                        budget, trial, memo)
            except Stuck:
                continue
            ids.adopt(trial)
            return out
        raise Stuck('no disjunct of %s resolves at node %d'
                    % (table.describe(did), u))
    if isinstance(node, DAnd):
        return _finish_component(n, u, node.child, host, direction,
                                 budget, ids, memo)
    assert isinstance(node, DNabla)
    if not n.saturated(u, direction):
        if not n.neighbors(u, direction):
            tpl = _finish_tree(n.ctx, n.label[u], did, direction,
                               budget.max_depth, memo)
            if tpl is None:
                raise Stuck('no finishing tree for %s below node %d'
                            % (table.describe(did), u))
            return _graft(n, u, tpl, direction, budget, ids)
        n = _saturate(n, u, direction, ids, budget, fresh_only=True)
    nbrs = n.neighbors(u, direction)
    if not nbrs:
        raise Stuck('node %d is saturated without neighbours but %s needs one'
                    % (u, table.describe(did)))
    if node.kind == 'box':
        exts = {}
        for w in sorted(nbrs):
            if _component_done(n, w, host, node.components[0]):
                continue
            exts[w] = _finish_component(n, w, node.components[0], host,
                                        direction, budget, ids, memo)
        return _fold(n, exts, direction)
    if node.kind == 'dia':
        comp = node.components[0]
        inst = table.pos_inst[(host, comp.src)]
        for w in sorted(nbrs):
            if _component_done(n, w, host, comp):
                return n
        for w in sorted(nbrs):
            if not n.label[w] >> inst & 1:
                continue
            trial = ids.clone()
            try:
                out = _finish_component(n, w, comp, host, direction,
                                        budget, trial, memo)
            except Stuck:
                continue
            ids.adopt(trial)
            return out
        raise Stuck('no neighbour of %d can finish %s'
                    % (u, table.describe(did)))
    # full expansion: every component finished somewhere, every neighbour
    # covering some finished component
    exts = {}

    def net_at(w):
        return exts.get(w, n)

    for comp in node.components:
        inst = table.pos_inst[(host, comp.src)]
        if any(_component_done(net_at(w), w, host, comp) for w in nbrs):
            continue
        placed = False
        for w in sorted(nbrs):
            if not n.label[w] >> inst & 1:
                continue
            trial = ids.clone()
            try:
                out = _finish_component(net_at(w), w, comp, host, direction,
                                        budget, trial, memo)
            except Stuck:
                continue
            ids.adopt(trial)
            exts[w] = out
            placed = True
            break
        if not placed:
            raise Stuck('component %s of %s has no home below node %d'
                        % (to_string(comp.src), table.describe(did), u))
    for w in sorted(nbrs):
        if any(_component_done(net_at(w), w, host, c)
               for c in node.components):
            continue
        placed = False
        for comp in node.components:
            if isinstance(comp, DFree):
                continue
            if not n.label[w] >> table.pos_inst[(host, comp.src)] & 1:
                continue
            trial = ids.clone()
            try:
                out = _finish_component(net_at(w), w, comp, host, direction,
                                        budget, trial, memo)
            except Stuck:
                continue
            ids.adopt(trial)
            exts[w] = out
            placed = True
            break
        if not placed:
            raise Stuck('neighbour %d of %d covers no finishable component '
                        'of %s' % (w, u, table.describe(did)))
    return _fold(n, exts, direction)


def finish_deferral(n, u, did, budget=None):
    """Extend n below u until the active deferral did is finished there.

    The result contains n, only differs inside u's cone in the deferral's
    direction, and adds no neighbours to nodes of n on the far side.
    """
    budget = budget or Budget()
    table = n.ctx.table
    tt = compute_timeouts(n)
    if not tt.is_active(u, did):
        raise ValueError('deferral %d is not active at node %d' % (did, u))
    if tt.finished(u, did):
        return n
    direction = table.direction(did)
    if direction is None:
        raise Stuck('%s has no disjunctive reading' % table.describe(did))
    ids = _Ids(max(n.nodes) + 1)
    out = _finish(n, u, did, direction, budget, ids, {}, frozenset())
    assert extension_fault(n, out, u, direction) is None
    assert compute_timeouts(out).finished(u, did)
    assert is_anticonfluent(out)
    return out


# ---------------------------------------------------------------------------
# the round loop

def repair_all(n, budget=None):
    """One pass over the current nodes: saturate both ways, then finish
    every active deferral. Returns (network, log of repairs)."""
    budget = budget or Budget()
    todo = n.nodes
    log = []
    for direction in ('F', 'B'):
        for u in todo:
            if not n.saturated(u, direction):
                n = saturate(n, u, direction, budget)
                log.append('sat%s %d' % (direction, u))
    table = n.ctx.table
    for u in todo:
        for did in range(len(table)):
            tt = compute_timeouts(n)
            if not tt.is_active(u, did) or tt.finished(u, did):
                continue
            n = finish_deferral(n, u, did, budget)
            log.append('mu %d/%d' % (u, did))
    leftovers = [d for d in find_defects(n) if d.node in set(todo)]
    assert not leftovers, leftovers
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
    defective = {d.node for d in find_defects(n)}
    if not defective:
        return None
    nbr = {u: set() for u in n.nodes}
    for a, b in n.edges:
        nbr[a].add(b)
        nbr[b].add(a)
    dist = {n.nodes[0]: 0}
    frontier = [n.nodes[0]]
    while frontier:
        nxt = []
        for u in frontier:
            for v in sorted(nbr[u]):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return min(dist.get(u, len(n.nodes)) for u in defective) - 1


def build(ctx, seed, budget=None) -> ConstructionReport:
    """Grow a network for one atom until defect-free or out of budget."""
    budget = budget or Budget()
    if not is_atom(seed, ctx.sigma):
        raise ValueError('seed is not an atom of the closure')
    n = Network(ctx, (0,), frozenset(), {0: seed},
                frozenset(), frozenset())
    rounds = []
    for _ in range(budget.max_rounds):
        if not find_defects(n):
            return ConstructionReport('perfect', n, None, rounds)
        try:
            n, log = repair_all(n, budget)
        except Stuck as e:
            return ConstructionReport('stuck', n, _radius(n), rounds, str(e))
        except BudgetExceeded as e:
            return ConstructionReport('radius', n, _radius(n), rounds, str(e))
        rounds.append(log)
    if not find_defects(n):
        return ConstructionReport('perfect', n, None, rounds)
    return ConstructionReport('radius', n, _radius(n), rounds,
                              'round budget exhausted')


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
