import gc
import hashlib
import itertools
import json
import random
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from flatmu import construct, network
from flatmu.acceptance import _disjunctive_corpus, _grow_network, child_env
from flatmu.closure import atom_formulas, coherent, fl_closure
from flatmu.network import (
    Draft, Network, NetworkContext, compute_timeouts, cones, find_defects,
    is_anticonfluent, is_subnetwork, network_from_json, network_to_json,
    orient, validate,
)
from flatmu.construct import (
    Budget, BudgetExceeded, Stuck, _saturate_all, build, extract_model,
    finish_deferral, repair_all, saturate,
)
from flatmu.semantics import eval_bits
from flatmu.syntax import (
    Bottom, Dia, FixpointConnective, Neg, Sharp, Var, box, is_guarded, parse,
    to_string,
)

CHI1 = FixpointConnective('chi1', 1, parse('[F]x | q', {}))
CHIB = FixpointConnective('chib', 1, parse('[B]x | q', {}))
REACH = FixpointConnective('reach', 1, parse('q | <F>x', {}))
TANGLE = FixpointConnective('tangle', 1,
                            parse('q | ~(~<F>x | ~<B>x)', {}))


def ctx_for(origin) -> NetworkContext:
    return NetworkContext(fl_closure(origin))


CTX_P = ctx_for(parse('p', {}))
CTX_CHI1 = ctx_for(Sharp(CHI1, (Var('q'),)))
CTX_CHIB = ctx_for(Sharp(CHIB, (Var('q'),)))
CTX_REACH = ctx_for(Sharp(REACH, (Var('q'),)))

P, Q, BOT = Var('p'), Var('q'), Bottom()
FOCUS1 = Sharp(CHI1, (Q,))
FOCUSB = Sharp(CHIB, (Q,))


def atom_with(ctx, yes=(), no=()):
    sigma = ctx.sigma
    for a in ctx.atoms:
        if all(a >> sigma.index_of(f) & 1 for f in yes) and \
                not any(a >> sigma.index_of(f) & 1 for f in no):
            return a
    raise AssertionError('no atom matches')


def mk(ctx, labels, edges=(), sat_f=(), sat_p=()):
    return Network(ctx, frozenset(edges), dict(labels),
                   {'F': frozenset(sat_f), 'B': frozenset(sat_p)})


# Over the closure of a bare letter the eight atoms work out, by hand, to
# the bitmasks below: indices run p, [F]_|_, [B]_|_, ~p, <F>~_|_, <B>~_|_,
# ~_|_, _|_, and every atom keeps ~_|_ plus one side of each complement
# pair. These anchor the determinism pins for the builder.
P_ATOMS = [71, 78, 85, 92, 99, 106, 113, 120]
A_SRC = 85   # p, <F>~_|_, [B]_|_
A_SNK = 99   # p, [F]_|_, <B>~_|_


def test_p_closure_atoms_match_the_hand_list():
    assert list(CTX_P.atoms) == P_ATOMS


def test_budget_rejects_nonpositive_limits():
    with pytest.raises(ValueError):
        Budget(max_nodes=0)
    with pytest.raises(ValueError):
        Budget(max_rounds=-1)


# -- saturation ---------------------------------------------------------------

def test_saturate_forward_picks_the_least_coherent_atom():
    n = mk(CTX_P, {0: A_SRC})
    out = saturate(n, 0, 'F')
    assert out.nodes == (0, 1)
    assert out.label[1] == A_SNK
    assert out.edges == {(0, 1)}
    assert out.sat['F'] == {0}
    assert out.sat['B'] == frozenset()


def test_saturate_forward_reuses_existing_witnesses():
    kid = atom_with(CTX_P, [Neg(P), Dia('B', Neg(BOT))])
    n = mk(CTX_P, {0: A_SRC, 1: kid}, [(0, 1)])
    out = saturate(n, 0, 'F')
    assert out.nodes == n.nodes
    assert out.edges == n.edges
    assert out.sat['F'] == {0}


def test_saturate_tops_up_reused_groups_to_multiplicity():
    # chi1 has three deferrals, so families need three copies
    assert CTX_CHI1.table.multiplicity == 3
    u = atom_with(CTX_CHI1, [FOCUS1, Dia('F', Neg(BOT))],
                  no=[Dia('F', Neg(FOCUS1))])
    kid = next(b for b in CTX_CHI1.atoms if coherent(u, b, CTX_CHI1.sigma))
    n = mk(CTX_CHI1, {0: u, 1: kid}, [(0, 1)])
    out = saturate(n, 0, 'F')
    assert out.nodes == (0, 1, 2, 3)
    assert out.label[2] == kid and out.label[3] == kid
    assert {(0, 2), (0, 3)} <= out.edges
    assert validate_families(out, 0)


def validate_families(n, u):
    from flatmu.network import validate
    return not any(('node %d lacks' % u) in msg for msg in validate(n))


def test_saturate_backward_mirrors():
    n = mk(CTX_P, {0: A_SNK})
    out = saturate(n, 0, 'B')
    assert out.nodes == (0, 1)
    assert out.edges == {(1, 0)}
    assert out.sat['B'] == {0}
    assert coherent(out.label[1], A_SNK, CTX_P.sigma)


def test_saturate_forward_links_to_an_existing_witness():
    n = mk(CTX_P, {0: A_SRC, 1: A_SRC, 2: A_SNK}, [(0, 2)], sat_f=[0])
    out = saturate(n, 1, 'F')
    assert out.nodes == (0, 1, 2)
    assert (1, 2) in out.edges


def test_saturate_backward_borrows_parents_made_for_a_sibling():
    u = atom_with(CTX_CHI1, [FOCUS1, Dia('F', Neg(BOT))],
                  no=[Q, Dia('F', Neg(FOCUS1))])
    kid = atom_with(CTX_CHI1, [FOCUS1, Q, box('F', BOT), Dia('B', Neg(BOT))])
    n = mk(CTX_CHI1, {0: u, 1: kid, 2: kid, 3: kid},
           [(0, 1), (0, 2), (0, 3)], sat_f=[0])
    one = saturate(n, 1, 'B')
    assert one.nodes == (0, 1, 2, 3, 4, 5)
    assert one.label[4] == u and one.label[5] == u
    two = saturate(one, 2, 'B')
    assert two.nodes == one.nodes   # 4 and 5 are borrowed, nothing fresh
    assert {(4, 2), (5, 2)} <= two.edges
    three = saturate(two, 3, 'B')
    assert three.nodes == one.nodes
    assert {(4, 3), (5, 3)} <= three.edges


def test_saturate_links_no_witness_that_closes_a_cycle():
    # node 0 carries the label node 2 wants as its <F><F>p witness; the
    # fresh dead end 4 answers node 2's other diamond, <F>~_|_
    ctx = ctx_for(parse('<F><F>p', {}))
    labels = {0: 1656, 1: 1008, 2: 1889}
    chain = saturate(mk(ctx, labels, [(0, 1), (1, 2)]), 2, 'F')
    assert chain.edges == {(0, 1), (1, 2), (2, 3), (2, 4)}
    assert chain.label[3] == labels[0]
    apart = saturate(mk(ctx, labels, [(1, 2)]), 2, 'F')
    assert (2, 0) in apart.edges


def test_saturation_stuck_on_a_bottom_diamond():
    doomed = atom_with(CTX_REACH, [Dia('F', BOT)])
    n = mk(CTX_REACH, {0: doomed})
    with pytest.raises(Stuck):
        saturate(n, 0, 'F')


# -- witness linking against a from-scratch oracle ---------------------------

def _keeps_separation(nodes, edges):
    """Cones of distinct neighbours of any node must not meet; a cycle
    fails too. The from-scratch check the builder once ran per link."""
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


_STEP = st.tuples(st.sampled_from(['link', 'leaf']),
                  st.integers(0, 30), st.integers(0, 30),
                  st.sampled_from('FB'))


@given(ids=st.lists(st.integers(0, 20), min_size=1, max_size=7, unique=True),
       pairs=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                      max_size=5),
       steps=st.lists(_STEP, max_size=40))
@settings(max_examples=400, deadline=None)
def test_a_draft_links_as_the_oracle_does(ids, pairs, steps):
    # a start graph over arbitrary ids, cycles and diamonds included
    ids = sorted(ids)
    edges = {(ids[i % len(ids)], ids[j % len(ids)]) for i, j in pairs}
    n = mk(CTX_P, {u: A_SRC for u in ids}, edges)
    assert n.separated == _keeps_separation(ids, edges)
    # a draft keeps cones, and links, only over a separated start; adding
    # edges never separates a graph again, so the oracle refuses every
    # link into an unseparated one too
    draft = Draft(n)
    assert (draft.cones is not None) == n.separated
    nodes = list(ids)
    for kind, i, j, direction in steps:
        u = nodes[i % len(nodes)]
        if kind == 'leaf':
            w = max(nodes) + 1
            nodes.append(w)
            edges.add(orient(u, w, direction))
            draft.grow(u, w, A_SRC, direction)
        else:
            w = nodes[j % len(nodes)]
            e = orient(u, w, direction)
            if e in edges:
                continue   # _saturate only links nodes not yet adjacent
            ok = _keeps_separation(nodes, edges | {e})
            if draft.cones is None:
                assert not ok
                continue
            assert draft.link(u, w, direction) == ok
            if ok:
                edges.add(e)
        assert draft.nodes == nodes
        assert {(a, b) for a in nodes for b in draft.nbrs['F'][a]} == edges
        if draft.cones is not None:
            assert draft.cones == cones(nodes, edges)
    linked = draft.cones is not None
    grown = draft.freeze()
    # what the draft hands over is what a parentless network derives
    bare = Network(CTX_P, frozenset(edges), grown.label, grown.sat)
    assert grown.edges == edges
    assert grown.nodes == bare.nodes and grown.nbrs == bare.nbrs
    if linked:
        assert grown.cones == cones(grown.nodes, grown.edges)
    assert grown.separated == _keeps_separation(nodes, edges)


# -- a saturation phase against step-by-step growth --------------------------

def _oracle_grown(n, edges, label, flagged, direction):
    sat = {**n.sat, direction: n.sat[direction] | flagged}
    return Network(n.ctx, frozenset(edges), label, sat)


def _oracle_saturate(n, u, direction, ids, budget):
    """One saturation as a fresh, fully checked Network: the body the
    builder ran per node before a phase grew one draft."""
    ctx = n.ctx
    d = ctx.table.multiplicity
    pool = {}
    for w in n.nbrs[direction][u]:
        pool.setdefault(n.label[w], []).append(w)
    label = dict(n.label)
    edges = set(n.edges)
    nodes = list(n.nodes)
    frozen = n.sat['B' if direction == 'F' else 'F']
    taken = set(n.nbrs[direction][u])
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
            family = next(ctx.witnesses(n.label[u], child_i, direction), None)
            if family is None:
                raise Stuck('no coherent %s-witness for %s below node %d' % (
                    direction, to_string(ctx.sigma.formulas[child_i]), u))
        if n.separated and have < d:
            for w in n.nodes:
                if have >= d:
                    break
                if w == u or w in taken or w in linked or w in frozen:
                    continue
                if n.label[w] != family:
                    continue
                e = orient(u, w, direction)
                if not _keeps_separation(nodes, edges | {e}):
                    continue
                edges.add(e)
                linked.add(w)
                have += 1
        for _ in range(d - have):
            w = next(ids)
            nodes.append(w)
            label[w] = family
            edges.add(orient(u, w, direction))
    if len(nodes) > budget.max_nodes:
        raise BudgetExceeded('node budget %d exceeded while saturating %d'
                             % (budget.max_nodes, u))
    return _oracle_grown(n, edges, label, {u}, direction)


def _oracle_phase(n, budget):
    todo = n.nodes
    log = []
    for direction in ('F', 'B'):
        for u in todo:
            if u not in n.sat[direction]:
                n = _oracle_saturate(n, u, direction,
                                     itertools.count(max(n.nodes) + 1),
                                     budget)
                log.append('sat%s %d' % (direction, u))
    return n, log


def _outcome(phase, n, budget):
    try:
        return phase(n, budget)
    except (Stuck, BudgetExceeded) as exc:
        return type(exc).__name__, str(exc)


CTX_TWO_WAY = ctx_for(parse('<F><F>p & <B>q', {}))


@st.composite
def _start_networks(draw):
    ctx = draw(st.sampled_from([CTX_P, CTX_CHI1, CTX_CHIB, CTX_TWO_WAY]))
    # a few labels with one diamond or two, so that later nodes of the
    # phase link to witnesses made for earlier ones, and a doomed one, so
    # that saturation gets stuck
    palette = ctx.atoms_by_duty[2:6] + tuple(
        a for a in ctx.atoms if a not in ctx.atoms_by_duty)[:1]
    ids = sorted(draw(st.lists(st.integers(0, 40), min_size=1, max_size=7,
                               unique=True)))
    labels = {u: draw(st.sampled_from(palette)) for u in ids}
    pairs = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                          max_size=4))
    edges = {(ids[i % len(ids)], ids[j % len(ids)]) for i, j in pairs}
    sat_f = [u for u in ids if draw(st.integers(0, 3)) == 0]
    sat_p = [u for u in ids if draw(st.integers(0, 3)) == 0]
    return mk(ctx, labels, edges, sat_f, sat_p)


@given(n=_start_networks(), max_nodes=st.integers(1, 60))
@settings(max_examples=300, deadline=None)
def test_a_saturation_phase_grows_as_step_by_step_saturation(n, max_nodes):
    budget = Budget(max_nodes=max_nodes)
    before = n.structure(), {d: dict(m) for d, m in n.nbrs.items()}
    want = _outcome(_oracle_phase, n, budget)
    got = _outcome(_saturate_all, n, budget)
    # the draft leaves its start alone, whatever happens
    assert (n.structure(), n.nbrs) == before
    if isinstance(want[0], str):
        assert got == want
        return
    (ref, ref_log), (out, log) = want, got
    assert log == ref_log
    assert out.structure() == ref.structure()
    assert list(out.nbrs['F'].items()) == list(ref.nbrs['F'].items())
    assert list(out.nbrs['B'].items()) == list(ref.nbrs['B'].items())
    try:
        scratch = cones(out.nodes, out.edges)
    except ValueError:
        scratch = None
    if scratch is None:
        with pytest.raises(ValueError):
            out.cones
    else:
        assert out.cones == scratch
    assert out.separated == ref.separated == \
        _keeps_separation(out.nodes, out.edges)


def test_the_saturation_phase_of_repair_all_builds_one_network(monkeypatch):
    # round one of the chi1 build leaves three fresh, unsaturated children
    n = build(CTX_CHI1, chi1_seed(), Budget(max_rounds=1)).network
    built = []
    at_first_finish = []
    post_init = Network.__post_init__
    finish = construct.finish_deferral

    def counted(self):
        built.append(self)
        post_init(self)

    def noted(*args):
        at_first_finish.append(len(built))
        return finish(*args)

    monkeypatch.setattr(Network, '__post_init__', counted)
    monkeypatch.setattr(construct, 'finish_deferral', noted)
    _, log = repair_all(n)
    assert len([line for line in log if line.startswith('sat')]) == 6
    assert (at_first_finish + [len(built)])[0] == 1


def test_a_build_starts_its_timeout_tables_from_their_parents(monkeypatch):
    defs = {'rf': REACH, 'rb': FixpointConnective('rb', 1,
                                                  parse('q | <B>x', {}))}
    f = parse('#rf(p) & #rb(q)', defs)
    ctx = ctx_for(f)
    # the eighth seed of `flatmu build --all` ends radius at 185 nodes
    seed = [a for a in ctx.atoms_by_duty if a >> ctx.sigma.index_of(f) & 1][7]
    tables = []
    calls = [0]
    timeouts, clause = network.compute_timeouts, network._clause_value

    def noted(n):
        if '_timeouts' not in n.__dict__:
            tables.append(n)
        return timeouts(n)

    def counted(*args):
        calls[0] += 1
        return clause(*args)

    monkeypatch.setattr(network, 'compute_timeouts', noted)
    monkeypatch.setattr(construct, 'compute_timeouts', noted)
    monkeypatch.setattr(network, '_clause_value', counted)
    build(ctx, seed)
    seeded, calls[0] = calls[0], 0
    for n in tables:
        bare = Network(n.ctx, n.edges, n.label, n.sat)
        assert timeouts(bare) == timeouts(n)
    assert len(tables) >= 5
    assert seeded < calls[0]


# -- finishing a deferral -----------------------------------------------------

def chi1_seed():
    return atom_with(CTX_CHI1, [FOCUS1, Dia('F', Neg(BOT))],
                     no=[Q, Dia('F', Neg(FOCUS1))])


def test_finish_x_deferral_below_a_fresh_head():
    n = mk(CTX_CHI1, {0: chi1_seed()})
    out = finish_deferral(n, 0, 2)
    assert is_subnetwork(n, out)
    assert out.nodes == (0, 1, 2, 3)
    assert len({out.label[w] for w in (1, 2, 3)}) == 1
    assert 0 in out.sat['F']
    tt = compute_timeouts(out)
    # the unfolding chain: x steps to the body, the body rides its box
    assert tt[0, 0] == tt[0, 1]
    assert tt[0, 2] == tt[0, 0] + 1
    assert finish_deferral(out, 0, 2) is out


def test_finish_is_a_no_op_when_the_label_already_escapes():
    withq = atom_with(CTX_CHI1, [FOCUS1, Q])
    n = mk(CTX_CHI1, {0: withq})
    assert finish_deferral(n, 0, 2) is n
    assert compute_timeouts(n)[0, 2] == 0


def test_finish_rejects_inactive_pairs():
    plain = atom_with(CTX_CHI1, [], no=[FOCUS1])
    n = mk(CTX_CHI1, {0: plain})
    with pytest.raises(ValueError):
        finish_deferral(n, 0, 2)


def test_finish_raises_stuck_without_a_disjunctive_reading():
    ctx = ctx_for(Sharp(TANGLE, (Q,)))
    focus = Sharp(TANGLE, (Q,))
    n = mk(ctx, {0: atom_with(ctx, [focus], no=[Q])})
    active = [did for did in range(ctx.table.d)
              if (0, did) in compute_timeouts(n)]
    assert active
    with pytest.raises(Stuck):
        finish_deferral(n, 0, active[0])


def test_finish_backward_connective_grows_predecessors():
    table = CTX_CHIB.table
    x_did = next(did for did in range(table.d)
                 if table.deferrals[did].body_part == Var('x'))
    assert table.deferrals[x_did].direction == 'B'
    seed = atom_with(CTX_CHIB, [FOCUSB, Dia('B', Neg(BOT))],
                     no=[Q, Dia('B', Neg(FOCUSB))])
    n = mk(CTX_CHIB, {0: seed})
    out = finish_deferral(n, 0, x_did)
    assert len(out.nodes) > 1
    assert all(b == 0 for _, b in out.edges)
    assert 0 in out.sat['B']
    assert compute_timeouts(out).get((0, x_did)) is not None



# Six closures whose deferrals take every path of the finishing recursion:
# x unfoldings, disjunctions, guarded conjuncts (#gf), diamonds (#rf),
# boxes (#sf) and full expansions both ways (#bf, #nf, #nb), at leaves, at
# saturated nodes and at unsaturated nodes with neighbours. Every open
# pair of each anticonfluent draw of selftest check 9's generator is
# finished at check 9's budget; the digest covers each outcome in order,
# the network's JSON or the Stuck or BudgetExceeded message.
FINISH_DEFS = {chi.name: chi for chi in (
    FixpointConnective('gf', 2, parse('q1 | (q2 & <F>x)', {})),
    FixpointConnective('bf', 1, parse('q | nablaF{x}', {})),
    FixpointConnective('nf', 2, parse('q1 | nablaF{x, q2}', {})),
    FixpointConnective('nb', 2, parse('q1 | nablaB{x, ~q2}', {})),
    FixpointConnective('rf', 1, parse('q | <F>x', {})),
    FixpointConnective('sf', 1, parse('[F]x | q', {})),
)}
FINISH_ORIGINS = ('#gf(r, p)', '#bf(r)', '#nf(r, p)', '#nb(r, p)', '#rf(r)',
                  '#sf(r)')


def _finishing_outcomes(origin, draws):
    ctx = ctx_for(parse(origin, FINISH_DEFS))
    rng = random.Random(0)
    for _ in range(draws):
        base = _grow_network(rng, ctx, 6)
        if not is_anticonfluent(base):
            continue
        for (u, did), steps in sorted(compute_timeouts(base).items()):
            if steps is not None:
                continue
            try:
                out = finish_deferral(base, u, did, Budget(60, 4, 4))
            except (Stuck, BudgetExceeded) as e:
                yield '%s: %s' % (type(e).__name__, e)
            else:
                yield json.dumps(network_to_json(out), sort_keys=True)


def test_finishing_outcomes_are_pinned():
    digest = hashlib.sha256()
    tally = {True: 0, False: 0}
    for origin in FINISH_ORIGINS:
        for out in _finishing_outcomes(origin, 400):
            digest.update(('%s\t%s\n' % (origin, out)).encode())
            tally[out.startswith('{')] += 1
    assert (tally[True], tally[False]) == (1163, 2942)
    assert digest.hexdigest() == (
        '77f6f101e558e91ac15cfd1b724804e748191f49a4ba2774c9bc464e0adafd2a')


# The formulas of the perfbench build corpus, and an unguarded body whose
# x unfolds at its own atom; the graft oracle adds two full expansions and
# a box over a disjunction.
TREE_DEFS = {chi.name: chi for chi in (
    FixpointConnective('rf', 1, parse('q | <F>x', {})),
    FixpointConnective('rb', 1, parse('q | <B>x', {})),
    FixpointConnective('sf', 1, parse('[F]x | q', {})),
    FixpointConnective('sb', 1, parse('[B]x | q', {})),
    FixpointConnective('k', 1, parse('<F>x | x', {})),
    FixpointConnective('nf', 2, parse('q1 | nablaF{x, q2}', {})),
    FixpointConnective('nb', 2, parse('q1 | nablaB{x, ~q2}', {})),
    FixpointConnective('bx', 1, parse('q1 | [F](x | <F>x)', {})),
)}
TREE_ORIGINS = ('#rf(p)', '#sf(p)', '#sb(<F>p)', '#rf(p) & #rb(q)',
                '#sf(q) & #rf(p)', '#rf(p) & #rb(p) & #rf(q)', '#k(p)')


def _tree_name(tpl, names, memo):
    """(number, height) of a template: equal templates get one number in
    one names table, and a subtree shared by its copies is read once."""
    if id(tpl) not in memo:
        kids = [_tree_name(sub, names, memo) for sub in tpl[1]]
        key = (tpl[0], tuple(k for k, _ in kids))
        height = max((h + 1 for _, h in kids), default=0)
        memo[id(tpl)] = names.setdefault(key, len(names)), height
    return memo[id(tpl)]


def _order_faults(origin):
    """Ask _finish_tree about every viable atom, active deferral and depth
    0..6 on two fresh contexts, by ascending and by descending depth; list
    the answers that differ, overshoot their depth or miss their root."""
    names, faults, answers = {}, [], []
    for order in (range(7), range(6, -1, -1)):
        ctx = ctx_for(parse(origin, TREE_DEFS))
        asks = [(bits, did) for bits in ctx.atoms_by_duty
                for did, dfl in enumerate(ctx.table.deferrals)
                if bits >> dfl.index & 1]
        got, memo = {}, {}
        for k in order:
            for bits, did in asks:
                tpl = construct._finish_tree(ctx, bits, did, k)
                if tpl is None:
                    got[bits, did, k] = None
                    continue
                got[bits, did, k], height = _tree_name(tpl, names, memo)
                if height > k or tpl[0] != bits:
                    faults.append('%s at %r: height %d, root %d'
                                  % (origin, (bits, did, k), height, tpl[0]))
        answers.append(got)
    assert answers[0].keys() == answers[1].keys()
    faults += ['%s at %r differs' % (origin, key) for key in answers[0]
               if answers[0][key] != answers[1][key]]
    return faults


def test_finishing_trees_do_not_depend_on_the_order_of_asks(monkeypatch):
    # an unguarded body unfolds back to a deferral already on the path
    # at the same atom, which is what _search_tree's seen set cuts off
    cut = []
    search = construct._search_tree

    def spied(ctx, bits, did, depth, seen):
        if did in seen:
            cut.append(did)
        return search(ctx, bits, did, depth, seen)

    monkeypatch.setattr(construct, '_search_tree', spied)
    for origin in TREE_ORIGINS:
        del cut[:]
        assert _order_faults(origin) == []
        assert bool(cut) == (origin == '#k(p)'), origin


def test_the_order_test_catches_reuse_across_depths(monkeypatch):
    # the memo keyed on (atom, deferral) alone: a success found at one
    # depth is handed out at every other
    def reused(ctx, bits, did, depth):
        if ctx.trees.get((bits, did)) is None:
            ctx.trees[bits, did] = construct._search_tree(
                ctx, bits, did, depth, frozenset())
        return ctx.trees[bits, did]

    monkeypatch.setattr(construct, '_finish_tree', reused)
    assert _order_faults('#rf(p)')


def unfinished_grafts(origin):
    """Graft every distinct tree _finish_tree hands out for one atom and
    deferral at depths 0-4 below a one-node network: (grafts whose
    deferral stays open at the root, grafts made)."""
    ctx = ctx_for(parse(origin, TREE_DEFS))
    budget, open_, made = Budget(max_nodes=10 ** 6), 0, 0
    for bits in ctx.atoms_by_duty:
        for did, dfl in enumerate(ctx.table.deferrals):
            if not bits >> dfl.index & 1:
                continue
            tpls = []
            for depth in range(5):
                tpl = construct._finish_tree(ctx, bits, did, depth)
                if tpl is not None and tpl not in tpls:
                    tpls.append(tpl)
            for tpl in tpls:
                n = Network(ctx, frozenset(), {0: bits},
                            {'F': frozenset(), 'B': frozenset()})
                out = construct._graft(n, 0, tpl, dfl.direction, budget,
                                       construct._Ids(1))
                made += 1
                open_ += compute_timeouts(out).get((0, did)) is None
    return open_, made


def test_every_finishing_tree_finishes_its_deferral_once_grafted():
    made = 0
    for origin in TREE_ORIGINS + ('#nf(p, q)', '#nb(<F>p, q)',
                                  '#sf(#rb(#sf(q)))', '#bx(p)'):
        open_, count = unfinished_grafts(origin)
        assert open_ == 0, origin
        made += count
    assert made == 1141


def test_builds_sharing_a_context_report_as_on_fresh_ones():
    for origin in ('#rf(p) & #rb(q)', '#sf(q) & #rf(p)'):
        f = parse(origin, TREE_DEFS)
        shared = ctx_for(f)
        fi = shared.sigma.index_of(f)
        seeds = [a for a in shared.atoms_by_duty if a >> fi & 1]
        assert len(seeds) > 1
        for seed in sorted(seeds, reverse=True):
            assert build(shared, seed).to_json() == \
                build(ctx_for(f), seed).to_json(), (origin, seed)


# Node 1 holds <F>[B]_|_, which no successor can witness: a successor of a
# node holding ~_|_ holds <B>~_|_. Finishing <F>x at node 0 tries node 1
# first, and saturating it grows five witnesses, ids 4 to 8, before it
# gets stuck there. Node 3, tried next, finishes.
STUCK_FIRST = {
    'closure': {'formula': '#rf(r) | <F><F>[B]_|_', 'connectives': [
        {'name': 'rf', 'arity': 1, 'body': 'q1 | <F>x'}]},
    'nodes': [{'id': 0, 'atom': [0, 3, 4, 6, 7, 9, 14, 15, 16, 19, 20, 23]},
              {'id': 1, 'atom': [0, 3, 4, 6, 7, 9, 12, 14, 15, 16, 19, 23]},
              {'id': 2, 'atom': [0, 1, 3, 4, 7, 8, 9, 10, 12, 14, 16, 18]},
              {'id': 3, 'atom': [0, 3, 6, 7, 9, 13, 14, 15, 16, 19, 20, 23]}],
    'edges': [[0, 1], [0, 3], [1, 2]], 'satF': [0], 'satP': []}


def test_a_stuck_try_hands_its_ids_back():
    n = network_from_json(STUCK_FIRST)
    out = finish_deferral(n, 0, 1)
    assert out.nodes == tuple(range(10))
    assert {b for a, b in out.edges if a == 0} == {1, 3}


# Drawn by the generator behind selftest check 9 (the 239th draw of
# acceptance._grow_network(random.Random(5), ctx, 8) over the closure of
# #rf(p)). Nodes 1 and 3 share the ancestor 0 and the descendant 6, so it
# is not a network, yet deferral 1 is open at node 0.
TANGLED_DRAW = {
    'closure': {'formula': '#rf(p)', 'connectives': [
        {'name': 'rf', 'arity': 1, 'body': 'q1 | <F>x'}]},
    'nodes': [{'id': 0, 'atom': [0, 3, 4, 5, 7, 8, 10, 14, 17]},
              {'id': 1, 'atom': [0, 4, 7, 8, 9, 10, 13, 14, 17]},
              {'id': 2, 'atom': [5, 6, 7, 8, 9, 11, 12, 14, 15]},
              {'id': 3, 'atom': [0, 3, 4, 5, 7, 8, 12, 14, 15]},
              {'id': 4, 'atom': [1, 5, 6, 8, 9, 11, 12, 14, 15]},
              {'id': 5, 'atom': [0, 4, 7, 8, 9, 10, 13, 14, 17]},
              {'id': 6, 'atom': [6, 7, 8, 9, 11, 13, 14, 15, 17]}],
    'edges': [[0, 1], [0, 3], [0, 5], [1, 2], [1, 5], [2, 6], [3, 4],
              [3, 6]],
    'satF': [1, 2], 'satP': [0, 1, 3]}


def test_finish_rejects_a_non_anticonfluent_input():
    n = network_from_json(TANGLED_DRAW)
    assert not is_anticonfluent(n)
    assert compute_timeouts(n)[0, 1] is None
    with pytest.raises(ValueError, match='not anticonfluent'):
        finish_deferral(n, 0, 1)


def test_finishing_below_an_unseparated_node_gets_stuck():
    # the 59th draw over #sf(r): 0 -> 1 -> 3 -> 4 and 0 -> 4, so the box
    # extensions at the successors 1 and 4 of node 0 overlap
    ctx = ctx_for(parse('#sf(r)', FINISH_DEFS))
    rng = random.Random(0)
    for _ in range(59):
        base = _grow_network(rng, ctx, 8)
    assert is_anticonfluent(base) and not base.separated
    assert compute_timeouts(base)[0, 1] is None
    with pytest.raises(Stuck, match='below node 0: amalgamation '
                       'preconditions fail: cones 0 and 1 overlap'):
        finish_deferral(base, 0, 1, Budget(60, 4, 4))


# The child plants a fault in the extension-shape check and finishes an
# open deferral that would otherwise finish cleanly.
PLANTED_FAULT = """
from flatmu import construct, network
from flatmu.closure import fl_closure
from flatmu.network import Network, NetworkContext
from flatmu.syntax import (
    Bottom, Dia, FixpointConnective, Neg, Sharp, Var, parse)

chi1 = FixpointConnective('chi1', 1, parse('[F]x | q', {}))
focus = Sharp(chi1, (Var('q'),))
ctx = NetworkContext(fl_closure(focus))
want = [focus, Dia('F', Neg(Bottom()))]
avoid = [Var('q'), Dia('F', Neg(focus))]
seed = next(a for a in ctx.atoms
            if all(a >> ctx.sigma.index_of(f) & 1 for f in want)
            and not any(a >> ctx.sigma.index_of(f) & 1 for f in avoid))
n = Network(ctx, frozenset(), {0: seed},
            {'F': frozenset(), 'B': frozenset()})
construct.extension_fault = lambda *args: 'planted fault'
construct.finish_deferral(n, 0, 2)
"""


def test_postconditions_hold_under_python_O():
    run = subprocess.run([sys.executable, '-O', '-c', PLANTED_FAULT],
                         capture_output=True, text=True, env=child_env())
    assert run.returncode == 1, run.stderr
    last = run.stderr.strip().splitlines()[-1]
    assert last.startswith('flatmu.network.InvariantError:')
    assert 'planted fault' in last


# -- the round loop -----------------------------------------------------------

def test_repair_all_clears_the_input_nodes():
    n = mk(CTX_P, {0: A_SRC})
    out, log = repair_all(n)
    assert log == ['satF 0', 'satB 0']
    assert not [d for d in find_defects(out) if d.node == 0]


def test_build_over_a_letter_is_a_two_chain():
    report = build(CTX_P, A_SRC)
    assert report.verdict == 'perfect'
    assert report.radius is None
    n = report.network
    assert n.nodes == (0, 1)
    assert n.edges == {(0, 1)}
    assert n.label == {0: A_SRC, 1: A_SNK}
    assert n.sat['F'] == {0, 1} and n.sat['B'] == {0, 1}
    assert report.rounds == [['satF 0', 'satB 0'], ['satF 1', 'satB 1']]


def test_build_every_p_atom_reaches_perfect():
    for seed in CTX_P.atoms:
        report = build(CTX_P, seed)
        assert report.verdict == 'perfect', (seed, report.detail)
        check_truth(report.network)


def check_truth(n):
    """Every formula of every label holds at its node in the read model."""
    model = extract_model(n)
    order = {u: i for i, u in enumerate(n.nodes)}
    sigma = n.ctx.sigma
    for u in n.nodes:
        for f in atom_formulas(sigma, n.label[u]):
            assert eval_bits(f, model) >> order[u] & 1, (u, f)


def test_build_chi1_reaches_perfect_and_tells_the_truth():
    report = build(CTX_CHI1, chi1_seed())
    assert report.verdict == 'perfect', report.detail
    n = report.network
    # three deferrals want three witnesses each way; the parents end up
    # sharing one block of three children
    assert len(n.nodes) == 6 and len(n.edges) == 9
    assert not validate(n)
    check_truth(n)


def test_build_backward_connective_reaches_perfect():
    seed = atom_with(CTX_CHIB, [FOCUSB, Dia('B', Neg(BOT))],
                     no=[Q, Dia('B', Neg(FOCUSB))])
    report = build(CTX_CHIB, seed)
    assert report.verdict == 'perfect', report.detail
    assert len(report.network.nodes) == 6
    check_truth(report.network)


def test_build_reach_reaches_perfect():
    focus = Sharp(REACH, (Q,))
    seed = atom_with(CTX_REACH, [focus, Dia('F', focus), Dia('F', Neg(BOT))],
                     no=[Q, Dia('F', BOT)])
    assert seed in CTX_REACH.atoms_by_duty
    report = build(CTX_REACH, seed)
    assert report.verdict == 'perfect', report.detail
    assert len(report.network.nodes) == 9
    assert not validate(report.network)
    check_truth(report.network)


def test_build_is_deterministic():
    a = build(CTX_CHI1, chi1_seed())
    b = build(CTX_CHI1, chi1_seed())
    assert a.network.structure() == b.network.structure()
    assert json.dumps(a.to_json(), sort_keys=True) == \
        json.dumps(b.to_json(), sort_keys=True)


def test_build_rejects_a_non_atom_seed():
    with pytest.raises(ValueError):
        build(CTX_P, 0)


def test_build_reports_stuck_on_a_tangled_connective():
    ctx = ctx_for(Sharp(TANGLE, (Q,)))
    fi = ctx.sigma.index_of(Sharp(TANGLE, (Q,)))
    seed = next(a for a in ctx.atoms
                if a >> fi & 1 and a in ctx.atoms_by_duty)
    report = build(ctx, seed)
    assert report.verdict == 'stuck'
    assert 'disjunctive' in report.detail
    assert report.radius == -1  # the failing round is rolled back whole


def test_unguarded_bodies_build_to_a_verdict():
    # an x outside every modality unfolds at its own node: finishing it
    # must meet its own deferral again and get stuck, not recurse forever
    bodies = [chi for chi in _disjunctive_corpus() if not is_guarded(chi)]
    assert len(bodies) == 22
    verdicts = []
    for chi in bodies:
        f = Sharp(chi, (P,))
        ctx = ctx_for(f)
        fi = ctx.sigma.index_of(f)
        for seed in [a for a in ctx.atoms_by_duty if a >> fi & 1][:2]:
            report = build(ctx, seed)
            verdicts.append(report.verdict)
            if report.verdict == 'perfect':
                assert not validate(report.network)
                assert eval_bits(f, extract_model(report.network)) & 1
    assert len(verdicts) == 44 and 'perfect' in verdicts
    assert set(verdicts) <= {'perfect', 'radius', 'stuck'}


def test_build_reports_radius_when_nodes_run_out():
    report = build(CTX_CHI1, chi1_seed(), Budget(max_nodes=3))
    assert report.verdict == 'radius'
    assert 'budget' in report.detail
    assert report.radius == -1


def test_a_round_budget_of_exactly_the_rounds_needed_builds_perfect():
    # this seed of #rf(p) turns perfect in its third round: a budget of
    # three rounds is enough, and one of two runs out
    rf = FixpointConnective('rf', 1, parse('q | <F>x', {}))
    ctx, seed = ctx_for(Sharp(rf, (P,))), 180413
    assert len(build(ctx, seed).rounds) == 3
    report = build(ctx, seed, Budget(max_rounds=3))
    assert (report.verdict, report.radius, len(report.rounds)) == \
        ('perfect', None, 3)
    report = build(ctx, seed, Budget(max_rounds=2))
    assert (report.verdict, report.radius, len(report.rounds),
            report.detail) == ('radius', 1, 2, 'round budget exhausted')


def test_grafting_builds_leave_no_network_alive(monkeypatch):
    # with the cyclic collector off, every network of these builds dies by
    # reference count once its report is dropped, also when a graft runs
    # out of nodes; the count holds the drafts, grafts and amalgams only:
    # equp and eqdown restrict nothing, and a leaf's timeouts come from
    # its context
    made, grafts = [], []
    post_init, graft = Network.__post_init__, construct._graft

    def tracked(self):
        post_init(self)
        made.append(weakref.ref(self))

    def counted(*args):
        grafts.append(1)
        return graft(*args)

    monkeypatch.setattr(Network, '__post_init__', tracked)
    monkeypatch.setattr(construct, '_graft', counted)
    defs = {name: FixpointConnective(name, 1, parse(body, {}))
            for name, body in (('rb', 'q | <B>x'), ('sf', '[F]x | q'),
                               ('sb', '[B]x | q'))}
    builds = [('#sb(<F>p)', 7), ('#sf(#rb(#sf(q)))', 3),
              ('#sf(#rb(#sf(q)))', 4)]
    gc.disable()
    try:
        for text, k in builds:
            ctx = ctx_for(parse(text, defs))
            assert build(ctx, ctx.atoms_by_duty[k]).verdict == 'radius'
        alive = sum(ref() is not None for ref in made)
    finally:
        gc.enable()  # collects at once: read the weakrefs before
    assert len(grafts) == 8 and len(made) == 24
    assert alive == 0


def test_extract_model_reads_off_states_and_valuation():
    report = build(CTX_P, A_SRC)
    model = extract_model(report.network)
    assert model.to_json() == {
        'states': 2,
        'edges': [[0, 1]],
        'valuation': {'p': [0, 1]},
    }


def test_extract_model_reindexes_sparse_ids():
    n = mk(CTX_P, {3: A_SRC, 7: A_SNK}, [(3, 7)])
    model = extract_model(n)
    assert model.states == 2
    assert model.edges == {(0, 1)}
