import json
import random
from itertools import product

import pytest

from flatmu.closure import fl_closure
from flatmu.network import (
    Defect, Network, NetworkContext, NetworkContextError, amalgamate,
    compute_timeouts, cones, downgen, eqdown, equp, find_defects, is_anticonfluent,
    is_down_cofinal, is_subnetwork, is_up_cofinal, network_from_json,
    network_to_json, restrict, to_dot, union, upgen, validate,
)
from flatmu.syntax import (
    Bottom, Dia, FixpointConnective, Neg, Or, Sharp, Var, box, parse,
)

CHI1 = FixpointConnective('chi1', 1, parse('[F]x | q', {}))
REACH = FixpointConnective('reach', 1, parse('q | <F>x', {}))
TANGLE = FixpointConnective('tangle', 1,
                            parse('q | ~(~<F>x | ~<B>x)', {}))


def ctx_for(origin) -> NetworkContext:
    return NetworkContext(fl_closure(origin))


CTX_P = ctx_for(parse('p', {}))
CTX_2DIA = ctx_for(parse('<F>p | <F>q', {}))
CTX_CHI1 = ctx_for(Sharp(CHI1, (Var('q'),)))
CTX_REACH = ctx_for(Sharp(REACH, (Var('q'),)))


def atom_with(ctx, yes=(), no=()):
    sigma = ctx.sigma
    for a in ctx.atoms:
        if all(a >> sigma.index_of(f) & 1 for f in yes) and \
                not any(a >> sigma.index_of(f) & 1 for f in no):
            return a
    raise AssertionError('no atom matches')


def mk(ctx, labels, edges=(), sat_f=(), sat_p=()):
    return Network(ctx, tuple(labels), frozenset(edges), dict(labels),
                   frozenset(sat_f), frozenset(sat_p))


P, BOT = Var('p'), Bottom()
A_SRC = atom_with(CTX_P, [P, Dia('F', Neg(BOT)), box('B', BOT)])
A_SNK = atom_with(CTX_P, [Neg(P), Dia('B', Neg(BOT)), box('F', BOT)])
A_DEAD = atom_with(CTX_P, [P, box('F', BOT), box('B', BOT)])


def two_chain():
    return mk(CTX_P, {0: A_SRC, 1: A_SNK}, [(0, 1)],
              sat_f=(0, 1), sat_p=(0, 1))


# -- validation ---------------------------------------------------------------

def test_two_chain_is_a_perfect_network():
    n = two_chain()
    assert validate(n) == []
    assert find_defects(n) == []


def test_isolated_dead_end_atom_is_perfect():
    n = mk(CTX_P, {0: A_DEAD}, sat_f=(0,), sat_p=(0,))
    assert validate(n) == []
    assert find_defects(n) == []


def test_validate_flags_broken_labels_edges_and_cycles():
    bad_label = mk(CTX_P, {0: 0})
    assert validate(bad_label) == ['label of 0 is not an atom']

    outside = mk(CTX_P, {0: A_SRC | 1 << len(CTX_P.sigma)})
    assert validate(outside) == ['label of 0 is not an atom']

    cyclic = mk(CTX_P, {0: A_SRC, 1: A_SRC}, [(0, 1), (1, 0)])
    assert 'relation has a cycle' in validate(cyclic)

    incoherent = mk(CTX_P, {0: A_DEAD, 1: A_SNK}, [(0, 1)])
    assert 'edge (0, 1) is not coherent' in validate(incoherent)

    starving = mk(CTX_P, {0: A_SRC}, sat_f=(0,))
    assert validate(starving) == ['node 0 lacks forward families']


def test_constructor_rejects_malformed_shapes():
    with pytest.raises(ValueError):
        mk(CTX_P, {0: A_SRC}, [(0, 1)])
    with pytest.raises(ValueError):
        Network(CTX_P, (0,), frozenset(), {}, frozenset(), frozenset())
    with pytest.raises(ValueError):
        mk(CTX_P, {0: A_SRC}, sat_f=(3,))


def test_saturation_needs_distinct_witnesses_per_diamond():
    q = Var('q')
    top = Neg(BOT)
    both = atom_with(CTX_2DIA, [Dia('F', P), Dia('F', q), Dia('F', top)])
    kid = atom_with(CTX_2DIA, [P, q, box('F', BOT), Dia('B', top)])
    # three diamond members want three pairwise distinct witnesses
    for count in (1, 2):
        labels = {0: both} | {w: kid for w in range(1, count + 1)}
        n = mk(CTX_2DIA, labels, [(0, w) for w in range(1, count + 1)],
               sat_f=(0,))
        assert validate(n) == ['node 0 lacks forward families']
    labels = {0: both, 1: kid, 2: kid, 3: kid}
    n = mk(CTX_2DIA, labels, [(0, 1), (0, 2), (0, 3)], sat_f=(0,))
    assert validate(n) == []


def test_saturation_matching_needs_augmenting_paths():
    q = Var('q')
    top = Neg(BOT)
    both = atom_with(CTX_2DIA, [Dia('F', P), Dia('F', q), Dia('F', top)])
    kid_pq = atom_with(CTX_2DIA, [P, q, box('F', BOT), Dia('B', top)])
    kid_p = atom_with(CTX_2DIA, [P, box('F', BOT), Dia('B', top)], no=[q])
    kid_0 = atom_with(CTX_2DIA, [box('F', BOT), Dia('B', top)], no=[P, q])
    # <F>q fits only node 1; the greedy start parks <F>p there first
    n = mk(CTX_2DIA, {0: both, 1: kid_pq, 2: kid_p, 3: kid_0},
           [(0, 1), (0, 2), (0, 3)], sat_f=(0,))
    assert validate(n) == []
    short = mk(CTX_2DIA, {0: both, 1: kid_pq, 2: kid_p},
               [(0, 1), (0, 2)], sat_f=(0,))
    assert validate(short) == ['node 0 lacks forward families']


# -- anticonfluence -----------------------------------------------------------

def _reach_strict(nodes, edges):
    out = {u: set() for u in nodes}
    for u in nodes:
        todo = [v for a, v in edges if a == u]
        while todo:
            v = todo.pop()
            if v not in out[u]:
                out[u].add(v)
                todo.extend(w for a, w in edges if a == v)
    return out


def _anticonfluent_oracle(n):
    reach = _reach_strict(n.nodes, n.edges)
    for u, v, v2, w in product(n.nodes, repeat=4):
        if v == v2 or v in reach[v2] or v2 in reach[v]:
            continue
        if v in reach[u] and v2 in reach[u] \
                and w in reach[v] and w in reach[v2]:
            return False
    return True


def random_net(rng, size, prob=0.3, ctx=CTX_P):
    atoms = ctx.atoms
    labels = {u: rng.choice(atoms) for u in range(size)}
    edges = [(i, j) for i in range(size) for j in range(i + 1, size)
             if rng.random() < prob]
    sat_f = {u for u in range(size) if rng.random() < 0.4}
    sat_p = {u for u in range(size) if rng.random() < 0.4}
    return mk(ctx, labels, edges, sat_f, sat_p)


def test_triangle_counts_as_anticonfluent():
    n = mk(CTX_P, {0: A_SRC, 1: A_SRC, 2: A_SNK}, [(0, 1), (0, 2), (1, 2)])
    assert is_anticonfluent(n)
    assert _anticonfluent_oracle(n)


def test_diamond_is_not_anticonfluent():
    n = mk(CTX_P, {0: A_SRC, 1: A_SRC, 2: A_SRC, 3: A_SNK},
           [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert not is_anticonfluent(n)
    assert not _anticonfluent_oracle(n)


def test_deep_chains_and_trees_are_anticonfluent():
    chain = mk(CTX_P, {0: A_SRC, 1: A_SRC, 2: A_SRC, 3: A_SNK},
               [(0, 1), (1, 2), (2, 3)])
    assert is_anticonfluent(chain)
    assert _anticonfluent_oracle(chain)
    tree = mk(CTX_P, {u: A_SRC for u in range(6)},
              [(0, 1), (0, 2), (1, 3), (1, 4), (4, 5)])
    assert is_anticonfluent(tree)
    assert _anticonfluent_oracle(tree)


def test_anticonfluence_matches_quadruple_oracle():
    rng = random.Random(41)
    for _ in range(200):
        n = random_net(rng, rng.randint(1, 7), prob=rng.uniform(0.1, 0.5))
        assert is_anticonfluent(n) == _anticonfluent_oracle(n)


# -- containment and generated subsets ---------------------------------------

def test_upgen_and_downgen_match_reachability():
    rng = random.Random(43)
    for _ in range(60):
        n = random_net(rng, rng.randint(1, 7))
        reach = _reach_strict(n.nodes, n.edges)
        back = {u: {v for v in n.nodes if u in reach[v]} for u in n.nodes}
        for u in n.nodes:
            assert upgen(n, u) == {u} | reach[u]
            assert downgen(n, u) == {u} | back[u]
        xs = {u for u in n.nodes if rng.random() < 0.4}
        assert upgen(n, xs) == xs | {v for u in xs for v in reach[u]}
        assert downgen(n, xs) == xs | {v for u in xs for v in back[u]}


def test_cones_are_reflexive_and_refuse_cycles():
    down, up = cones((0, 1, 2), {(0, 1), (1, 2)})
    assert down == {0: {0, 1, 2}, 1: {1, 2}, 2: {2}}
    assert up == {0: {0}, 1: {0, 1}, 2: {0, 1, 2}}
    with pytest.raises(ValueError, match='relation has a cycle'):
        cones((0, 1, 2), {(0, 1), (1, 0), (1, 2)})


def test_upgen_of_a_head_is_itself():
    n = two_chain()
    assert upgen(n, 1) == {1}
    assert downgen(n, 0) == {0}
    assert downgen(n, 1) == {0, 1}


def test_restrict_is_induced():
    rng = random.Random(47)
    for _ in range(60):
        n = random_net(rng, rng.randint(1, 7))
        keep = {u for u in n.nodes if rng.random() < 0.6}
        r = restrict(n, keep)
        assert set(r.nodes) == keep
        assert r.edges == {e for e in n.edges
                           if e[0] in keep and e[1] in keep}
        assert r.sat_f == n.sat_f & keep
        assert r.label == {u: n.label[u] for u in keep}


def test_subnetwork_freezes_saturated_frontiers():
    n = two_chain()
    grown = mk(CTX_P, {0: A_SRC, 1: A_SNK, 2: A_SNK}, [(0, 1), (0, 2)],
               sat_f=(1, 2), sat_p=(0, 1))
    # node 0 is forward saturated in n but gains successor 2
    assert not is_subnetwork(n, grown)
    relaxed = n.replace(sat_f=frozenset({1}))
    assert is_subnetwork(relaxed, grown)


def test_subnetwork_requires_induced_edges_and_equal_labels():
    a = mk(CTX_P, {0: A_SRC, 1: A_SNK})
    b = mk(CTX_P, {0: A_SRC, 1: A_SNK}, [(0, 1)])
    assert not is_subnetwork(a, b)
    assert is_subnetwork(a, a)
    c = mk(CTX_P, {0: A_SRC, 1: A_SRC}, [])
    assert not is_subnetwork(a, c)


def test_restricted_random_nets_are_subnetworks_after_frontier_fix():
    rng = random.Random(53)
    for _ in range(60):
        big = random_net(rng, rng.randint(2, 7))
        keep = {u for u in big.nodes if rng.random() < 0.6}
        small = restrict(big, keep)
        ok_f = {u for u in small.sat_f
                if all(v in keep for v in big.succ[u])}
        ok_p = {u for u in small.sat_p
                if all(v in keep for v in big.pred[u])}
        fixed = small.replace(sat_f=frozenset(ok_f), sat_p=frozenset(ok_p))
        assert is_subnetwork(fixed, big)


def test_context_mismatch_raises():
    with pytest.raises(NetworkContextError):
        is_subnetwork(two_chain(), mk(CTX_2DIA, {0: CTX_2DIA.atoms[0]}))


def test_union_merges_and_rejects_conflicts():
    a = mk(CTX_P, {0: A_SRC, 1: A_SNK}, [(0, 1)], sat_f=(0,))
    b = mk(CTX_P, {1: A_SNK, 2: A_SRC}, [(2, 1)], sat_p=(1,))
    u = union([a, b])
    assert u.nodes == (0, 1, 2)
    assert u.edges == {(0, 1), (2, 1)}
    assert u.sat_f == {0} and u.sat_p == {1}
    with pytest.raises(ValueError):
        union([a, mk(CTX_P, {0: A_SNK})])


def test_equp_compares_outside_the_cone():
    n = two_chain()
    ext = mk(CTX_P, {0: A_SRC, 1: A_SNK, 2: A_SNK}, [(0, 1), (0, 2), (1, 2)],
             sat_f=(0, 1), sat_p=(0, 1))
    # edges crossing into the cone are invisible to both restrictions;
    # the frozen frontier of node 0 is what rejects this extension
    assert equp(n, ext, 0)
    assert equp(n, ext, 1)
    assert not is_subnetwork(n, ext)
    flag_flip = n.replace(sat_p=frozenset({1}))
    assert not equp(n, flag_flip, 1)
    assert eqdown(n, n.replace(sat_f=frozenset({1})), 0)


def test_cofinality_checks_new_neighbours():
    n = two_chain().replace(sat_f=frozenset({1}), sat_p=frozenset({1}))
    above = mk(CTX_P, {0: A_SRC, 1: A_SNK, 2: A_SRC}, [(0, 1), (2, 0)],
               sat_f=(1,), sat_p=(1,))
    assert is_up_cofinal(n, n)
    assert not is_down_cofinal(n, above)   # 0 gains the ancestor 2
    below = mk(CTX_P, {0: A_SRC, 1: A_SNK, 2: A_SNK}, [(0, 1), (0, 2)],
               sat_f=(1,), sat_p=(1,))
    assert is_down_cofinal(n, below)
    assert not is_up_cofinal(n, below)     # 0 gains the successor 2


# -- amalgamation -------------------------------------------------------------

def fork_base():
    return mk(CTX_P, {0: A_SRC, 1: A_SNK, 2: A_SNK}, [(0, 1), (0, 2)],
              sat_f=(0,), sat_p=())


def test_amalgamate_forward_extensions():
    base = fork_base()
    ext1 = mk(CTX_P, {0: A_SRC, 1: A_SNK, 2: A_SNK, 3: A_SNK},
              [(0, 1), (0, 2), (1, 3)], sat_f=(0, 1), sat_p=())
    ext2 = mk(CTX_P, {0: A_SRC, 1: A_SNK, 2: A_SNK, 4: A_SNK},
              [(0, 1), (0, 2), (2, 4)], sat_f=(0, 2), sat_p=())
    out = amalgamate(base, [(1, ext1), (2, ext2)])
    assert set(out.nodes) == {0, 1, 2, 3, 4}
    assert out.edges == {(0, 1), (0, 2), (1, 3), (2, 4)}
    assert out.sat_f == {0, 1, 2}
    assert amalgamate(base, []) is base


def test_amalgamate_rejects_overlapping_cones():
    base = fork_base()
    ext0 = mk(CTX_P, {0: A_SRC, 1: A_SNK, 2: A_SNK, 3: A_SNK},
              [(0, 1), (0, 2), (1, 3)], sat_f=(0,))
    ext1 = mk(CTX_P, {0: A_SRC, 1: A_SNK, 2: A_SNK, 4: A_SNK},
              [(0, 1), (0, 2), (1, 4)], sat_f=(0,))
    with pytest.raises(ValueError):
        amalgamate(base, [(0, ext0), (1, ext1)])


def test_amalgamate_rejects_edits_outside_cone():
    base = fork_base()
    sneaky = mk(CTX_P, {0: A_SRC, 1: A_SNK, 2: A_SNK, 3: A_SNK},
                [(0, 1), (0, 2), (1, 3)], sat_f=(0,), sat_p=(2,))
    with pytest.raises(ValueError):
        amalgamate(base, [(1, sneaky)])


def test_amalgamate_backward_extensions():
    base = mk(CTX_P, {0: A_SRC, 1: A_SRC, 2: A_SNK},
              [(0, 2), (1, 2)], sat_p=(2,))
    ext0 = mk(CTX_P, {0: A_SRC, 1: A_SRC, 2: A_SNK, 3: A_SRC},
              [(0, 2), (1, 2), (3, 0)], sat_p=(2, 0))
    ext1 = mk(CTX_P, {0: A_SRC, 1: A_SRC, 2: A_SNK, 4: A_SRC},
              [(0, 2), (1, 2), (4, 1)], sat_p=(2, 1))
    out = amalgamate(base, [(0, ext0), (1, ext1)])
    assert out.edges == {(0, 2), (1, 2), (3, 0), (4, 1)}
    assert out.sat_p == {0, 1, 2}


# -- timeouts -----------------------------------------------------------------

Q = Var('q')
FOCUS1 = Sharp(CHI1, (Q,))


def test_timeouts_resolve_by_membership_alone():
    a = atom_with(CTX_CHI1, [FOCUS1, Q])
    n = mk(CTX_CHI1, {0: a})
    tt = compute_timeouts(n)
    assert tt.entries == {(0, 0): 0, (0, 1): 0, (0, 2): 0}
    assert find_defects(n) == [Defect('diaF', 0), Defect('diaB', 0)]


def test_timeouts_unfinished_at_a_bare_node():
    a = atom_with(CTX_CHI1, [FOCUS1], no=[Q, box('F', BOT)])
    n = mk(CTX_CHI1, {0: a})
    tt = compute_timeouts(n)
    assert tt.entries == {(0, 0): None, (0, 1): None, (0, 2): None}
    mu = [d for d in find_defects(n) if d.kind == 'mu']
    assert mu == [Defect('mu', 0, 0), Defect('mu', 0, 1), Defect('mu', 0, 2)]


def test_timeouts_propagate_through_box_families():
    root = atom_with(CTX_CHI1, [FOCUS1, Dia('F', Neg(BOT))],
                     no=[Q, Dia('F', Neg(FOCUS1))])
    leaf = atom_with(CTX_CHI1, [FOCUS1, Q, box('F', BOT), Dia('B', Neg(BOT))],
                     no=[Dia('F', Neg(FOCUS1))])
    labels = {0: root, 1: leaf, 2: leaf, 3: leaf}
    n = mk(CTX_CHI1, labels, [(0, 1), (0, 2), (0, 3)], sat_f=(0,))
    assert validate(n) == []
    tt = compute_timeouts(n)
    assert tt.value(0, 0) == 0      # body resolves through its box branch
    assert tt.value(0, 1) == 0      # [F]x: every family member is done
    assert tt.value(0, 2) == 1      # x waits one unfolding on the body
    for w in (1, 2, 3):
        assert tt.value(w, 0) == 0
        assert tt.value(w, 1) == 0  # escape: the leaf refuses successors
        assert tt.value(w, 2) == 0


def test_timeouts_dia_kind_takes_the_best_successor():
    focus = Sharp(REACH, (Q,))
    root = atom_with(CTX_REACH, [focus, Dia('F', focus)],
                     no=[Q, Dia('F', BOT)])
    good = atom_with(CTX_REACH, [focus, Q, box('F', BOT),
                                 Dia('B', Neg(BOT))])
    # q forces the unfolding and with it the focus, so bad drops q too
    bad = atom_with(CTX_REACH, [box('F', BOT), Dia('B', Neg(BOT))],
                    no=[focus])
    n = mk(CTX_REACH, {0: root, 1: bad, 2: good},
           [(0, 1), (0, 2)], sat_f=(0,))
    tt = compute_timeouts(n)
    assert tt.value(0, 1) == 0      # <F>x picks the successor holding it
    assert tt.value(0, 2) == 1
    assert tt.value(0, 0) == 0
    assert not tt.is_active(1, 2)   # focus absent at the bad successor


def test_timeouts_need_saturation_for_modal_clauses():
    focus = Sharp(REACH, (Q,))
    root = atom_with(CTX_REACH, [focus, Dia('F', focus)],
                     no=[Q, Dia('F', BOT)])
    good = atom_with(CTX_REACH, [focus, Q, box('F', BOT),
                                 Dia('B', Neg(BOT))])
    n = mk(CTX_REACH, {0: root, 1: good}, [(0, 1)])
    tt = compute_timeouts(n)
    assert tt.value(0, 1) is None
    assert tt.value(0, 2) is None
    assert tt.value(1, 2) == 0


def test_timeouts_ignore_non_disjunctive_hosts():
    focus = Sharp(TANGLE, (Q,))
    ctx = ctx_for(focus)
    a = atom_with(ctx, [focus], no=[Q])
    n = mk(ctx, {0: a})
    tt = compute_timeouts(n)
    assert all(v is None for v in tt.entries.values())
    assert tt.entries


def test_finished_values_never_rise_under_growth():
    root = atom_with(CTX_CHI1, [FOCUS1, Dia('F', Neg(BOT))],
                     no=[Q, Dia('F', Neg(FOCUS1))])
    leaf = atom_with(CTX_CHI1, [FOCUS1, Q, box('F', BOT), Dia('B', Neg(BOT))],
                     no=[Dia('F', Neg(FOCUS1))])
    small = mk(CTX_CHI1, {0: root, 1: leaf, 2: leaf, 3: leaf},
               [(0, 1), (0, 2), (0, 3)], sat_f=(0,))
    pre = atom_with(CTX_CHI1, [Dia('F', Neg(BOT))], no=[FOCUS1])
    grown = mk(CTX_CHI1,
               {0: root, 1: leaf, 2: leaf, 3: leaf, 4: pre},
               [(0, 1), (0, 2), (0, 3), (4, 0)], sat_f=(0,))
    assert is_subnetwork(small, grown)
    t1, t2 = compute_timeouts(small), compute_timeouts(grown)
    for pair, v in t1.entries.items():
        if v is not None:
            assert t2.entries[pair] is not None
            assert t2.entries[pair] <= v


# -- serialization ------------------------------------------------------------

def test_network_json_round_trip():
    n = two_chain()
    blob = network_to_json(n)
    again = network_from_json(blob)
    assert again.structure() == n.structure()
    assert json.dumps(blob, sort_keys=True) == json.dumps(
        network_to_json(again), sort_keys=True)


def test_network_json_carries_connectives():
    a = atom_with(CTX_CHI1, [FOCUS1, Q])
    n = mk(CTX_CHI1, {0: a})
    blob = network_to_json(n)
    assert blob['closure']['connectives'] == [
        {'name': 'chi1', 'arity': 1, 'body': '[F]x | q1'}]
    again = network_from_json(blob)
    assert again.structure() == n.structure()
    assert find_defects(again) == find_defects(n)


def test_dot_output_is_stable():
    n = two_chain()
    first = to_dot(n)
    assert first == to_dot(n)
    assert '  n0 -> n1;' in first
    assert first.startswith('digraph network {')
    a = atom_with(CTX_CHI1, [FOCUS1], no=[Q, box('F', BOT)])
    annotated = to_dot(mk(CTX_CHI1, {0: a}))
    assert 'open: 0,1,2' in annotated
