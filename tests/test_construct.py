import json

import pytest

from flatmu.closure import atom_formulas, fl_closure
from flatmu.network import (
    Network, NetworkContext, compute_timeouts, find_defects, is_subnetwork,
    validate,
)
from flatmu.construct import (
    Budget, BudgetExceeded, Stuck, build, extract_model, finish_deferral,
    repair_all, saturate,
)
from flatmu.semantics import eval
from flatmu.syntax import (
    Bottom, Dia, FixpointConnective, Neg, Sharp, Var, box, parse,
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
    return Network(ctx, tuple(labels), frozenset(edges), dict(labels),
                   frozenset(sat_f), frozenset(sat_p))


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
    assert out.sat_f == {0}
    assert out.sat_p == frozenset()


def test_saturate_forward_reuses_existing_witnesses():
    kid = atom_with(CTX_P, [Neg(P), Dia('B', Neg(BOT))])
    n = mk(CTX_P, {0: A_SRC, 1: kid}, [(0, 1)])
    out = saturate(n, 0, 'F')
    assert out.nodes == n.nodes
    assert out.edges == n.edges
    assert out.sat_f == {0}


def test_saturate_tops_up_reused_groups_to_multiplicity():
    # chi1 has three deferrals, so families need three copies
    assert CTX_CHI1.table.multiplicity == 3
    u = atom_with(CTX_CHI1, [FOCUS1, Dia('F', Neg(BOT))],
                  no=[Dia('F', Neg(FOCUS1))])
    kid = next(b for b in CTX_CHI1.atoms if CTX_CHI1.coherent(u, b))
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
    assert out.sat_p == {0}
    assert CTX_P.coherent(out.label[1], A_SNK)


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
    assert 0 in out.sat_f
    tt = compute_timeouts(out)
    # the unfolding chain: x steps to the body, the body rides its box
    assert tt.value(0, 0) == tt.value(0, 1)
    assert tt.value(0, 2) == tt.value(0, 0) + 1
    assert finish_deferral(out, 0, 2) is out


def test_finish_is_a_no_op_when_the_label_already_escapes():
    withq = atom_with(CTX_CHI1, [FOCUS1, Q])
    n = mk(CTX_CHI1, {0: withq})
    assert finish_deferral(n, 0, 2) is n
    assert compute_timeouts(n).value(0, 2) == 0


def test_finish_rejects_inactive_pairs():
    plain = atom_with(CTX_CHI1, [], no=[FOCUS1])
    n = mk(CTX_CHI1, {0: plain})
    with pytest.raises(ValueError):
        finish_deferral(n, 0, 2)


def test_finish_raises_stuck_without_a_disjunctive_reading():
    ctx = ctx_for(Sharp(TANGLE, (Q,)))
    focus = Sharp(TANGLE, (Q,))
    n = mk(ctx, {0: atom_with(ctx, [focus], no=[Q])})
    active = [did for did in range(len(ctx.table))
              if compute_timeouts(n).is_active(0, did)]
    assert active
    with pytest.raises(Stuck):
        finish_deferral(n, 0, active[0])


def test_finish_backward_connective_grows_predecessors():
    table = CTX_CHIB.table
    x_did = next(did for did in range(len(table))
                 if table.deferrals[did].body_part == Var('x'))
    assert table.direction(x_did) == 'B'
    seed = atom_with(CTX_CHIB, [FOCUSB, Dia('B', Neg(BOT))],
                     no=[Q, Dia('B', Neg(FOCUSB))])
    n = mk(CTX_CHIB, {0: seed})
    out = finish_deferral(n, 0, x_did)
    assert len(out.nodes) > 1
    assert all(b == 0 for _, b in out.edges)
    assert 0 in out.sat_p
    assert compute_timeouts(out).finished(0, x_did)


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
    assert n.sat_f == {0, 1} and n.sat_p == {0, 1}
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
            assert order[u] in eval(f, model), (u, f)


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
    assert not CTX_REACH.doomed(seed)
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
    seed = next(a for a in ctx.atoms if a >> fi & 1 and not ctx.doomed(a))
    report = build(ctx, seed)
    assert report.verdict == 'stuck'
    assert 'disjunctive' in report.detail
    assert report.radius == -1  # the failing round is rolled back whole


def test_build_reports_radius_when_nodes_run_out():
    report = build(CTX_CHI1, chi1_seed(), Budget(max_nodes=3))
    assert report.verdict == 'radius'
    assert 'budget' in report.detail
    assert report.radius == -1


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
