"""Release checks behind `flatmu selftest`.

Eleven semantic gates, each a plain function that sweeps a model universe
or a generated corpus and raises CheckFailed with the first discrepancy.
run_all times the rows and returns CheckResult records for the CLI; a
check that raises anything else fails its own row, and the next one runs.

The exhaustive sweeps (every digraph on up to four states, checks 1-4
and 7) run semantics.eval_bits on semantics.FrameBatch lanes: one lane
per (frame, joint valuation), one frame per isomorphism class, a chunk
of lanes per pass, held as one int of bit planes per truth set.
Failures and anchors still name a frame by its index in the walk over
all sizes and a lane by its valuation index within that frame. Scalar
anchors re-evaluate a stride of lanes on int masks over the lane's own
KripkeModel, which checks what differs between the carriers: the edge
planes, lane decoding, valuation lookup. Checks 2 and 4 pack the random
draw into lanes, one batch per size; checks 1 and 3 run it on int masks.

A mutation hook lets the harness test itself: run_all(mutate=name)
deliberately corrupts one input of the named row, which must then fail.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import or_

from . import MUTATIONS
from .closure import coherent, fl_closure
from .construct import (
    Budget, BudgetExceeded, Stuck, build, extract_model, finish_deferral,
    saturate,
)
from .network import (
    Network, NetworkContext, amalgamate, compute_timeouts, downgen, equp,
    is_anticonfluent, is_down_cofinal, is_subnetwork, restrict, union, upgen,
)
from .semantics import (
    KripkeModel, approximant, axiom_instances, brute_force_sat, eval_bits,
    eval_fixpoint_by_intersection, eval_nabla_via_relation, frame_batches,
    model_lanes,
)
from .syntax import (
    Bottom, Dia, FixpointConnective, Neg, Or, Sharp, Var, and_, box,
    classify_disjunctive, free_vars, guardify, is_guarded, is_positive_in,
    nabla, parse, size, substitute, to_string, top,
)


class CheckFailed(Exception):
    """A release check found a counterexample; the message names it."""


@dataclass(frozen=True)
class CheckResult:
    ident: str
    title: str
    passed: bool
    detail: str
    seconds: float


# ---------------------------------------------------------------------------
# shared fixtures: connectives, formula pools, model universes

def _conn(name, src):
    return FixpointConnective(name, 1, parse(src, {}))


_REACH_F = _conn('rf', 'q | <F>x')
_REACH_B = _conn('rb', 'q | <B>x')
_SAFE_F = _conn('sf', '[F]x | q')
_SAFE_B = _conn('sb', '[B]x | q')
_STAGE_CONNS = (_REACH_F, _REACH_B, _SAFE_F, _SAFE_B)

# twenty formulas over p and q, modal depth up to three, with two
# fixpoint members so the sharp path is exercised end to end
_POOL = (
    parse('p'), parse('q'), parse('~p'), parse('p | q'), parse('p & q'),
    parse('~(p | ~q)'), parse('p -> q'),
    parse('<F>p'), parse('<B>q'), parse('[F]p'), parse('[B]~q'),
    parse('<F><B>p'), parse('[F](p | q)'), parse('<F>(p & ~q)'),
    parse('[B][F]p'), parse('<F>p | <B>q'), parse('<F>[B]p'),
    parse('[F]<F>q'),
    Sharp(_REACH_F, (Var('p'),)), Sharp(_SAFE_B, (Var('q'),)),
)

_AX_POOL = (Var('p'), Var('q'), Dia('F', Var('p')),
            Sharp(_REACH_F, (Var('p'),)))

_HOLE = Var('h')

# the cover-modality reading of diamond and box, both directions
_NABLA_PAIRS = tuple(
    pair for d in ('F', 'B') for pair in (
        (Dia(d, _HOLE), nabla(d, (_HOLE, top()))),
        (box(d, _HOLE), Or(nabla(d, ()), nabla(d, (_HOLE,)))),
    ))

_PSI_SETS = (
    (), (parse('p'),), (parse('q'),),
    (parse('p'), parse('q')),
    (parse('p | q'), parse('~p')),
    (parse('<F>p'), parse('q')),
)

_STAGE_ARGS = (parse('q'), parse('p | q'))


def _batches(names, max_states=4):
    """(offset, batch) over every frame up to max_states states with names
    on lanes, smallest first; offset + a batch's frame index is the
    frame's index in the whole walk."""
    offset = 0
    for n in range(1, max_states + 1):
        for batch in frame_batches(n, names):
            yield offset, batch
        offset += batch.frames.stop


def _anchors(offset, batch, pick):
    """(frame index, lane, position in batch) of each anchor batch holds:
    pick(frame index) names a frame's anchored lane (its valuation
    index), or None for no anchor."""
    for f in batch.frames:
        lane = pick(offset + f)
        i = None if lane is None else batch.index(f, lane)
        if i is not None:
            yield offset + f, lane, i


def _random_draw():
    """The 500 random models in draw order, as (states, model_lanes row)."""
    rng, draw = random.Random(1729), []
    for _ in range(500):
        s = rng.choice((5, 6))
        odds = (0.28,) * (s * s) + (0.5,) * (2 * s)
        draw.append((s, ''.join(['01'[rng.random() < t] for t in odds])))
    return draw


def _random_models():
    return [KripkeModel(n, [divmod(b, n) for b in range(n * n) if r[b] == '1'],
                        {nm: [w for w in range(n) if r[at + w] == '1']
                         for nm, at in (('p', n * n), ('q', n * n + n))})
            for n, r in _random_draw()]


def _sweep(check):
    """check(offset, batch) on every frame up to four states, with p and q
    on lanes, then check(None, batch) per size of the random draw, lane i
    its i-th model of that size. Returns the frames and models it ran."""
    for offset, batch in _batches(('p', 'q')):
        check(offset, batch)
    draw = _random_draw()
    for n in (5, 6):
        check(None, model_lanes(n, 'pq', [row for s, row in draw if s == n]))
    return offset + batch.frames.stop, len(draw)


def _first_split(offset, batch, a, b):
    """(frame index, lane) of the first lane where a and b differ."""
    split = batch.somewhere(a ^ b)
    f, lane = batch.locate((split & -split).bit_length() - 1)
    return offset + f, lane


def _where(offset, m, a, b):
    """Where truth sets a and b split: a frame's lane, or a random model."""
    if offset is None:
        split, n = m.somewhere(a ^ b), m.states
        draw = [k for k, (s, _) in enumerate(_random_draw()) if s == n]
        return 'random model %d (%d states)' % (
            draw[(split & -split).bit_length() - 1], n)
    fi, lane = _first_split(offset, m, a, b)
    return 'frame %d states=%d lane=%d' % (fi, m.states, lane)


def _fail(ident, msg):
    raise CheckFailed('check %s: %s' % (ident, msg))


# ---------------------------------------------------------------------------
# 1. diamond and box against their cover-modality expansions

def check_nabla_equivalences():
    anchors = 0
    for offset, fr in _batches(('p', 'q')):
        memo = {}
        for pi, phi in enumerate(_POOL):
            henv = {'h': eval_bits(phi, fr, None, memo)}
            hmemo = {}
            for lhs, rhs in _NABLA_PAIRS:
                a = eval_bits(lhs, fr, henv, hmemo)
                b = eval_bits(rhs, fr, henv, hmemo)
                if a != b:
                    _fail('1', '%s vs its cover form differ on %s with h = %s'
                          % (to_string(lhs), _where(offset, fr, a, b),
                             to_string(phi)))
            pick = lambda fi: ((fi * 7 + pi) % fr.valuations
                               if (fi * 31 + pi) % 977 == 0 else None)
            for fi, lane, i in _anchors(offset, fr, pick):
                m = fr.model(i)
                for lhs, rhs in _NABLA_PAIRS:
                    sa = eval_bits(substitute(lhs, {'h': phi}), m)
                    sb = eval_bits(substitute(rhs, {'h': phi}), m)
                    va = fr.lane(eval_bits(lhs, fr, henv, hmemo), i)
                    if not sa == sb == va:
                        _fail('1', 'scalar anchor disagrees on frame %d '
                              'lane %d' % (fi, lane))
                    anchors += 1
    randoms = _random_models()
    for m in randoms:
        memo = {}
        for phi in _POOL:
            for lhs, rhs in _NABLA_PAIRS:
                if eval_bits(substitute(lhs, {'h': phi}), m, None, memo) \
                        != eval_bits(substitute(rhs, {'h': phi}), m, None,
                                     memo):
                    _fail('1', 'random %d-state model separates %s from its '
                          'cover form at h = %s'
                          % (m.states, to_string(lhs), to_string(phi)))
    return ('%d frames, %d pool formulas, 4 laws; %d random models scalar; '
            '%d anchors' % (offset + fr.frames.stop, len(_POOL), len(randoms),
                            anchors))


# ---------------------------------------------------------------------------
# 2. axiom instances are valid everywhere

def check_axiom_soundness():
    instances = list(axiom_instances(_AX_POOL))
    if 'corrupt-axiom' in _ACTIVE_MUTATIONS:
        instances[0] = Neg(instances[0])
    anchors = 0

    def valid(offset, m):
        nonlocal anchors
        memo = {}
        for ii, inst in enumerate(instances):
            v = eval_bits(inst, m, None, memo)
            if v != m.full_mask:
                _fail('2', 'instance %d (%s) fails on %s' % (
                    ii, to_string(inst), _where(offset, m, v, m.full_mask)))
            if offset is None:
                continue
            pick = lambda fi: ((fi + ii * 5) % m.valuations
                               if (fi * 13 + ii) % 1381 == 0 else None)
            for fi, lane, i in _anchors(offset, m, pick):
                lm = m.model(i)
                if eval_bits(inst, lm) != lm.full_mask:
                    _fail('2', 'scalar anchor rejects instance %d on frame '
                          '%d lane %d' % (ii, fi, lane))
                anchors += 1

    frames, randoms = _sweep(valid)
    return ('%d instances over a 4-formula pool; %d frames + %d random '
            'models; %d anchors'
            % (len(instances), frames, randoms, anchors))


# ---------------------------------------------------------------------------
# 3. relation-based cover semantics against the expansion

def _vec_cover(members, fr, direction, memo):
    """The full-relation reading on every lane of a FrameBatch at once:
    every neighbour satisfies some member and every member holds at some
    neighbour."""
    vecs = [eval_bits(m, fr, None, memo) for m in members]
    missed = fr.full_mask ^ reduce(or_, vecs, 0)
    lanes, out = fr.somewhere(fr.full_mask), 0
    for w, nb in enumerate(fr.nbr_masks[direction]):
        ok = lanes ^ fr.somewhere(nb & missed)
        for v in vecs:
            ok &= fr.somewhere(nb & v)
        out |= ok << w * len(fr)
    return out


def _via_relation(m, where):
    """eval_nabla_via_relation at every state of m against the expansion;
    returns the number of calls."""
    memo = {}
    for members in _PSI_SETS:
        for d in ('F', 'B'):
            want = eval_bits(nabla(d, members), m, None, memo)
            for w in range(m.states):
                if eval_nabla_via_relation(members, d, m, w) \
                        != bool(want >> w & 1):
                    _fail('3', 'via-relation call differs at state %d of %s'
                          % (w, where))
    return len(_PSI_SETS) * 2 * m.states


def check_nabla_relation():
    api_calls = 0
    for offset, fr in _batches(('p', 'q')):
        memo = {}
        for members in _PSI_SETS:
            for d in ('F', 'B'):
                cov = _vec_cover(members, fr, d, memo)
                exp = eval_bits(nabla(d, members), fr, None, memo)
                if cov != exp:
                    _fail('3', 'cover reading and expansion split on %s, '
                          'members {%s} direction %s'
                          % (_where(offset, fr, cov, exp),
                             ', '.join(map(to_string, members)), d))
        if fr.states <= 3:
            picked = ((offset + f, lane, i) for i, (f, lane)
                      in enumerate(map(fr.locate, range(len(fr)))))
        else:
            picked = _anchors(offset, fr, lambda fi: (
                None if fi % 17 else (fi * 11) % fr.valuations))
        for fi, lane, i in picked:
            api_calls += _via_relation(fr.model(i),
                                       'frame %d lane %d' % (fi, lane))
    for m in _random_models():
        api_calls += _via_relation(m, 'a random %d-state model' % m.states)
    return ('%d member sets x 2 directions on %d frames; %d direct '
            'via-relation calls' % (len(_PSI_SETS), offset + fr.frames.stop,
                                    api_calls))


# ---------------------------------------------------------------------------
# 4. fixpoint stages approximate from below and close at |W|

def check_approximants():
    # (connective, argument) -> stage formulas 1..7 by index, each built
    # on the one before, so that memo lookups hit by identity
    stages = {}
    for chi in _STAGE_CONNS:
        for theta in _STAGE_ARGS:
            forms = [approximant(chi, 0, (theta,))]
            while len(forms) < 7:
                forms.append(chi.instantiate(forms[-1], (theta,)))
            stages[chi, theta] = forms

    def bounded(offset, m):
        for (chi, theta), forms in stages.items():
            memo = {}   # stage formulas hit only within their own pair
            fix = eval_bits(Sharp(chi, (theta,)), m, None, memo)
            outside = m.full_mask ^ fix
            for k, form in enumerate(forms[:6]):
                out = eval_bits(form, m, None, memo) & outside
                if out:
                    _fail('4', 'stage %d of %s(%s) escapes the fixpoint on %s'
                          % (k + 1, chi.name, to_string(theta),
                             _where(offset, m, out, 0)))
            closing = eval_bits(forms[m.states - 1], m, None, memo)
            if closing != fix:
                _fail('4', 'stage %d of %s(%s) misses the fixpoint on %s'
                      % (m.states, chi.name, to_string(theta),
                         _where(offset, m, closing, fix)))

    frames, randoms = _sweep(bounded)
    return ('%d connective-argument pairs, stages 1..6 below and stage |W| '
            'equal, %d frames + %d random models'
            % (len(stages), frames, randoms))


# ---------------------------------------------------------------------------
# 5. Kleene iteration against the prefixpoint intersection

def check_kleene_oracle():
    combos = [(chi, theta) for chi in _STAGE_CONNS
              for theta in (parse('q'), parse('<F>p'))]
    models = 0
    for _, fr in _batches(('p', 'q'), 3):
        for i in range(len(fr)):
            m = fr.model(i)
            models += 1
            memo = {}
            for chi, theta in combos:
                kleene = eval_bits(Sharp(chi, (theta,)), m, None, memo)
                oracle = eval_fixpoint_by_intersection(chi, (theta,), m)
                if kleene != oracle:
                    _fail('5', '%s(%s) splits the two fixpoint routes on a '
                          '%d-state model'
                          % (chi.name, to_string(theta), m.states))
    return ('%d combos on %d models, every subset of each state space '
            'enumerated' % (len(combos), models))


# ---------------------------------------------------------------------------
# 6. the two-way connective pair with no finite model

def check_no_finite_model():
    inner = Sharp(_SAFE_B, (Bottom(),))
    bad = Neg(Sharp(_SAFE_F, (Neg(inner),)))
    hit = brute_force_sat(bad, 4)
    if hit is not None:
        _fail('6', 'found a %d-state model for the formula that must have '
              'no finite model' % hit[0].states)
    sat = brute_force_sat(Sharp(_SAFE_F, (Var('p'),)), 2)
    if sat is None:
        _fail('6', 'no small witness for the satisfiable control formula')
    model, w = sat
    if not eval_bits(Sharp(_SAFE_F, (Var('p'),)), model) >> w & 1:
        _fail('6', 'the returned witness does not satisfy the control '
              'formula')
    return ('unsat confirmed through all frames on up to 4 states; control '
            'witness has %d state(s)' % model.states)


# ---------------------------------------------------------------------------
# 7. guardification: equivalence valid, gamma2 guarded and disjunctive

def _bodies_by_size():
    """Every candidate body up to size 8, smallest first.

    The grammar stays inside the disjunctive fragment on purpose: leaves,
    disjunction, diamonds, and guards conjoined to the left.
    """
    x, q1 = Var('x'), Var('q1')
    level = {1: [Bottom(), x, q1], 2: [top(), Neg(q1)]}
    guards = [q1, Neg(q1)]
    for s in range(3, 9):
        here = list(level.get(s, []))
        for a in level.get(s - 1, []):
            here.append(Dia('F', a))
            here.append(Dia('B', a))
        for sa in range(1, s - 1):
            for a in level.get(sa, []):
                for b in level.get(s - 1 - sa, []):
                    here.append(Or(a, b))
        for g in guards:
            gs = size(g)
            for a in level.get(s - 3 - gs, []):
                here.append(and_(g, a))
        level[s] = here
    for s in range(1, 9):
        yield from level.get(s, [])


def _disjunctive_corpus():
    out, seen = [], set()
    for body in _bodies_by_size():
        if 'x' not in free_vars(body) or not is_positive_in(body, 'x'):
            continue
        key = to_string(body)
        if key in seen:
            continue
        seen.add(key)
        chi = FixpointConnective('g%d' % len(out), 1, body)
        if classify_disjunctive(chi) == 'none':
            continue
        out.append(chi)
        if len(out) == 50:
            return out
    raise AssertionError('corpus generator ran dry at %d bodies' % len(out))


def check_guardification():
    corpus = _disjunctive_corpus()
    splits = []
    for chi in corpus:
        res = guardify(chi)
        if not is_guarded(res.gamma2):
            _fail('7', 'gamma2 of %s is unguarded' % to_string(chi.body))
        if classify_disjunctive(res.gamma2) == 'none':
            _fail('7', 'gamma2 of %s left the disjunctive fragment'
                  % to_string(chi.body))
        splits.append((chi, res.equivalence))
    for offset, fr in _batches(('x', 'q1'), 3):
        memo = {}
        for chi, equivalence in splits:
            v = eval_bits(equivalence, fr, None, memo)
            if v != fr.full_mask:
                _fail('7', 'split of %s is not equivalent on frame %d '
                      '(%d states)' % (to_string(chi.body),
                                       _first_split(offset, fr, v,
                                                    fr.full_mask)[0],
                                       fr.states))
            if fr.states <= 2:
                for i in range(len(fr)):
                    m = fr.model(i)
                    if eval_bits(equivalence, m) != m.full_mask:
                        _fail('7', 'scalar anchor rejects the split of %s'
                              % to_string(chi.body))
    return ('%d generated connectives, body size <= 8; splits valid on %d '
            'frames under all x and q1 valuations'
            % (len(corpus), offset + fr.frames.stop))


# ---------------------------------------------------------------------------
# 8. graph algebra against brute-force recomputation

def _brute_reach(nodes, edges):
    """node -> reflexive reachable set, recomputed by naive expansion."""
    out = {u: {u} for u in nodes}
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            before = len(out[a])
            out[a] |= out[b]
            changed = changed or len(out[a]) != before
    return out


def _brute_anticonfluent(nodes, edges):
    reach = _brute_reach(nodes, edges)
    for v, v2 in product(nodes, repeat=2):
        if v == v2 or v in reach[v2] or v2 in reach[v]:
            continue
        shares_top = any(v in reach[u] and v2 in reach[u] for u in nodes
                         if u not in (v, v2))
        shares_bot = any(w in reach[v] and w in reach[v2] for w in nodes
                         if w not in (v, v2))
        if shares_top and shares_bot:
            return False
    return True


def _grow_network(rng, ctx, max_nodes):
    atoms, sigma = ctx.atoms, ctx.sigma
    label = {0: rng.choice(atoms)}
    edges = set()
    for u in range(1, rng.randint(1, max_nodes)):
        if rng.random() < 0.2:
            label[u] = rng.choice(atoms)
            continue
        parent = rng.randrange(u)
        cands = [a for a in atoms if coherent(label[parent], a, sigma)]
        if not cands:
            label[u] = rng.choice(atoms)
            continue
        label[u] = rng.choice(cands)
        edges.add((parent, u))
    nodes = sorted(label)
    for i, j in product(nodes, repeat=2):
        if i < j and (i, j) not in edges and rng.random() < 0.08 \
                and coherent(label[i], label[j], sigma):
            edges.add((i, j))
    sat = {d: frozenset(u for u in nodes if rng.random() < 0.3)
           for d in ('F', 'B')}
    return Network(ctx, frozenset(edges), label, sat)


def _check_ops_against_brute(n, rng):
    reach = _brute_reach(n.nodes, n.edges)
    back = _brute_reach(n.nodes, {(b, a) for a, b in n.edges})
    for _ in range(3):
        seed = rng.sample(n.nodes, rng.randint(1, len(n.nodes)))
        want_up = set().union(*(reach[u] for u in seed))
        want_dn = set().union(*(back[u] for u in seed))
        if set(upgen(n, seed)) != want_up or set(downgen(n, seed)) != want_dn:
            return 'cone generation differs from naive reachability'
    one = rng.choice(n.nodes)
    if set(upgen(n, one)) != reach[one]:
        return 'singleton cone differs from naive reachability'
    keep = set(rng.sample(n.nodes, rng.randint(1, len(n.nodes))))
    sub = restrict(n, keep)
    want = (frozenset(e for e in n.edges if e[0] in keep and e[1] in keep),
            tuple(sorted((u, n.label[u]) for u in keep)),
            n.sat['F'] & keep, n.sat['B'] & keep)
    if sub.structure() != want:
        return 'restriction differs from the induced-subgraph recomputation'
    half = set(rng.sample(n.nodes, (len(n.nodes) + 1) // 2))
    ra, rb = restrict(n, half), restrict(n, set(n.nodes) - half | {n.nodes[0]})
    glued = union([ra, rb])
    if glued.structure() != (ra.edges | rb.edges,
                             tuple(sorted({**rb.label, **ra.label}.items())),
                             ra.sat['F'] | rb.sat['F'],
                             ra.sat['B'] | rb.sat['B']):
        return 'union differs from componentwise recomputation'
    if is_anticonfluent(n) != _brute_anticonfluent(n.nodes, n.edges):
        return 'anticonfluence votes differ'
    return None


def _shift_fresh(base, ext, offset):
    old = set(base.nodes)
    ren = {u: u + offset for u in ext.nodes if u not in old}
    f = lambda u: ren.get(u, u)
    return Network(ext.ctx, frozenset((f(a), f(b)) for a, b in ext.edges),
                   {f(u): ext.label[u] for u in ext.nodes},
                   {d: frozenset(map(f, ext.sat[d])) for d in ext.sat})


def _amalgam_candidates(rng, ctx):
    base = _grow_network(rng, ctx, 6)
    if not is_anticonfluent(base):
        return None
    heads = [u for u in base.nodes if u not in base.sat['F']]
    rng.shuffle(heads)
    pairs = []
    offset = (max(base.nodes) + 1) * 10
    for u in heads[:2]:
        try:
            ext = saturate(base, u, 'F')
        except Stuck:
            continue
        ext = _shift_fresh(base, ext, offset)
        offset *= 7
        if not is_anticonfluent(ext):
            continue
        if not (is_subnetwork(base, ext) and equp(base, ext, u)
                and is_down_cofinal(base, ext)):
            continue
        pairs.append((u, ext))
    if not pairs:
        return None
    cones = [upgen(ext, u) for u, ext in pairs]
    if len(pairs) == 2 and cones[0] & cones[1]:
        pairs = pairs[:1]
    return base, pairs


def check_network_algebra():
    ctx = NetworkContext(fl_closure(parse('p')))
    rng = random.Random(4021)
    kept = attempts = 0
    while kept < 200:
        attempts += 1
        if attempts > 4000:
            _fail('8', 'generator kept only %d anticonfluent networks in '
                  '%d attempts' % (kept, attempts))
        n = _grow_network(rng, ctx, 10)
        if is_anticonfluent(n) != _brute_anticonfluent(n.nodes, n.edges):
            _fail('8', 'anticonfluence votes differ on attempt %d' % attempts)
        if not _brute_anticonfluent(n.nodes, n.edges):
            continue
        kept += 1
        problem = _check_ops_against_brute(n, rng)
        if problem:
            _fail('8', '%s (network %d)' % (problem, kept))
    glued = tries = 0
    while glued < 100:
        tries += 1
        if tries > 4000:
            _fail('8', 'only %d amalgamation instances in %d tries'
                  % (glued, tries))
        cand = _amalgam_candidates(rng, ctx)
        if cand is None:
            continue
        base, pairs = cand
        out = amalgamate(base, pairs, 'F')
        if not is_anticonfluent(out):
            _fail('8', 'amalgamation result lost anticonfluence')
        if not all(is_subnetwork(ext, out) for _, ext in pairs):
            _fail('8', 'an extension is not contained in the amalgam')
        if not is_down_cofinal(base, out):
            _fail('8', 'the base is not downward cofinal in the amalgam')
        if not equp(base, out, [u for u, _ in pairs]):
            _fail('8', 'the amalgam edits outside the attachment cones')
        glued += 1
    return ('200 anticonfluent networks against brute-force reachability, '
            '%d amalgamations checked' % glued)


# ---------------------------------------------------------------------------
# 9. finished deferrals stay finished under extension

def _extension_pair(rng, ctx):
    base = _grow_network(rng, ctx, 5)
    if not is_anticonfluent(base):
        return None
    mode = rng.randrange(3)
    try:
        if mode < 2:
            direction = 'FB'[mode]
            heads = [u for u in base.nodes if u not in base.sat[direction]]
            if not heads:
                return None
            ext = saturate(base, rng.choice(heads), direction)
        else:
            open_pairs = sorted(pair for pair, steps
                                in compute_timeouts(base).items()
                                if steps is None)
            if not open_pairs:
                return None
            u, did = rng.choice(open_pairs)
            ext = finish_deferral(base, u, did, Budget(60, 4, 4))
    except (Stuck, BudgetExceeded):
        return None
    if not is_subnetwork(base, ext) or base.structure() == ext.structure():
        return None
    return base, ext


def check_stay_finished():
    rng = random.Random(977)
    ctxs = [NetworkContext(fl_closure(parse('p'))),
            NetworkContext(fl_closure(Sharp(_REACH_F, (Var('q'),))))]
    pairs = finished_triples = drops = tries = 0
    while pairs < 100:
        tries += 1
        if tries > 6000:
            _fail('9', 'only %d extension pairs found in %d tries'
                  % (pairs, tries))
        got = _extension_pair(rng, ctxs[tries % len(ctxs)])
        if got is None:
            continue
        base, ext = got
        # ext's own table starts from base's; a parentless copy's does not
        told, tnew = compute_timeouts(base), compute_timeouts(Network(
            ext.ctx, ext.edges, ext.label, ext.sat))
        for (u, did), v in sorted(told.items()):
            if v is None:
                continue
            finished_triples += 1
            if tnew.get((u, did)) is None:
                _fail('9', 'deferral %d at node %d lost its finish under '
                      'extension (pair %d)' % (did, u, pairs))
            if tnew[u, did] > v:
                _fail('9', 'deferral %d at node %d slowed from %d to %d '
                      'under extension'
                      % (did, u, v, tnew[u, did]))
            if tnew[u, did] < v:
                drops += 1
        pairs += 1
    if finished_triples == 0:
        _fail('9', 'the corpus never produced a finished triple')
    return ('%d extension pairs, %d finished triples kept their finish; '
            'timeouts never grew, %d strictly dropped'
            % (pairs, finished_triples, drops))


# ---------------------------------------------------------------------------
# 10. perfect builds induce models of their own labels

def check_truth_lemma():
    targets = (parse('p'), parse('p | <F>q'),
               Sharp(_REACH_F, (Var('q'),)), Sharp(_SAFE_F, (Var('q'),)),
               Sharp(_SAFE_B, (Var('q'),)))
    budget = Budget(200, 6, 8)
    done = skipped = 0
    for origin in targets:
        ctx = NetworkContext(fl_closure(origin))
        took = 0
        for seed in ctx.atoms_by_duty:
            if done == 20 or took == 4:
                break
            report = build(ctx, seed, budget)
            if report.verdict != 'perfect':
                skipped += 1
                continue
            net = report.network
            model = extract_model(net)
            order = {u: i for i, u in enumerate(net.nodes)}
            memo = {}
            for j, f in enumerate(ctx.sigma.formulas):
                mask = eval_bits(f, model, None, memo)
                for u in net.nodes:
                    if net.label[u] >> j & 1 and not mask >> order[u] & 1:
                        _fail('10', '%s is in the label of node %d but '
                              'fails in the induced model (origin %s)'
                              % (to_string(f), u, to_string(origin)))
            done += 1
            took += 1
    if done != 20:
        _fail('10', 'only %d perfect builds available (%d seeds skipped)'
              % (done, skipped))
    return ('20 perfect builds across %d closures, every label formula '
            'true at its node; %d non-perfect seeds skipped'
            % (len(targets), skipped))


# ---------------------------------------------------------------------------
# 11. the build subcommand is a function of its input bytes

def child_env(hash_seed=None):
    """Environment for a `python -m flatmu` child that imports this package.

    The directory holding the package goes first on PYTHONPATH as an
    absolute path, so the child loads the tree the parent imported whatever
    its working directory; the parent's own entries follow. hash_seed, when
    given, is the child's PYTHONHASHSEED.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    rest = env.get('PYTHONPATH')
    env['PYTHONPATH'] = root + os.pathsep + rest if rest else root
    if hash_seed is not None:
        env['PYTHONHASHSEED'] = hash_seed
    return env


def check_cli_determinism():
    # imported here: subprocess and what it loads hold about 0.5 MB in
    # every process that imports this module, and only this check uses it
    import subprocess

    with tempfile.TemporaryDirectory() as tmp:
        defs = os.path.join(tmp, 'defs.json')
        with open(defs, 'w') as fh:
            json.dump([{'name': 'r', 'arity': 1, 'body': 'q | <F>x'}], fh)
        cmd = [sys.executable, '-m', 'flatmu', 'build', '#r(q)',
               '--defs', defs]
        seeds = ('0', '1')
        runs = [subprocess.run(cmd, capture_output=True, cwd=tmp,
                               env=child_env(seed))
                for seed in seeds]
    for seed, run in zip(seeds, runs):
        if run.returncode != 0:
            _fail('11', 'build run under PYTHONHASHSEED=%s failed: %s'
                  % (seed, run.stderr.decode(errors='replace').strip()))
    a, b = runs
    if a.stdout != b.stdout:
        _fail('11', 'two identical build invocations produced different '
              'bytes')
    try:
        json.loads(a.stdout.decode())
    except ValueError:
        _fail('11', 'build output is not JSON')
    return 'two runs, %d output bytes, byte-identical' % len(a.stdout)


# ---------------------------------------------------------------------------
# registry and runner

CHECKS = (
    ('1', 'diamond and box match their cover expansions',
     check_nabla_equivalences),
    ('2', 'axiom instances valid on the model sweep', check_axiom_soundness),
    ('3', 'relation cover semantics matches the expansion',
     check_nabla_relation),
    ('4', 'stages approximate from below and close at |W|',
     check_approximants),
    ('5', 'Kleene route equals the prefixpoint intersection',
     check_kleene_oracle),
    ('6', 'the two-way pair has no small model; the control does',
     check_no_finite_model),
    ('7', 'guardified splits stay equivalent and guarded',
     check_guardification),
    ('8', 'graph algebra agrees with brute force', check_network_algebra),
    ('9', 'finished deferrals survive extension', check_stay_finished),
    ('10', 'perfect builds satisfy their own labels', check_truth_lemma),
    ('11', 'build output is byte-deterministic', check_cli_determinism),
)

_ACTIVE_MUTATIONS = frozenset()


def run_all(only=None, mutate=None):
    """Run the selected checks and return their CheckResult rows.

    only: iterable of check identifiers, None for all of them.
    mutate: name from MUTATIONS; the named corruption is switched on for
    the run and the matching row is expected to fail.
    """
    global _ACTIVE_MUTATIONS
    if mutate is not None and mutate not in MUTATIONS:
        raise ValueError('unknown mutation %r (have: %s)'
                         % (mutate, ', '.join(sorted(MUTATIONS))))
    wanted = None if only is None else {str(x) for x in only}
    _ACTIVE_MUTATIONS = frozenset((mutate,) if mutate else ())
    rows = []
    try:
        for ident, title, fn in CHECKS:
            if wanted is not None and ident not in wanted:
                continue
            start = time.perf_counter()
            try:
                detail = fn()
                passed = True
            except CheckFailed as exc:
                passed, detail = False, str(exc)
            except Exception as exc:
                passed, detail = False, 'check %s raised %s: %s' % (
                    ident, type(exc).__name__, exc)
            rows.append(CheckResult(ident, title, passed, detail,
                                    time.perf_counter() - start))
    finally:
        _ACTIVE_MUTATIONS = frozenset()
    return rows


def format_table(rows):
    width = max(len(r.title) for r in rows) if rows else 0
    lines = []
    for r in rows:
        lines.append('[%s] %2s  %-*s  %7.2fs  %s'
                     % ('ok  ' if r.passed else 'FAIL', r.ident, width,
                        r.title, r.seconds, r.detail))
    good = sum(1 for r in rows if r.passed)
    lines.append('%d/%d checks passed' % (good, len(rows)))
    return '\n'.join(lines)
