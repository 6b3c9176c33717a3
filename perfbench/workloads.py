"""The four workloads: seeded inputs, one operation, and the answer checks.

A workload prepares one round of operations from a seed (that is the
set-up the benchmark times), runs one operation at a time, and checks
each answer of the first round against the reference evaluator and the
expected-outputs file. Imported only inside a workload child, after the
child has timed `import flatmu.cli`.
"""

from __future__ import annotations

import hashlib
import json
import random
from contextlib import nullcontext

from flatmu import acceptance, closure, construct, network, semantics, syntax

import reference

CONNECTIVES = (
    {'name': 'rf', 'arity': 1, 'body': 'q | <F>x'},
    {'name': 'rb', 'arity': 1, 'body': 'q | <B>x'},
    {'name': 'sf', 'arity': 1, 'body': '[F]x | q'},
    {'name': 'sb', 'arity': 1, 'body': '[B]x | q'},
)

# the CLI default of `flatmu build`
BUDGET = construct.Budget(200, 6, 8)

# (formula, how many of its candidate seeds): None takes them all, as
# `flatmu build --all` does; a number takes the cheapest seeds in
# atoms_by_duty order. The pool is kept to about a second per round so
# that each seed is built several times in a run.
BUILD_CORPUS = (
    ('#rf(p)', None),
    ('#sf(p)', 8),
    ('#sb(<F>p)', 9),
    ('#rf(p) & #rb(q)', 7),
    ('#sf(q) & #rf(p)', 9),
    ('#rf(p) & #rb(p) & #rf(q)', 3),
)

MODELCHECK_POOL = (
    '#rf(#sb(p)) & #rb(#sf(q))',
    '#sf(#rb(p) | q)',
    '#rb(<F>#sf(~p))',
    '#sb(#rf(q) & p)',
    '[F]#rf(p) | <B>#sb(q)',
    '#rf(p & <F>#rb(q))',
    '~#sf(~#sb(p))',
    '#rb(#rf(p) & ~q)',
)
MODELS_PER_ROUND = 300
MODEL_STATES = (8, 32)
MODEL_OUT_DEGREE = 2.5

SAT_QUERIES = 12
SAT_LETTERS = 'abcdefghijklmnop'
# the paper's two-way pair: no finite model
TWO_WAY_PAIR = '~#sf(~#sb(_|_))'
SAT_CONTRADICTIONS = (
    '{a} & <{d}>~{a} & [{d}]{a}',
    '<{d}>{a} & [{d}]~{a}',
    '<{d}><{e}>{a} & [{d}][{e}]~{a}',
)


class Raised:
    """The outcome of an operation that raised instead of answering."""

    def __init__(self, exc):
        self.text = '%s: %s' % (type(exc).__name__, exc)


class Batch:
    """One round of operations and how to judge their answers.

    run(item) performs one operation. check(index, answer) is called once
    for each operation of the first round, outside the timed region, and
    says what is wrong with the answer (None when nothing is); digest(answer)
    is the text every later round must repeat. summary() is called after
    the loop and returns what only the whole first round can show:
    {"wrong": {index: message}, "facts": {...}, "record": {...}}, where
    record holds this round's entries of the expected-outputs file.

    order(round) is the order of the operations in a round: items order,
    or, given a shuffle seed, a fresh shuffle for every round after the
    first. Where operations do not depend on each other, shuffling makes
    what depends on position (when the garbage collector runs, which
    operation follows which) fall on different operations in each round,
    and the median over rounds leaves it out.
    """

    def __init__(self, items, run, digest, check, summary=None,
                 shuffle=None):
        self.items = items
        self.run = run
        self.digest = digest
        self.check = check
        self.summary = summary or dict
        self.shuffle = shuffle

    def order(self, round_index):
        indices = list(range(len(self.items)))
        if self.shuffle is not None and round_index:
            random.Random('%d %d' % (self.shuffle, round_index)).shuffle(
                indices)
        return indices


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def connectives():
    return syntax.connectives_from_json(list(CONNECTIVES))


def _no_span(name):
    return nullcontext()


# ---------------------------------------------------------------------------
# build: construct.build on (formula, seed atom) pairs

def prepare_build(seed, expected, span=_no_span):
    conns = connectives()
    items = []
    contexts = []
    for text, take in BUILD_CORPUS:
        f = syntax.parse(text, conns)
        sigma = closure.fl_closure(f)
        ctx = network.NetworkContext(sigma)
        with span('network.atoms_by_duty'):
            by_duty = ctx.atoms_by_duty
        contexts.append(ctx)
        fi = sigma.index_of(f)
        seeds = [a for a in by_duty if a >> fi & 1]
        items.extend((text, f, ctx, atom) for atom in seeds[:take])
    random.Random(seed).shuffle(items)
    want = expected.get('build', {})
    reports = {}     # index -> report JSON of the first round

    def run(item):
        return construct.build(item[2], item[3], BUDGET)

    def digest(report):
        if isinstance(report, Raised):
            return report.text
        return json.dumps(report.to_json(), sort_keys=True)

    def check(i, report):
        text, f, _, atom = items[i]
        problem = _check_report(f, report)
        if problem is None:
            reports[i] = report.to_json()
            verdict = want.get(text, {}).get('verdicts', {}).get(str(atom))
            if report.verdict != verdict:
                problem = 'verdict %s, expected %s' % (report.verdict, verdict)
        return None if problem is None else '%s seed %d: %s' % (
            text, atom, problem)

    def summary():
        by_formula = {}
        for i, (text, f, _, atom) in enumerate(items):
            by_formula.setdefault(text, (f, []))[1].append((atom, i))
        wrong, record = {}, {}
        for text, (f, runs) in by_formula.items():
            if any(i not in reports for _, i in runs):
                continue
            # the bytes `flatmu build --all` prints for these seeds
            printed = json.dumps(
                {'formula': syntax.to_string(f),
                 'runs': [{'atom': a, 'report': reports[i]}
                          for a, i in sorted(runs)]},
                indent=2, sort_keys=True) + '\n'
            record[text] = {
                'verdicts': {str(a): reports[i]['verdict'] for a, i in runs},
                'sha256': sha256(printed)}
            if record[text]['sha256'] != want.get(text, {}).get('sha256'):
                wrong.update((i, '%s: report bytes differ from the expected '
                                 'sha256' % text) for _, i in runs)
        done = list(reports.values())
        perfect = [r for r in done if r['verdict'] == 'perfect']
        verdicts = {}
        for r in done:
            verdicts[r['verdict']] = verdicts.get(r['verdict'], 0) + 1
        facts = {
            'perfect_share': len(perfect) / len(items),
            'witness_nodes': _mean([len(r['network']['nodes'])
                                    for r in perfect]),
            'nodes_final': _mean([len(r['network']['nodes']) for r in done]),
            'verdicts': verdicts,
            'closure_size': sum(len(ctx.sigma) for ctx in contexts),
            'atoms': sum(len(ctx.atoms) for ctx in contexts),
            'viable_atoms': sum(len(ctx.atoms_by_duty) for ctx in contexts),
        }
        return {'wrong': wrong, 'facts': facts, 'record': {'build': record}}

    return Batch(items, run, digest, check, summary, shuffle=seed)


def _mean(values):
    return sum(values) / len(values) if values else 0


def _check_report(f, rep):
    """Why a build answer is wrong on its own terms, or None."""
    if isinstance(rep, Raised):
        return 'raised ' + rep.text
    if rep.verdict != 'perfect':
        return None
    net = rep.network
    problems = network.validate(net)
    if problems:
        return 'perfect network fails validate: %s' % problems[0]
    if network.find_defects(net):
        return 'perfect network has defects'
    model = reference.Model.from_json(construct.extract_model(net).to_json())
    if not reference.holds(f, model, net.nodes.index(0)):
        return 'formula false at the seed node of the extracted model'
    return None


# ---------------------------------------------------------------------------
# modelcheck: semantics.eval_bits, every pool formula on every model

def _random_model(rng, states):
    edges = [(i, j) for i in range(states) for j in range(states)
             if rng.random() < MODEL_OUT_DEGREE / states]
    valuation = {name: [w for w in range(states) if rng.random() < 0.5]
                 for name in ('p', 'q')}
    return states, edges, valuation


def prepare_modelcheck(seed, expected, span=_no_span):
    conns = connectives()
    pool = [syntax.parse(text, conns) for text in MODELCHECK_POOL]
    rng = random.Random(seed)
    low, high = MODEL_STATES
    raw = [_random_model(rng, low + (high - low) * k
                         // (MODELS_PER_ROUND - 1))
           for k in range(MODELS_PER_ROUND)]
    models = [semantics.KripkeModel(*spec) for spec in raw]
    items = [(k, j) for k in range(len(models)) for j in range(len(pool))]
    memo = {}

    def run(item):
        k, j = item
        if j == 0:
            memo.clear()
        return semantics.eval_bits(pool[j], models[k], None, memo)

    def digest(mask):
        return mask.text if isinstance(mask, Raised) else str(mask)

    refs = {}

    def check(i, mask):
        if isinstance(mask, Raised):
            return 'raised ' + mask.text
        k, j = items[i]
        if k not in refs:
            # one model at a time: the checker's memory stays out of the
            # peak resident memory of the run
            refs.clear()
            refs[k] = reference.Model(*raw[k])
        want = reference.truth_set(pool[j], refs[k])
        got = {w for w in range(raw[k][0]) if mask >> w & 1}
        if got != want:
            return '%s on model %d: states %s, reference %s' % (
                MODELCHECK_POOL[j], k, sorted(got), sorted(want))
        return None

    return Batch(items, run, digest, check)


# ---------------------------------------------------------------------------
# sat: semantics.brute_force_sat on queries whose answer is known

def max_states(f):
    """Frame sizes searched: 4 without letters, 3 with one or two."""
    return 4 if not syntax.free_vars(f) else 3


def _random_formula(rng, letters, conns, depth):
    if depth == 0 or rng.random() < 0.25:
        return syntax.Var(rng.choice(letters))
    pick = rng.randrange(6)
    sub = _random_formula(rng, letters, conns, depth - 1)
    if pick == 0:
        return syntax.Neg(sub)
    if pick == 1:
        return syntax.Dia(rng.choice('FB'), sub)
    if pick == 2:
        return syntax.box(rng.choice('FB'), sub)
    if pick == 3:
        return syntax.Sharp(conns[rng.choice(sorted(conns))], (sub,))
    other = _random_formula(rng, letters, conns, depth - 1)
    if pick == 4:
        return syntax.Or(sub, other)
    return syntax.and_(sub, other)


def sat_query(index, conns):
    """Satisfiable query number index: a random formula, or its negation
    when the formula is false on every state of a random model of one or
    two states."""
    rng = random.Random(index)
    letters = ('p',) if index % 2 else ('p', 'q')
    f = _random_formula(rng, letters, conns, 3)
    model = reference.Model(*_random_model(rng, rng.randint(1, 2)))
    if not reference.truth_set(f, model):
        f = syntax.Neg(f)
    return f


def _contradiction(template, d, conns):
    e = 'B' if d == 'F' else 'F'
    return syntax.parse(template.format(a='p', d=d, e=e), conns)


def _axiom_queries(conn):
    pool = [syntax.Sharp(conn, (syntax.Var('p'),))]
    return [('unsat', syntax.Neg(inst))
            for inst in semantics.axiom_instances(pool)]


def sat_universe(conns):
    """(kind, formula) of every query a round can draw, over p and q."""
    out = []
    for name in sorted(conns):
        out += _axiom_queries(conns[name])
    out.append(('unsat', syntax.parse(TWO_WAY_PAIR, conns)))
    out += [('unsat', _contradiction(t, d, conns))
            for t in SAT_CONTRADICTIONS for d in 'FB']
    out += [('sat', sat_query(k, conns)) for k in range(SAT_QUERIES)]
    return _unique(out)


def _unique(queries):
    """queries without repeats (connectives share their emptiness axioms)."""
    seen = {}
    for kind, f in queries:
        seen.setdefault(_key(f), (kind, f))
    return list(seen.values())


def sat_round(seed, conns):
    """(kind, formula over p and q, letters to run it over) for one round.

    A round is the whole query universe. The seed picks, for each query,
    two letters for p and q in the same alphabetical order (so the search
    visits the same models), and the order of the round. The queries
    themselves are fixed: their costs span a factor of ten, so a seeded
    subset would make the figures depend on the draw more than on the code.
    """
    rng = random.Random(seed)
    items = []
    for kind, f in sat_universe(conns):
        a, b = sorted(rng.sample(SAT_LETTERS, 2))
        items.append((kind, f, {'p': a, 'q': b}))
    rng.shuffle(items)
    return items


def _key(f):
    return '%d %s' % (max_states(f), syntax.to_string(f))


def _witness_json(hit, names=None):
    """The `flatmu sat` answer, with letters renamed back by names."""
    model, state = hit
    obj = model.to_json()
    if names:
        obj['valuation'] = {names.get(k, k): v
                            for k, v in obj['valuation'].items()}
    return json.dumps({'model': obj, 'state': state}, sort_keys=True)


def prepare_sat(seed, expected, span=_no_span):
    conns = connectives()
    if seed is None:
        rounds = [(kind, f, {'p': 'p', 'q': 'q'})
                  for kind, f in sat_universe(conns)]
    else:
        rounds = sat_round(seed, conns)
    items = []
    for kind, f, letters in rounds:
        run_f = syntax.substitute(f, {p: syntax.Var(x)
                                      for p, x in letters.items()})
        back = {x: p for p, x in letters.items()}
        items.append((kind, run_f, max_states(f), _key(f), back))
    # frame representatives are cached per process; a first query should
    # not pay for them
    semantics.brute_force_sat(syntax.Bottom(), 4)

    def run(item):
        return semantics.brute_force_sat(item[1], item[2])

    def digest(hit):
        if isinstance(hit, Raised):
            return hit.text
        return 'none' if hit is None else _witness_json(hit)

    want = expected.get('sat', {})
    entries = {}

    def check(i, hit):
        kind, f, _, key, back = items[i]
        if isinstance(hit, Raised):
            return '%s raised %s' % (key, hit.text)
        entries[key] = _sat_entry(hit, back)
        if kind == 'unsat' and hit is not None:
            return '%s: found a model of an unsatisfiable query' % key
        if kind == 'sat' and hit is None:
            return '%s: no model for a satisfiable query' % key
        if hit is not None and not reference.holds(
                f, reference.Model.from_json(hit[0].to_json()), hit[1]):
            return '%s: the witness does not satisfy it' % key
        if entries[key] != want.get(key):
            return '%s: answer differs from the expected output' % key
        return None

    def summary():
        return {'record': {'sat': entries}}

    return Batch(items, run, digest, check, summary, shuffle=seed)


def _sat_entry(hit, names):
    if hit is None:
        return {'verdict': 'unsat'}
    return {'verdict': 'sat',
            'witness_sha256': sha256(_witness_json(hit, names))}


# ---------------------------------------------------------------------------
# sweep: selftest row 4 over every frame up to four states

def prepare_sweep(seed, expected, span=_no_span):
    items = ['4']

    def run(item):
        return acceptance.run_all(only={item})

    def digest(rows):
        if isinstance(rows, Raised):
            return rows.text
        return json.dumps([[r.ident, r.passed, r.detail] for r in rows])

    want = expected.get('sweep', {}).get('detail')
    record = {}

    def check(i, rows):
        if isinstance(rows, Raised):
            return 'raised ' + rows.text
        if len(rows) != 1 or not rows[0].passed:
            return 'row 4 failed: %s' % (rows[0].detail if rows else
                                         'it did not run')
        record['sweep'] = {'detail': rows[0].detail}
        if rows[0].detail != want:
            return 'row 4 detail string changed: %s' % rows[0].detail
        return None

    def summary():
        return {'record': record}

    return Batch(items, run, digest, check, summary)


PREPARE = {
    'build': prepare_build,
    'modelcheck': prepare_modelcheck,
    'sat': prepare_sat,
    'sweep': prepare_sweep,
}
