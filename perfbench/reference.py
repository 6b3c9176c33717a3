"""Set-based reference evaluator used to check the program's answers.

It shares no code with flatmu.semantics: truth sets are Python sets of
states, neighbourhoods are dicts of sets, and formula nodes are dispatched
by class name, so the module imports nothing from the package under test.
Fixpoint connectives are least fixpoints reached by Kleene iteration from
the empty set; the result is checked to be a fixpoint before it is
returned.
"""

from __future__ import annotations


class Model:
    """States 0..n-1, a directed edge set and a valuation of letters."""

    def __init__(self, states, edges=(), valuation=None):
        self.states = frozenset(range(states))
        self.succ = {w: set() for w in self.states}
        self.pred = {w: set() for w in self.states}
        for a, b in edges:
            self.succ[a].add(b)
            self.pred[b].add(a)
        self.valuation = {name: frozenset(ws)
                          for name, ws in (valuation or {}).items()}

    @classmethod
    def from_json(cls, obj):
        """Read the {"states", "edges", "valuation"} form of a model."""
        return cls(obj['states'], [tuple(e) for e in obj.get('edges', [])],
                   obj.get('valuation', {}))


def truth_set(formula, model, env=None):
    """The states of model where formula holds, as a frozenset.

    env maps variable names to state sets and overrides the valuation;
    connective bodies read x and q1..qn from it.
    """
    env = env or {}
    kind = type(formula).__name__
    if kind == 'Bottom':
        return frozenset()
    if kind == 'Var':
        if formula.name in env:
            return env[formula.name]
        return model.valuation.get(formula.name, frozenset())
    if kind == 'Neg':
        return model.states - truth_set(formula.child, model, env)
    if kind == 'Or':
        return (truth_set(formula.left, model, env)
                | truth_set(formula.right, model, env))
    if kind == 'Dia':
        inner = truth_set(formula.child, model, env)
        nbrs = model.succ if formula.direction == 'F' else model.pred
        return frozenset(w for w in model.states if nbrs[w] & inner)
    if kind == 'Sharp':
        return _least_fixpoint(formula, model, env)
    raise TypeError('unknown formula node %r' % kind)


def _least_fixpoint(formula, model, env):
    inner = dict(env)
    for k, arg in enumerate(formula.args):
        inner['q%d' % (k + 1)] = truth_set(arg, model, env)
    body = formula.connective.body
    current = frozenset()
    for _ in range(len(model.states) + 1):
        inner['x'] = current
        nxt = truth_set(body, model, inner)
        if nxt == current:
            return current
        if not current <= nxt:
            raise ValueError('connective body is not monotone')
        current = nxt
    raise ValueError('fixpoint iteration did not converge')


def holds(formula, model, state):
    return state in truth_set(formula, model)
