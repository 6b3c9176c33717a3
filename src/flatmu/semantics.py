"""Kripke models and formula evaluation.

One evaluator, eval_bits, computes truth sets as bitmasks over states,
on two carriers: Python int masks, or numpy uint32 arrays with one mask
per lane (the selftest sweeps give each joint valuation a lane). The
public eval returns frozensets. Fixpoint connectives are evaluated by
Kleene iteration from the empty set, which converges within |W| rounds
by positivity of the body. numpy is imported only when lanes arrive.
"""

from __future__ import annotations

import json
from functools import cached_property, lru_cache
from itertools import permutations, product

from .syntax import (
    Bottom, Dia, FileShapeError, Neg, Or, Sharp, Var, box, free_vars,
    implies, iff, subformulas,
)


class KripkeModel:
    """Finite model: states 0..n-1, held as per-state successor and
    predecessor masks and a state mask per letter. The edge set and the
    valuation name -> state set are derived when asked for."""

    def __init__(self, states, edges=(), valuation=None):
        if states < 1:
            raise ValueError('a model needs at least one state')
        self.states = states
        self.full_mask = (1 << states) - 1
        succ, pred = [0] * states, [0] * states
        for a, b in [(int(a), int(b)) for a, b in edges]:
            if not (0 <= a < states and 0 <= b < states):
                raise ValueError('edge (%d, %d) out of range' % (a, b))
            succ[a] |= 1 << b
            pred[b] |= 1 << a
        self.succ_mask, self.pred_mask = tuple(succ), tuple(pred)
        self._valuation = {}
        for name, ws in (valuation or {}).items():
            ws = [int(w) for w in ws]
            if not all(0 <= w < states for w in ws):
                raise ValueError('valuation of %s out of range' % name)
            self._valuation[name] = _set_to_mask(ws)

    @cached_property
    def edges(self) -> frozenset:
        return frozenset((a, b) for a, m in enumerate(self.succ_mask)
                         for b in range(self.states) if m >> b & 1)

    @property
    def valuation(self) -> dict:
        return {name: _mask_to_set(mask, self.states)
                for name, mask in self._valuation.items()}

    def valuation_mask(self, name: str) -> int:
        return self._valuation.get(name, 0)

    def to_json(self):
        return {
            'states': self.states,
            'edges': sorted([a, b] for a, b in self.edges),
            'valuation': {name: sorted(ws)
                          for name, ws in sorted(self.valuation.items())},
        }

    @classmethod
    def from_json(cls, obj):
        """The model a JSON object describes. FileShapeError lists every
        shape fault, checked before anything is built."""
        problems = _file_problems(obj)
        if problems:
            raise FileShapeError(problems)
        return cls(obj['states'], [tuple(e) for e in obj.get('edges', [])],
                   obj.get('valuation', {}))

    def __repr__(self):
        return 'KripkeModel(%d states, %d edges)' % (
            self.states, sum(m.bit_count() for m in self.succ_mask))


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _file_problems(obj):
    """What keeps obj from describing a KripkeModel."""
    if not isinstance(obj, dict):
        return ['the file is not a JSON object']
    n = obj.get('states')
    sized = _is_int(n) and n >= 1
    out = [] if sized else ["missing key 'states'" if 'states' not in obj else
                            'states must be an integer >= 1, not %s'
                            % json.dumps(n)]
    where = ' in [0, %d)' % n if sized else ''

    def states_ok(ws):
        return isinstance(ws, list) and all(
            _is_int(w) and (not sized or 0 <= w < n) for w in ws)

    edges, valuation = obj.get('edges', []), obj.get('valuation', {})
    if not isinstance(edges, list):
        out.append('edges must be a list')
        edges = []
    if not isinstance(valuation, dict):
        out.append('valuation must map letters to lists of states')
        valuation = {}
    out += ['edge %s must join two states%s' % (json.dumps(e), where)
            for e in edges if not (states_ok(e) and len(e) == 2)]
    out += ['valuation of %s must list states%s' % (name, where)
            for name, ws in valuation.items() if not states_ok(ws)]
    return out


def _zero(env):
    """The empty truth set in env's carrier: 0, or an all-zero lane array."""
    return next(iter(env.values()), 0) & 0


def _dia_image(direction, arg, model):
    masks = model.succ_mask if direction == 'F' else model.pred_mask
    if isinstance(arg, int):
        out = 0
        for w in range(model.states):
            if masks[w] & arg:
                out |= 1 << w
        return out
    import numpy as np

    # the image of each of the 2^|W| state sets, read at every lane
    sets = np.arange(1 << model.states, dtype=np.uint32)[:, None]
    hit = (sets & np.array(masks, dtype=np.uint32)) != 0
    bits = np.uint32(1) << np.arange(model.states, dtype=np.uint32)
    return (hit @ bits)[arg]


def _same(a, b):
    if isinstance(a, int):
        return a == b
    import numpy as np
    return np.array_equal(a, b)


def eval_bits(formula, model, env=None, _memo=None):
    """Truth set of formula as a bitmask; env overlays the valuation.

    env values are int masks, or numpy uint32 arrays of one mask per lane;
    the result, _|_ included, comes back in that carrier. _memo maps
    formulas to results for this one model and env: share it across
    formulas, never across models or envs. Each fixpoint iteration runs
    its body under a fresh env and so a fresh memo.
    """
    env = env or {}
    memo = {} if _memo is None else _memo
    out = memo.get(formula)
    if out is not None:
        return out
    if isinstance(formula, Bottom):
        out = _zero(env)
    elif isinstance(formula, Var):
        if formula.name in env:
            out = env[formula.name]
        else:
            out = _zero(env) | model.valuation_mask(formula.name)
    elif isinstance(formula, Neg):
        out = model.full_mask & ~eval_bits(formula.child, model, env, memo)
    elif isinstance(formula, Or):
        out = (eval_bits(formula.left, model, env, memo)
               | eval_bits(formula.right, model, env, memo))
    elif isinstance(formula, Dia):
        out = _dia_image(formula.direction,
                         eval_bits(formula.child, model, env, memo), model)
    elif isinstance(formula, Sharp):
        inner = {'q%d' % (k + 1): eval_bits(a, model, env, memo)
                 for k, a in enumerate(formula.args)}
        out = _zero(env)
        for _ in range(model.states + 1):
            inner['x'] = out
            nxt = eval_bits(formula.connective.body, model, inner, {})
            if _same(nxt, out):
                break
            out = nxt
        else:
            raise AssertionError('fixpoint iteration failed to converge')
    else:
        raise TypeError(formula)
    memo[formula] = out
    return out


def _mask_to_set(mask: int, n: int) -> frozenset:
    return frozenset(w for w in range(n) if mask >> w & 1)


def _set_to_mask(ws) -> int:
    return sum(1 << w for w in set(ws))


def eval(formula, model, env=None):
    """States where formula holds. Unvalued variables are false everywhere."""
    env_masks = {name: _set_to_mask(ws) for name, ws in (env or {}).items()}
    return _mask_to_set(eval_bits(formula, model, env_masks), model.states)


def eval_nabla_via_relation(components, direction, model, w) -> bool:
    """Cover semantics at state w: every neighbour satisfies some member,
    every member holds at some neighbour."""
    nbr = (model.succ_mask if direction == 'F' else model.pred_mask)[w]
    union = 0
    for c in components:
        mask = eval_bits(c, model)
        if not nbr & mask:
            return False
        union |= mask
    return not nbr & ~union


def approximant(chi, k: int, thetas):
    """k-th stage of the fixpoint: stage 0 plugs bottom into the body."""
    thetas = tuple(thetas)
    f = chi.instantiate(Bottom(), thetas)
    for _ in range(k):
        f = chi.instantiate(f, thetas)
    return f


def eval_fixpoint_by_intersection(chi, args, model):
    """Least prefixpoint computed as the intersection of all prefixpoints.

    Exponential in |W|; a cross-check for the Kleene route, practical to
    four or five states.
    """
    inner = {'q%d' % (k + 1): eval_bits(a, model) for k, a in enumerate(args)}
    out = model.full_mask
    for z in range(1 << model.states):
        inner['x'] = z
        if eval_bits(chi.body, model, inner) & ~z == 0:
            out &= z
    return _mask_to_set(out, model.states)


def axiom_instances(pool):
    """Classical validities instantiated over a formula pool.

    Emptiness of diamonds, additivity over pairs, the two converse laws,
    and one prefixpoint implication per # subformula found in the pool.
    """
    pool = list(pool)
    out = [Neg(Dia('F', Bottom())), Neg(Dia('B', Bottom()))]
    for d in ('F', 'B'):
        for a in pool:
            for b in pool:
                out.append(iff(Dia(d, Or(a, b)), Or(Dia(d, a), Dia(d, b))))
    for a in pool:
        out.append(implies(a, box('F', Dia('B', a))))
        out.append(implies(a, box('B', Dia('F', a))))
    seen = set()
    for a in pool:
        for sub in subformulas(a):
            if isinstance(sub, Sharp) and sub not in seen:
                seen.add(sub)
                out.append(implies(
                    sub.connective.instantiate(sub, sub.args), sub))
    return out


# ---------------------------------------------------------------------------
# brute-force satisfiability

@lru_cache(maxsize=None)
def _frame_reps(n: int):
    """Edge masks canonical under state permutation, ascending.

    Bit i*n + j stands for the edge (i, j). Only feasible for small n:
    frames() scans the full range beyond four states, so 16-bit masks
    suffice. Edge bits are re-read per permutation, not kept.
    """
    import numpy as np

    size = n * n
    masks = np.arange(1 << size, dtype=np.uint16)
    best = masks.copy()
    for perm in permutations(range(n)):
        if perm == tuple(range(n)):
            continue
        out = np.zeros_like(masks)
        for b in range(size):
            i, j = divmod(b, n)
            bit = (masks >> np.uint16(b)) & np.uint16(1)
            out |= bit << np.uint16(perm[i] * n + perm[j])
        np.minimum(best, out, out=best)
    return tuple(int(m) for m in np.nonzero(best == masks)[0])


def frames(n: int):
    """Every frame on n states, as an edge-only KripkeModel per edge mask.

    Up to four states one frame per isomorphism class (the masks of
    _frame_reps), beyond that every mask; ascending by mask either way.
    Each model is built only when the caller reaches it, so a walk holds
    one frame at a time.
    """
    for mask in _frame_reps(n) if n <= 4 else range(1 << (n * n)):
        yield KripkeModel(n, [divmod(b, n) for b in range(n * n)
                              if mask >> b & 1])


def brute_force_sat(formula, max_states: int):
    """Search models of at most max_states states for a witness.

    Frames come from frames() (up to isomorphism through four states; the
    full frame space beyond), valuations exhaustively over the formula's
    free variables, overlaid on the frame through eval_bits' env. Returns
    the first (model, state) in the fixed enumeration order, or None.
    """
    names = sorted(free_vars(formula))
    for n in range(1, max_states + 1):
        for frame in frames(n):
            for vals in product(range(1 << n), repeat=len(names)):
                sat = eval_bits(formula, frame, dict(zip(names, vals)))
                if sat:
                    model = KripkeModel(n, frame.edges, {
                        name: _mask_to_set(vm, n)
                        for name, vm in zip(names, vals)})
                    return model, (sat & -sat).bit_length() - 1
    return None
