"""Kripke models and formula evaluation.

Truth sets are computed internally as int bitmasks over states; the
public eval returns frozensets. Fixpoint connectives are evaluated by
Kleene iteration from the empty set, which converges within |W| rounds
by positivity of the body.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import permutations, product

from .syntax import (
    Bottom, Dia, Neg, Or, Sharp, Var, box, free_vars, implies, iff,
    subformulas,
)


class KripkeModel:
    """Finite model: states 0..n-1, edge set, valuation name -> state set."""

    def __init__(self, states, edges=(), valuation=None):
        if states < 1:
            raise ValueError('a model needs at least one state')
        self.states = states
        self.edges = frozenset((int(a), int(b)) for a, b in edges)
        for a, b in self.edges:
            if not (0 <= a < states and 0 <= b < states):
                raise ValueError('edge (%d, %d) out of range' % (a, b))
        val = {}
        for name, ws in (valuation or {}).items():
            val[name] = frozenset(int(w) for w in ws)
            for w in val[name]:
                if not 0 <= w < states:
                    raise ValueError('valuation of %s out of range' % name)
        self.valuation = val

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.states) - 1

    @cached_property
    def succ_mask(self):
        out = [0] * self.states
        for a, b in self.edges:
            out[a] |= 1 << b
        return tuple(out)

    @cached_property
    def pred_mask(self):
        out = [0] * self.states
        for a, b in self.edges:
            out[b] |= 1 << a
        return tuple(out)

    def valuation_mask(self, name: str) -> int:
        bits = 0
        for w in self.valuation.get(name, ()):
            bits |= 1 << w
        return bits

    def to_json(self):
        return {
            'states': self.states,
            'edges': sorted([a, b] for a, b in self.edges),
            'valuation': {name: sorted(ws)
                          for name, ws in sorted(self.valuation.items())},
        }

    @classmethod
    def from_json(cls, obj):
        return cls(obj['states'], [tuple(e) for e in obj.get('edges', [])],
                   obj.get('valuation', {}))

    def __repr__(self):
        return 'KripkeModel(%d states, %d edges)' % (self.states, len(self.edges))


def _dia_image(direction, arg_mask, model):
    masks = model.succ_mask if direction == 'F' else model.pred_mask
    out = 0
    for w in range(model.states):
        if masks[w] & arg_mask:
            out |= 1 << w
    return out


def eval_bits(formula, model, env=None, _memo=None):
    """Truth set of formula as a bitmask; env overlays the valuation."""
    env = env or {}
    memo = {} if _memo is None else _memo
    key = (formula, tuple((v, env[v]) for v in sorted(free_vars(formula))
                          if v in env))
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(formula, Bottom):
        out = 0
    elif isinstance(formula, Var):
        if formula.name in env:
            out = env[formula.name]
        else:
            out = model.valuation_mask(formula.name)
    elif isinstance(formula, Neg):
        out = model.full_mask & ~eval_bits(formula.child, model, env, memo)
    elif isinstance(formula, Or):
        out = (eval_bits(formula.left, model, env, memo)
               | eval_bits(formula.right, model, env, memo))
    elif isinstance(formula, Dia):
        out = _dia_image(formula.direction,
                         eval_bits(formula.child, model, env, memo), model)
    elif isinstance(formula, Sharp):
        chi = formula.connective
        inner = dict(env)
        for k, a in enumerate(formula.args):
            inner['q%d' % (k + 1)] = eval_bits(a, model, env, memo)
        z = 0
        for _ in range(model.states + 1):
            inner['x'] = z
            nxt = eval_bits(chi.body, model, inner, memo)
            if nxt == z:
                break
            z = nxt
        else:
            raise AssertionError('fixpoint iteration failed to converge')
        out = z
    else:
        raise TypeError(formula)
    memo[key] = out
    return out


def _mask_to_set(mask: int, n: int) -> frozenset:
    return frozenset(w for w in range(n) if mask >> w & 1)


def eval(formula, model, env=None):
    """States where formula holds. Unvalued variables are false everywhere."""
    env_masks = None
    if env:
        env_masks = {}
        for name, ws in env.items():
            bits = 0
            for w in ws:
                bits |= 1 << w
            env_masks[name] = bits
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
