"""Kripke models and formula evaluation.

One evaluator, eval_bits, computes truth sets as bitmasks over states, on
two carriers. On a KripkeModel they are Python int masks. On a FrameBatch
they are numpy uint8 arrays with one mask per lane, where a lane is one
frame (up to isomorphism, at most four states) under one joint valuation:
the brute-force search, over all its sizes at once, and the selftest sweeps,
one size at a time, evaluate CHUNK lanes per numpy pass. The carrier answers
<d> (image) and whether two truth sets are equal (same). Fixpoint
connectives are evaluated by Kleene iteration from the empty set, which
converges within |W| rounds by positivity of the body; each round runs the
connective's plan. numpy is imported only when lanes arrive.
"""

from __future__ import annotations

import json
import operator
from functools import cached_property, lru_cache
from itertools import permutations

from .syntax import (
    CONVERSE, Bottom, Dia, FileShapeError, Neg, Or, Sharp, Var, box,
    free_vars, implies, iff, is_int, subformulas,
)


class KripkeModel:
    """Finite model: states 0..n-1, held as per-state neighbour masks per
    direction (successors under 'F', predecessors under 'B') and a state
    mask per letter. The edge set and the valuation name -> state set are
    derived when asked for."""

    zero = 0

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
        self.nbr_masks = {'F': tuple(succ), 'B': tuple(pred)}
        self._valuation = {}
        for name, ws in (valuation or {}).items():
            ws = [int(w) for w in ws]
            if not all(0 <= w < states for w in ws):
                raise ValueError('valuation of %s out of range' % name)
            self._valuation[name] = _set_to_mask(ws)

    @cached_property
    def edges(self) -> frozenset:
        return frozenset((a, b) for a, m in enumerate(self.nbr_masks['F'])
                         for b in range(self.states) if m >> b & 1)

    @property
    def valuation(self) -> dict:
        return {name: _mask_to_set(mask, self.states)
                for name, mask in self._valuation.items()}

    def valuation_mask(self, name: str) -> int:
        return self._valuation.get(name, 0)

    def image(self, direction, arg):
        """<d>: the states with a d-neighbour in arg."""
        masks, out = self.nbr_masks[CONVERSE[direction]], 0
        while arg:
            low = arg & -arg
            out |= masks[low.bit_length() - 1]
            arg ^= low
        return out

    same = staticmethod(operator.eq)

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
            self.states, sum(m.bit_count() for m in self.nbr_masks['F']))


# The most states a model file may declare. Each state's successor and
# predecessor sets are int masks of up to that many bits, so a model can
# take states^2 / 4 bytes: 64 MB here. The bound is checked before
# anything is allocated.
MAX_STATES = 1 << 14


def _file_problems(obj):
    """What keeps obj from describing a KripkeModel."""
    if not isinstance(obj, dict):
        return ['the file is not a JSON object']
    n = obj.get('states')
    if 'states' not in obj:
        out = ["missing key 'states'"]
    elif not (is_int(n) and n >= 1):
        out = ['states must be an integer >= 1, not %s' % json.dumps(n)]
    elif n > MAX_STATES:
        out = ['states must be at most %d, not %d' % (MAX_STATES, n)]
    else:
        out = []
    sized = not out
    where = ' in [0, %d)' % n if sized else ''

    def states_ok(ws):
        return isinstance(ws, list) and all(
            is_int(w) and (not sized or 0 <= w < n) for w in ws)

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


def eval_bits(formula, model, env=None, _memo=None):
    """Truth set of formula as a bitmask; env overlays the valuation.

    model is a KripkeModel (int masks) or a FrameBatch (numpy uint8
    lanes); env values and the result are in the model's carrier. _memo
    maps formulas to results for this one model and env: share it across
    formulas, never across models or envs. A connective's body runs as
    its plan, over slots, and never reads or fills the memo.
    """
    env = env or {}
    memo = {} if _memo is None else _memo
    out = memo.get(formula)
    if out is not None:
        return out
    if isinstance(formula, Bottom):
        out = model.zero
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
        out = model.image(formula.direction,
                          eval_bits(formula.child, model, env, memo))
    elif isinstance(formula, Sharp):
        body, steps = formula.connective.plan
        slots = [model.zero, *(eval_bits(a, model, env, memo)
                               for a in formula.args), model.zero]
        fixed, out = len(slots), model.zero
        for _ in range(model.states + 1):
            slots[0] = out
            del slots[fixed:]
            for op, a, b in steps:
                if op == 'or':
                    slots.append(slots[a] | slots[b])
                elif op == 'dia':
                    slots.append(model.image(a, slots[b]))
                else:
                    slots.append(model.full_mask & ~slots[a])
            if model.same(slots[body], out):
                break
            out = slots[body]
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


def eval_nabla_via_relation(components, direction, model, w) -> bool:
    """Cover semantics at state w: every neighbour satisfies some member,
    every member holds at some neighbour."""
    nbr = model.nbr_masks[direction][w]
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
    """Least prefixpoint computed as the intersection of all prefixpoints,
    as a state mask.

    Exponential in |W|; a cross-check for the Kleene route, practical to
    four or five states.
    """
    inner = {'q%d' % (k + 1): eval_bits(a, model) for k, a in enumerate(args)}
    out = model.full_mask
    for z in range(1 << model.states):
        inner['x'] = z
        if eval_bits(chi.body, model, inner) & ~z == 0:
            out &= z
    return out


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
    """Edge masks canonical under state permutation, ascending, as a
    read-only uint16 array.

    Bit i*n + j stands for the edge (i, j). Only feasible for small n:
    16-bit masks cover four states. Edge bits are re-read per permutation,
    not kept.
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
    reps = masks[best == masks]
    reps.flags.writeable = False
    return reps


@lru_cache(maxsize=None)
def _lane_space(smallest: int, states: int, letters: int):
    """The frames on smallest..states states under that many letters, as
    (sizes, images). sizes holds (size, first lane, first frame, first
    image-table row, end lane) per size. images holds per direction the
    flat <d> image table: each size's table end to end, where in size
    n's table entry frame * 2^n + S is the set of states with a
    d-neighbour in the state set S of frame _frame_reps(n)[frame]."""
    import numpy as np

    sizes, images, lane, frame, row = [], {'F': [], 'B': []}, 0, 0, 0
    for n in range(smallest, states + 1):
        reps = _frame_reps(n)
        sizes.append((n, lane, frame, row, lane + (len(reps) << n * letters)))
        lane, frame, row = sizes[-1][4], frame + len(reps), \
            row + (len(reps) << n)
        succ = [reps >> i * n & (1 << n) - 1 for i in range(n)]
        pred = [np.bitwise_or.reduce([(reps >> i * n + j & 1) << i
                                      for i in range(n)]) for j in range(n)]
        for d, toward in (('F', pred), ('B', succ)):
            # the image of S is the union of toward[v] over v in S, built
            # one state set at a time from S less its lowest state
            table = np.zeros((len(reps), 1 << n), dtype=np.uint8)
            for s in range(1, 1 << n):
                low = s & -s
                table[:, s] = table[:, s ^ low] | toward[low.bit_length() - 1]
            images[d].append(table.ravel())
    for d, tables in images.items():
        images[d] = np.concatenate(tables)
        images[d].flags.writeable = False
    return tuple(sizes), images


# Lanes per numpy pass: a batch holds a byte per lane for each live
# subformula, and numpy's per-call cost is spread over them. Row 4's frame
# half on 2 vCPUs: 0.58 s, 30.1 MB peak at 2,048 lanes; 0.44 s, 30.1 MB at
# 4,096; 0.24 s, 30.7 MB at 8,192; 0.28 s, 31.9 MB at 16,384.
CHUNK = 8192
_CHUNK_BITS = CHUNK.bit_length() - 1


class FrameBatch:
    """A chunk of lanes of the frames on smallest..states states (states
    alone by default), one uint8 mask per lane.

    The lane space lists the sizes smallest first, and size n the frames
    of _frame_reps(n) each under every joint valuation of names: its lane
    L is frame L >> (n * len(names)) under valuation index L mod
    2^(n * len(names)). Frame indices count on across the sizes. A batch
    holds lanes start..start + len(batch), at most CHUNK, and is the model
    eval_bits runs on for lanes: it supplies the valuation of names, the
    all-zero carrier, each lane's full state set (full_mask), and <d> as
    one take per lane into the sizes' joint image table. states, the
    largest size, bounds the Kleene rounds; valuations = 2^(states * |names|).
    """

    def __init__(self, states, names, start, smallest=None):
        import numpy as np

        self.states, self.start, self._letters = states, start, len(names)
        self.valuations = 1 << states * len(names)
        self._sizes, self._images = _lane_space(smallest or states, states,
                                                len(names))
        # per run of a size's lanes up to a CHUNK multiple of its own
        # numbering, written in place: image-table rows (uint16, 49,580
        # entries over sizes 1-4), full masks and valuations
        base = np.empty(min(CHUNK, self._sizes[-1][4] - start), np.uint16)
        self.full_mask, *vals = np.empty((1 + len(names), len(base)), np.uint8)
        for n, lane, _, row, end in self._sizes:
            shift, full = n * len(names), (1 << n) - 1
            lo, hi = max(start, lane) - lane, min(start + CHUNK, end) - lane
            while lo < hi:
                # block is a Python int, so no lane index overflows however
                # many names there are, and the first name varies fastest
                block = lo & -CHUNK
                top = min(hi, block + CHUNK)
                rel = np.arange(lo - block, top - block, dtype=np.uint16)
                run = slice(lane + lo - start, lane + top - start)
                base[run] = (rel >> min(shift, _CHUNK_BITS) << n) \
                    + (row + (block >> shift << n))
                self.full_mask[run] = full
                for k, v in enumerate(vals):
                    v[run] = rel >> min(k * n, _CHUNK_BITS) & full \
                        | block >> k * n & full
                lo = top
        self._base, self._valuation = base, dict(zip(names, vals))
        self.zero = np.zeros(len(self._base), dtype=np.uint8)
        self.zero.flags.writeable = False

    def __len__(self):
        return len(self.zero)

    @cached_property
    def nbr_masks(self):
        """Per direction, each state's neighbour masks across the lanes:
        the converse image of that state alone."""
        return {d: tuple(self.image(CONVERSE[d], self.full_mask & 1 << w)
                         for w in range(self.states)) for d in 'FB'}

    def valuation_mask(self, name):
        return self._valuation.get(name, self.zero)

    def image(self, direction, arg):
        """<d> on every lane: the states with a d-neighbour in arg."""
        return self._images[direction].take(self._base + arg)

    @staticmethod
    def same(a, b):
        return bool((a == b).all())

    @property
    def frames(self):
        """The frame indices that the batch touches."""
        return range(self.locate(0)[0], self.locate(len(self) - 1)[0] + 1)

    def locate(self, i):
        """(frame index, valuation index) of lane i of the batch."""
        lane = self.start + i
        n, first, before, *_ = max(s for s in self._sizes if s[1] <= lane)
        rel, shift = lane - first, n * self._letters
        return before + (rel >> shift), rel & (1 << shift) - 1

    def index(self, frame, valuation):
        """The batch's lane for that frame and valuation, or None."""
        n, first, before, *_ = max(s for s in self._sizes if s[2] <= frame)
        i = first + (frame - before << n * self._letters | valuation)
        return i - self.start if 0 <= i - self.start < len(self) else None

    def model(self, i):
        """Lane i as a KripkeModel: its frame's edges, its valuation."""
        frame = self.locate(i)[0]
        n, _, before, *_ = max(s for s in self._sizes if s[2] <= frame)
        mask = _frame_reps(n)[frame - before]
        return KripkeModel(
            n, [divmod(b, n) for b in range(n * n) if mask >> b & 1],
            {nm: _mask_to_set(int(vm[i]), n)
             for nm, vm in sorted(self._valuation.items())})


def frame_batches(n: int, names=(), smallest=None):
    """The lane space of the frames on smallest..n states (n alone by
    default) under names, CHUNK lanes at a time, in order. One frame per
    isomorphism class, so n is at most 4."""
    total = _lane_space(smallest or n, n, len(names))[0][-1][4]
    for start in range(0, total, CHUNK):
        yield FrameBatch(n, names, start, smallest)


def brute_force_sat(formula, max_states: int):
    """Search models of at most max_states states for a witness.

    One lane space spans the sizes 1..max_states, smallest first, with
    frames one per isomorphism class and valuations exhaustive over the
    formula's free variables, first letter slowest. Each chunk of CHUNK
    lanes, whatever sizes it holds, is one eval_bits pass over a
    FrameBatch. Returns the first (model, state) in that order, or None.
    ValueError refuses fewer than one state and more than four (2^25 edge
    sets at five).
    """
    if max_states < 1:
        raise ValueError('brute_force_sat searches at least 1 state, not %d'
                         % max_states)
    if max_states > 4:
        raise ValueError('brute_force_sat searches at most 4 states, not %d: '
                         '%d states have 2^%d frames'
                         % (max_states, max_states, max_states * max_states))
    names = sorted(free_vars(formula), reverse=True)
    for batch in frame_batches(max_states, names, 1):
        sat = eval_bits(formula, batch)
        hit = sat.nonzero()[0]
        if len(hit):
            mask = int(sat[hit[0]])
            return batch.model(int(hit[0])), (mask & -mask).bit_length() - 1
    return None
