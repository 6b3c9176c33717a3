"""Kripke models and formula evaluation.

One evaluator, eval_bits, computes truth sets as bitmasks over states:
an int mask on a KripkeModel, and on a LaneBatch, one model per lane, an
int of state-major bit planes (model_lanes packs models of one size from
bit rows; a FrameBatch lane is one frame under one joint valuation).
Union, equality and complement are plain int operations; each carrier
answers <d> (image), and a LaneBatch keeps each image it computes for
its own life. Complement is full_mask ^ x: every truth set is a subset
of full_mask, and XOR reads a wide int once where & ~ builds its
negation first. Fixpoint connectives are evaluated by Kleene iteration
from the empty set, which converges within |W| rounds by positivity of
the body; each round runs the connective's plan.
"""

from __future__ import annotations

import json
from functools import cached_property, lru_cache, reduce
from itertools import permutations
from operator import and_, or_

from .syntax import (
    CONVERSE, Bottom, Dia, FileShapeError, Neg, Or, Sharp, Var, box,
    free_vars, implies, iff, is_int, subformulas,
)


class KripkeModel:
    """Finite model: states 0..n-1, held as per-state neighbour masks per
    direction (successors under 'F', predecessors under 'B') and a state
    mask per letter. The edge set and the valuation name -> state set are
    derived when asked for."""

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

    model is a KripkeModel (an int mask) or a LaneBatch (an int of bit
    planes, one per state); env values and the result are in the model's
    carrier, and both carriers compare with ==. Env values must be subsets
    of model.full_mask, as truth sets of the model are: negation takes
    full_mask ^ x. _memo maps formulas to results for this one model and
    env: share it across formulas, never across models or envs. A
    connective's body runs as its plan, over slots, and never reads or
    fills the memo.
    """
    env = env or {}
    memo = {} if _memo is None else _memo
    out = memo.get(formula)
    if out is not None:
        return out
    if isinstance(formula, Bottom):
        out = 0
    elif isinstance(formula, Var):
        name = formula.name
        out = env[name] if name in env else model.valuation_mask(name)
    elif isinstance(formula, Neg):
        out = model.full_mask ^ eval_bits(formula.child, model, env, memo)
    elif isinstance(formula, Or):
        out = (eval_bits(formula.left, model, env, memo)
               | eval_bits(formula.right, model, env, memo))
    elif isinstance(formula, Dia):
        out = model.image(formula.direction,
                          eval_bits(formula.child, model, env, memo))
    elif isinstance(formula, Sharp):
        body, steps = formula.connective.plan
        slots = [0, *(eval_bits(a, model, env, memo) for a in formula.args),
                 0]
        fixed, out = len(slots), 0
        for _ in range(model.states + 1):
            slots[0] = out
            del slots[fixed:]
            for op, a, b in steps:
                if op == 'or':
                    slots.append(slots[a] | slots[b])
                elif op == 'dia':
                    slots.append(model.image(a, slots[b]))
                else:
                    slots.append(model.full_mask ^ slots[a])
            if slots[body] == out:
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
    sharps = dict.fromkeys(sub for a in pool for sub in subformulas(a)
                           if isinstance(sub, Sharp))
    return out + [implies(s.connective.instantiate(s, s.args), s)
                  for s in sharps]


# ---------------------------------------------------------------------------
# brute-force satisfiability

@lru_cache(maxsize=None)
def _frame_reps(n: int):
    """Edge masks canonical under state permutation, ascending: the least
    mask of each orbit, as a tuple.

    Bit i*n + j stands for the edge (i, j). Only feasible for small n:
    four states are 2^16 masks. The masks are walked in order, and each
    one not yet seen marks its orbit, relabelled through one table per
    permutation and byte of a mask.
    """
    size, seen, reps, tables = n * n, bytearray(1 << n * n), [], []
    for perm in permutations(range(n)):
        rows = [[0], [0]]   # per byte of a mask, each value's edges moved
        for b in range(size):
            row = rows[b >= 8]
            row += [r | 1 << perm[b // n] * n + perm[b % n] for r in row]
        tables.append(rows)
    for mask in range(1 << size):
        if not seen[mask]:
            reps.append(mask)
            for low, high in tables:
                seen[low[mask & 255] | high[mask >> 8]] = 1
    return tuple(reps)


# Lanes per batch: wider planes spread each int operation's interpreter
# cost over more lanes. Row 4's frame half on 2 vCPUs, medians of 8 runs,
# planes built / cached, peak RSS: 0.23 / 0.21 s, 17.6 MB at 8,192 lanes;
# 0.20 / 0.19 s, 18.9 MB at 16,384; 0.20 / 0.10 s, 20.9 MB at 32,768.
CHUNK = 32768
_CHUNK_BITS = CHUNK.bit_length() - 1
_ODD = int('10' * (CHUNK // 2 + 1), 2)   # bit f set for each odd f


def _spread(bits, s, lo, hi):
    """Lanes lo..hi-1 of a pattern constant on each run of 2^s lanes from
    a multiple of 2^s: bit x - lo is bit (x >> s) - (lo >> s) of bits."""
    if s < _CHUNK_BITS:
        runs = ((hi - 1) >> s) - (lo >> s) + 1
        text = format(bits & (1 << runs) - 1, '0%db' % runs)
        wide = text.translate({48: '0' * (1 << s), 49: '1' * (1 << s)})
        return int(wide, 2) >> (lo & (1 << s) - 1) & (1 << hi - lo) - 1
    # a run is no shorter than a chunk, so the lanes see at most two
    cut = min(hi, (lo >> s) + 1 << s)
    out = (1 << cut - lo) - 1 if bits & 1 else 0
    return out | ((1 << hi - cut) - 1 << cut - lo if bits & 2 else 0)


@lru_cache(maxsize=32)
def _planes(states: int, letters: int, smallest: int, start: int):
    """A FrameBatch's lane space and planes: (per size (size, first lane,
    first frame, end lane), width, full mask, per letter its valuation,
    per direction edge rows: row v holds per state w the lanes whose state
    v has w as a d-neighbour). Bounded: a full selftest walks 29 chunks
    (2.5 MB), a search of 4 states and 3 letters 383."""
    sizes, lane, frame = [], 0, 0
    for n in range(smallest, states + 1):
        frames = len(_frame_reps(n))
        sizes.append((n, lane, frame, lane + (frames << n * letters)))
        lane, frame = sizes[-1][3], frame + frames
    width = min(CHUNK, lane - start)
    full, vals, edges = 0, [0] * letters, [[0] * states for _ in range(states)]
    for n, lane, _, end in sizes:
        lo, hi = max(start, lane) - lane, min(start + width, end) - lane
        if lo >= hi:
            continue
        at, shift = lane + lo - start, n * letters
        for w in range(n):
            here = w * width + at
            full |= (1 << hi - lo) - 1 << here
            for k, t in enumerate(range(w, shift, n)):
                vals[k] |= _spread(_ODD >> (lo >> t & 1), t, lo, hi) << here
        # per edge, bit f - first of its column is bit b of frame f
        reps = _frame_reps(n)[lo >> shift:(hi - 1 >> shift) + 1][::-1]
        for b in range(n * n):
            col = int(''.join('01'[r >> b & 1] for r in reps), 2)
            edges[b // n][b % n] |= _spread(col, shift, lo, hi) << at
    rows = tuple(map(tuple, edges))
    return sizes, width, full, tuple(vals), dict(F=rows, B=tuple(zip(*rows)))


class LaneBatch:
    """Models side by side, one per lane: bit w * len(batch) + i of a truth
    set is state w of lane i. states, the largest size, bounds the Kleene
    rounds."""

    def __init__(self, states, width, full_mask, valuation, toward):
        self.states, self._width, self.full_mask = states, width, full_mask
        self._lanes = (1 << width) - 1
        self._valuation, self._toward, self._images = valuation, toward, {}

    def __len__(self):
        return self._width

    @cached_property
    def nbr_masks(self):
        """Per direction, each state's neighbour masks across the lanes:
        the converse image of that state alone."""
        alone = [self.full_mask & self._lanes << w * self._width
                 for w in range(self.states)]
        return {d: tuple(self.image(CONVERSE[d], s) for s in alone)
                for d in 'FB'}

    def valuation_mask(self, name):
        return self._valuation.get(name, 0)

    def image(self, direction, arg):
        """<d> on every lane: the states with a d-neighbour in arg, within
        full_mask. Planes come off the low end of arg and rows go on at the
        low end of the result: a shift moves only what is left or built.
        Kept images are found by (direction, bit length, low 64 bits), as
        hashing a wide int reads all of it, then by == on the argument."""
        if not arg:
            return 0
        key = direction, arg.bit_length(), arg & 0xFFFFFFFFFFFFFFFF
        for seen, out in self._images.get(key, ()):
            if seen == arg:
                return out
        width, lanes, planes, out, rest = self._width, self._lanes, [], 0, arg
        for _ in range(self.states):
            planes.append(rest & lanes)
            rest >>= width
        for row in reversed(self._toward[direction]):
            out = out << width | reduce(or_, map(and_, row, planes))
        self._images.setdefault(key, []).append((arg, out))
        return out

    def lane(self, x, i):
        """Lane i of the truth set x, as a state mask."""
        return sum((x >> w * self._width + i & 1) << w
                   for w in range(self.states))

    def somewhere(self, x):
        """The lanes where the truth set x holds at some state, a bit each."""
        return reduce(or_, (x >> w * self._width
                            for w in range(self.states))) & self._lanes


def model_lanes(n, names, rows):
    """Models on n states as a LaneBatch; lane i is rows[i], a '0'/'1'
    string of the edges (v, w) row-major, then each name's states."""
    # column c of the rows, read from the last row, is bit c's plane
    cols = [''.join(col) for col in zip(*reversed(rows))]
    edges = [[int(c, 2) for c in cols[v * n:v * n + n]] for v in range(n)]
    vals = {nm: int(''.join(reversed(cols[at:at + n])), 2)
            for nm, at in zip(names, range(n * n, len(cols), n))}
    return LaneBatch(n, len(rows), (1 << n * len(rows)) - 1, vals,
                     dict(F=edges, B=tuple(zip(*edges))))


class FrameBatch(LaneBatch):
    """Lanes start..start + len(batch), at most CHUNK, of the frames on
    smallest..states states (states alone by default). The lane space
    lists the sizes smallest first, and size n the frames of
    _frame_reps(n) each under every joint valuation of names: its lane L
    is frame L >> (n * len(names)) under valuation index L mod
    2^(n * len(names)), and valuations = 2^(states * |names|). Frame
    indices count on across the sizes."""

    def __init__(self, states, names, start, smallest=None):
        self.start, self._letters = start, len(names)
        self.valuations = 1 << states * len(names)
        self._sizes, width, full, vals, toward = \
            _planes(states, len(names), smallest or states, start)
        super().__init__(states, width, full, dict(zip(names, vals)), toward)

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
            {nm: _mask_to_set(self.lane(vm, i), n)
             for nm, vm in sorted(self._valuation.items())})


def frame_batches(n: int, names=(), smallest=None):
    """The lane space of the frames on smallest..n states (n alone by
    default) under names, CHUNK lanes at a time, in order. One frame per
    isomorphism class, so n is at most 4."""
    total = sum(len(_frame_reps(k)) << k * len(names)
                for k in range(smallest or n, n + 1))
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
        if sat:
            hit = batch.somewhere(sat)
            i = (hit & -hit).bit_length() - 1
            mask = batch.lane(sat, i)
            return batch.model(i), (mask & -mask).bit_length() - 1
    return None
