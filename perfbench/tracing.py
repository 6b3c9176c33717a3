"""Spans around the public names of each flatmu layer, and their arithmetic.

A Tracer replaces a layer's public function in every module namespace
that holds it with a wrapper that records one span per call: name, start,
end and the index of the enclosing span. Calls made while a span of the
same name is open pass straight through, so every recorded span is the
outermost of its name (recursive eval_bits is one span per top-level
call). Spans stay in memory until the run writes them out.

The functions below the Tracer turn a span list into per-name totals and
self times; they take plain tuples so they can be tested on their own.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute, span name). Names listed twice share one span name,
# and a call into any of them while another is open passes through.
WRAPPED = (
    ('flatmu.syntax', 'parse', 'syntax.parse'),
    ('flatmu.closure', 'fl_closure', 'closure.fl_closure'),
    ('flatmu.closure', 'enumerate_atoms', 'closure.enumerate_atoms'),
    ('flatmu.semantics', 'eval_bits', 'semantics.eval_bits'),
    ('flatmu.semantics', 'brute_force_sat', 'semantics.brute_force_sat'),
    ('flatmu.network', 'compute_timeouts', 'network.compute_timeouts'),
    ('flatmu.network', 'find_defects', 'network.find_defects'),
    ('flatmu.network', 'amalgamate', 'network.amalgamate'),
    ('flatmu.network', 'is_subnetwork', 'network.containment'),
    ('flatmu.network', 'equp', 'network.containment'),
    ('flatmu.network', 'eqdown', 'network.containment'),
    ('flatmu.network', 'is_down_cofinal', 'network.containment'),
    ('flatmu.network', 'is_up_cofinal', 'network.containment'),
    ('flatmu.network', 'is_anticonfluent', 'network.is_anticonfluent'),
    ('flatmu.construct', 'build', 'construct.build'),
    ('flatmu.construct', 'repair_all', 'construct.repair_all'),
    ('flatmu.construct', 'finish_deferral', 'construct.finish_deferral'),
    ('flatmu.acceptance', 'run_all', 'acceptance.row'),
)

# (module, class, method, name): constructors timed as spans or counted.
TIMED_METHODS = (
    ('flatmu.semantics', 'KripkeModel', '__init__', 'semantics.model_init'),
)
COUNTED_METHODS = (
    ('flatmu.network', 'Network', '__post_init__', 'network.networks_built'),
)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # (name, start, end, parent index or -1)
        self.counts = Counter()
        self._stack = []
        self._open = {}          # span name -> [open flag]
        self._off = [False]      # set while the benchmark checks answers
        self._undo = []

    def wrap(self, name, fn):
        """fn with a span named name around each outermost call."""
        busy = self._open.setdefault(name, [False])
        off = self._off
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if busy[0] or off[0]:
                return fn(*args, **kwargs)
            busy[0] = True
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                busy[0] = False
                spans[index] = (name, start, end, parent)

        return traced

    def counter(self, name, fn):
        counts, off = self.counts, self._off

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not off[0]:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def paused(self):
        """Record nothing inside the block."""
        self._off[0] = True
        try:
            yield
        finally:
            self._off[0] = False

    @contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every listed name in every flatmu namespace that holds it."""
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == 'flatmu' or n.startswith('flatmu.')]
        for module, attr, name in WRAPPED:
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(name, original)
            for ns in namespaces:
                if getattr(ns, attr, None) is original:
                    self._set(ns, attr, wrapper)
        for module, cls, method, name in TIMED_METHODS:
            owner = getattr(sys.modules[module], cls)
            self._set(owner, method, self.wrap(name, getattr(owner, method)))
        for module, cls, method, name in COUNTED_METHODS:
            owner = getattr(sys.modules[module], cls)
            self._set(owner, method, self.counter(name, getattr(owner, method)))

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path):
        with open(path, 'w') as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + '\n')


# ---------------------------------------------------------------------------
# span arithmetic

def self_times(spans):
    """Each span's duration less the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def totals(spans):
    """name -> (calls, seconds, self seconds) over all spans of that name."""
    own = self_times(spans)
    calls, secs, selfs = Counter(), Counter(), Counter()
    for i, (name, start, end, _) in enumerate(spans):
        calls[name] += 1
        secs[name] += end - start
        selfs[name] += own[i]
    return {name: (calls[name], secs[name], selfs[name]) for name in calls}


def under(spans, name, parent_name):
    """(calls, seconds) of spans called name whose direct parent is a span
    called parent_name."""
    calls, secs = 0, 0.0
    for span_name, start, end, parent in spans:
        if span_name == name and parent >= 0 \
                and spans[parent][0] == parent_name:
            calls += 1
            secs += end - start
    return calls, secs
