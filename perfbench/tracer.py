"""In-memory span tracer installed from outside the package under test.

Wrappers are put where each name is looked up at call time: on the class
for methods, and on every module global bound to the original function
(so ``from .x import f`` call sites are traced as well).  A hook whose
target no longer exists is recorded as absent instead of failing the run.

Spans are kept in memory as ``[name, start, end, parent]`` lists, parent
being the index of the enclosing span (-1 at top level); they are written
out once, by the caller, when the run ends.  Self time of a span is its
duration minus the durations of its direct children, which in
single-threaded code covers exactly the nested part of its interval.
"""

import functools
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "sqgdiag"  # modules scanned for imported bindings of a hooked function


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self.absent = []
        self._stack = []
        self._restore = []

    # --- spans ---

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, self.clock(), None, parent])

    def close(self):
        self.spans[self._stack.pop()][2] = self.clock()

    def wrap(self, name, fn, after=None):
        """Return ``fn`` recorded as span ``name``; ``after(tracer, args,
        result)`` runs on normal return, outside the span, to add counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    # --- installation ---

    def install(self, name, module_name, attr, after=None):
        """Trace ``module_name:attr`` (``attr`` may be ``Class.method``).

        Functions are replaced in their own module and in every loaded
        module of PACKAGE that holds the same object as a global.
        Returns False (and records the hook as absent) if the target is
        missing.
        """
        owner = sys.modules.get(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            self.absent.append(f"{module_name}:{attr}")
            return False
        wrapper = self.wrap(name, original, after)
        self._replace(owner, leaf, original, wrapper)
        if path:  # a class attribute: every call looks it up on the class
            return True
        for mod_name, mod in list(sys.modules.items()):
            if mod is owner or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, original, wrapper)
        return True

    def _replace(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def uninstall(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # --- accounting ---

    def self_times(self):
        """Per-span self time, index-aligned with ``self.spans``."""
        own = [end - start for _, start, end, _ in self.spans]
        for i, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self):
        """name -> {calls, total_s, self_s} over all closed spans."""
        own = self.self_times()
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _), s in zip(self.spans, own):
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += s
        return dict(out)

    def durations(self, name):
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_by_name_under(self, ancestor):
        """Self time per span name, over spans nested inside any span
        named ``ancestor`` (the ancestor spans themselves included)."""
        own = self.self_times()
        inside = [False] * len(self.spans)
        totals = defaultdict(float)
        for i, (name, _, _, parent) in enumerate(self.spans):
            # parents precede children, so one forward pass suffices
            inside[i] = name == ancestor or (parent >= 0 and inside[parent])
            if inside[i]:
                totals[name] += own[i]
        return dict(totals)

    def to_json(self):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
            "counts": dict(self.counts),
            "absent_hooks": list(self.absent),
        }
