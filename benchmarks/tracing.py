"""In-memory span tracer for the traced benchmark run.

Spans are recorded from outside the package: `install` replaces a function
at each of its lookup sites (the defining module attribute and every module
that bound the same object with a `from` import) by a wrapper that records
one span per call.  Nothing under `src/` knows about tracing; the untraced
run never installs a wrapper.

A span is (name, start, end, parent, failed, info).  `parent` is the index
of the enclosing span, so self time is a span's duration minus the
durations of its direct children (single-threaded, so children of one
span never overlap).  Spans stay in memory; `summary` reduces them at the
end of the run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, FAILED, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.paused = False

    # --- recording ----------------------------------------------------------

    def _open(self, name):
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, False, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """Span around a block of benchmark code (an op, the smoke pass)."""
        rec = self._open(name)
        try:
            yield rec
        except BaseException:
            rec[FAILED] = True
            raise
        finally:
            self._close(rec)

    @contextmanager
    def pause(self):
        """Calls made inside are not recorded (plain runs, checks, probes)."""
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was

    def wrap(self, name, fn, post=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                self._close(rec)
            if post is not None:
                rec[INFO] = post(out, args, kwargs)
            return out
        return traced

    # --- installation -------------------------------------------------------

    def _patch(self, module, attr, new):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self, module, attr, name=None, post=None, scan=True):
        """Trace `module.attr` under `name` (default '<layer>.<attr>').

        With scan, every loaded `cascadia` module attribute bound to the same
        object is replaced too.  A missing attribute is skipped, so a later
        refactor that removes a traced helper only zeroes its metrics.
        """
        orig = getattr(module, attr, None)
        if orig is None:
            return
        if name is None:
            name = module.__name__.rsplit(".", 1)[-1] + "." + attr
        wrapper = self.wrap(name, orig, post)
        sites = [(module, attr)]
        if scan:
            for mname, mod in list(sys.modules.items()):
                if mod is None or not (mname == "cascadia"
                                       or mname.startswith("cascadia.")):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig and (mod, key) != (module, attr):
                        sites.append((mod, key))
        for mod, key in sites:
            self._patch(mod, key, wrapper)

    def uninstall(self):
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    # --- reduction ----------------------------------------------------------

    def self_times(self):
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def outermost(self, key):
        """Indices of spans with key(span) whose ancestors all differ in key."""
        keys = [key(s) for s in self.spans]
        out = []
        for i, s in enumerate(self.spans):
            p = s[PARENT]
            while p >= 0 and keys[p] != keys[i]:
                p = self.spans[p][PARENT]
            if p < 0:
                out.append(i)
        return out


def layer_of(name):
    return name.split(".", 1)[0]


def summary(tracer, layers):
    """Per-layer and per-function reductions of the recorded spans.

    For a layer, `.calls` counts entries from another layer, `.busy_s` the
    time inside it (nested re-entries counted once), `.self_s` that time
    minus the time in spans of other layers, and `.fail` the entries that
    raised.  The same keys exist per span name (`<layer>.<function>.*`).
    """
    spans = tracer.spans
    own = tracer.self_times()
    out = defaultdict(float)
    for L in layers:
        for k in ("calls", "busy_s", "self_s", "fail"):
            out[f"{L}.{k}"] = 0.0
    for key in (lambda s: layer_of(s[NAME]), lambda s: s[NAME]):
        for i in tracer.outermost(key):
            k = key(spans[i])
            out[k + ".calls"] += 1
            out[k + ".busy_s"] += spans[i][END] - spans[i][START]
            out[k + ".fail"] += spans[i][FAILED]
    for i, s in enumerate(spans):
        out[layer_of(s[NAME]) + ".self_s"] += own[i]
        out[s[NAME] + ".self_s"] += own[i]
    return out
