"""In-memory call spans recorded by wrapping module attributes.

A :class:`Tracer` replaces chosen functions of already imported modules with
timing wrappers for the length of a ``with tracer.patched(...)`` block and
restores the originals afterwards.  Callers that look the function up on its
module at call time (``channel.awgn(...)``) go through the wrapper, so the
spans time the calls the program really makes and no source file is edited.
Only calls from another module are recorded: a module-global name is the
same attribute, so calls inside the function's own module also reach the
wrapper, which passes them straight through.

Each span is a list ``[label, start_ns, end_ns, parent, frame, probe]``:
``parent`` is the index of the enclosing span or -1 for a root span,
``frame`` the key of the frame the span ran in (``None`` before the first
frame opens), and ``probe`` an optional value computed from the call's
arguments and result.  A root-level call of the frame-opening label starts a
new frame keyed by its ``frame_key(args, kwargs)``.
"""

import sys
import time
from contextlib import contextmanager


class Tracer:
    """Span recorder; see the module docstring for the span layout."""

    def __init__(self, opener, frame_key, probes=None):
        self.opener = opener
        self.frame_key = frame_key
        self.probes = dict(probes or {})
        self.spans = []
        self.frame = None
        self._stack = []

    def _wrap(self, label, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        probe = self.probes.get(label)
        opens = label == self.opener
        home = fn.__module__

        def traced(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == home:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            if opens and parent == -1:
                self.frame = self.frame_key(args, kwargs)
            span = [label, 0, 0, parent, self.frame, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                span[5] = probe(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap ``(module, attribute, label)`` targets inside the block."""
        saved = []
        try:
            for module, attr, label in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(label, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own

