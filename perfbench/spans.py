"""Span recording around calls into lpswe, installed from the benchmark side.

Each wrapper is set on the namespace where the caller looks the function up
(``driver`` and ``acoustic`` bind flux, acoustic and transport functions at
import), so the program itself is not edited.  Spans live in memory with
their parent span and are written out when the benchmark ends.
"""

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import wraps

# Name under which bookkeeping done inside a wrapper (after the traced call
# returned) is recorded; its time is kept out of every layer's self time.
HOOK = "trace.hook"


@dataclass
class Span:
    name: str
    parent: int          # index of the enclosing span, -1 at top level
    t0: float = 0.0
    t1: float = 0.0
    error: str = None    # exception type when the call raised
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.t1 - self.t0


class Tracer:
    """Collects the spans of one traced repetition."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name):
        self.spans.append(Span(name, self._stack[-1] if self._stack else -1))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span.t1 = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, hook=None):
        """Wrap ``fn`` in a span called ``name``.

        ``hook(span, args, kwargs, result)`` runs after the span closed, in a
        ``trace.hook`` span of its own so that its cost is not charged to
        any layer.
        """
        @wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._close(span)
            if hook is not None:
                h = self._open(HOOK)
                h.t0 = time.perf_counter()
                try:
                    hook(span, args, kwargs, result)
                finally:
                    self._close(h)
            return result
        return traced

    def write(self, fp, rep):
        for i, s in enumerate(self.spans):
            fp.write(json.dumps(dict(asdict(s), id=i, rep=rep)) + "\n")


def _resolve(path):
    """Module or class named by a dotted path, or None if it is gone."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


@contextmanager
def installed(tracer, targets, absent):
    """Install wrappers for ``targets`` = [(owner path, attribute, span
    name, hook)] and restore the originals on exit.  A target whose owner
    or attribute no longer exists is added to the set ``absent`` by span
    name instead of failing."""
    saved = []
    try:
        for owner_path, attr, name, hook in targets:
            owner = _resolve(owner_path)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                absent.add(name)
                continue
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(fn, name, hook))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def summarize(spans):
    """Per span: duration and self time without bookkeeping.

    Self time is the duration minus the time covered by direct children
    (calls run on one thread, so children never overlap).  ``hook_time``
    is the bookkeeping time nested anywhere inside the span.
    """
    child = [0.0] * len(spans)
    hook_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
        if s.name == HOOK:
            p = s.parent
            while p >= 0:
                hook_time[p] += s.duration
                p = spans[p].parent
    return [(s.duration - hook_time[i], s.duration - child[i])
            for i, s in enumerate(spans)]
