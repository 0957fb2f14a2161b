"""Per-layer timing by wrapping each layer's public entry points.

A :class:`Tracer` replaces the class (or module) attributes listed in
:data:`BOUNDARIES` with timing wrappers while it is entered, and puts
the originals back on exit, checking that every one is restored.  Only
the benchmark's traced run enters a tracer; the untraced runs execute
the program exactly as shipped.

Each wrapper records a span: wall time including nested wrapped calls
(``total``) and excluding them (``self``), plus a call count.  Hooks
count the work a call did (successors generated, keys looked up, keys
interned) from its arguments and result, outside the timed region.

``ProtocolComponent.enabled`` is timed *materialised*: most
``Protocol.transitions`` are generators, and timing the call alone
bills the real successor generation to whichever layer iterates it.
"""

from __future__ import annotations

import importlib
import time
import types
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


def _count_successors(tr, args, out, parent):
    tr.counts["memory.successors"] += len(out)


def _count_key(tr, args, out, parent):
    tr.counts["key.keys"] += 1


def _count_orbit_keys(tr, args, out, parent):
    # a reduced ComposedSystem.key canonicalizes through a one-item
    # batch: that key is already counted by the enclosing key span
    if parent != "key.canonical":
        tr.counts["key.keys"] += len(out)


def _count_lookups(tr, args, out, parent):
    tr.counts["store.lookups"] += len(out)
    tr.counts["store.hits"] += sum(1 for sid in out if sid is not None)


def _count_interned_many(tr, args, out, parent):
    tr.counts["store.new_keys"] += sum(1 for _sid, new in out if new)


def _count_interned_one(tr, args, out, parent):
    tr.counts["store.new_keys"] += int(out[1])


Hook = Callable[["Tracer", tuple, object, Optional[str]], None]

#: (module, class or None for a module function, attribute, span, hook)
BOUNDARIES: List[Tuple[str, Optional[str], str, str, Optional[Hook]]] = [
    ("repro.engine.component", "ProtocolComponent", "enabled", "memory",
     _count_successors),
    ("repro.engine.component", "ObserverComponent", "step", "observer.step", None),
    ("repro.core.observer", "Observer", "fork", "observer.fork", None),
    ("repro.engine.component", "ComposedSystem", "key", "key.canonical", _count_key),
    ("repro.engine.reduction", "Reduction", "canonicalize_batch", "key.orbit",
     _count_orbit_keys),
    ("repro.engine.component", "CheckerComponent", "step", "checker.step", None),
    ("repro.engine.intern", "StateStore", "lookup_many", "store.lookup", _count_lookups),
    ("repro.engine.intern", "StateStore", "intern_many", "store.intern",
     _count_interned_many),
    ("repro.engine.intern", "StateStore", "intern", "store.intern", _count_interned_one),
    ("repro.engine.intern", "StateStore", "set_parent", "store.set_parent", None),
    ("repro.engine.component", "ComposedSystem", "ample_candidates", "por.select", None),
    # the engine calls repro.engine.por.proviso late-bound, through
    # the module attribute
    ("repro.engine.por", None, "proviso", "por.select", None),
    ("repro.engine.component", "ComposedSystem", "end_check", "engine.end_check", None),
    ("repro.engine.strategy", "SearchEngine", "run", "engine", None),
    ("repro.engine.parallel", "ParallelSearchEngine", "run", "parallel.engine", None),
    ("repro.modelcheck.product", "ProductSearch", "run", "product", None),
    # ComposedSystem imports build_reduction at construction time,
    # through the module attribute
    ("repro.engine.reduction", None, "build_reduction", "setup.reduction", None),
]

#: spans that run in the coordinating process of a sharded search;
#: the rest run in forked workers, whose wrappers could not report
COORDINATOR_SPANS = frozenset({"parallel.engine", "product", "setup.reduction"})


class Tracer:
    """Timing wrappers around :data:`BOUNDARIES`, installed on enter
    and removed on exit.  ``spans`` restricts which are installed."""

    def __init__(self, spans: Optional[frozenset] = None) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.self: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self._spans = spans
        #: open spans, innermost last: [name, seconds of wrapped children]
        self._stack: List[list] = []
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for module, cls, attr, span, hook in BOUNDARIES:
                if self._spans is not None and span not in self._spans:
                    continue
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls)
                    orig = owner.__dict__[attr]
                else:
                    orig = getattr(owner, attr)
                setattr(owner, attr, self._wrap(orig, span, hook))
                self._saved.append((owner, attr, orig))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)
            now = (owner.__dict__[attr] if not isinstance(owner, types.ModuleType)
                   else getattr(owner, attr))
            if now is not orig:
                raise RuntimeError(f"tracer could not restore {owner!r}.{attr}")

    def _wrap(self, orig, span: str, hook: Optional[Hook]):
        stack, pc = self._stack, time.perf_counter
        total, self_s, calls = self.total, self.self, self.calls
        materialise = span == "memory"

        def timed(*args, **kwargs):
            frame = [span, 0.0]
            stack.append(frame)
            t0 = pc()
            try:
                out = orig(*args, **kwargs)
                if materialise:
                    out = list(out)
            finally:
                dt = pc() - t0
                stack.pop()
                total[span] += dt
                self_s[span] += dt - frame[1]
                calls[span] += 1
                if stack:
                    stack[-1][1] += dt
            if hook is not None:
                hook(self, args, out, stack[-1][0] if stack else None)
            return out

        return timed

    def snapshot(self) -> dict:
        """Plain-dict copy of every span and counter so far."""
        return {
            "total": dict(self.total),
            "self": dict(self.self),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }


def snapshot_diff(after: dict, before: dict) -> dict:
    """``after - before`` for two :meth:`Tracer.snapshot` results."""
    return {
        part: {k: v - before[part].get(k, 0) for k, v in after[part].items()
               if v != before[part].get(k, 0)}
        for part in after
    }
