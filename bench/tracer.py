"""Span tracing installed from outside the library.

Every public function of each traced ``cpc`` module is wrapped, and the
wrapper replaces the original in every ``cpc`` namespace that binds it (so
``cpc.search.is_single_error_correcting`` is traced as well as
``cpc.decoding.is_single_error_correcting``).  ``Gf2Matrix`` constructions
are counted, not spanned.  Spans stay in memory until the run ends.

Self time is the wall time during which a span is the innermost open span:
its duration minus the part of it that its child spans cover.  When spans
on several threads are innermost at once (``search`` with ``threads=2``)
that time is split evenly between them, so the self times of all spans add
up to the wall time covered by the outermost spans.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import threading
import types
from collections import defaultdict
from time import perf_counter

MODULES = (
    "gf2",
    "model",
    "circuits",
    "propagation",
    "stabilizers",
    "decoding",
    "logical_ops",
    "dynamics",
    "search",
    "cli",
)


class Tracer:
    """Records spans ``(id, name, start, end, parent, thread)`` while ``on``."""

    def __init__(self) -> None:
        self.on = False
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self._ids = itertools.count()
        self._builds = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_ident = threading.main_thread().ident
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                # A worker thread's outermost span belongs to the span that
                # the (single) calling thread has open, e.g. ``search``.
                main = tracer._main_stack
                parent = main[-1] if main else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append(
                    (sid, name, start, end, parent, threading.get_ident())
                )

        return traced

    def install(self) -> None:
        """Wrap every public function of ``MODULES`` wherever ``cpc`` binds it."""
        import cpc
        from cpc.gf2 import Gf2Matrix

        wrappers: dict[int, object] = {}
        for short in MODULES:
            mod = sys.modules[f"cpc.{short}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(fn, f"{short}.{attr}"))
        namespaces = [cpc] + [
            m for n, m in sys.modules.items() if n.startswith("cpc.") and m is not None
        ]
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

        init = Gf2Matrix.__init__
        tracer = self

        @functools.wraps(init)
        def counted_init(matrix, data) -> None:
            if tracer.on:
                next(tracer._builds)
            init(matrix, data)

        self._restore.append((Gf2Matrix, "__init__", init))
        Gf2Matrix.__init__ = counted_init

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._restore):
            setattr(target, attr, value)
        self._restore.clear()

    @property
    def builds(self) -> int:
        """Gf2Matrix constructions counted while tracing was on."""
        # itertools.count is advanced atomically from any thread; reading it
        # consumes one value, so restart it at the value read.
        count = next(self._builds)
        self._builds = itertools.count(count)
        return count

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-name self time (seconds) and call count over all spans."""
        spans = self.spans
        parent_of = {s[0]: s[4] for s in spans}
        events = []
        for sid, _, start, end, _, _ in spans:
            # At equal times ends sort before starts, inner ends before outer.
            events.append((start, 1, sid, sid))
            events.append((end, 0, -sid, sid))
        events.sort()
        self_by_id: dict[int, float] = defaultdict(float)
        open_children: dict[int, int] = defaultdict(int)
        active: set[int] = set()
        leaves: set[int] = set()
        prev = 0.0
        for t, starting, _, sid in events:
            if leaves:
                share = (t - prev) / len(leaves)
                for leaf in leaves:
                    self_by_id[leaf] += share
            prev = t
            parent = parent_of[sid]
            parent_open = parent in active
            if starting:
                active.add(sid)
                leaves.add(sid)
                if parent_open:
                    open_children[parent] += 1
                    leaves.discard(parent)
            else:
                active.discard(sid)
                leaves.discard(sid)
                if parent_open:
                    open_children[parent] -= 1
                    if not open_children[parent]:
                        leaves.add(parent)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for sid, name, *_ in spans:
            self_s[name] += self_by_id[sid]
            calls[name] += 1
        return dict(self_s), dict(calls)

    def outermost_count(self, names: set[str]) -> int:
        """Spans named in ``names`` that have no ancestor named in ``names``."""
        name_of = {s[0]: s[1] for s in self.spans}
        parent_of = {s[0]: s[4] for s in self.spans}
        count = 0
        for sid, name, *_ in self.spans:
            if name in names:
                parent = parent_of[sid]
                while parent is not None and name_of.get(parent) not in names:
                    parent = parent_of.get(parent)
                count += parent is None
        return count

    def write(self, path, meta: dict) -> None:
        """Write all spans, gzip-compressed JSON, times in microseconds."""
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = min((s[2] for s in self.spans), default=0.0)
        threads = {}
        rows = [
            [
                sid,
                index[name],
                round((start - t0) * 1e6, 3),
                round((end - t0) * 1e6, 3),
                parent,
                threads.setdefault(tid, len(threads)),
            ]
            for sid, name, start, end, parent, tid in self.spans
        ]
        doc = {
            "meta": meta,
            "columns": ["id", "name", "start_us", "end_us", "parent", "thread"],
            "names": names,
            "spans": rows,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
