"""Spans around cck's public functions, installed from outside the program.

``Tracer.install(names)`` wraps each named function, e.g.
``"equivariant.lens_cohomology"`` or ``"fp.FpMatrix.rank"``.  A module
function is replaced in every ``cck`` module that holds it, because
modules import some names directly (``equivariant`` imports
``restricted_map``; ``certificate`` and ``fp`` import ``is_prime``); a
method is replaced on its class.  Each call records a span: id, parent
span, name, the operation it ran under, start, end, and self time
(duration minus the spans it caused).
"""

from __future__ import annotations

import functools
import sys
import time


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list[list[int]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1][0] if stack else None
            spans.append(None)
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[sid] = (sid, parent, name, self.op, start, end, end - start - frame[1])

        return traced

    def install(self, names) -> list[str]:
        """Wrap every named function that exists; return the names that do not."""
        modules = [m for key, m in list(sys.modules.items()) if key == "cck" or key.startswith("cck.")]
        absent = []
        for name in names:
            module, *path = name.split(".")
            owner = sys.modules.get(f"cck.{module}")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None) if owner is not None and path else None
            if not callable(original):
                absent.append(name)
                continue
            wrapped = self.wrap(name, original)
            if len(path) > 1:
                setattr(owner, path[-1], wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        return absent

    def summary(self) -> dict[str, dict[str, list[int]]]:
        """name -> operation -> [calls, self time in ns]."""
        out: dict[str, dict[str, list[int]]] = {}
        for span in self.spans:
            entry = out.setdefault(span[2], {}).setdefault(str(span[3]), [0, 0])
            entry[0] += 1
            entry[1] += span[6]
        return out
