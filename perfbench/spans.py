"""Layer spans for the traced run, installed from outside the package.

Each layer of ``suite.json`` names the functions at its boundary.  The
tracer replaces every binding of those functions -- the defining module
and every ``arcticauction`` module that imported the name -- with a
wrapper that opens a span.  Spans nest on one stack: a span's self time is
its duration minus the time of the spans it encloses, so the self times of
all layers, plus ``other`` for time no layer span covers, add up exactly to
the time of the root spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

OTHER = "other"


class Tracer:
    """Per-layer self time and call counts, plus per-function call counts."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.function_calls: dict[str, int] = defaultdict(int)
        self.root_ns = 0
        self.missing: list[str] = []
        self._stack: list[list[int]] = []
        self._restore: list[tuple[object, str, object]] = []

    def span(self, layer: str, fn, key: str | None = None, root: bool = False):
        """``fn`` wrapped in a span of ``layer``; ``key`` counts its calls.

        Outside a root span the wrapper only calls ``fn``, so work the
        benchmark does between instances is neither timed nor counted.
        """
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack and not root:
                return fn(*args, **kwargs)
            self.calls[layer] += 1
            if key is not None:
                self.function_calls[key] += 1
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.self_ns[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.root_ns += elapsed

        return wrapper

    def counter(self, fn, key: str, on_result):
        """``fn`` with a call count under ``key`` and a hook on its result."""
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if stack:
                self.function_calls[key] += 1
                on_result(result)
            return result

        return wrapper

    def install(self, layers: list[dict], hooks: dict | None = None) -> None:
        """Patch every binding of every layer function; undo with ``remove``.

        A layer function ``module:name`` is replaced in its module and in
        every ``arcticauction`` module bound to the same object, and a method
        ``module:Class.name`` on its class.  ``hooks`` maps ``module:name``
        to a callback on the result, patched in that module only, for
        functions that are counted without a span.  A function named here
        but absent from the package is recorded in ``missing``.
        """
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if name.split(".")[0] == "arcticauction" and module is not None
        ]
        for layer in layers:
            for spec in layer["functions"]:
                found = self._lookup(spec)
                if found is None:
                    continue
                owner, attr, original = found
                wrapped = self.span(layer["name"], original, spec)
                if "." in spec.partition(":")[2]:
                    self._patch(owner, attr, wrapped)
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, wrapped)
        for spec, callback in (hooks or {}).items():
            found = self._lookup(spec)
            if found is not None:
                owner, attr, original = found
                self._patch(owner, attr, self.counter(original, spec, callback))

    def _lookup(self, spec: str):
        module_name, _, qualname = spec.partition(":")
        owner: object = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(spec)
            return None
        return owner, attr, original

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def root(self, fn):
        """``fn`` as a root span: the instance time the shares divide."""
        return self.span(OTHER, fn, root=True)

