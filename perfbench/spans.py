"""In-memory span recorder wrapped around the public calls into each layer.

Spans are recorded from the benchmark's side only: :func:`Tracer.wrap`
replaces a public function or method with one that records
``(id, parent, name, start, end, trace, attrs)`` around the original
call.  The parent is whatever span is open in the current context
(a :mod:`contextvars` variable, so asyncio tasks keep their own chains),
and the trace id is the root span's id, shared by every span of one
request or one batch.  Spans stay in a list until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from stats import Span

#: ``attrs(args, kwargs, result) -> dict`` adds counts to a span.
AttrFn = Callable[[Tuple[Any, ...], Dict[str, Any], Any], Dict[str, Any]]

_clock = time.perf_counter


class Tracer:
    """Records spans in memory; one instance per traced process."""

    def __init__(self) -> None:
        self.records: List[List[Any]] = []
        self._ids = itertools.count(1)
        self._current: "contextvars.ContextVar[Optional[Tuple[int, int]]]" = (
            contextvars.ContextVar("perfbench_span", default=None)
        )

    def _open(self) -> Tuple[int, Optional[int], int, "contextvars.Token[Any]"]:
        sid = next(self._ids)
        parent = self._current.get()
        pid, trace = (parent[0], parent[1]) if parent else (None, sid)
        token = self._current.set((sid, trace))
        return sid, pid, trace, token

    def wrap(self, fn: Callable[..., Any], name: str, attrs: Optional[AttrFn] = None) -> Callable[..., Any]:
        """``fn`` with a span around every call (coroutines awaited inside)."""
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                sid, pid, trace, token = self._open()
                start = _clock()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    end = _clock()
                    self._current.reset(token)
                self.records.append([sid, pid, name, start, end, trace, {}])
                return result

            return traced_async

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            sid, pid, trace, token = self._open()
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                self._current.reset(token)
            extra = attrs(args, kwargs, result) if attrs is not None else {}
            self.records.append([sid, pid, name, start, end, trace, extra])
            return result

        return traced

    def install(self, owner: Any, attr: str, name: str, attrs: Optional[AttrFn] = None) -> None:
        """Replace ``owner.attr`` (class, instance or module) by its traced form."""
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, attrs))

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.records))


def load(path: Path) -> List[List[Any]]:
    return json.loads(path.read_text())


def as_spans(records: List[List[Any]]) -> List[Span]:
    return [(r[0], r[1], r[2], r[3], r[4]) for r in records]


def sized(arg_index: int) -> AttrFn:
    """Attr function counting ``len(args[arg_index])`` as ``n``."""

    def attrs(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> Dict[str, Any]:
        return {"n": len(args[arg_index])}

    return attrs
