"""Traced ``repro-ltc serve``: wrap each serving layer's public calls, run the CLI.

Usage: ``python perfbench/serve_launcher.py SPANS_JSON serve [serve flags...]``
with ``src`` and ``perfbench`` on ``PYTHONPATH``.  The spans are written
to ``SPANS_JSON`` when the server exits.  Only the wrappers differ from
the plain CLI path; the server itself is ``repro.cli.main(["serve", ...])``.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

from spans import Tracer, sized


def route_of(target: str) -> str:
    path = target.split("?", 1)[0]
    if path.startswith("/query/"):
        return "query"
    return path.strip("/") or "root"


def instrument_ltc(tracer: Tracer, ltc: Any) -> Any:
    """Trace the kernel's batch entry points on one structure."""

    def insert_attrs(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> Dict[str, Any]:
        kernel = getattr(ltc, "kernel_in_use", ltc.config.kernel)
        return {"n": len(args[0]), "kernel": kernel}

    tracer.install(ltc, "insert_many", "core.insert_many", insert_attrs)
    tracer.install(ltc, "end_period", "core.end_period")
    return ltc


def install(tracer: Tracer) -> None:
    from repro.core import kernels
    from repro.serve import index, server, snapshots

    app = server.ServingApp

    def respond_attrs(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> Dict[str, Any]:
        return {"method": args[1], "route": route_of(args[2]), "status": result[0]}

    tracer.install(app, "handle", "serve.handle")
    tracer.install(app, "respond", "serve.respond", respond_attrs)
    tracer.install(app, "submit", "serve.submit", lambda a, k, r: {"n": r})
    tracer.install(index.ServingIndex, "cells_touched", "index.notify", sized(1))
    tracer.install(index.ServingIndex, "cell_touched", "index.notify", lambda a, k, r: {"n": 1})
    for name in ("query", "top_k", "significant", "tracked"):
        tracer.install(index.ServingIndex, name, "index.call")
    tracer.install(server, "canonical_json", "serve.encode", lambda a, k, r: {"bytes": len(r)})
    tracer.install(
        snapshots.SnapshotStore, "save", "serve.snapshot",
        lambda a, k, r: {"bytes": r.stat().st_size},
    )
    build = kernels.build_ltc

    def traced_build(config: Any) -> Any:
        return instrument_ltc(tracer, build(config))

    kernels.build_ltc = traced_build


def main(argv: List[str]) -> int:
    spans_path = Path(argv[0])
    tracer = Tracer()
    install(tracer)
    from repro import cli

    try:
        return cli.main(argv[1:])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
