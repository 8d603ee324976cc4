"""``repro serve`` with span wrappers on the service and allocator layers.

Usage: ``python perfbench/traced_daemon.py SPANS.json <repro serve args>``.
Runs the daemon exactly as ``python -m repro serve`` does, with
:class:`tracer.Tracer` wrappers installed first; after a graceful stop
(SIGTERM) it writes the spans, the allocator's counters and the number of
link-weight rows built to ``SPANS.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import Tracer  # noqa: E402

from repro import cli  # noqa: E402
from repro.congestion.incremental import IncrementalWaterfill  # noqa: E402
from repro.congestion.linkweights import WeightProvider  # noqa: E402
from repro.service.state import ServiceState  # noqa: E402


def main(argv) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    states, providers = [], []
    tracer.wrap(ServiceState, "__init__", "service-init",
                on_result=lambda _r, args: states.append(args[0]))
    for attr in ("announce", "finish", "query"):
        tracer.wrap(ServiceState, attr, "service", f"service.{attr}")
    for attr in ("add_flow", "remove_flow", "update_demand"):
        tracer.wrap(IncrementalWaterfill, attr, "incremental", f"incremental.{attr}")
    tracer.wrap(IncrementalWaterfill, "_full_recompute", "fallback", "incremental.fallback")
    tracer.wrap(WeightProvider, "__init__", "weights",
                on_result=lambda _r, args: providers.append(args[0]))
    tracer.wrap(WeightProvider, "weights_for", "weights")
    tracer.wrap(WeightProvider, "level_matrix", "weights")
    code = cli.main(["serve", *serve_args])
    tracer.restore()
    tracer.dump(
        spans_path,
        stats=states[-1].incremental.stats(),
        weight_rows=sum(p.cache_size() for p in providers),
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
