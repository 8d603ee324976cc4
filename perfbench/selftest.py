"""Fast self-test of the benchmark's own logic, on tiny inputs.

Run from the repository root: ``python3 perfbench/selftest.py``.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

from common import (  # noqa: E402
    METRIC_NAME, PROBES, host_scale, percentile, probe_times, result_line,
)
from inputs import (  # noqa: E402
    UPDATE_BLOCK, flow_trace, live_after, mean_hops, pareto_quantile_sizes, serve_script,
    torus_hops,
)
from spec import DETERMINISTIC, END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_of_nested_spans() -> None:
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = tracer.open("run", keep=True)          # t=0
    clock.now = 1.0
    inner = tracer.open("send")                    # t=1, not kept
    clock.now = 1.5
    innermost = tracer.open("deliver", keep=True)  # t=1.5
    clock.now = 2.5
    tracer.close(innermost, "deliver", "stacks")   # 1.0 s
    clock.now = 3.0
    tracer.close(inner, "send", "network")         # 2.0 s, 1.0 of it child
    clock.now = 4.0
    second = tracer.open("send")                   # t=4
    clock.now = 4.25
    tracer.close(second, "send", "network")        # 0.25 s
    clock.now = 5.0
    tracer.close(outer, "run", "sim")              # 5.0 s
    assert tracer.self_s == {"stacks": 1.0, "network": 1.25, "sim": 2.75}, tracer.self_s
    assert sum(tracer.self_s.values()) == 5.0
    assert tracer.total_s["send"] == 2.25 and tracer.calls["send"] == 2
    # Kept spans: [name, start, end, parent]; "deliver" hangs off "run"
    # because its direct parent "send" was aggregated, not kept.
    assert tracer.spans == [["run", 0.0, 5.0, -1], ["deliver", 1.5, 2.5, 0]], tracer.spans


def test_wrappers_install_and_restore() -> None:
    class Layer:
        def work(self, x):
            return x + 1

    tracer = Tracer()
    original = Layer.__dict__["work"]
    tracer.wrap(Layer, "work", "layer", "Layer.work", on_result=lambda r, a: None)
    tracer.count(Layer, "work", "work.calls")
    assert Layer().work(1) == 2 and Layer().work(2) == 3
    assert tracer.calls["Layer.work"] == 2 and tracer.counts["work.calls"] == 2
    tracer.restore()
    assert Layer.__dict__["work"] is original


def test_metric_names() -> None:
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert set(DETERMINISTIC) <= set(PER_LAYER)
    for name in names:
        assert METRIC_NAME.match(name), name
    try:
        result_line({"bad name": 1.0}, {"bad name": "s"}, 1, 0)
    except ValueError:
        pass
    else:
        raise AssertionError("a metric name with a space was accepted")


def test_benchmark_json_matches_spec() -> None:
    doc = BENCHMARK
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    for entry in doc["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert [m["name"] for m in doc["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in doc["per_layer"]] == list(PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    for spec in WORKLOADS.values():
        assert spec["seed"] != spec["held_out_seed"]


def test_host_scale() -> None:
    # The median probe sets the scale: a host twice as slow as the
    # reference halves every host time it reports.
    ref = PROBES["python"][1]
    assert host_scale("python", [ref * 2, ref * 2, ref * 9]) == 0.5
    assert host_scale("numpy", [PROBES["numpy"][1]]) == 1.0
    assert all(len(probe_times(kind, 2)) == 2 for kind in PROBES)


def test_failure_accounting() -> None:
    from servebench import FAILED_MS, closed_loop_stats, encode_op, open_loop_stats, reply_ok

    from repro.wire import control as ctl

    ack = ctl.ControlAck(7).encode()
    error = ctl.ControlError(ctl.ERR_REJECTED, "no").encode()
    assert reply_ok("finish", 7, ack)
    assert not reply_ok("finish", 8, ack)             # about another flow
    assert not reply_ok("announce", (7, 0, 1, 1e9), error)
    assert not reply_ok("query", 7, ack)              # wrong reply type
    assert not reply_ok("query", 7, b"\x00garbage")
    assert encode_op("finish", 7)[4:] == ctl.FlowFinish(7).encode()
    ops = [("finish", 7), ("announce", (9, 0, 1, 1e9)), ("finish", 7)]
    due, sent = [0.0, 0.1, 0.2], [0.0, 0.1, 0.2]
    replied = [0.001, 0.102, None]                    # the last one timed out
    stats = open_loop_stats(ops, (due, sent, replied, [ack, error, None]))
    assert stats["failed"] == 2 and not stats["fell_behind"]
    # A failed operation misses every latency limit up to the timeout.
    assert stats["latency_ms"]["update"] == [1.0, FAILED_MS, FAILED_MS]
    # Closed loop: an error reply and a timeout (no reply) both count.
    updates, failed = closed_loop_stats(
        ops + [("query", 7)], [0.002, 0.003, None, 0.001], [ack, error, None, ack]
    )
    assert failed == 3 and updates == [2.0, FAILED_MS, FAILED_MS]
    # A generator that fell behind fails every open-loop operation.
    late = open_loop_stats(ops, (due, [0.0, 0.2, 0.3], replied, [ack, ack, ack]))
    assert late["fell_behind"] and late["failed"] == 3
    line = json.loads(result_line({"wall_s": 1.5}, {"wall_s": "s"}, 3, 2))
    assert line == {"correct": True, "attempted": 3, "failed": 2,
                    "metrics": {"wall_s": {"value": 1.5, "unit": "s"}}}


def test_timed_out_replies_are_dropped() -> None:
    """A reply owed to a timed-out request is not paired with a later one."""
    import socket

    from servebench import Connection, encode_op

    from repro.wire import control as ctl

    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    conn = Connection(server.getsockname()[1])
    peer, _ = server.accept()
    try:
        conn.owed = 1
        peer.sendall(b"".join(ctl.encode_frame(ctl.ControlAck(i).encode()) for i in (1, 2)))
        got = []
        while not got:
            got = conn.read(5.0)
        assert [ctl.decode_control(body).flow_id for _, body in got] == [2]
        assert conn.owed == 0
        assert encode_op("query", 3)[4:] == ctl.AllocQuery(3).encode()
    finally:
        conn.close()
        peer.close()
        server.close()


def test_inputs_are_seeded() -> None:
    dims = (4, 4, 4)
    assert flow_trace(3, dims, 50) == flow_trace(3, dims, 50)
    assert flow_trace(3, dims, 50) != flow_trace(4, dims, 50)
    trace = flow_trace(5, dims, 400)
    assert sorted(size for *_, size, _ in trace) == pareto_quantile_sizes(400)
    assert all(src != dst for _, src, dst, _, _ in trace)
    weighted = sum(size * torus_hops(src, dst, dims) for _, src, dst, size, _ in trace)
    weighted /= sum(pareto_quantile_sizes(400))
    assert abs(weighted - mean_hops(dims)) <= 0.01 * mean_hops(dims)
    assert torus_hops(0, 63, dims) == 3 and torus_hops(0, 2, dims) == 2
    assert mean_hops((8, 8, 8)) == 6 * 512 / 511
    preload, ops = serve_script(2, 64, 20, 300)
    assert (preload, ops) == serve_script(2, 64, 20, 300)
    live = {flow[0] for flow in preload}
    for kind, flow in ops:
        if kind == "announce":
            assert flow[0] not in live
            live.add(flow[0])
        elif kind == "finish":
            assert flow in live
            live.remove(flow)
        else:
            assert (flow if kind == "query" else flow[0]) in live
    assert set(live_after(preload, ops)) == live
    # Each announce and demand update is read back by a query of its flow.
    for (kind, flow), following in zip(ops, ops[1:]):
        if kind in ("announce", "demand"):
            assert following == ("query", flow[0])
    kinds = [kind for kind, _ in serve_script(2, 64, 20, 39 * 40)[1]]
    for kind in ("announce", "finish", "demand"):
        assert kinds.count(kind) == 40 * UPDATE_BLOCK.count(kind)
    assert percentile(range(1, 101), 97) == 97 and percentile([5.0], 50) == 5.0


def main() -> int:
    tests = [value for name, value in globals().items() if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
