"""The control-daemon workload: ``repro serve --dims 8x8x8`` under churn.

The daemon runs in a child process and is driven over one loopback
connection with a seeded mix of announce, finish, demand-update and query
operations (``inputs.serve_script``: the churn oracle's update mix, each
announce and demand update read back by a query), after a preload of 512
mostly host-limited flows (§3.3.2).

* Set-up: daemon start until its port file appears, plus the preload.
  Done once for the measured daemon and once more with a spare daemon at
  the start of every round, so the samples spread over the whole run.
* Open loop: operations are due at a fixed offered rate, whatever the
  daemon does.  Each one is timed from its due time, so a stall is charged
  to every operation queued behind it, and the generator's own lateness
  is reported.  A run whose generator fell behind counts all of its
  open-loop operations as failed.  Replies still missing when the open
  loop gives up count as failed and are dropped when they arrive.
* Closed loop: a fixed script of ``CLOSED_OPS`` operations with one
  request outstanding.  A request with no reply within ``OP_TIMEOUT_S``
  counts as failed, and the loop goes on.

The two loops alternate ``ROUNDS`` times over one seeded op sequence.
Client and daemons share one CPU (``common.pin_to_one_cpu``).  Numpy speed
probes run in the client, with the daemon idle, before every closed loop
and after the last; the end-to-end host times are reported at the
reference host's speed (``common.host_scale``).

The gated update latencies (p50, p99) are the closed loop's.  The
open-loop ones, timed from due time, are reported per layer only: clusters
of back-to-back fallback recomputes (~30 ms each) queue every later
operation, and on a shared 2-CPU box the open-loop p99 read 56, 97 and
110 ms in three runs of one seed.
A failed operation counts with latency ``FAILED_MS`` in every percentile.

At the end every live flow's ALLOC_QUERY rate is checked against a
scratch water-fill of the mirrored flow table.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from common import (
    check, host_scale, median, peak_rss_mb, percentile, pin_to_one_cpu, probe_times,
)
from inputs import live_after, serve_script

from repro.congestion import FlowSpec, WeightProvider, waterfill
from repro.errors import WireFormatError
from repro.routing import protocol_class
from repro.topology import TorusTopology
from repro.wire import control as ctl

DIMS = (8, 8, 8)
N_PRELOAD = 512
#: Offered rate of the open loop, about half the closed-loop capacity
#: (700-920 ops/s on a shared 2-CPU Xeon).
OPEN_RATE = 450.0
#: Share of the run's seconds spent in the open loop.
OPEN_SHARE = 0.5
CLOSED_OPS = 9000
#: The open and closed loops alternate this many times, so that both
#: sample the whole run rather than one stretch of a shared machine's
#: speed, which can drift by 10-20 % over tens of seconds.
ROUNDS = 6
#: The daemon's default headroom (``repro serve --headroom``).
HEADROOM = 0.05
#: A reply later than this after its due time counts as failed.
OP_TIMEOUT_S = 2.0
#: This many closed-loop timeouts in a row fail the run.
MAX_TIMEOUTS = 5
#: A generator later than this at its p99 invalidates the open loop.
GEN_LATE_LIMIT_MS = 25.0
#: Same tolerance as the churn oracle.
RATE_TOLERANCE = 1e-6
PROTOCOL = "ecmp"


# ---------------------------------------------------------------------- #
# Wire
# ---------------------------------------------------------------------- #


def announce_message(flow) -> ctl.FlowAnnounce:
    flow_id, src, dst, demand = flow
    return ctl.FlowAnnounce(
        flow_id=flow_id,
        src=src,
        dst=dst,
        protocol_id=protocol_class(PROTOCOL).protocol_id,
        demand_bps=demand,
    )


def encode_op(kind: str, flow) -> bytes:
    """The framed request for one operation."""
    if kind in ("announce", "demand"):
        message = announce_message(flow)
    elif kind == "finish":
        message = ctl.FlowFinish(flow)
    else:
        message = ctl.AllocQuery(flow)
    return ctl.encode_frame(message.encode())


def reply_ok(kind: str, flow, body: bytes) -> bool:
    """Whether *body* is the right reply to the operation.

    An error reply, a malformed body or an answer about another flow all
    count as a failed operation.
    """
    if body is None:
        return False
    flow_id = flow if isinstance(flow, int) else flow[0]
    try:
        reply = ctl.decode_control(body)
    except WireFormatError:
        return False
    if kind == "query":
        return isinstance(reply, ctl.AllocReply) and reply.known and reply.flow_id == flow_id
    return (
        isinstance(reply, ctl.ControlAck)
        and reply.code == ctl.ACK_OK
        and reply.flow_id == flow_id
    )


class Connection:
    """One loopback connection; replies are matched to requests in order.

    A request that timed out still gets its reply later; ``owed`` counts
    those, and :meth:`read` drops them before returning any reply, so that
    later replies stay paired with their own requests.
    """

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""
        self.owed = 0

    def close(self) -> None:
        self.sock.close()

    def read(self, timeout: float) -> list:
        """Reply bodies that arrive within *timeout*, with their arrival time."""
        ready, _, _ = select.select([self.sock], [], [], max(timeout, 0.0))
        if not ready:
            return []
        data = self.sock.recv(1 << 16)
        arrived = time.perf_counter()
        check(data != b"", "daemon closed the connection")
        bodies, self._buffer = ctl.split_frames(self._buffer + data)
        stale = min(self.owed, len(bodies))
        self.owed -= stale
        return [(arrived, body) for body in bodies[stale:]]

    def pipelined(self, frames) -> list:
        """Send every frame at once, then collect one reply per frame."""
        self.sock.sendall(b"".join(frames))
        replies = []
        deadline = time.perf_counter() + 60
        while len(replies) < len(frames) and time.perf_counter() < deadline:
            replies.extend(body for _, body in self.read(deadline - time.perf_counter()))
        check(len(replies) == len(frames), "daemon did not answer every request")
        return replies

    def closed_loop(self, frames) -> tuple:
        """One request outstanding: ``(elapsed_s, round-trip times, replies)``.

        A request with no reply within ``OP_TIMEOUT_S`` gets ``None`` for
        both and its reply is owed; the run fails only once
        ``MAX_TIMEOUTS`` requests in a row time out.
        """
        rtts, replies = [], []
        timeouts = 0
        started = time.perf_counter()
        for frame in frames:
            sent = time.perf_counter()
            self.sock.sendall(frame)
            got = []
            while not got and time.perf_counter() - sent < OP_TIMEOUT_S:
                got = self.read(sent + OP_TIMEOUT_S - time.perf_counter())
            check(len(got) <= 1, "daemon sent an unrequested reply")
            if got:
                timeouts = 0
                rtts.append(got[0][0] - sent)
                replies.append(got[0][1])
            else:
                timeouts += 1
                check(timeouts < MAX_TIMEOUTS, "daemon stopped answering")
                self.owed += 1
                rtts.append(None)
                replies.append(None)
        return time.perf_counter() - started, rtts, replies

    def open_loop(self, frames, rate: float) -> tuple:
        """Send frame *i* at ``start + i / rate``: ``(due, sent, replied, replies)``.

        ``replied[i]`` is ``None`` for a request with no reply within
        ``OP_TIMEOUT_S`` of the last due time; those replies are owed.
        """
        n = len(frames)
        start = time.perf_counter() + 0.05
        due = [start + i / rate for i in range(n)]
        sent, replied, replies = [None] * n, [None] * n, [None] * n
        next_send = next_reply = 0
        give_up = due[-1] + OP_TIMEOUT_S
        while next_reply < n:
            now = time.perf_counter()
            if now > give_up:
                break
            while next_send < n and due[next_send] <= now:
                self.sock.sendall(frames[next_send])
                sent[next_send] = time.perf_counter()
                next_send += 1
            wait = (due[next_send] if next_send < n else give_up) - time.perf_counter()
            for arrived, body in self.read(wait):
                replied[next_reply], replies[next_reply] = arrived, body
                next_reply += 1
        self.owed += next_send - next_reply
        return due, sent, replied, replies


# ---------------------------------------------------------------------- #
# The daemon
# ---------------------------------------------------------------------- #


class Daemon:
    """A ``repro serve`` child process (optionally the traced variant)."""

    def __init__(self, root: Path, out: Path, tag: str, spans_path=None) -> None:
        self.port_file = out / f"port-{tag}"
        self.log = out / f"daemon-{tag}.log"
        if self.port_file.exists():
            self.port_file.unlink()
        serve_args = ["serve", "--dims", "x".join(map(str, DIMS)),
                      "--headroom", str(HEADROOM), "--port-file", str(self.port_file)]
        if spans_path is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            command = [sys.executable, str(Path(__file__).with_name("traced_daemon.py")),
                       str(spans_path), *serve_args[1:]]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        with open(self.log, "w") as log:
            self.process = subprocess.Popen(
                command, cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT
            )
        self.conn = None

    def connect(self, timeout: float = 60.0) -> Connection:
        """Wait for the port file (the readiness handshake) and connect."""
        deadline = time.perf_counter() + timeout
        while True:
            check(self.process.poll() is None,
                  f"daemon exited early, see {self.log}")
            if self.port_file.exists():
                text = self.port_file.read_text().strip()
                if text:
                    break
            check(time.perf_counter() < deadline, "daemon never became ready")
            time.sleep(0.002)
        self.conn = Connection(int(text))
        return self.conn

    def stop(self) -> None:
        """SIGTERM (a graceful stop), then wait; kill if it hangs."""
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def start_and_preload(root, out, tag, preload, spans_path=None, closed=False):
    """Start a daemon and load *preload*: ``(daemon, setup_s, preload rtts)``."""
    started = time.perf_counter()
    daemon = Daemon(root, out, tag, spans_path)
    try:
        conn = daemon.connect()
        frames = [encode_op("announce", flow) for flow in preload]
        if closed:
            _, rtts, replies = conn.closed_loop(frames)
        else:
            rtts, replies = [], conn.pipelined(frames)
        setup_s = time.perf_counter() - started
        check(all(reply_ok("announce", f, r) for f, r in zip(preload, replies)),
              "daemon rejected a preload announce")
    except BaseException:
        daemon.stop()
        raise
    return daemon, setup_s, rtts


def check_allocation(conn: Connection, live: dict, topology) -> None:
    """Every live flow's served rate equals a scratch water-fill's."""
    ids = sorted(live)
    replies = conn.pipelined([encode_op("query", fid) for fid in ids])
    specs = []
    for fid in ids:
        wire = ctl.FlowAnnounce.decode(announce_message(live[fid]).encode())
        specs.append(FlowSpec(fid, wire.src, wire.dst, PROTOCOL, demand_bps=wire.demand_bps))
    reference = waterfill(topology, specs, WeightProvider(topology), headroom=HEADROOM)
    worst = 0.0
    for fid, body in zip(ids, replies):
        reply = ctl.decode_control(body)
        check(isinstance(reply, ctl.AllocReply) and reply.known and reply.flow_id == fid,
              f"final query for flow {fid} got {reply!r}")
        ref = reference.rates_bps[fid]
        worst = max(worst, abs(reply.rate_bps - ref) / max(ref, 1e-12))
    check(worst <= RATE_TOLERANCE,
          f"served rates differ from a scratch water-fill by {worst:.3g} (> {RATE_TOLERANCE})")
    print(f"  allocation check: {len(ids)} live flows match a scratch water-fill "
          f"(max relative error {worst:.2e})", flush=True)


#: The latency a failed operation counts with: it misses every limit
#: up to the timeout.
FAILED_MS = OP_TIMEOUT_S * 1e3


def closed_loop_stats(ops, rtts, replies) -> tuple:
    """``(update latencies in ms, failed count)`` of a closed-loop part."""
    updates, failed = [], 0
    for (kind, flow), rtt, body in zip(ops, rtts, replies):
        ok = rtt is not None and reply_ok(kind, flow, body)
        failed += not ok
        if kind != "query":
            updates.append(rtt * 1e3 if ok else FAILED_MS)
    return updates, failed


def open_loop_stats(ops, result) -> dict:
    """Latency from due time per kind, generator lateness, failures."""
    due, sent, replied, replies = result
    late_ms = [(s - d) * 1e3 for s, d in zip(sent, due) if s is not None]
    latencies = {"update": [], "query": []}
    failed = 0
    for (kind, flow), d, r, body in zip(ops, due, replied, replies):
        ok = r is not None and r - d <= OP_TIMEOUT_S and reply_ok(kind, flow, body)
        failed += not ok
        latency = (r - d) * 1e3 if ok else FAILED_MS
        latencies["query" if kind == "query" else "update"].append(latency)
    gen_late_p99 = percentile(late_ms, 99) if late_ms else float("inf")
    fell_behind = len(late_ms) < len(ops) or gen_late_p99 > GEN_LATE_LIMIT_MS
    if fell_behind:
        failed = len(ops)
    return {"latency_ms": latencies, "gen_late_p99_ms": gen_late_p99,
            "failed": failed, "fell_behind": fell_behind}


def script(seed: int, seconds: float) -> tuple:
    """The preload and ``ROUNDS`` pairs of (open-loop ops, closed-loop ops)."""
    n_open = int(OPEN_RATE * seconds * OPEN_SHARE / ROUNDS)
    n_closed = CLOSED_OPS // ROUNDS
    step = n_open + n_closed
    preload, ops = serve_script(seed, TorusTopology(DIMS).n_nodes, N_PRELOAD, ROUNDS * step)
    rounds = [(ops[i:i + n_open], ops[i + n_open:i + step]) for i in range(0, len(ops), step)]
    return preload, rounds


def measure(root: Path, out: Path, seed: int, seconds: float, tag: str) -> dict:
    """The untraced end-to-end measurement (and phase A of the traced run)."""
    pin_to_one_cpu()
    preload, rounds = script(seed, seconds)
    topology = TorusTopology(DIMS)
    setups, probes = [], []
    daemon = None
    open_ops, open_result = [], ([], [], [], [])
    closed_s, closed_updates, closed_failed, n_closed = 0.0, [], 0, 0
    closed_queries = []
    try:
        daemon, setup_s, _ = start_and_preload(root, out, tag, preload)
        setups.append(setup_s)
        conn = daemon.conn
        for i, (open_part, closed_part) in enumerate(rounds):
            spare, setup_s, _ = start_and_preload(root, out, f"{tag}-spare{i}", preload)
            spare.stop()
            setups.append(setup_s)
            result = conn.open_loop([encode_op(k, f) for k, f in open_part], OPEN_RATE)
            open_ops += open_part
            for merged, part in zip(open_result, result):
                merged.extend(part)
            probes += probe_times("numpy")
            elapsed, rtts, replies = conn.closed_loop([encode_op(k, f) for k, f in closed_part])
            closed_s += elapsed
            n_closed += len(closed_part)
            updates, failed = closed_loop_stats(closed_part, rtts, replies)
            closed_updates += updates
            closed_failed += failed
            closed_queries += [
                rtt * 1e3 for (kind, _), rtt in zip(closed_part, rtts)
                if kind == "query" and rtt is not None
            ]
        probes += probe_times("numpy")
        ops = [op for pair in rounds for part in pair for op in part]
        check_allocation(conn, live_after(preload, ops), topology)
    finally:
        if daemon is not None:
            daemon.stop()
    stats = open_loop_stats(open_ops, open_result)
    updates, queries = stats["latency_ms"]["update"], stats["latency_ms"]["query"]
    print(f"  open loop: {len(open_ops)} ops at {OPEN_RATE:g}/s, {len(updates)} updates "
          f"p50 {percentile(updates, 50):.3f} ms p99 {percentile(updates, 99):.3f} ms, "
          f"{len(queries)} queries p50 {percentile(queries, 50):.3f} ms "
          f"p99 {percentile(queries, 99):.3f} ms, generator late p99 "
          f"{stats['gen_late_p99_ms']:.3f} ms", flush=True)
    if stats["fell_behind"]:
        print("  open loop: the generator fell behind; its operations count as failed",
              flush=True)
    print(f"  set-up: {len(setups)} samples, median {median(setups):.3f} s "
          f"(min {min(setups):.3f}, max {max(setups):.3f})", flush=True)
    print(f"  closed loop: {n_closed} ops in {closed_s:.3f} s "
          f"({n_closed / closed_s:.1f} ops/s), {len(closed_updates)} updates "
          f"p50 {percentile(closed_updates, 50):.3f} ms p99 "
          f"{percentile(closed_updates, 99):.3f} ms", flush=True)
    # The query share sets rate_per_s: 1 / rate = share * query mean +
    # (1 - share) * update mean.
    print(f"  closed loop means: update {sum(closed_updates) / len(closed_updates):.3f} ms, "
          f"query {sum(closed_queries) / max(len(closed_queries), 1):.3f} ms "
          f"({len(closed_queries) / n_closed:.1%} of ops)", flush=True)
    scale = host_scale("numpy", probes)
    print(f"  host: median probe {median(probes):.4f} s of {len(probes)}, so host times "
          f"x {scale:.4f}", flush=True)
    return {
        "wall_s": (median(setups) + closed_s) * scale,
        "setup_s": median(setups) * scale,
        "rate_per_s": n_closed / closed_s / scale,
        "p50_ms": percentile(closed_updates, 50) * scale,
        "tail_ms": percentile(closed_updates, 99) * scale,
        "bench.probe_s": median(probes),
        "service.open_update_p50_ms": percentile(updates, 50),
        "service.open_update_p99_ms": percentile(updates, 99),
        "service.query_p50_ms": percentile(queries, 50),
        "service.query_p99_ms": percentile(queries, 99),
        "gen_late_p99_ms": stats["gen_late_p99_ms"],
        "closed_s": closed_s,
        "attempted": len(preload) + len(open_ops) + n_closed,
        "failed": stats["failed"] + closed_failed,
        "peak_rss_mb": max(peak_rss_mb(), peak_rss_mb(children=True)),
    }


def measure_traced(root: Path, out: Path, seed: int, seconds: float, spans_path) -> dict:
    """Per-layer metrics: phase A untraced, phase B against a traced daemon.

    Phase B runs every operation closed loop, so the sum of client round
    trips minus the daemon's state time is the wire and event-loop share.
    Phase A's failed operations are counted as in an untraced run; a wrong
    answer or a timeout in phase B fails the run.
    """
    plain = measure(root, out, seed, seconds, "plain")
    preload, rounds = script(seed, seconds)
    daemon, _, rtts = start_and_preload(root, out, "traced", preload,
                                        spans_path=spans_path, closed=True)

    def one_at_a_time(ops) -> float:
        elapsed, part_rtts, replies = daemon.conn.closed_loop([encode_op(k, f) for k, f in ops])
        check(all(reply_ok(k, f, r) for (k, f), r in zip(ops, replies)),
              "traced daemon answered an operation wrongly")
        rtts.extend(part_rtts)
        return elapsed

    closed_s = 0.0
    try:
        for open_part, closed_part in rounds:
            one_at_a_time(open_part)
            closed_s += one_at_a_time(closed_part)
    finally:
        daemon.stop()
    check(daemon.process.returncode == 0, f"traced daemon failed, see {daemon.log}")
    spans = json.loads(Path(spans_path).read_text())
    total, stats = spans["total_s"], spans["stats"]
    self_s = spans["self_s"]
    state_s = sum(total.get(f"service.{op}", 0.0) for op in ("announce", "finish", "query"))
    print(f"  traced daemon: a child process running perfbench/traced_daemon.py "
          f"(repro serve with span wrappers); closed loop {closed_s:.3f} s "
          f"against {plain['closed_s']:.3f} s untraced; spans in {spans_path}", flush=True)
    return {
        "congestion.weight_rows": spans["weight_rows"],
        "congestion.weights_s": self_s.get("weights", 0.0),
        "congestion.patch_s": self_s.get("incremental", 0.0) + self_s.get("fallback", 0.0),
        "congestion.fallback_s": self_s.get("fallback", 0.0),
        "congestion.incremental_ops": stats["incremental_ops"],
        "congestion.fallback_recomputes": stats["fallback_recomputes"],
        "congestion.incremental_ratio": stats["incremental_ratio"],
        "service.state_s": state_s,
        "service.ops": len(rtts),
        "wire.remainder_s": sum(rtts) - state_s,
        "service.open_update_p50_ms": plain["service.open_update_p50_ms"],
        "service.open_update_p99_ms": plain["service.open_update_p99_ms"],
        "service.query_p50_ms": plain["service.query_p50_ms"],
        "service.query_p99_ms": plain["service.query_p99_ms"],
        "bench.trace_overhead_frac": closed_s / plain["closed_s"] - 1.0,
        "bench.gen_late_p99_ms": plain["gen_late_p99_ms"],
        "bench.probe_s": plain["bench.probe_s"],
        # Phase B's wrong answers fail the run; phase A's count as failed.
        "attempted": plain["attempted"] + len(rtts),
        "failed": plain["failed"],
    }
