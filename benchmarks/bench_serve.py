"""Benchmarks for the batching simulation service (``loom-repro serve``).

Two measurements, written to ``BENCH_serve.json``:

* **warm-store throughput** -- requests/second against a warm serve node,
  a ``ClusterWorker`` (the result is in the store, so each request is one
  HTTP round-trip plus a cache lookup).  This is the "amortise everything"
  promise of the serve ISSUE made concrete: a warm request costs
  milliseconds where a cold CLI invocation costs a full interpreter start,
  import, profile load and simulation.
* **amortisation win** -- wall-clock for N *independent cold CLI
  invocations* of the same job (fresh process each time: the pre-serve
  execution model) versus the same N requests against one warm service
  (first request simulates, the rest hit the store; concurrent duplicates
  coalesce onto one execution).

Script mode is the CI smoke check::

    python benchmarks/bench_serve.py --quick

which uses a reduced N, asserts the *deterministic* properties (exactly one
simulation for N identical requests, bit-identical payloads, a >1 win) and
writes the measurements; the full run (no flag) uses a larger N for stabler
numbers.  Asserting counts rather than milliseconds keeps the gate robust on
noisy shared runners.

``--check`` adds the **exchange gate**: the CPU one keep-alive no-op
exchange costs through the whole stack (``ServeClient`` -> ``ClusterWorker``
``GET /healthz``) against the floor of the same exchange in the same
Python (a raw socket -> a bare ``asyncio.Protocol`` that answers a fixed
reply).  Both sides are timed in process CPU (client and server threads
together) over interleaved rounds, and the gate is the median of the
per-round ratios, so neither runner speed nor one noisy round decides it.
It runs in a fresh interpreter: what ran before in a process moves both
sides (after glibc's allocator has freed one large block, its raised
thresholds make every socket read cheaper, and the bare side reads 15-20
us instead of 35-50), so the gate measures from one known state.  It fails
above :data:`EXCHANGE_CEILING`.
"""

import argparse
import asyncio
import json
import os
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")
if _SRC not in sys.path:  # script mode; pytest gets this from conftest.py
    sys.path.insert(0, _SRC)

from repro.cluster import ClusterWorker
from repro.serve import ServeClient, ServiceCore, SQLiteResultStore
from repro.sim.jobs import JobExecutor, ResultCache

#: The job every measurement uses (small but real: 12 conv layers).
POINT = {"network": "nin", "accelerator": "loom"}

#: Warm requests per throughput measurement (quick mode shrinks this).
WARM_REQUESTS = 200

#: Cold CLI invocations the amortisation comparison replays (each one is a
#: full interpreter start + import + simulate; keep it small).
COLD_INVOCATIONS = 4


#: Ceiling on the median CPU ratio of a keep-alive no-op exchange through
#: ServeClient -> ClusterWorker over the bare asyncio.Protocol floor.
EXCHANGE_CEILING = 4.5

#: Interleaved rounds, and exchanges per side in each round.
EXCHANGE_ROUNDS = 15
EXCHANGES_PER_ROUND = 200

_BARE_REQUEST = b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n"
_BARE_REPLY = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
               b"Content-Length: 12\r\n\r\n{\"ok\": true}")


class _BareProtocol(asyncio.Protocol):
    """The floor: answer every request head with one fixed reply."""

    def connection_made(self, transport):
        self.transport = transport
        self.pending = b""

    def data_received(self, data):
        self.pending += data
        while b"\r\n\r\n" in self.pending:
            _, _, self.pending = self.pending.partition(b"\r\n\r\n")
            self.transport.write(_BARE_REPLY)


class _BareServer:
    """A :class:`_BareProtocol` server on its own loop thread."""

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        ready = threading.Event()

        async def bind():
            self.server = await self.loop.create_server(
                _BareProtocol, "127.0.0.1", 0)
            self.port = self.server.sockets[0].getsockname()[1]
            ready.set()

        self.thread = threading.Thread(
            target=lambda: self.loop.run_until_complete(self._serve(bind)),
            daemon=True)
        self.stopped = None
        self.thread.start()
        ready.wait(10.0)

    async def _serve(self, bind):
        self.stopped = asyncio.Event()
        await bind()
        await self.stopped.wait()
        self.server.close()
        await self.server.wait_closed()

    def close(self):
        self.loop.call_soon_threadsafe(self.stopped.set)
        self.thread.join(10.0)
        self.loop.close()


def _cpu_seconds(task) -> float:
    start = time.process_time()
    task()
    return time.process_time() - start


def measure_exchange(rounds: int = EXCHANGE_ROUNDS,
                     per_round: int = EXCHANGES_PER_ROUND) -> dict:
    """Process CPU of a keep-alive no-op exchange through the stack against
    the bare floor, over ``rounds`` interleaved rounds."""
    bare = _BareServer()
    worker = ClusterWorker()
    client = ServeClient(worker.start(), timeout_s=30.0)
    sock = socket.create_connection(("127.0.0.1", bare.port), timeout=30.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        def node_side():
            for _ in range(per_round):
                client.healthz()

        def bare_side():
            for _ in range(per_round):
                sock.sendall(_BARE_REQUEST)
                received = b""
                while len(received) < len(_BARE_REPLY):
                    received += sock.recv(65536)

        node_side()  # warm both sides before timing
        bare_side()
        nodes, bares, ratios = [], [], []
        for round_index in range(rounds):
            if round_index % 2:
                bare_s, node_s = _cpu_seconds(bare_side), \
                    _cpu_seconds(node_side)
            else:
                node_s, bare_s = _cpu_seconds(node_side), \
                    _cpu_seconds(bare_side)
            nodes.append(node_s)
            bares.append(bare_s)
            ratios.append(node_s / bare_s if bare_s > 0 else float("inf"))
    finally:
        sock.close()
        client.close()
        worker.stop()
        bare.close()
    return {
        "rounds": rounds,
        "exchanges_per_round": per_round,
        "node_us_per_exchange": statistics.median(nodes) / per_round * 1e6,
        "bare_us_per_exchange": statistics.median(bares) / per_round * 1e6,
        "ratio": statistics.median(ratios),
    }


def measure_exchange_fresh() -> dict:
    """:func:`measure_exchange` in a fresh interpreter (see the module
    docstring)."""
    code = ("import json, bench_serve; "
            "print(json.dumps(bench_serve.measure_exchange()))")
    completed = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, env=_cli_env(),
        cwd=os.path.dirname(os.path.abspath(__file__)))
    return json.loads(completed.stdout.splitlines()[-1])


def format_exchange(measured: dict) -> str:
    return (
        "keep-alive no-op exchange (process CPU, medians of "
        f"{measured['rounds']} interleaved rounds):\n"
        "  ServeClient -> ClusterWorker: "
        f"{measured['node_us_per_exchange']:7.1f} us\n"
        "  raw socket -> bare Protocol:  "
        f"{measured['bare_us_per_exchange']:7.1f} us\n"
        f"  ratio: {measured['ratio']:.2f}x (ceiling {EXCHANGE_CEILING}x)")


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cold_cli_run() -> float:
    """One independent cold CLI invocation of the benchmark job (seconds)."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "--no-cache", "run",
         "--network", POINT["network"]],
        check=True, capture_output=True, env=_cli_env(),
    )
    return time.perf_counter() - start


def bench_serve(quick: bool = False) -> dict:
    warm_requests = 25 if quick else WARM_REQUESTS
    cold_invocations = 2 if quick else COLD_INVOCATIONS
    concurrent = 4

    with tempfile.TemporaryDirectory() as tmp:
        store = SQLiteResultStore(os.path.join(tmp, "bench.db"))
        executor = JobExecutor(cache=ResultCache(backend=store,
                                                 max_memory_entries=64))
        with ClusterWorker(core=ServiceCore(executor=executor)) as node:
            client = ServeClient(node.url)

            # -- coalescing: N concurrent identical cold submissions ---------
            barrier = threading.Barrier(concurrent)
            payloads = []

            def submit():
                barrier.wait()
                payloads.append(client.submit(POINT))

            threads = [threading.Thread(target=submit)
                       for _ in range(concurrent)]
            coalesce_start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            coalesce_wall = time.perf_counter() - coalesce_start

            executions = executor.stats.max_executions_per_key
            assert executions == 1, (
                f"{concurrent} concurrent identical submissions executed "
                f"{executions} times; coalescing is broken"
            )
            reference = payloads[0].result.to_dict()
            assert all(p.result.to_dict() == reference for p in payloads)

            # -- warm-store throughput --------------------------------------
            client.submit(POINT)  # ensure warm
            warm_start = time.perf_counter()
            for _ in range(warm_requests):
                client.submit(POINT)
            warm_wall = time.perf_counter() - warm_start
            warm_rps = warm_requests / warm_wall

            served_stats = node.core.stats.to_dict()

    # -- N independent cold CLI invocations (the pre-serve model) ------------
    cold_walls = [_cold_cli_run() for _ in range(cold_invocations)]
    cold_total = sum(cold_walls)
    # The service answered the same N requests in: one cold execution
    # (amortised over the concurrent batch) + (N - 1) warm round-trips.
    serve_equivalent = coalesce_wall + (cold_invocations - 1) / warm_rps
    amortisation_win = cold_total / serve_equivalent

    return {
        "benchmark": "serve",
        "point": POINT,
        "warm_requests": warm_requests,
        "warm_requests_per_second": round(warm_rps, 1),
        "warm_request_ms": round(1000.0 / warm_rps, 3),
        "concurrent_submissions": concurrent,
        "coalesced_executions": 1,
        "coalesce_wall_s": round(coalesce_wall, 4),
        "cold_cli_invocations": cold_invocations,
        "cold_cli_wall_s": [round(w, 3) for w in cold_walls],
        "cold_cli_total_s": round(cold_total, 3),
        "serve_equivalent_s": round(serve_equivalent, 3),
        "amortisation_win": round(amortisation_win, 2),
        "service_stats": served_stats,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the batching simulation service: warm-store "
                    "throughput and the amortisation win over independent "
                    "cold CLI invocations.")
    parser.add_argument("--quick", action="store_true",
                        help="reduced request counts (the CI smoke variant)")
    parser.add_argument("--output", default="BENCH_serve.json",
                        metavar="PATH", help="where to write the JSON results "
                        "(default: BENCH_serve.json)")
    parser.add_argument("--check", action="store_true",
                        help="also gate a keep-alive no-op exchange at "
                             f"<= {EXCHANGE_CEILING}x the CPU of a bare "
                             "asyncio.Protocol exchange")
    args = parser.parse_args(argv)

    measured = bench_serve(quick=args.quick)
    if args.check:
        measured["exchange"] = measure_exchange_fresh()
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(measured, handle, indent=2, sort_keys=True)

    print("== loom-repro serve: warm store vs cold CLI invocations ==")
    print(f"warm store:       {measured['warm_requests_per_second']:.1f} "
          f"requests/s ({measured['warm_request_ms']:.2f} ms/request)")
    print(f"coalescing:       {measured['concurrent_submissions']} concurrent "
          f"identical submissions -> 1 execution "
          f"({measured['coalesce_wall_s']:.2f}s)")
    print(f"cold CLI:         {measured['cold_cli_invocations']} independent "
          f"invocations, {measured['cold_cli_total_s']:.2f}s total")
    print(f"amortisation win: {measured['amortisation_win']:.2f}x "
          f"(same work through one warm service: "
          f"{measured['serve_equivalent_s']:.2f}s)")
    print(f"results written to {args.output}")

    # The coalescing assertion already ran inside bench_serve; the win must
    # merely exist, not hit a wall-clock target.
    assert measured["amortisation_win"] > 1.0, (
        f"serving was not faster than cold CLI invocations "
        f"({measured['amortisation_win']:.2f}x)"
    )
    if args.check:
        print(format_exchange(measured["exchange"]))
        if measured["exchange"]["ratio"] > EXCHANGE_CEILING:
            print("FAIL: a keep-alive exchange costs "
                  f"{measured['exchange']['ratio']:.2f}x the bare floor "
                  f"(ceiling {EXCHANGE_CEILING}x)", file=sys.stderr)
            return 1
    return 0


# -- pytest harness entry points ----------------------------------------------


def test_bench_serve(artefacts):
    measured = bench_serve(quick=True)
    artefacts["serve"] = (
        "== serve: warm store vs cold CLI ==\n"
        f"warm: {measured['warm_requests_per_second']:.1f} req/s   "
        f"cold CLI total: {measured['cold_cli_total_s']:.2f}s   "
        f"amortisation win: {measured['amortisation_win']:.2f}x"
    )
    assert measured["amortisation_win"] > 1.0


def test_bench_exchange_gate(artefacts):
    measured = measure_exchange_fresh()
    artefacts["serve-exchange"] = format_exchange(measured)
    assert measured["ratio"] <= EXCHANGE_CEILING, format_exchange(measured)


if __name__ == "__main__":
    sys.exit(main())
