#!/usr/bin/env python3
"""Chaos soak for `lvtool serve` — fault injection under load.

Runs the same deterministic request schedule twice against a real server
process (through serve_soak.py's lvrpc/1 codec):

  1. a clean cycle: no failpoints, responses recorded per (client, index);
  2. a chaos cycle: LVSIM_FAILPOINTS arms every store/svc injection site
     at low probability (docs/RESILIENCE.md), the server is gracefully
     restarted mid-stream, and every client retries transport failures
     and coded svc.internal responses with bounded exponential backoff.

Then asserts the resilience contract:

  * zero hangs (every socket op carries a timeout, ctest caps the run);
  * both server processes exit 0 with no sanitizer report;
  * every chaos-cycle response is BIT-IDENTICAL to the clean cycle's —
    injected faults may cost retries and recomputes, never a wrong or
    lost answer;
  * the armed sites actually fired (scraped from `lvtool failpoints`
    through the server itself).

`--list-sites` instead validates the failpoint registry compiled into
the binary against EXPECTED_SITES — the same contract pinned by
tests/failpoint_test.cpp and documented in docs/RESILIENCE.md.

Run directly (./chaos_soak.py --lvtool build/tools/lvtool) or via ctest
(lvtool_chaos_soak, a 400-request smoke with the same assertions and
every site armed, and lvtool_failpoint_registry). CI runs the full
1000-request soak against tsan and asan/ubsan builds (the chaos-soak
job).
"""

import argparse
import os
import random
import shutil
import socket
import subprocess
import sys
import threading
import time

# The lvrpc/1 frame and payload codec is serve_soak's; this tool keeps
# its own connection class, which raises Dropped instead of asserting.
from serve_soak import (
    ERROR,
    HEADER,
    HELLO,
    HELLO_OK,
    MAGIC,
    REQUEST,
    RESPONSE,
    SHUTDOWN,
    SHUTDOWN_OK,
    VERSION,
    decode_response,
    encode_request,
    frame,
)

# The site registry contract. Must match tests/failpoint_test.cpp
# (RegistryListsEveryCompiledSite) and docs/RESILIENCE.md; `lvtool
# failpoints` prints these sorted, one per line.
EXPECTED_SITES = [
    "sim.graph_decode",
    "store.design_decode",
    "store.group_write",
    "store.read",
    "store.rename",
    "store.sweep_unlink",
    "store.temp_write",
    "svc.accept",
    "svc.sock_read",
    "svc.sock_write",
    "svc.worker",
]

# Every site armed, firing at 1-5%. Seeds make the schedule reproducible
# per site; the mix covers all three actions (error, torn, delay).
DEFAULT_FAILPOINTS = ",".join(
    [
        "store.read=torn:0.05@11",
        "store.temp_write=torn:0.05@12",
        "store.rename=error:0.02@13",
        "store.group_write=delay:0.05@14",
        "store.design_decode=error:0.05@15",
        "store.sweep_unlink=error:0.05@16",
        "sim.graph_decode=error:0.05@17",
        "svc.sock_read=torn:0.02@18",
        "svc.sock_write=error:0.01@19",
        "svc.accept=error:0.05@20",
        "svc.worker=error:0.02@21",
    ]
)

NETLIST_AND = (
    b"lvnet 1\n"
    b"input a\n"
    b"input b\n"
    b"net y\n"
    b"gate g0 AND2 y a b\n"
    b"output y\n"
)
NETLIST_INV = (
    b"lvnet 1\n"
    b"input a\n"
    b"net y\n"
    b"gate g0 INV y a\n"
    b"output y\n"
)

# The deterministic request vocabulary: every variant is a pure function
# of its payload, so clean and chaos cycles must produce identical bytes.
VARIANTS = [
    (b"stats", [b"soak.lvnet"], [], [(b"netlist", NETLIST_AND)]),
    (b"stats", [b"soak2.lvnet"], [], [(b"netlist", NETLIST_INV)]),
    (
        b"simulate",
        [b"soak.lvnet"],
        [(b"--vectors", b"64"), (b"--seed", b"7")],
        [(b"netlist", NETLIST_AND)],
    ),
    (
        b"simulate",
        [b"soak2.lvnet"],
        [(b"--vectors", b"32"), (b"--seed", b"9")],
        [(b"netlist", NETLIST_INV)],
    ),
    (b"version", [], [], []),
    (b"techfile", [b"soias"], [], []),
]


def variant_for(client, index, seed):
    """Pure function of (client, index, seed): both cycles replay it."""
    return VARIANTS[(client * 7919 + index * 104729 + seed) % len(VARIANTS)]


class Dropped(Exception):
    """The connection died mid-exchange — retryable under chaos."""


class Conn:
    """One protocol connection (hello exchanged in the constructor).

    Raises Dropped (not AssertionError) on EOF or error frames, so chaos
    clients can treat a torn connection as a retryable event.
    """

    def __init__(self, path, timeout=30):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.buf = b""
        kind, _, payload = self.round_trip(HELLO, 0, b"chaos_soak lvrpc/1")
        if kind != HELLO_OK:
            raise Dropped(f"hello answered with kind {kind}")
        self.banner = payload.decode()

    def close(self):
        self.sock.close()

    def read_frame(self):
        while True:
            if len(self.buf) >= HEADER.size:
                magic, version, kind, plen, rid = HEADER.unpack_from(self.buf)
                assert magic == MAGIC and version == VERSION, "bad reply header"
                if len(self.buf) >= HEADER.size + plen:
                    payload = self.buf[HEADER.size : HEADER.size + plen]
                    self.buf = self.buf[HEADER.size + plen :]
                    return kind, rid, payload
            chunk = self.sock.recv(65536)
            if not chunk:
                raise Dropped("peer closed the connection")
            self.buf += chunk

    def round_trip(self, kind, request_id, payload):
        self.sock.sendall(frame(kind, request_id, payload))
        return self.read_frame()

    def request(self, rid, payload):
        kind, got_rid, reply = self.round_trip(REQUEST, rid, payload)
        if kind == ERROR:
            raise Dropped(f"error frame: {reply!r}")
        assert kind == RESPONSE and got_rid == rid, (
            f"bad reply kind={kind} rid={got_rid}"
        )
        exit_code, out, err, files, diag_json, report_json = decode_response(
            reply
        )
        return exit_code, out, err, tuple(files), diag_json, report_json


def run_one(path, rid, payload, chaos, jitter):
    """One request; under chaos, retries dropped connections, refused
    connects, and injected svc.internal responses with bounded
    exponential backoff. Always returns a clean, comparable response."""
    attempts = 80 if chaos else 1
    delay = 0.005
    last = None
    for _ in range(attempts):
        try:
            conn = Conn(path)
            try:
                resp = conn.request(rid, payload)
            finally:
                conn.close()
            exit_code, _, err, *_ = resp
            if chaos and exit_code == 1 and b"svc.internal" in err:
                # An injected worker exception: coded, contained, and —
                # because every op is pure — safe to replay.
                last = Dropped(f"svc.internal: {err!r}")
            else:
                return resp
        except (Dropped, OSError) as e:
            last = e
        time.sleep(delay * (1.0 + jitter.random()))
        delay = min(delay * 2, 0.25)
    raise RuntimeError(f"retries exhausted: {last}")


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.completed = 0
        self.errors = []

    def done(self):
        with self.lock:
            self.completed += 1
            return self.completed

    def fail(self, message):
        with self.lock:
            self.errors.append(message)


def client_worker(path, client, n, seed, chaos, stats, results):
    jitter = random.Random(seed * 1009 + client)
    for i in range(n):
        op, positional, options, inputs = variant_for(client, i, seed)
        payload = encode_request(op, positional, options, inputs)
        try:
            resp = run_one(path, client * 100000 + i, payload, chaos, jitter)
        except Exception as e:  # noqa: BLE001 - collect, don't kill the thread
            stats.fail(f"client {client} request {i}: {e}")
            return
        # report_json excluded: it carries cumulative timers. Everything
        # the user sees (exit code, stdout, stderr, files, diagnostics)
        # must match bit-for-bit.
        results[(client, i)] = resp[:5]
        stats.done()


def start_server(lvtool, path, cache_dir, failpoints):
    env = dict(os.environ)
    env.pop("LVSIM_FAILPOINTS", None)
    if failpoints:
        env["LVSIM_FAILPOINTS"] = failpoints
    cmd = [lvtool, "serve", "--socket", path, "--queue", "256",
           "--cache-dir", cache_dir or "none"]
    return subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env,
    )


def wait_ready(path, server):
    deadline = time.time() + 30
    while True:
        if server.poll() is not None:
            out, err = server.communicate(timeout=5)
            sys.exit(f"server died during startup\nstdout:{out}\nstderr:{err}")
        if os.path.exists(path):
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            probe.settimeout(5)
            try:
                probe.connect(path)
                return
            except OSError:
                pass
            finally:
                probe.close()
        if time.time() > deadline:
            server.kill()
            out, err = server.communicate()
            sys.exit(f"server never came up\nstdout:{out}\nstderr:{err}")
        time.sleep(0.05)


def check_clean_exit(server, label):
    out, err = server.communicate(timeout=120)
    assert server.returncode == 0, (
        f"{label} server exit {server.returncode}\nstdout:{out}\nstderr:{err}"
    )
    for marker in ("ThreadSanitizer", "AddressSanitizer", "runtime error",
                   "LeakSanitizer"):
        assert marker not in err and marker not in out, (
            f"sanitizer report in {label} server output:\n{err}\n{out}"
        )
    assert "shutdown: drained" in out, (
        f"{label} server did not drain:\n{out}"
    )


def shut_down(server, path, chaos):
    """Graceful shutdown; under chaos the shutdown exchange itself can be
    hit by injection, so losing the SHUTDOWN_OK is tolerated as long as
    the process drains and exits 0."""
    for _ in range(40):
        try:
            conn = Conn(path)
            try:
                kind, _, _ = conn.round_trip(SHUTDOWN, 999999, b"")
            finally:
                conn.close()
            if kind == SHUTDOWN_OK:
                break
        except (Dropped, OSError):
            if server.poll() is not None:
                break  # the frame landed; the reply got lost
        if not chaos:
            raise RuntimeError("clean-cycle shutdown handshake failed")
        time.sleep(0.05)


def scrape_failpoint_hits(path):
    """Total hits across armed sites, via `lvtool failpoints` through the
    server (each line: `name  [armed: action evals=N hits=M]`). The
    scrape is itself a request to an armed server, so it goes through
    the same retry loop as the soak's own requests."""
    _, out, *_ = run_one(path, 424242, encode_request(b"failpoints"),
                         True, random.Random(424242))
    hits = 0
    for line in out.decode().splitlines():
        if "hits=" in line:
            hits += int(line.split("hits=")[1].split("]")[0])
    return hits


def run_cycle(args, path, cache_dir, failpoints, restart_at=None):
    """One full load cycle. Returns the per-(client, index) responses."""
    chaos = bool(failpoints)
    if cache_dir:
        shutil.rmtree(cache_dir, ignore_errors=True)
    server = start_server(args.lvtool, path, cache_dir, failpoints)
    fired = 0
    try:
        wait_ready(path, server)
        per_client = max(1, -(-args.requests // args.clients))
        stats = Stats()
        results = {}
        threads = [
            threading.Thread(
                target=client_worker,
                args=(path, c, per_client, args.seed, chaos, stats, results),
            )
            for c in range(args.clients)
        ]
        for t in threads:
            t.start()

        if restart_at is not None:
            # Mid-stream graceful restart: drain the first server while
            # clients are firing, then bring up a fresh process on the
            # same socket (exercising stale-socket reclaim); clients
            # absorb the gap through their retry budget.
            while stats.completed < restart_at and any(
                t.is_alive() for t in threads
            ):
                time.sleep(0.02)
            shut_down(server, path, chaos)
            check_clean_exit(server, "chaos (pre-restart)")
            server = start_server(args.lvtool, path, cache_dir, failpoints)
            wait_ready(path, server)

        for t in threads:
            t.join()
        if stats.errors:
            sys.exit("chaos soak failures:\n" + "\n".join(stats.errors[:20]))
        if chaos:
            fired = scrape_failpoint_hits(path)
        shut_down(server, path, chaos)
        check_clean_exit(server, "chaos" if chaos else "clean")
        server = None
        return results, fired
    finally:
        if server is not None and server.poll() is None:
            server.kill()
            server.communicate()


def list_sites(lvtool):
    proc = subprocess.run(
        [lvtool, "failpoints"], capture_output=True, text=True, timeout=60,
        check=False,
    )
    if proc.returncode != 0:
        sys.exit(f"`lvtool failpoints` exit {proc.returncode}: {proc.stderr}")
    got = [line.split()[0] for line in proc.stdout.splitlines() if line.strip()]
    if got != EXPECTED_SITES:
        missing = sorted(set(EXPECTED_SITES) - set(got))
        extra = sorted(set(got) - set(EXPECTED_SITES))
        sys.exit(
            "failpoint registry drift between chaos_soak.py and the binary\n"
            f"  missing from binary: {missing}\n"
            f"  unexpected in binary: {extra}\n"
            "update EXPECTED_SITES, tests/failpoint_test.cpp and "
            "docs/RESILIENCE.md together"
        )
    print(f"failpoint registry matches ({len(got)} sites)")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--lvtool", required=True)
    parser.add_argument("--work", default="chaos_work")
    parser.add_argument("--requests", type=int, default=1000)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--failpoints", default=DEFAULT_FAILPOINTS)
    parser.add_argument(
        "--list-sites", action="store_true",
        help="only validate the failpoint registry against the binary",
    )
    args = parser.parse_args()

    if args.list_sites:
        list_sites(args.lvtool)
        return

    os.makedirs(args.work, exist_ok=True)
    path = os.path.join(args.work, "chaos.sock")
    if len(path) > 90:  # AF_UNIX path length cap
        path = f"/tmp/lvsim_chaos_{os.getpid()}.sock"
    if os.path.exists(path):
        os.unlink(path)

    started = time.time()
    clean, _ = run_cycle(
        args, path, os.path.join(args.work, "cache_clean"), failpoints=None
    )
    chaos, fired = run_cycle(
        args, path, os.path.join(args.work, "cache_chaos"),
        failpoints=args.failpoints, restart_at=len(clean) // 2,
    )
    elapsed = time.time() - started

    assert fired > 0, "no failpoint ever fired — the chaos cycle was clean"
    assert clean.keys() == chaos.keys(), "request coverage differs"
    diverged = [k for k in sorted(clean) if clean[k] != chaos[k]]
    if diverged:
        c, i = diverged[0]
        sys.exit(
            f"{len(diverged)} responses diverged under fault injection; "
            f"first at client {c} request {i}:\n"
            f"  clean: {clean[(c, i)]!r}\n"
            f"  chaos: {chaos[(c, i)]!r}"
        )
    print(
        f"chaos soak ok: {len(clean)} requests bit-identical across a "
        f"fault-injected cycle ({fired} failpoint hits on the post-restart "
        f"server, mid-stream restart, graceful drains) in {elapsed:.1f}s"
    )


if __name__ == "__main__":
    main()
