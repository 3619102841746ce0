#!/usr/bin/env python3
"""Soak test for `lvtool serve` — an independent lvrpc/1 client.

Speaks the wire protocol from scratch (no shared code with the C++
implementation, so framing bugs cannot cancel out): starts a server on a
private unix socket, fires a mixed concurrent load — valid requests,
malformed payloads, garbage bytes, oversized frames — from many client
threads, then asserts:

  * every valid request got exit code 0, every malformed one exit code 2;
  * requests pipelined on one connection (timing, power, paths and
    simulate over one fresh upload, all sent before any reply is read)
    each come back once, matched by request id, with exit code 0;
  * protocol violations got error frames and only killed their own
    connection;
  * the per-session content-hash cache saw hits (svc.cache_hits > 0);
  * a shutdown frame drains the server: shutdown_ok, exit code 0;
  * nothing that looks like a sanitizer report appeared on stderr.

Then (unless --cache-dir none) it restarts the server against the same
artifact-store directory — reusing the stale socket path left by the
first cycle, which exercises the probe-then-unlink reclaim — and asserts
the warm server answers a simulate request with zero netlist parses and
zero SimGraph compilations (store.hits > 0, svc.netlist_parses == 0,
sim.graph_compile_ns calls == 0).

Run directly (./serve_soak.py --lvtool build/tools/lvtool) or via ctest
(lvtool_serve_soak). CI runs it against tsan and asan/ubsan builds.
"""

import argparse
import json
import os
import shutil
import socket
import struct
import subprocess
import sys
import threading
import time

MAGIC = b"LVF1"
VERSION = 1
HEADER = struct.Struct("<4sIIIQ")  # magic, version, kind, payload_len, id

HELLO, HELLO_OK, REQUEST, RESPONSE, ERROR, SHUTDOWN, SHUTDOWN_OK = range(1, 8)

NETLIST = (
    b"lvnet 1\n"
    b"input a\n"
    b"input b\n"
    b"net y\n"
    b"gate g0 AND2 y a b\n"
    b"output y\n"
)


def frame(kind, request_id, payload=b""):
    return HEADER.pack(MAGIC, VERSION, kind, len(payload), request_id) + payload


def put_str(buf, data):
    buf += struct.pack("<I", len(data)) + data


def encode_request(op, positional=(), options=(), inputs=(), deadline_ms=0):
    buf = bytearray()
    put_str(buf, op)
    buf += struct.pack("<I", deadline_ms)
    buf += struct.pack("<I", len(options))
    for key, value in options:
        put_str(buf, key)
        put_str(buf, value)
    buf += struct.pack("<I", len(positional))
    for pos in positional:
        put_str(buf, pos)
    buf += struct.pack("<I", len(inputs))
    for role, content in inputs:
        put_str(buf, role)
        put_str(buf, content)
    return bytes(buf)


class Cursor:
    def __init__(self, data):
        self.data, self.pos = data, 0

    def u32(self):
        (v,) = struct.unpack_from("<I", self.data, self.pos)
        self.pos += 4
        return v

    def str(self):
        n = self.u32()
        s = self.data[self.pos : self.pos + n]
        assert len(s) == n, "truncated string in response payload"
        self.pos += n
        return s


def decode_response(payload):
    c = Cursor(payload)
    exit_code = c.u32()
    out, err = c.str(), c.str()
    files = [(c.str(), c.str()) for _ in range(c.u32())]
    diag_json, report_json = c.str(), c.str()
    assert c.pos == len(payload), "trailing bytes in response payload"
    return exit_code, out, err, files, diag_json, report_json


class Conn:
    """One protocol connection (hello already exchanged)."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(60)
        self.sock.connect(path)
        self.buf = b""
        kind, _, payload = self.round_trip(HELLO, 0, b"serve_soak lvrpc/1")
        assert kind == HELLO_OK, f"hello answered with kind {kind}"
        self.banner = payload.decode()

    def close(self):
        self.sock.close()

    def send_raw(self, data):
        self.sock.sendall(data)

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
                return None  # peer closed
            self.buf += chunk

    def round_trip(self, kind, request_id, payload):
        self.send_raw(frame(kind, request_id, payload))
        reply = self.read_frame()
        assert reply is not None, "connection closed mid round-trip"
        return reply


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.ok = 0
        self.rejected = 0
        self.errors = []

    def fail(self, message):
        with self.lock:
            self.errors.append(message)


def client_worker(path, worker_id, n_requests, stats):
    try:
        conn = Conn(path)
    except Exception as e:  # noqa: BLE001 - report, don't crash the thread
        stats.fail(f"worker {worker_id}: connect failed: {e}")
        return
    try:
        for i in range(n_requests):
            rid = worker_id * 100000 + i
            kind_of_request = i % 10
            try:
                if kind_of_request == 7:
                    # Malformed request payload: expect exit code 2.
                    kind, got_rid, payload = conn.round_trip(
                        REQUEST, rid, b"\xff\xfe garbage payload"
                    )
                    assert kind == RESPONSE and got_rid == rid
                    exit_code = decode_response(payload)[0]
                    assert exit_code == 2, f"garbage payload -> {exit_code}"
                    with stats.lock:
                        stats.rejected += 1
                elif kind_of_request == 8:
                    # Unknown op: expect exit code 2.
                    kind, got_rid, payload = conn.round_trip(
                        REQUEST, rid, encode_request(b"frobnicate")
                    )
                    assert kind == RESPONSE and got_rid == rid
                    assert decode_response(payload)[0] == 2
                    with stats.lock:
                        stats.rejected += 1
                elif kind_of_request == 9:
                    # Protocol violation: garbage framing bytes. The server
                    # answers with an error frame and closes only this
                    # connection; reconnect and carry on.
                    conn.send_raw(b"NOT A FRAME " * 4)
                    reply = conn.read_frame()
                    assert reply is not None and reply[0] == ERROR, (
                        f"garbage framing -> {reply!r}"
                    )
                    conn.close()
                    conn = Conn(path)
                else:
                    # Valid request; repeats of the same netlist bytes land
                    # in the per-session cache.
                    kind, got_rid, payload = conn.round_trip(
                        REQUEST,
                        rid,
                        encode_request(
                            b"stats",
                            positional=[b"soak.lvnet"],
                            inputs=[(b"netlist", NETLIST)],
                        ),
                    )
                    assert kind == RESPONSE and got_rid == rid
                    exit_code, out, err, *_ = decode_response(payload)
                    assert exit_code == 0, f"stats -> {exit_code}: {err!r}"
                    assert b"gates: 1" in out
                    with stats.lock:
                        stats.ok += 1
            except AssertionError as e:
                stats.fail(f"worker {worker_id} request {i}: {e}")
                return
    finally:
        conn.close()


PIPELINED_CONNECTIONS, PIPELINED_ROUNDS = 4, 5
PIPELINED_OPS = (
    (b"timing", [b"soak_rca.lvnet", b"soi_low_vt"], []),
    (b"power", [b"soak_rca.lvnet", b"soi_low_vt"], []),
    (b"paths", [b"soak_rca.lvnet", b"soi_low_vt"], []),
    (b"simulate", [b"soak_rca.lvnet"], [(b"--vectors", b"128")]),
)


def pipelined_worker(path, worker_id, netlist, stats):
    """Each round uploads netlist text this session has not seen and sends
    every op in PIPELINED_OPS before reading a reply, so the server runs
    them concurrently over one fresh design."""
    try:
        conn = Conn(path)
    except Exception as e:  # noqa: BLE001 - report, don't crash the thread
        stats.fail(f"pipelined {worker_id}: connect failed: {e}")
        return
    try:
        for r in range(PIPELINED_ROUNDS):
            text = netlist + f"# connection {worker_id} round {r}\n".encode()
            pending = {}
            for k, (op, positional, options) in enumerate(PIPELINED_OPS):
                rid = 900000 + worker_id * 1000 + r * 10 + k
                pending[rid] = op
                conn.send_raw(frame(REQUEST, rid, encode_request(
                    op, positional=positional, options=options,
                    inputs=[(b"netlist", text)])))
            while pending:
                reply = conn.read_frame()
                assert reply is not None, "connection closed mid pipeline"
                kind, rid, payload = reply
                assert kind == RESPONSE, f"pipelined reply kind {kind}"
                assert rid in pending, f"unexpected reply id {rid}"
                op = pending.pop(rid)
                exit_code, _, err, *_ = decode_response(payload)
                assert exit_code == 0, f"{op.decode()} -> {exit_code}: {err!r}"
                with stats.lock:
                    stats.ok += 1
    except (AssertionError, OSError) as e:
        stats.fail(f"pipelined {worker_id}: {e!r}")
    finally:
        conn.close()


def scrape_counter(report_json, section, name):
    report = json.loads(report_json)
    return report.get(section, {}).get(name, 0)


def scrape_timer_calls(report_json, name):
    report = json.loads(report_json)
    return report.get("timers", {}).get(name, {}).get("calls", 0)


def start_server(lvtool, path, cache_dir):
    cmd = [lvtool, "serve", "--socket", path, "--queue", "256"]
    cmd += ["--cache-dir", cache_dir if cache_dir else "none"]
    return subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )


def wait_ready(path, server):
    """Waits until the socket accepts a connection (a leftover socket file
    from a previous cycle is not enough — the new server must be bound)."""
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


def shut_down_clean(server, conn, rid):
    """Graceful shutdown from `conn`; asserts a clean, sanitizer-free exit."""
    kind, _, _ = conn.round_trip(SHUTDOWN, rid, b"")
    assert kind == SHUTDOWN_OK, f"shutdown answered with kind {kind}"
    conn.close()
    out, err = server.communicate(timeout=60)
    assert server.returncode == 0, (
        f"server exit {server.returncode}\nstdout:{out}\nstderr:{err}"
    )
    for marker in ("ThreadSanitizer", "AddressSanitizer", "runtime error",
                   "LeakSanitizer"):
        assert marker not in err and marker not in out, (
            f"sanitizer report in server output:\n{err}\n{out}"
        )
    assert "shutdown: drained" in out, f"no drain line in stdout:\n{out}"


def scrape_report(conn, rid):
    kind, _, payload = conn.round_trip(
        REQUEST, rid, encode_request(b"version",
                                     options=[(b"--stats-json", b"-")])
    )
    assert kind == RESPONSE
    return decode_response(payload)[5].decode()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--lvtool", required=True)
    parser.add_argument("--work", default="soak_work")
    parser.add_argument("--requests", type=int, default=1000)
    parser.add_argument("--clients", type=int, default=16)
    parser.add_argument(
        "--cache-dir",
        default="",
        help="artifact-store dir (default: <work>/cache; 'none' disables "
        "the warm-restart cycle)",
    )
    args = parser.parse_args()

    os.makedirs(args.work, exist_ok=True)
    cache_dir = args.cache_dir or os.path.join(args.work, "cache")
    if cache_dir == "none":
        cache_dir = ""
    if cache_dir:
        # A cold first cycle is part of the contract; wipe leftovers from
        # previous runs.
        shutil.rmtree(cache_dir, ignore_errors=True)
    path = os.path.join(args.work, "soak.sock")
    # AF_UNIX paths are length-limited (~108 B); fall back to /tmp.
    if len(path) > 90:
        path = f"/tmp/lvsim_soak_{os.getpid()}.sock"
    if os.path.exists(path):
        os.unlink(path)

    server = start_server(args.lvtool, path, cache_dir)
    try:
        wait_ready(path, server)

        # Round up so the total is at least --requests.
        per_client = max(1, -(-args.requests // args.clients))
        stats = Stats()
        threads = [
            threading.Thread(
                target=client_worker, args=(path, c, per_client, stats)
            )
            for c in range(args.clients)
        ]
        started = time.time()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.time() - started

        # Pipelined phase: several requests of one session in flight at
        # once, over a netlist big enough to take real work.
        rca = subprocess.run(
            [args.lvtool, "gen", "rca", "16"], check=True,
            stdout=subprocess.PIPE,
        ).stdout
        pipelined = [
            threading.Thread(
                target=pipelined_worker, args=(path, c, rca, stats)
            )
            for c in range(PIPELINED_CONNECTIONS)
        ]
        for t in pipelined:
            t.start()
        for t in pipelined:
            t.join()
        pipelined_ok = (PIPELINED_CONNECTIONS * PIPELINED_ROUNDS
                        * len(PIPELINED_OPS))
        if stats.errors:
            if server.poll() is None:
                server.kill()
            _, err = server.communicate()
            sys.exit("soak failures:\n" + "\n".join(stats.errors[:20])
                     + f"\nserver stderr (tail):\n{err[-4000:]}")

        # Oversized frame: a header whose length field exceeds the cap.
        probe = Conn(path)
        probe.send_raw(HEADER.pack(MAGIC, VERSION, REQUEST, 1 << 30, 424242))
        reply = probe.read_frame()
        assert reply is not None and reply[0] == ERROR, f"oversize -> {reply!r}"
        assert b"svc.oversize" in reply[2], reply[2]
        probe.close()

        # Cache assertion: run two stats requests on ONE session, then ask
        # for the cumulative report.
        conn = Conn(path)
        for rid in (1, 2):
            kind, _, payload = conn.round_trip(
                REQUEST,
                rid,
                encode_request(
                    b"stats",
                    positional=[b"soak.lvnet"],
                    inputs=[(b"netlist", NETLIST)],
                ),
            )
            assert kind == RESPONSE and decode_response(payload)[0] == 0
        # A simulate request forces SimGraph compilation, which publishes
        # the compiled graph to the artifact store for the warm cycle.
        kind, _, payload = conn.round_trip(
            REQUEST,
            3,
            encode_request(
                b"simulate",
                positional=[b"soak.lvnet"],
                options=[(b"--vectors", b"64")],
                inputs=[(b"netlist", NETLIST)],
            ),
        )
        assert kind == RESPONSE and decode_response(payload)[0] == 0
        report_json = scrape_report(conn, 4)
        cache_hits = scrape_counter(report_json, "scheduling_counters",
                                    "svc.cache_hits")
        assert cache_hits > 0, f"no cache hits in soak:\n{report_json}"
        responses = scrape_counter(report_json, "counters", "svc.requests")
        if cache_dir:
            writes = scrape_counter(report_json, "scheduling_counters",
                                    "store.writes")
            assert writes > 0, f"cold cycle wrote nothing:\n{report_json}"

        shut_down_clean(server, conn, 5)

        # Warm cycle: a fresh server process over the same artifact store
        # (and the stale socket file the first cycle left behind) must
        # answer the same simulate request without parsing the netlist or
        # compiling the graph.
        if cache_dir:
            server = start_server(args.lvtool, path, cache_dir)
            wait_ready(path, server)
            conn = Conn(path)
            kind, _, payload = conn.round_trip(
                REQUEST,
                1,
                encode_request(
                    b"simulate",
                    positional=[b"soak.lvnet"],
                    options=[(b"--vectors", b"64")],
                    inputs=[(b"netlist", NETLIST)],
                ),
            )
            assert kind == RESPONSE
            exit_code, _, err_bytes, *_ = decode_response(payload)
            assert exit_code == 0, f"warm simulate -> {exit_code}: {err_bytes!r}"
            report_json = scrape_report(conn, 2)
            store_hits = scrape_counter(report_json, "scheduling_counters",
                                        "store.hits")
            parses = scrape_counter(report_json, "scheduling_counters",
                                    "svc.netlist_parses")
            compiles = scrape_timer_calls(report_json, "sim.graph_compile_ns")
            assert store_hits > 0, f"warm cycle missed the store:\n{report_json}"
            assert parses == 0, f"warm cycle reparsed the netlist:\n{report_json}"
            assert compiles == 0, (
                f"warm cycle recompiled the graph:\n{report_json}"
            )
            shut_down_clean(server, conn, 3)
        else:
            store_hits = 0

        if stats.errors:
            sys.exit("soak failures:\n" + "\n".join(stats.errors[:20]))
        sent = per_client * args.clients
        violations = sent + pipelined_ok - stats.ok - stats.rejected
        print(
            f"soak ok: {sent} concurrent requests "
            f"({stats.ok} valid, {stats.rejected} rejected, "
            f"{violations} framing violations) "
            f"across {args.clients} clients in {elapsed:.1f}s; "
            f"{pipelined_ok} pipelined requests on {PIPELINED_CONNECTIONS} "
            f"connections; "
            f"server handled {responses} requests total, "
            f"cache_hits={cache_hits}, warm store_hits={store_hits}, "
            f"clean shutdown"
        )
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
        if os.path.exists(path):
            os.unlink(path)


if __name__ == "__main__":
    main()
