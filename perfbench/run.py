#!/usr/bin/env python3
"""perfbench — runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --list [--seed <n>]
    python3 perfbench/run.py --record-refs <seed> [<seed> ...]

Run from the root of a checkout. The first run builds `lvtool` and the two
benchmark programs from source into $CARGO_TARGET_DIR (default
.bench_build). Workloads (perfbench/README.md says why each was chosen):

  activity_extract  simulate + power over seven circuits, run as lvtool does
  fault_grade       stuck-at fault grading over six circuits, --threads 4
  explore_serve     one `lvtool serve`, four closed-loop lvrpc/1 connections

--trace 0 measures the end-to-end metrics; --trace 1 is the separate traced
run that reports the per-layer metrics. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import concurrent.futures
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(ROOT / "tools"))

import scenarios  # noqa: E402

try:
    # The repository's lvrpc/1 client (frame codec and connection).
    import serve_soak as lvrpc  # noqa: E402
except ImportError:
    sys.exit(f"perfbench: no repository tools next to {HERE}; "
             "run from the root of a full checkout")
THREADS = 4
SETUP_REPEATS = 9
SERVE_SETUP_REPEATS = 9
# `lvtool power` with an activity file takes a few ms, most of it process
# start-up, which host load stretches far more than it stretches the long
# operations; its fastest of several back-to-back repeats is repeatable.
OP_REPEATS = {"power": 6}
TRACE_REQUESTS = 200
# Steal, and the load of other processes on a shared host, come in bursts
# of a few hundred ms, so the server figures come from short slices, and
# from the quarter of them with the least of both.
SLICE_S = 0.25
# The first half second of a fresh server runs cold (empty store, first
# parses and compiles; p50 4-8x the warm one). The first WARMUP_SLICES
# slices are checked but left out of the figures.
WARMUP_SLICES = 4
OP_TIMEOUT_S = 120

# Variables that would let the caller's environment steer a child; every
# child runs with them cleared (and with an explicit --cache-dir).
CLEARED_ENV = ("LVSIM_THREADS", "LVSIM_SCHEDULE", "LVSIM_FAILPOINTS",
               "LVSIM_CACHE_DIR")

# "(word kernel)" / "(scalar kernel)": which kernel ran is not part of the
# result, and the kernel selection flags are slated for removal.
KERNEL_NOTE = re.compile(rb" \([a-z]+ kernel\)")


def info(message):
    print(f"info: {message}", flush=True)


def digest(data):
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def result_digest(stdout):
    return digest(KERNEL_NOTE.sub(b"", stdout))


def p99(values):
    """99th percentile, interpolated inside the data, never beyond it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def cpu_jiffies():
    """Cumulative (steal, busy, total) jiffies over all vCPUs from
    /proc/stat, where busy is user + nice + system + irq + softirq + steal
    and total adds idle and iowait; None when /proc/stat is unavailable."""
    try:
        with open("/proc/stat") as f:
            v = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    v += [0] * (8 - len(v))
    return v[7], v[0] + v[1] + v[2] + v[5] + v[6] + v[7], sum(v)


def proc_jiffies(pid):
    """utime + stime of a process (all its threads), in /proc/stat's
    jiffies; 0 when it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return int(fields[11]) + int(fields[12])
    except (OSError, ValueError, IndexError):
        return 0


def steal_share(before, after):
    """Share of busy vCPU time the hypervisor stole between two samples."""
    if not before or not after or after[1] <= before[1]:
        return 0.0
    return (after[0] - before[0]) / (after[1] - before[1])


def interference(before, after):
    """Share of all vCPU time between two (cpu_jiffies(), own jiffies)
    samples that went neither to this process nor to the server: stolen
    by the hypervisor, or used by other processes on the host."""
    (ja, own_a), (jb, own_b) = before, after
    if not ja or not jb or jb[2] <= ja[2]:
        return 0.0
    steal = jb[0] - ja[0]
    others = max(0, jb[1] - ja[1] - steal - (own_b - own_a))
    return (steal + others) / (jb[2] - ja[2])

# /proc/stat counts 10 ms ticks: a share over a few busy ticks is mostly
# rounding, so a short operation takes its share from a window reaching
# back until it spans this many.
MIN_BUSY_TICKS = 50


# ---- build --------------------------------------------------------------

def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"perfbench: no repository sources next to {HERE}; "
                 "run from the root of a full checkout")
    out = build_dir() / "cmake"
    log = sys.stderr
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    subprocess.run(["cmake", "--build", str(out), "-j", str(THREADS),
                    "--target", "lvtool", "perfbench_spawn",
                    "perfbench_trace"], check=True, stdout=log, stderr=log)
    return {"lvtool": out / "lvsim" / "tools" / "lvtool",
            "spawn": out / "perfbench_spawn",
            "trace": out / "perfbench_trace"}


# ---- child processes ----------------------------------------------------

class Runner:
    def __init__(self, bins):
        self.bins = bins
        self.env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
        self.jiffies = []  # cpu_jiffies() at every operation boundary

    def stolen_since(self, first):
        """Stolen share from sample `first` to the latest, the window
        widened back until it spans MIN_BUSY_TICKS busy ticks."""
        h = self.jiffies
        while (first > 0 and h[first] and h[-1]
               and h[-1][1] - h[first][1] < MIN_BUSY_TICKS):
            first -= 1
        return steal_share(h[first], h[-1])

    def unstolen(self, fn):
        """Runs fn(); returns its wall seconds less the stolen share."""
        self.jiffies.append(cpu_jiffies())
        first = len(self.jiffies) - 1
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        self.jiffies.append(cpu_jiffies())
        return wall * (1.0 - self.stolen_since(first)), result

    def spawn(self, args, cwd, stdout, stderr):
        """Starts lvtool under perfbench_spawn; returns (Popen, report fd)."""
        r, w = os.pipe()
        try:
            proc = subprocess.Popen(
                [str(self.bins["spawn"]), str(w), str(self.bins["lvtool"]),
                 *args], cwd=cwd, stdout=stdout, stderr=stderr,
                pass_fds=(w,), env=self.env)
        finally:
            os.close(w)
        return proc, r

    @staticmethod
    def report(fd, until_pid=False):
        """Reads the launcher's report: (child pid, exit code, maxrss KiB).
        With `until_pid`, stops after the pid line and leaves `fd` open."""
        data = b""
        while not (until_pid and b"\n" in data) and (chunk := os.read(fd, 1 if until_pid else 4096)):
            data += chunk
        if not until_pid:
            os.close(fd)
        pid = code = rss = None
        for line in data.decode().splitlines():
            words = line.split()
            if words[0] == "pid":
                pid = int(words[1])
            elif words[0] == "done":
                code, rss = int(words[1]), int(words[2])
        return pid, code, rss

    def run(self, args, cwd):
        """One lvtool invocation -> (exit code, stdout, stderr, KiB, s,
        share of busy vCPU time stolen meanwhile)."""
        self.jiffies.append(cpu_jiffies())
        first = len(self.jiffies) - 1
        t0 = time.perf_counter()
        proc, fd = self.spawn(args, cwd, subprocess.PIPE, subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            os.close(fd)
            return -1, b"", b"timeout", 0, time.perf_counter() - t0, 0.0
        wall = time.perf_counter() - t0
        self.jiffies.append(cpu_jiffies())
        stolen = self.stolen_since(first)
        _, code, rss = self.report(fd)
        if code is None:
            code = proc.returncode
        return code, out, err, rss or 0, wall, stolen


class Checker:
    """Counts operations and failures; an operation fails on a nonzero
    exit, a coded error, a timeout, or output that differs from its
    reference (committed, first occurrence in this run, or the one-shot
    CLI for server responses)."""

    def __init__(self, refs):
        self.refs = refs or {}
        self.lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.seen = {}
        self.messages = []

    def fail(self, message):
        with self.lock:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)

    def op(self, key, fingerprint, ok=True, why=""):
        """One attempted operation. `fingerprint` must repeat exactly."""
        with self.lock:
            self.attempted += 1
            first = self.seen.setdefault(key, fingerprint)
        if not ok:
            self.fail(f"{key}: {why}")
        elif first != fingerprint:
            self.fail(f"{key}: output differs from its first occurrence")

    def against_ref(self, key, stats):
        """Compares the statistics of `key` with the committed reference
        (no-op for a seed without one). A mismatch fails one more op."""
        ref = self.refs.get(key)
        if ref is not None and ref != stats:
            bad = sorted(k for k in set(ref) | set(stats)
                         if ref.get(k) != stats.get(k))
            self.fail(f"{key}: differs from the committed reference in {bad}")

    def report(self):
        for m in self.messages:
            print(f"perfbench: FAIL {m}", file=sys.stderr)


def load_refs(refs_dir, seed, workload):
    path = Path(refs_dir) / f"seed-{seed}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload)


# ---- outputs -> key statistics ------------------------------------------

SIM_LINE = re.compile(rb"simulated (\d+) cycles.*total transitions (\d+); "
                      rb"mean alpha ([0-9.]+)")
FAULT_LINE = re.compile(rb"stuck-at faults: (\d+); detected (\d+); "
                        rb"coverage ([0-9.]+)%")


def key_stats(op, out, files=b""):
    stats = {"digest": result_digest(out)}
    if op == "simulate":
        m = SIM_LINE.search(out)
        if m:
            stats.update(cycles=int(m[1]), transitions=int(m[2]),
                         mean_alpha=m[3].decode())
        if files:
            stats["activity"] = digest(files)
    elif op == "faults":
        m = FAULT_LINE.search(out)
        if m:
            stats.update(faults=int(m[1]), detected=int(m[2]),
                         coverage=m[3].decode())
    else:
        stats["bytes"] = len(out)
    return stats


# ---- set-up -------------------------------------------------------------

def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def generate(runner, scenario, work):
    """Netlists via `lvtool gen`, then the seeded one-gate revisions."""
    for file, kind, width in scenario.designs:
        code, _, err, *_ = runner.run(
            ["gen", kind, str(width), "-o", file, "--cache-dir", "none"], work)
        if code != 0:
            raise RuntimeError(f"lvtool gen {kind} {width}: exit {code}: {err!r}")
    for file, base, seed in scenario.revisions:
        (work / file).write_text(
            scenarios.revise((work / base).read_text(), seed))


def timed_setups(runner, scenario, base, repeats):
    """Set-up `repeats` times in fresh directories; returns (median s,
    the last directory)."""
    times = []
    for k in range(repeats):
        work = fresh_dir(base / f"setup{k}")
        times.append(runner.unstolen(
            lambda: generate(runner, scenario, work))[0])
    return statistics.median(times), work


# ---- batch workloads ----------------------------------------------------

def batch_ops(scenario, round_index=0):
    """(op, argv, vectors) of one round, in order. Round r uses vector
    set r mod scenario.vector_sets."""
    common = ["--cache-dir", "none", "--threads", str(THREADS)]
    k = round_index % scenario.vector_sets
    ops = []
    for name, file, vectors, seeds, vdds in scenario.activity:
        ops.append(("simulate", ["simulate", file, "--vectors", str(vectors),
                                 "--seed", str(seeds[k]), "--activity-out",
                                 f"{name}.k{k}.act", *common], vectors))
        for vdd in vdds:
            ops.append(("power", ["power", file, "soias", "--vdd", str(vdd),
                                  "--activity", f"{name}.k{k}.act", *common],
                        0))
    for name, file, vectors, seeds in scenario.fault:
        ops.append(("faults", ["faults", file, "--vectors", str(vectors),
                               "--seed", str(seeds[k]), *common], vectors))
    return ops


def run_batch_op(runner, checker, work, op, argv):
    """Runs and checks one batch operation. Returns (key statistics, peak
    RSS KiB, wall seconds less the share the hypervisor stole)."""
    code, out, err, rss, wall, stolen = runner.run(argv, work)
    files = b""
    if op == "simulate" and code == 0:
        files = (work / argv[argv.index("--activity-out") + 1]).read_bytes()
    key = " ".join(argv)
    stats = key_stats(op, out, files)
    checker.op(key, (code, stats), ok=code == 0 and not err,
               why=f"exit {code}: {err[:200]!r}")
    if code == 0:
        checker.against_ref(key, stats)
    return stats, rss, wall * (1.0 - stolen)


def measure_batch(runner, scenario, work, seconds, checker):
    """Whole rounds until `seconds` have passed. Each operation's wall
    time is corrected by the share of busy vCPU time the hypervisor stole
    meanwhile; what steal remains only ever adds time, so each (operation,
    vector set) is summarized by its fastest repeat. An operation's time
    is the mean over its vector sets; the figures describe the round these
    times add up to."""
    best, rss, vectors, faults, rounds = {}, {}, 0, 0, 0
    t0 = time.perf_counter()
    while rounds < scenario.vector_sets or time.perf_counter() - t0 < seconds:
        k = rounds % scenario.vector_sets
        for i, (op, argv, n) in enumerate(batch_ops(scenario, rounds)):
            for _ in range(OP_REPEATS.get(op, 1)):
                stats, kib, wall = run_batch_op(runner, checker, work, op,
                                                argv)
                best[i, k] = min(best.get((i, k), wall), wall)
                rss.setdefault((i, k), []).append(kib)
            if rounds == 0:
                vectors += n
                faults += stats.get("faults", 0)
        rounds += 1
    elapsed = time.perf_counter() - t0
    ops = sorted({i for i, _ in best})
    sets = range(scenario.vector_sets)
    per_op = [1e3 * statistics.mean(best[i, k] for k in sets) for i in ops]
    # Peak RSS is input-driven and heavy-tailed (scenarios.VECTOR_SETS), so
    # the maximum over vector sets is an extreme value that no number of
    # sets makes repeatable. Each operation counts at its median over its
    # vector sets (each set at its median over repeats); the highest
    # child of the run is reported on an info line.
    rss_op = [statistics.median(statistics.median(rss[i, k]) for k in sets)
              for i in ops]
    round_s = sum(per_op) / 1e3
    info(f"{rounds} rounds x {len(per_op)} operations in {elapsed:.3f} s "
         f"({scenario.vector_sets} vector sets); estimated round "
         f"{round_s:.3f} s")
    info(f"highest child RSS {max(max(v) for v in rss.values()) / 1024:.1f} MB")
    if faults:
        info(f"faults_per_s {faults / round_s:.2f}")
    return {
        "requests_per_s": (len(per_op) / round_s, "1/s"),
        "op_p50_ms": (statistics.median(per_op), "ms"),
        "op_p99_ms": (p99(per_op), "ms"),
        "sim_vectors_per_s": (vectors / round_s, "1/s"),
        "peak_rss_mb": (max(rss_op) / 1024.0, "MB"),
    }


# ---- explore_serve ------------------------------------------------------

ROLE = {"check": "file"}


class ProtocolError(Exception):
    pass


# What a failed exchange raises: socket errors, the client's assertions on
# a missing or malformed reply, and ProtocolError.
RPC_ERRORS = (OSError, AssertionError, ProtocolError)


def encode(args, inputs=()):
    """lvtool-style argv (op first) -> Request payload. "--key value"
    pairs are options, every other word is positional."""
    positional, options = [], []
    words = iter(args[1:])
    for word in words:
        if word.startswith("--"):
            options.append((word.encode(), next(words).encode()))
        else:
            positional.append(word.encode())
    return lvrpc.encode_request(args[0].encode(), positional, sorted(options),
                                [(role.encode(), text) for role, text in inputs])


def call(conn, request_id, payload):
    """One request on an open connection; returns the response payload."""
    kind, rid, reply = conn.round_trip(lvrpc.REQUEST, request_id, payload)
    if kind != lvrpc.RESPONSE or rid != request_id:
        raise ProtocolError(f"frame kind {kind} ({reply[:200]!r})")
    return reply


class Server:
    def __init__(self, runner, work):
        self.work = work
        self.socket = str(work / "serve.sock")
        self.out = open(work / "serve.out", "wb")
        self.proc, self.fd = runner.spawn(
            ["serve", "--socket", "serve.sock", "--workers", str(THREADS),
             "--cache-dir", "store", "--threads", str(THREADS),
             "--stats-json", "serve-stats.json"], work, self.out,
            subprocess.STDOUT)
        self.pid = Runner.report(self.fd, until_pid=True)[0]
        self.rss_kib = 0
        deadline = time.time() + 30
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError("lvtool serve exited during start-up")
            try:
                lvrpc.Conn(self.socket).close()
                return
            except OSError:
                if time.time() > deadline:
                    raise
                time.sleep(0.002)

    def shutdown(self):
        """Graceful drain. Returns True when the server answered
        shutdown_ok, drained and exited 0."""
        ok = False
        try:
            conn = lvrpc.Conn(self.socket)
            kind, _, _ = conn.round_trip(lvrpc.SHUTDOWN, 1, b"")
            conn.close()
            ok = kind == lvrpc.SHUTDOWN_OK
        except RPC_ERRORS:
            pass
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            return False
        _, code, rss = Runner.report(self.fd)
        self.fd = None
        self.out.close()
        self.rss_kib = rss or 0
        drained = b"shutdown: drained" in (self.work / "serve.out").read_bytes()
        return ok and code == 0 and drained

    def kill(self):
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None
            if self.pid:
                try:
                    os.kill(self.pid, 9)
                except ProcessLookupError:
                    pass
        self.proc.kill()
        self.proc.wait()
        self.out.close()

    def stats(self):
        path = self.work / "serve-stats.json"
        return json.loads(path.read_text()) if path.is_file() else {}


class Replies:
    """First raw reply per request key, and the text of every upload."""

    def __init__(self):
        self.lock = threading.Lock()
        self.first = {}
        self.uploads = {}


def serve_setup(runner, scenario, base):
    """Generate netlists and start the server until it answers hello,
    SERVE_SETUP_REPEATS times; returns (median s, live server, texts)."""
    times, server = [], None
    for k in range(SERVE_SETUP_REPEATS):
        if server is not None:
            if not server.shutdown():
                raise RuntimeError("set-up server did not drain cleanly")
        work = fresh_dir(base / f"setup{k}")

        def setup():
            generate(runner, scenario, work)
            return Server(runner, work)

        seconds, server = runner.unstolen(setup)
        times.append(seconds)
    texts = {f: (server.work / f).read_bytes() for f in scenario.working_set}
    return statistics.median(times), server, texts


def payload_for(request, texts, upload_text=None):
    inputs = ()
    if request.netlist is not None:
        text = upload_text if upload_text is not None else texts[request.netlist]
        inputs = ((ROLE.get(request.op, "netlist"), text),)
    return encode(request.args, inputs)


def client_loop(scenario, server, texts, connection, checker, deadline,
                replies, results, limit=None, streams=None):
    """One closed-loop connection: send, wait for the whole response, send
    the next. Reconnects every RECONNECT_EVERY requests."""
    payloads = {}
    lat = []
    conn = None
    stream = streams if streams is not None else scenario.stream(connection)
    for i, request, upload in stream:
        if (limit is not None and i >= limit) or (
                limit is None and time.perf_counter() >= deadline):
            break
        if conn is None or i % scenarios.RECONNECT_EVERY == 0:
            if conn is not None:
                conn.close()
            conn = lvrpc.Conn(server.socket)
        if upload is not None:
            base, seed = upload
            text = scenarios.revise(texts[base].decode(), seed).encode()
            payload = payload_for(request, texts, text)
            with replies.lock:
                replies.uploads[request.key] = (request, text)
        else:
            payload = payloads.get(request.key)
            if payload is None:
                payload = payloads[request.key] = payload_for(request, texts)
        t0 = time.perf_counter()
        try:
            reply = call(conn, connection * 10_000_000 + i + 1, payload)
        except RPC_ERRORS as e:
            checker.op(request.key, None, ok=False, why=str(e))
            conn = None
            continue
        done = time.perf_counter()
        lat.append((done, (done - t0) * 1e3, request.vectors, request.key))
        code = int.from_bytes(reply[:4], "little")
        with replies.lock:
            replies.first.setdefault(request.key, reply)
        checker.op(request.key, digest(reply), ok=code == 0,
                   why=f"exit {code}")
    if conn is not None:
        conn.close()
    results[connection] = lat


def guarded_client(*args):
    checker = args[4]
    try:
        client_loop(*args)
    except Exception as e:  # noqa: BLE001 - a dead client is a failure
        checker.fail(f"connection {args[3]}: {type(e).__name__}: {e}")


def closed_loop(scenario, server, texts, connections, seconds, checker,
                replies, limit=None, streams=None, samples=None):
    """Runs the connections to completion. With `samples`, also records
    (cpu_jiffies(), jiffies of this process and the server) at every
    SLICE_S boundary while they run."""
    results = {}
    deadline = time.perf_counter() + seconds
    threads = [threading.Thread(
        target=guarded_client,
        args=(scenario, server, texts, c, checker, deadline, replies, results,
              limit, None if streams is None else streams[c]))
        for c in range(connections)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    if samples is not None:
        k = 0
        while any(t.is_alive() for t in threads):
            samples.append((cpu_jiffies(), proc_jiffies(os.getpid())
                            + proc_jiffies(server.pid)))
            k += 1
            time.sleep(max(0.0, t0 + k * SLICE_S - time.perf_counter()))
    for t in threads:
        t.join()
    done = sorted(x for c in range(connections) for x in results.get(c, []))
    return [(t - t0, ms, n, key) for t, ms, n, key in done]


def verify_serve(runner, work, replies, checker):
    """Every distinct server response must be byte-identical to the
    one-shot CLI output of the same command (exit code, stdout, stderr,
    files), and match the committed reference where one exists."""
    for key, (request, text) in replies.uploads.items():
        (work / request.netlist).write_bytes(text)

    def one(key):
        reply = replies.first[key]
        code, out, err, files, _, _ = lvrpc.decode_response(reply)
        args = key.split(" ")
        cli = runner.run([*args, "--cache-dir", "none", "--threads",
                          str(THREADS)], work)
        if (code, out, err) != (cli[0], cli[1], cli[2]) or files:
            checker.fail(f"{key}: server response differs from the CLI")
        elif key not in replies.uploads:
            checker.against_ref(key, key_stats(args[0], out))

    with concurrent.futures.ThreadPoolExecutor(THREADS) as pool:
        list(pool.map(one, sorted(replies.first)))


def hit_ratio(stats, prefix):
    sc = stats.get("scheduling_counters", {})
    hits, misses = sc.get(prefix + "hits", 0), sc.get(prefix + "misses", 0)
    return hits / (hits + misses) if hits + misses else 0.0


def measure_serve(runner, scenario, server, texts, seconds, checker):
    """Closed loop for `seconds`, cut into SLICE_S slices. Each slice's
    time is corrected by the share of busy vCPU time the hypervisor stole
    in it (/proc/stat), and the figures come from the quarter of the
    slices after warm-up with the least interference (steal plus other
    processes' vCPU time): throughput as the mean over those slices,
    latency percentiles over their requests."""
    replies = Replies()
    samples = []
    done = closed_loop(scenario, server, texts, THREADS, seconds, checker,
                       replies, samples=samples)
    if not server.shutdown():
        checker.fail("server did not answer shutdown_ok, drain and exit 0")
    verify_serve(runner, server.work, replies, checker)

    n_slices = max(1, min(len(samples) - 1, int(seconds // SLICE_S)))
    pairs = list(zip(samples, samples[1:]))
    stolen = [steal_share(a[0], b[0]) for a, b in pairs]
    stolen = (stolen + [0.0] * n_slices)[:n_slices]
    interfered = [interference(a, b) for a, b in pairs]
    interfered = (interfered + [0.0] * n_slices)[:n_slices]
    slices = [[] for _ in range(n_slices)]
    for t, ms, n, _ in done:
        k = min(int(t // SLICE_S), n_slices - 1) if n_slices > 1 else 0
        if t < n_slices * SLICE_S or n_slices == 1:
            slices[k].append((ms * (1.0 - stolen[k]), n))
    warm = range(min(WARMUP_SLICES, n_slices // 2), n_slices)
    chosen = sorted(warm, key=lambda k: interfered[k])
    chosen = chosen[:max(1, len(warm) // 4)]
    unstolen_s = sum(SLICE_S * (1.0 - stolen[k]) for k in chosen)
    lat = [ms for k in chosen for ms, _ in slices[k]]
    info(f"{len(done)} requests ({len(replies.uploads)} uploads) at "
         f"{THREADS} connections over {n_slices} slices; of the "
         f"{len(warm)} after warm-up, the {len(chosen)} with least "
         f"interference ({max(interfered[k] for k in chosen):.0%} of vCPU "
         f"time or less, run mean {statistics.mean(interfered):.0%}; steal "
         f"{max(stolen[k] for k in chosen):.0%} or less, run mean "
         f"{statistics.mean(stolen):.0%}) give {len(lat)} latency "
         f"samples; store hit ratio {hit_ratio(server.stats(), 'store.'):.3f}")
    return {
        "requests_per_s": (len(lat) / unstolen_s, "1/s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_p99_ms": (p99(lat), "ms"),
        "sim_vectors_per_s": (sum(n for k in chosen for _, n in slices[k])
                              / unstolen_s, "1/s"),
        "peak_rss_mb": (server.rss_kib / 1024.0, "MB"),
    }


# ---- traced run ---------------------------------------------------------

def traced_scenario(seed):
    """All three workloads' inputs in one directory."""
    merged = scenarios.Scenario("traced", seed)
    parts = {w: scenarios.make_bench_workload(w, seed)
             for w in scenarios.WORKLOADS}
    for part in parts.values():
        for d in part.designs:
            merged.add_design(*d)
    merged.revisions = parts["explore_serve"].revisions
    merged.working_set = parts["explore_serve"].working_set
    return merged, parts


def fixed_stream(scenario, connections, count):
    """The first `count` requests of connection 0's stream plus one
    template of every op they miss, dealt round-robin to `connections`
    streams; indices restart per connection."""
    requests = []
    for i, request, upload in scenario.stream(0):
        if i >= count:
            break
        requests.append((request, upload))
    ops = {r.op for r, _ in requests}
    for t in scenario.templates:
        if t.op not in ops:
            ops.add(t.op)
            requests.append((t, None))
    streams = {c: [] for c in range(connections)}
    for i, (request, upload) in enumerate(requests):
        lst = streams[i % connections]
        lst.append((len(lst), request, upload))
    return streams


def run_traced(runner, bins, seed, work_base, out_dir, checker, refs_dir):
    merged, parts = traced_scenario(seed)
    setup_s, server, texts = serve_setup(runner, merged, work_base)
    work = server.work
    metrics, e2e_ms = {}, {}

    # End-to-end slices, timed per operation (tracing off in lvtool).
    for w in ("activity_extract", "fault_grade"):
        sub = Checker(load_refs(refs_dir, seed, w))
        ops = batch_ops(parts[w])
        e2e_ms[w] = sum(run_batch_op(runner, sub, work, op, argv)[2] * 1e3
                        for op, argv, _ in ops)
        merge_checker(checker, sub)
    serve = parts["explore_serve"]
    sub = Checker(load_refs(refs_dir, seed, "explore_serve"))
    replies = Replies()
    one = fixed_stream(serve, 1, TRACE_REQUESTS)
    lat1 = closed_loop(serve, server, texts, 1, 0, sub, replies,
                       limit=len(one[0]), streams=one)
    # Queue wait: the same stream again, warm, at 4 connections and at 1.
    four = fixed_stream(serve, THREADS, TRACE_REQUESTS)
    lat4 = closed_loop(serve, server, texts, THREADS, 0, sub, replies,
                       limit=len(one[0]), streams=four)
    warm1 = closed_loop(serve, server, texts, 1, 0, sub, replies,
                        limit=len(one[0]), streams=one)
    lat1, lat4, warm1 = ([ms for _, ms, _, _ in x] for x in (lat1, lat4, warm1))
    e2e_ms["explore_serve"] = sum(lat1)
    conn = lvrpc.Conn(server.socket)
    version = encode(("version",))
    rtt = []
    for i in range(200):
        t0 = time.perf_counter()
        call(conn, i + 1, version)
        rtt.append((time.perf_counter() - t0) * 1e6)
    conn.close()
    if not server.shutdown():
        sub.fail("server did not answer shutdown_ok, drain and exit 0")
    verify_serve(runner, work, replies, sub)
    merge_checker(checker, sub)
    stats = server.stats()

    # In-process replay of the same scenarios, with spans.
    plan = [f"reconnect {scenarios.RECONNECT_EVERY}"]
    plan += [f"design {k} {w} {f}" for f, k, w in merged.designs]
    for name, file, vectors, seeds, vdds in parts["activity_extract"].activity:
        plan.append(f"activity {name} {file} {vectors} {seeds[0]} "
                    + " ".join(map(str, vdds)))
    for name, file, vectors, seeds in parts["fault_grade"].fault:
        plan.append(f"fault {name} {file} {vectors} {seeds[0]}")
    plan += ["request " + r.key for _, r, _ in one[0]]
    plan += [f"incremental {base} {file}" for file, base, _ in merged.revisions]
    (work / "trace.plan").write_text("\n".join(plan) + "\n")
    out_dir.mkdir(parents=True, exist_ok=True)
    layer_json = out_dir / f"seed{seed}.layers.json"
    trace_json = out_dir / f"seed{seed}.trace.json"
    subprocess.run([str(bins["trace"]), "trace.plan", str(layer_json),
                    str(trace_json)], cwd=work, check=True, env=runner.env,
                   timeout=170)
    layers = json.loads(layer_json.read_text())
    json.loads(trace_json.read_text())  # must open as plain JSON

    for name, value in layers.items():
        if not name.startswith("aux."):
            metrics[name] = value
    # The replay's session model must make the store traffic the real
    # svc::Session makes over the same requests.
    drift = sorted(name[len("aux.model."):] for name in layers
                   if name.startswith("aux.model.") and layers[name]
                   != layers.get("aux.session." + name[len("aux.model."):]))
    if drift:
        checker.fail(f"traced session model differs from svc::Session in "
                     f"{drift}")
    metrics["svc.transport_us"] = (statistics.median(rtt)
                                   - layers["aux.version_inproc_us"])
    metrics["svc.queue_wait_ms"] = (statistics.median(lat4)
                                    - statistics.median(warm1))
    metrics["store.hit_ratio"] = hit_ratio(stats, "store.")
    metrics["svc.session_hit_ratio"] = hit_ratio(stats, "svc.cache_")
    info(f"traced run: set-up {setup_s:.3f} s; operation ms traced / "
         "end to end: " + ", ".join(
             f"{w} {layers.get('aux.op_ms.' + w, 0.0):.1f} / {ms:.1f}"
             for w, ms in e2e_ms.items())
         + f"; serve p50 {statistics.median(warm1):.3f} ms at 1 connection, "
         f"{statistics.median(lat4):.3f} ms at {THREADS}")
    info(f"trace written to {trace_json}")
    return metrics


def merge_checker(into, sub):
    into.attempted += sub.attempted
    into.failed += sub.failed
    into.messages += sub.messages


# ---- per-layer metric units ---------------------------------------------

def per_layer_units():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text()) \
        if (HERE.parent / "BENCHMARK.json").is_file() else {}
    return {m["name"]: m["unit"] for m in spec.get("per_layer", [])}


# ---- references ---------------------------------------------------------

def record_refs(runner, seeds, refs_dir, base):
    """Runs every operation of every workload once per seed, one-shot CLI,
    and writes refs/seed-<n>.json."""
    refs_dir.mkdir(parents=True, exist_ok=True)
    for seed in seeds:
        doc = {}
        for w in scenarios.WORKLOADS:
            sc = scenarios.make_bench_workload(w, seed)
            work = fresh_dir(base / f"record-{w}")
            generate(runner, sc, work)
            refs = {}
            if w == "explore_serve":
                for t in sc.templates:
                    code, out, err, *_ = runner.run(
                        [*t.args, "--cache-dir", "none", "--threads",
                         str(THREADS)], work)
                    if code != 0:
                        raise RuntimeError(f"{t.key}: exit {code} {err!r}")
                    refs[t.key] = key_stats(t.op, out)
            else:
                checker = Checker(None)
                for k in range(sc.vector_sets):
                    for op, argv, _ in batch_ops(sc, k):
                        stats, _, _ = run_batch_op(runner, checker, work, op,
                                                   argv)
                        refs[" ".join(argv)] = stats
                if checker.failed:
                    checker.report()
                    raise RuntimeError(f"{w}: operations failed while recording")
            doc[w] = refs
        path = refs_dir / f"seed-{seed}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


# ---- main ---------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=scenarios.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list", action="store_true",
                    help="print each workload with its named scenarios")
    ap.add_argument("--record-refs", type=int, nargs="+", metavar="SEED",
                    help="record committed references for these seeds")
    ap.add_argument("--refs", default=str(HERE / "refs"),
                    help="reference directory (default: perfbench/refs)")
    args = ap.parse_args()
    # Termination unwinds like an error, so the server is stopped and the
    # run directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.list:
        for w in scenarios.WORKLOADS:
            print(w)
            for line in scenarios.make_bench_workload(w, args.seed).describe():
                print("  " + line)
        return 0

    bins = build()
    runner = Runner(bins)
    base = build_dir() / "runs" / f"{args.workload or 'record'}-{args.seed}-{os.getpid()}"
    if args.record_refs:
        try:
            record_refs(runner, args.record_refs, Path(args.refs), base)
        finally:
            shutil.rmtree(base, ignore_errors=True)
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    checker = Checker(load_refs(args.refs, args.seed, args.workload))
    server = None
    try:
        if args.trace:
            values = run_traced(runner, bins, args.seed, base,
                                build_dir() / "perfbench-trace" / args.workload,
                                checker, args.refs)
            units = per_layer_units()
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in units.items() if name in values}
            missing = sorted(set(units) - set(values))
            if missing:
                checker.fail(f"per-layer metrics not measured: {missing}")
        else:
            scenario = scenarios.make_bench_workload(args.workload, args.seed)
            if args.workload == "explore_serve":
                setup_s, server, texts = serve_setup(runner, scenario, base)
                figures = measure_serve(runner, scenario, server, texts,
                                        args.seconds, checker)
                server = None
            else:
                setup_s, work = timed_setups(runner, scenario, base,
                                             SETUP_REPEATS)
                figures = measure_batch(runner, scenario, work,
                                           args.seconds, checker)
            figures["setup_s"] = (setup_s, "s")
            metrics = {name: {"value": v, "unit": u}
                       for name, (v, u) in figures.items()}
    finally:
        if server is not None:
            server.kill()
        shutil.rmtree(base, ignore_errors=True)

    checker.report()
    info(f"fail_ratio {checker.failed / max(checker.attempted, 1):.6f} "
         f"({checker.failed} of {checker.attempted} operations)")
    print(json.dumps({"correct": checker.failed == 0,
                      "attempted": checker.attempted,
                      "failed": checker.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
