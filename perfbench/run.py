#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the release `pgvn` binary.

Run from the root of a pgvn checkout:

    python3 perfbench/run.py --workload batch-small --seed 1 --seconds 45 --trace 0

It builds `pgvn` and the helper in `perfbench/` (into $CARGO_TARGET_DIR,
default `.bench_build`), generates the workload's corpus from the seed,
measures for `--seconds`, checks every output, and prints the metrics.
The last line of standard output is one JSON object:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
the per-layer ones from a separate in-process traced run.
`--selftest` checks that the corpus and the deterministic counts repeat.
See `perfbench/README.md` for the workloads and the metric map.
"""

import argparse
import contextlib
import hashlib
import json
import os
import re
import shutil
import socket
import statistics
import struct
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK = ".perfbench_work"  # relative to ROOT; record names are these paths
SETUP_LAUNCHES = 25
SERVE_SLICE = 250  # requests per throughput/CPU slice
P99_GROUP = 1000  # samples per p99 estimate
SETUP_ROUTINE = "routine f(a, b) { x = a + b; y = b + a; return x - y; }\n"
# Never used while the benchmark or a change is tuned; claims are
# re-checked on it.
HELD_OUT_SEED = 909090

WORKLOADS = {
    "batch-small": {
        "kind": "batch", "jobs": 2, "passes": None, "check": False,
        "chunks": 8, "per_chunk": 1000, "trace_routines": 400,
    },
    # Not in BENCHMARK.json, like serve-pre-check below: its time
    # metrics spread by 12-24% between runs on the shared host. Run it
    # by hand.
    "batch-large": {
        "kind": "batch", "jobs": 1, "passes": None, "check": False,
        "chunks": 10, "per_chunk": 40, "trace_routines": 40,
    },
    "batch-pre-check": {
        "kind": "batch", "jobs": 1, "passes": "gvn,pre,gvn", "check": True,
        "scale": 0.3, "per_chunk": 100, "trace_routines": 100,
    },
    # Not in BENCHMARK.json: its time metrics spread by 18-24% between
    # runs on the shared host. Run it by hand.
    "serve-pre-check": {
        "kind": "serve", "jobs": 1, "passes": "gvn,pre,gvn", "check": True,
        "scale": 0.3, "per_chunk": 100, "warmup": 50, "trace_routines": 100,
    },
}

END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "cpu_ms_per_routine": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "usable_pct": "%",
    "code_size_ratio": "ratio",
}

PER_LAYER = {
    "lang.parse_us": "us", "lang.tokens_per_s": "1/s", "lang.lower_us": "us",
    "ssa.build_us": "us", "ssa.phis": "count/routine",
    "analysis.cfg_us": "us",
    "core.gvn_us": "us", "core.passes": "count/routine", "core.touches": "count/routine",
    "core.interner_hit_ratio": "ratio", "core.vi_cache_hit_ratio": "ratio",
    "transform.optimize_us": "us", "transform.rewrite_us": "us", "transform.pre_us": "us",
    "transform.check_us": "us", "transform.ladder_overhead_us": "us",
    "transform.full_rung_pct": "%", "transform.eliminated": "count/routine",
    "transform.analysis_cache_hit_ratio": "ratio",
    "ir.verify_us": "us", "ir.insts_in": "count/routine", "ir.insts_out": "count/routine",
    "telemetry.metrics_overhead_pct": "%", "telemetry.snapshot_us": "us",
    "telemetry.render_us": "us",
    "batch.worker_busy_pct": "%", "batch.merge_wait_ms": "ms", "batch.unattributed_us": "us",
    "serve.request_us": "us", "serve.queue_wait_us": "us", "serve.transport_us": "us",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    """A failure that stops the run before any result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build():
    """Builds `pgvn` and the helper; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        raise BenchError("no Cargo.toml here: run from the root of a pgvn checkout")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "pgvn"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
    ):
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=850)
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(cmd)} failed:\n{proc.stderr[-4000:]}")
    pgvn = os.path.join(target, "release", "pgvn")
    helper = os.path.join(target, "release", "perfbench")
    return pgvn, helper


def helper_run(helper, args, timeout=170):
    proc = subprocess.run([helper, *args], cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"perfbench {args[0]} failed: {proc.stderr.strip()}")
    return proc.stdout.strip().splitlines()[-1]


def generate(helper, name, wl, seed, out):
    """Writes the corpus under `out`; returns its manifest."""
    args = ["gen", "--workload", name, "--seed", str(seed), "--out", out,
            "--per-chunk", str(wl["per_chunk"])]
    if "scale" in wl:
        args += ["--scale", str(wl["scale"])]
    else:
        args += ["--chunks", str(wl["chunks"])]
    helper_run(helper, args)
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as f:
        manifest = json.load(f)
    for entry in manifest["files"]:
        entry["path"] = os.path.join(out, entry["path"])
    return manifest


# ---------------------------------------------------------- environment

def source_digest():
    """The commit when the checkout is a git repository, otherwise a
    digest of the sources the binary is built from."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        top, head = (rev.stdout.split() + ["", ""])[:2]
        if rev.returncode == 0 and os.path.realpath(top) == os.path.realpath(ROOT):
            return "git:" + head
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "third_party"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for p in files:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "sha256:" + h.hexdigest()[:16]


def threads():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# ------------------------------------------------------------ processes

def proc_cpu_s(pid):
    """CPU seconds a live process's threads have run so far, from the
    nanosecond counters in /proc/<pid>/task/*/schedstat."""
    total = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat", encoding="ascii") as f:
                total += int(f.read().split()[0])
        except FileNotFoundError:  # the thread exited meanwhile
            pass
    return total / 1e9


def proc_hwm_mb(pid):
    with open(f"/proc/{pid}/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM in /proc status")


def run_batch(pgvn, d, wl, report):
    """One `pgvn batch` invocation; returns wall, CPU and peak RSS.
    CPU and peak RSS come from the kernel's per-process accounting
    (the rusage `wait4` reports, which backs /proc/<pid>/stat)."""
    args = [pgvn, "batch", "--dir", d, "--jobs", str(wl["jobs"]), "--timings", "--report", report]
    if wl["passes"]:
        args += ["--passes", wl["passes"]]
    if wl["check"]:
        args.append("--check")
    t0 = time.perf_counter()
    proc = subprocess.Popen(args, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    err = proc.stderr.read()
    _, status, ru = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stderr.close()
    return {
        "wall": wall, "cpu": ru.ru_utime + ru.ru_stime, "rss_mb": ru.ru_maxrss / 1024.0,
        "exit": proc.returncode, "stderr": err.decode(errors="replace"),
    }


ROUTINE_RE = re.compile(
    r'^\{"event":"routine","name":"([^"]*)","status":"([a-z_]+)"(?:,"insts":(\d+))?')
WALL_RE = re.compile(r',"wall_nanos":(\d+)\}$')


def parse_report(path):
    """Routine records (name, status, insts, wall_nanos, record bytes
    without wall_nanos) and the batch_timing / batch_summary records."""
    records, timing, summary = [], None, None
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            m = ROUTINE_RE.match(line)
            if m:
                w = WALL_RE.search(line)
                body = line[:w.start()] + "}" if w else line
                records.append({
                    "name": m.group(1), "status": m.group(2),
                    "insts": int(m.group(3)) if m.group(3) else None,
                    "wall_nanos": int(w.group(1)) if w else None, "json": body,
                })
            elif line.startswith('{"event":"batch_timing"'):
                timing = json.loads(line)
            elif line.startswith('{"event":"batch_summary"'):
                summary = json.loads(line)
    return records, timing, summary


def record_ok(rec, wl):
    """A record is usable when it is classified, the ladder committed a
    function (optimized or identity), and the check gate found no
    error diagnostics."""
    if rec["status"] != "classified" or rec["insts"] is None:
        return False
    if '"outcome":"optimized"' not in rec["json"] and '"outcome":"identity"' not in rec["json"]:
        return False
    return not wl["check"] or '"check":{"errors":0,' in rec["json"]


# ---------------------------------------------------------------- serve

def frame(payload):
    return struct.pack("<I", len(payload)) + payload


def read_exact(read, n):
    buf = bytearray()
    while len(buf) < n:
        chunk = read(n - len(buf))
        if not chunk:
            raise BenchError("pgvn serve closed the stream")
        buf += chunk
    return bytes(buf)


def read_frame(read):
    (n,) = struct.unpack("<I", read_exact(read, 4))
    return read_exact(read, n)


def request(rid, name, source):
    return frame(json.dumps({"id": rid, "name": name, "routine": source}).encode())


@contextlib.contextmanager
def one_cpu():
    """Runs the serve client and the server it spawns on one CPU. The
    closed loop is a chain of hand-offs (client → connection thread →
    worker → client); on a virtual machine a wake-up on the other vCPU
    costs more than the hand-off itself and varies with the host, which
    made throughput swing by a quarter between runs. The first CPU
    drifted least in probes."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def serve_flags(wl):
    flags = ["--workers", "1"]
    if wl["passes"]:
        flags += ["--passes", wl["passes"]]
    if wl["check"]:
        flags.append("--check")
    return flags


def extract_record(resp):
    """The record inside a `record` response, byte for byte."""
    marker = b',"record":'
    at = resp.find(marker)
    if at < 0 or not resp.startswith(b'{"event":"serve_response"') or b'"reply":"record"' not in resp[:80]:
        return None
    return resp[at + len(marker):-1].decode()


class Server:
    """`pgvn serve --socket` with one closed-loop client connection.
    Readiness is the server's own `listening` line on stderr, read with
    a blocking read: the socket is bound before that line is printed."""

    def __init__(self, pgvn, wl):
        self.path = os.path.join(WORK, "serve.sock")
        self.proc = subprocess.Popen([pgvn, "serve", "--socket", self.path, *serve_flags(wl)],
                                     cwd=ROOT, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        line = self.proc.stderr.readline()
        if b"listening on" not in line:
            self.proc.kill()
            self.proc.wait()
            raise BenchError(f"pgvn serve did not start: {line!r}")
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(self.path)
        self.read = self.sock.recv

    def call(self, payload):
        self.sock.sendall(payload)
        return read_frame(self.read)

    def shutdown(self):
        """Drains the server; returns its serve_summary record."""
        self.call(frame(b'{"id":0,"op":"shutdown"}'))
        self.sock.close()
        err = self.proc.stderr.read().decode(errors="replace")
        self.proc.stderr.close()
        if self.proc.wait(timeout=60) != 0:
            raise BenchError(f"pgvn serve exited {self.proc.returncode}: {err[-2000:]}")
        for line in reversed(err.splitlines()):
            if line.startswith('{"event":"serve_summary"'):
                return json.loads(line)
        raise BenchError("pgvn serve printed no serve_summary")

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def serve_pass(pgvn, wl, entries, sources, seconds, warmup):
    """Closed loop over `entries` (cycled) for `seconds`, never stopping
    before one full pass. Returns latencies, responses, per-slice wall
    and CPU, peak RSS and the drain summary."""
    payloads = [request(i, e["path"], sources[e["path"]]) for i, e in enumerate(entries)]
    with one_cpu():
        return closed_loop(pgvn, wl, entries, payloads, seconds, warmup)


def closed_loop(pgvn, wl, entries, payloads, seconds, warmup):
    srv = Server(pgvn, wl)
    try:
        for p in payloads[:warmup]:
            srv.call(p)
        lat, resp, names, slices = [], [], [], []
        t0 = mark = time.perf_counter()
        cpu_mark = proc_cpu_s(srv.proc.pid)
        i, stop = 0, t0 + seconds
        while True:
            p = payloads[i % len(payloads)]
            s = time.perf_counter_ns()
            r = srv.call(p)
            lat.append(time.perf_counter_ns() - s)
            resp.append(r)
            names.append(entries[i % len(entries)]["path"])
            i += 1
            done = i >= len(payloads) and time.perf_counter() >= stop
            if i % SERVE_SLICE == 0 or done:
                now, cpu = time.perf_counter(), proc_cpu_s(srv.proc.pid)
                n = (i - 1) % SERVE_SLICE + 1
                slices.append({"routines": n, "wall": now - mark, "cpu": cpu - cpu_mark,
                               "lat": lat[-n:]})
                mark, cpu_mark = now, cpu
            if done:
                break
        rss = proc_hwm_mb(srv.proc.pid)
        summary = srv.shutdown()
    finally:
        srv.kill()
    return {"lat": lat, "resp": resp, "names": names, "slices": slices, "rss_mb": rss,
            "summary": summary}


def serve_setup(pgvn, wl):
    """Spawn → first record response on the stdio transport, which
    reads the request as soon as the process starts. (The socket
    transport's accept loop sleeps 20 ms between polls, which would
    make readiness read either ~2 ms or ~22 ms.)"""
    req = request(1, "setup", SETUP_ROUTINE)
    t0 = time.perf_counter()
    proc = subprocess.Popen([pgvn, "serve", *serve_flags(wl)], cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    try:
        proc.stdin.write(req)
        proc.stdin.flush()
        resp = read_frame(proc.stdout.read)
        dt = time.perf_counter() - t0
        proc.stdin.close()
        proc.stdout.close()
        if proc.wait(timeout=30) != 0 or extract_record(resp) is None:
            raise BenchError(f"serve setup failed: {resp[:200]!r}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return dt


def batch_setup(pgvn, wl, setup_dir):
    """Launch → exit of `pgvn batch` over a one-routine corpus."""
    out = run_batch(pgvn, setup_dir, wl, os.path.join(WORK, "setup.jsonl"))
    if out["exit"] != 0:
        raise BenchError(f"batch setup failed: {out['stderr']}")
    return out["wall"]


# ------------------------------------------------------------ statistics

def percentile(sorted_xs, q):
    """Linear-interpolated percentile of a sorted list."""
    k = (len(sorted_xs) - 1) * q
    lo = int(k)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (k - lo)


def timing_metrics(slices):
    """Throughput, latency and CPU from a window cut into slices (one
    `pgvn batch` invocation, or SERVE_SLICE consecutive requests).

    The host is shared, and its speed drifts by up to a third over
    periods of seconds. Each figure is therefore computed per slice and
    the median over slices reported. p99 is computed per group of
    consecutive slices holding at least P99_GROUP samples, so that at
    least ten lie beyond it, and the median over groups reported."""
    groups, cur = [], []
    for sl in slices:
        cur += sl["lat"]
        if len(cur) >= P99_GROUP:
            groups.append(sorted(cur))
            cur = []
    if cur:  # the remainder joins the last full group
        groups[-1:] = [sorted((groups[-1] if groups else []) + cur)]
    p50s = [percentile(sorted(sl["lat"]), 0.50) for sl in slices]
    metrics = {
        "throughput_rps": statistics.median(sl["routines"] / sl["wall"] for sl in slices),
        "latency_p50_ms": statistics.median(p50s) / 1e6,
        "latency_p99_ms": statistics.median(percentile(g, 0.99) for g in groups) / 1e6,
        "cpu_ms_per_routine": 1e3 * statistics.median(sl["cpu"] / sl["routines"] for sl in slices),
    }
    n = sum(sl["routines"] for sl in slices)
    k = len(slices)
    samples = {
        "throughput_rps": f"{n} routines in {k} slices",
        "latency_p50_ms": f"{n} routines in {k} slices",
        "latency_p99_ms": f"{len(groups)} groups of >= {min(len(g) for g in groups)} routines",
        "cpu_ms_per_routine": f"{k} slices",
    }
    return metrics, samples


# ------------------------------------------------------------ workloads

def read_sources(manifest):
    out = {}
    for e in manifest["files"]:
        with open(os.path.join(ROOT, e["path"]), encoding="utf-8") as f:
            out[e["path"]] = f.read()
    return out


def measure_batch(pgvn, wl, manifest, corpus, seconds):
    """Runs `pgvn batch` over the corpus chunks in turn for `seconds`
    (at least one full pass). Returns (metrics, samples, attempted,
    failed, failure messages)."""
    insts_in = {e["path"]: e["insts_in"] for e in manifest["files"]}
    dirs = [os.path.join(corpus, d) for d in manifest["dirs"]]
    runs, slices, failures = [], [], []
    first = {}  # name -> record bytes of its first appearance
    attempted = usable = 0
    note = failures.append
    t0 = time.perf_counter()
    stop = t0 + seconds
    k = 0
    while k < len(dirs) or time.perf_counter() < stop:
        report = os.path.join(WORK, "window.jsonl")
        out = run_batch(pgvn, dirs[k % len(dirs)], wl, report)
        records, _, summary = parse_report(report)
        runs.append(out)
        if out["exit"] != 0 or summary is None or summary["routines"] != len(records):
            failures.append(f"batch over {dirs[k % len(dirs)]} exited {out['exit']}: "
                            f"{out['stderr'][-300:]}")
        for rec in records:
            attempted += 1
            ok = record_ok(rec, wl)
            seen = first.setdefault(rec["name"], rec["json"])
            if seen != rec["json"]:
                ok = False
                note(f"{rec['name']}: record differs between passes")
            elif not ok:
                note(f"{rec['name']}: unusable record {rec['json'][:200]}")
            usable += ok
        slices.append({"routines": len(records), "wall": out["wall"], "cpu": out["cpu"],
                       "lat": [r["wall_nanos"] for r in records]})
        k += 1
    ins = sum(insts_in[n] for n in first)
    outs = sum(int(ROUTINE_RE.match(j).group(3) or 0) for j in first.values())
    metrics, samples = timing_metrics(slices)
    metrics.update({
        "peak_rss_mb": max(r["rss_mb"] for r in runs),
        "usable_pct": 100.0 * usable / max(attempted, 1),
        "code_size_ratio": outs / ins,
    })
    samples.update({
        "peak_rss_mb": f"max of {len(runs)} processes",
        "usable_pct": f"{attempted} attempted",
        "code_size_ratio": f"{len(first)} distinct routines",
    })
    return metrics, samples, attempted, attempted - usable, failures


def compare_served(wl, served_names, responses, reference, failures):
    """Counts served records that are usable and byte-identical to the
    batch reference."""
    usable = 0
    for name, resp in zip(served_names, responses):
        rec = extract_record(resp)
        ref = reference.get(name)
        if rec is not None and ref is not None and rec == ref["json"] and record_ok(ref, wl):
            usable += 1
        else:
            failures.append(f"{name}: served {resp[:160]!r} differs from batch --jobs 1")
    return usable


def batch_reference(pgvn, wl, dirs, failures):
    """`pgvn batch --jobs 1` over `dirs` with the workload's flags;
    returns the records by name."""
    report = os.path.join(WORK, "reference.jsonl")
    reference = {}
    for d in dirs:
        out = run_batch(pgvn, d, dict(wl, jobs=1), report)
        if out["exit"] != 0:
            failures.append(f"reference batch exited {out['exit']}: {out['stderr'][-300:]}")
        reference.update((r["name"], r) for r in parse_report(report)[0])
    return reference


def measure_serve(pgvn, wl, manifest, corpus, seconds):
    entries = manifest["files"]
    sources = read_sources(manifest)
    run = serve_pass(pgvn, wl, entries, sources, seconds, wl["warmup"])
    failures = []
    reference = batch_reference(
        pgvn, wl, [os.path.join(corpus, d) for d in manifest["dirs"]], failures)
    attempted = len(run["resp"])
    usable = compare_served(wl, run["names"], run["resp"], reference, failures)
    insts_in = {e["path"]: e["insts_in"] for e in entries}
    distinct = set(run["names"])
    ins = sum(insts_in[n] for n in distinct)
    outs = sum(reference[n]["insts"] or 0 for n in distinct if n in reference)
    metrics, samples = timing_metrics(run["slices"])
    metrics.update({
        "peak_rss_mb": run["rss_mb"],
        "usable_pct": 100.0 * usable / max(attempted, 1),
        "code_size_ratio": outs / ins,
    })
    samples.update({
        "peak_rss_mb": "VmHWM of 1 process",
        "usable_pct": f"{attempted} attempted",
        "code_size_ratio": f"{len(distinct)} distinct routines",
    })
    return metrics, samples, attempted, attempted - usable, failures


def measure_setup(pgvn, wl):
    if wl["kind"] == "serve":
        with one_cpu():
            times = [serve_setup(pgvn, wl) for _ in range(SETUP_LAUNCHES)]
    else:
        setup_dir = os.path.join(WORK, "setup")
        os.makedirs(setup_dir, exist_ok=True)
        with open(os.path.join(setup_dir, "setup.pgvn"), "w", encoding="utf-8") as f:
            f.write(SETUP_ROUTINE)
        times = [batch_setup(pgvn, wl, setup_dir) for _ in range(SETUP_LAUNCHES)]
    return statistics.median(times)


# ---------------------------------------------------------------- trace

def hist_mean_us(summary, metric):
    h = summary["serve_metrics"].get(metric)
    if not h or not h.get("count"):
        return 0.0
    return h["sum"] / h["count"] / 1e3


def measure_trace(pgvn, helper, name, wl, manifest, corpus, seed, seconds):
    """The traced run: the workload's subset through `pgvn batch` (for
    the batch-layer timing snapshot and the records) and through
    `pgvn serve` (for the serve timings), then the helper's in-process
    layer-traced replica over the same routines."""
    failures = []
    # The first chunk, as a batch invocation of the workload processes
    # it (serve: at --jobs 1, the byte-identity reference).
    first_dir = os.path.join(corpus, manifest["dirs"][0])
    report = os.path.join(WORK, "trace_batch.jsonl")
    out = run_batch(pgvn, first_dir, wl, report)
    records, timing, _ = parse_report(report)
    if out["exit"] != 0:
        failures.append(f"trace batch exited {out['exit']}: {out['stderr'][-300:]}")
    by_name = {r["name"]: r for r in records}
    entries = manifest["files"][:wl["trace_routines"]]
    run = serve_pass(pgvn, wl, entries, read_sources(manifest), 0.0,
                     min(wl.get("warmup", 20), len(entries)))
    compare_served(wl, run["names"], run["resp"], by_name, failures)

    records_path = os.path.join(WORK, "trace_records.jsonl")
    with open(records_path, "w", encoding="utf-8") as f:
        for e in entries:
            if e["path"] not in by_name:
                failures.append(f"{e['path']}: no record in the timed run")
                continue
            f.write(by_name[e["path"]]["json"] + "\n")
    line = helper_run(helper, ["trace", "--workload", name, "--seed", str(seed),
                               "--records", records_path, "--seconds", str(seconds),
                               "--spans", os.path.join(WORK, "spans.jsonl")],
                      timeout=seconds + 150)
    traced = json.loads(line)
    failures += traced["failures"]
    metrics = dict(traced["metrics"])

    tm = timing["metrics"]
    busy = tm["batch_routine_nanos"]["sum"]
    wait = tm["batch_merge_wait_nanos"]["value"]
    metrics["batch.worker_busy_pct"] = 100.0 * busy / (timing["jobs"] * wait)
    metrics["batch.merge_wait_ms"] = wait / 1e6
    request_us = hist_mean_us(run["summary"], "serve_request_nanos")
    queue_us = hist_mean_us(run["summary"], "serve_queue_wait_nanos")
    client_us = statistics.fmean(run["lat"]) / 1e3
    metrics["serve.request_us"] = request_us
    metrics["serve.queue_wait_us"] = queue_us
    metrics["serve.transport_us"] = client_us - request_us - queue_us

    accounted = traced["accounted_us_per_routine"]
    total = traced["traced_us_per_routine"]
    if abs(accounted - total) > 1e-6 * max(total, 1.0):
        failures.append(f"layer self times {accounted:.3f} us do not add up to {total:.3f} us")
    log(f"trace: {traced['traced_routines']} traced routines, {total:.1f} us/routine traced, "
        f"{traced['untraced_us_per_routine']:.1f} us untraced, layers account for "
        f"{accounted:.1f} us; replay mismatches {traced['replay_mismatches']}")
    counts = {k: traced[k] for k in ("insts_in", "insts_out", "phis", "passes", "touches",
                                     "eliminated")}
    return metrics, traced["routines"] + len(run["resp"]), failures, counts


# ----------------------------------------------------------------- main

def run_workload(args, name, wl, pgvn, helper):
    corpus = os.path.join(WORK, "corpus")
    manifest = generate(helper, name, wl, args.seed, corpus)
    log(f"corpus: {len(manifest['files'])} routines, digest {manifest['digest']}")
    if args.trace:
        metrics, attempted, failures, _ = measure_trace(
            pgvn, helper, name, wl, manifest, corpus, args.seed, args.seconds)
        return (metrics, {k: "traced run" for k in metrics}, attempted,
                min(len(failures), attempted), failures, PER_LAYER)
    setup = measure_setup(pgvn, wl)
    measure = measure_serve if wl["kind"] == "serve" else measure_batch
    metrics, samples, attempted, failed, failures = measure(
        pgvn, wl, manifest, corpus, args.seconds)
    metrics["setup_s"] = setup
    samples["setup_s"] = f"median of {SETUP_LAUNCHES} launches"
    return metrics, samples, attempted, failed, failures, END_TO_END


def selftest(args, name, wl, pgvn, helper):
    """Same seed → same corpus bytes, code size and counts; another seed
    → another corpus."""
    problems = []
    a = generate(helper, name, wl, args.seed, os.path.join(WORK, "self_a"))
    b = generate(helper, name, wl, args.seed, os.path.join(WORK, "self_b"))
    c = generate(helper, name, wl, args.seed + 1, os.path.join(WORK, "self_c"))
    if a["digest"] != b["digest"]:
        problems.append("one seed gave two corpora")
    if a["digest"] == c["digest"]:
        problems.append("two seeds gave one corpus")
    results = []
    for _ in range(2):
        corpus = os.path.join(WORK, "corpus")
        shutil.rmtree(corpus, ignore_errors=True)
        manifest = generate(helper, name, wl, args.seed, corpus)
        small = dict(wl, trace_routines=min(wl["trace_routines"], 40))
        metrics, _, failures, counts = measure_trace(
            pgvn, helper, name, small, manifest, corpus, args.seed, 1.0)
        problems += failures
        results.append((counts, metrics["ir.insts_out"] / metrics["ir.insts_in"]))
    if results[0] != results[1]:
        problems.append(f"counts differ between runs: {results[0]} vs {results[1]}")
    log(f"selftest {name} seed {args.seed}: counts {results[0][0]}, "
        f"code size ratio {results[0][1]:.6f}; held-out seed for claims: {HELD_OUT_SEED}")
    for p in problems:
        log(f"selftest: FAIL: {p}")
    print(json.dumps({"selftest": "pass" if not problems else "fail", "problems": problems}))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    load_start = os.getloadavg()[0]
    try:
        pgvn, helper = build()
        shutil.rmtree(os.path.join(ROOT, WORK), ignore_errors=True)
        os.makedirs(os.path.join(ROOT, WORK))
        if args.selftest:
            return selftest(args, args.workload, wl, pgvn, helper)
        metrics, samples, attempted, failed, failures, catalog = run_workload(
            args, args.workload, wl, pgvn, helper)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log(f"perfbench: {type(e).__name__}: {e}")
        return 2
    load_end = os.getloadavg()[0]
    env = {
        "event": "environment", "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "available_parallelism": threads(),
        "loadavg_1m_start": load_start, "loadavg_1m_end": load_end,
        "loaded": max(load_start, load_end) > threads(), "pgvn": source_digest(),
    }
    print(json.dumps(env))
    if env["loaded"]:
        log("perfbench: WARNING: the 1-minute load average exceeded the thread count")
    for f in failures[:20]:
        log(f"perfbench: FAIL: {f}")
    if len(failures) > 20:
        log(f"perfbench: ... and {len(failures) - 20} more failures")
    width = max(len(k) for k in catalog)
    for key, unit in catalog.items():
        print(f"{key:<{width}}  {metrics[key]:>14.6f} {unit:<14} {samples.get(key, '')}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in catalog.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
