#!/usr/bin/env python3
"""The repository benchmark: one seeded workload, measured end to end
(--trace 0) or split into layers (--trace 1).

    python3 perfbench/run.py --workload served_batch --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: it builds `cnfet_dk` and
`perfbench/bench.exe` with dune, runs the workload, checks every output,
and prints one JSON object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Lines before it are a human-readable report.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import random
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

WORKLOADS = ("served_batch", "served_workers", "dse_campaign", "flow_10k")

CLI = os.path.join("_build", "default", "bin", "cnfet_dk.exe")
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
STATE = ".perfbench_state"  # result digests kept across runs of one checkout
RUN_DIR = ".perfbench_run"  # scratch of one run, removed when it ends

E2E = {
    "setup_s": "s",
    "wall_s": "s",
    "jobs_per_s": "1/s",
    "job_latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

LAYERS = {
    "server.ack_ms_p50": "ms",
    "server.overhead_ms_p50": "ms",
    "scheduler.queue_wait_ms_p50": "ms",
    "scheduler.queue_wait_ms_p90": "ms",
    "runner.exec_ms_p50.fault": "ms",
    "runner.exec_ms_p50.testgen": "ms",
    "runner.exec_ms_p50.characterize": "ms",
    "runner.exec_ms_p50.flow": "ms",
    "cache.hit_ratio": "ratio",
    "journal.appends": "count",
    "journal.append_ms_p50": "ms",
    "json.codec_us_p50": "us",
    "workers.restarts": "count",
    "server.conn_errors": "count",
    "dse.points": "count",
    "dse.trials": "count",
    "dse.eval_ratio": "ratio",
    "dse.pruned_ratio": "ratio",
    "dse.round_ms_p50": "ms",
    "pool.busy_frac": "ratio",
    "library.build_ms": "ms",
    "variation.prepare_ms": "ms",
    "characterize.arcs": "count",
    "characterize.ms_per_arc": "ms",
    "transient.steps": "count",
    "transient.steps_per_s": "1/s",
    "injector.trials_per_s": "1/s",
    "testgen.trials_per_s": "1/s",
    "flow.validate_ms": "ms",
    "flow.place_ms": "ms",
    "flow.layout_ms": "ms",
    "flow.export_ms": "ms",
    "gds.mb_per_s": "MB/s",
    "drc.outlines_ms": "ms",
    "extract.couplings_ms": "ms",
    "crossing.queries_per_s": "1/s",
    "drc.violations": "count",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (build, set-up or protocol)."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# --- statistics ------------------------------------------------------------


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, p):
    """Nearest-rank percentile."""
    if not xs:
        return 0.0
    s = sorted(xs)
    k = max(0, min(len(s) - 1, int(-(-p * len(s) // 100)) - 1))
    return s[k]


def tail(xs):
    """The highest of p99/p95/p90/p75/p50 with at least ten samples
    beyond it, as (label, value, samples beyond); None below 20 samples."""
    for p in (99, 95, 90, 75, 50):
        beyond = len(xs) - -(-p * len(xs) // 100)
        if beyond >= 10:
            return ("p%d" % p, percentile(xs, p), beyond)
    return None


def timing(xs, unit):
    """A timing as the guides ask: median, tail percentile, sample count."""
    t = tail(xs)
    out = {"median": median(xs), "unit": unit, "samples": len(xs)}
    if t:
        out[t[0]] = t[1]
        out["beyond_" + t[0]] = t[2]
    return out


def cycle_wall(cycles, key):
    """Time of one cycle of an in-process workload: the sum over its items
    of each item's median time across the run's cycles, so a slow moment
    of the host in one cycle does not count whole."""
    return sum(median([cy[key][k]["s"] for cy in cycles])
               for k in range(len(cycles[0][key])))


def per_ms(total_s, n):
    return 1e3 * total_s / n if n else 0.0


def rate(n, busy_s):
    return n / busy_s if busy_s > 0 else 0.0


# --- processes -------------------------------------------------------------


class Procs:
    """Every process a run starts; all are stopped and reaped at exit."""

    def __init__(self):
        self.live = []

    def spawn(self, argv, **kw):
        p = subprocess.Popen(argv, **kw)
        self.live.append(p)
        return p

    def reap(self, p, timeout=30):
        try:
            p.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
        if p in self.live:
            self.live.remove(p)
        return p.returncode

    def stop_all(self):
        for p in list(self.live):
            if p.poll() is None:
                p.send_signal(signal.SIGTERM)
        for p in list(self.live):
            self.reap(p, timeout=5)


def nproc():
    return len(os.sched_getaffinity(0))


def peak_rss_kb(pid):
    """VmHWM of a process plus every descendant (worker processes)."""
    total = 0
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1])
        for tid in os.listdir("/proc/%d/task" % pid):
            with open("/proc/%d/task/%s/children" % (pid, tid)) as f:
                for child in f.read().split():
                    total += peak_rss_kb(int(child))
    except (FileNotFoundError, ProcessLookupError):
        pass
    return total


def build():
    """Build the CLI and the in-process benchmark from source."""
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir("bin")):
        raise BenchError("not a cnfet_dk source checkout: run from its root")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "bin/cnfet_dk.exe",
         "perfbench/bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if r.returncode != 0:
        raise BenchError("dune build failed")


def bench_exe(procs, args, timeout=170):
    """Run perfbench/bench.exe; returns its JSON output lines."""
    p = procs.spawn([BENCH] + args, stdout=subprocess.PIPE)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        p.kill()
        out, _ = p.communicate()
    procs.reap(p)
    if p.returncode != 0:
        raise BenchError("bench.exe %s exited %d" % (args[0], p.returncode))
    return [json.loads(l) for l in out.decode().splitlines() if l.strip()]


# --- served workloads: the request stream ------------------------------------

CELLS = ["INV", "NAND2", "NOR2", "AOI21", "OAI21"]

# One round of traffic: the kinds of its 20 submissions.  About a quarter
# repeat an earlier job, so the scheduler serves them from its cache.
ROUND = (["fault_new"] * 4 + ["fault_vulnerable"] * 3 + ["testgen"] * 3
         + ["characterize"] * 2 + ["flow"] * 3 + ["repeat"] * 5)


class Stream:
    """The request stream: the same jobs, round by round, for every seed,
    so that every run asks for the same work; the seed orders the
    submissions of each round.  The same seed always yields the same
    submissions in the same order, whoever serves them."""

    def __init__(self, seed):
        self.rng = random.Random(0)  # the jobs
        self.order = random.Random(seed)
        self.subs = []  # every submission generated so far, in order
        self.made = []  # (round, job) of every fresh job, as generated
        self.used = set()

    def fresh(self, kind):
        rng = self.rng
        for _ in range(1000):
            if kind.startswith("fault"):
                job = {"kind": "fault", "cell": rng.choice(CELLS),
                       "style": "new" if kind == "fault_new" else "vulnerable",
                       "trials": rng.randint(200, 2000),
                       "seed": rng.randint(1, 1 << 30)}
            elif kind == "testgen":
                job = {"kind": "testgen", "cell": rng.choice(CELLS),
                       "trials": rng.randint(100, 600),
                       "seed": rng.randint(1, 1 << 30)}
            elif kind == "characterize":
                # characterize jobs carry no seed: drive and loads make
                # them distinct.  Only INV and NAND2 come at every drive,
                # and a load sweep of two points keeps the cost near even.
                job = {"kind": "characterize", "cell": "NAND2",
                       "drive": rng.randint(1, 24),
                       "loads": sorted(rng.sample(range(1, 7), 2))}
            else:
                aspect = rng.choice([0.5 + 0.1 * k for k in range(16)])
                design = rng.choice(["full_adder", "ripple", "lfsr"])
                job = {"kind": "flow", "scheme": rng.choice(["s1", "s2"]),
                       "aspect": round(aspect, 2)}
                if design == "full_adder":
                    job["design"] = "full_adder"
                elif design == "ripple":
                    job.update(design="ripple", bits=rng.randint(2, 24))
                else:
                    job.update(design="generated", spec="lfsr%dx%d" % (
                        rng.randint(4, 16), rng.randint(2, 8)))
            key = json.dumps(job, sort_keys=True)
            if key not in self.used:
                self.used.add(key)
                return job
        raise BenchError("ran out of distinct %s jobs" % kind)

    def add_round(self):
        r = len(self.subs) // len(ROUND)
        # a repeat names a job of a round at least two back, long settled
        # under a closed loop, so it is a cache hit and not a dedup
        older = [job for rd, job in self.made if rd <= r - 2]
        jobs = []
        for kind in ROUND:
            if kind == "repeat" and older:
                jobs.append((self.rng.choice(older), True))
            else:
                job = self.fresh("fault_new" if kind == "repeat" else kind)
                self.made.append((r, job))
                jobs.append((job, False))
        self.order.shuffle(jobs)
        for job, repeat in jobs:
            self.subs.append({
                "i": len(self.subs), "round": r, "job": job, "repeat": repeat,
                "line": (json.dumps({"op": "submit", "job": job}) + "\n").encode(),
            })


class Conn:
    def __init__(self, path, server):
        deadline = time.monotonic() + 60
        while True:
            try:
                s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                s.connect(path)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                s.close()
                if server.poll() is not None or time.monotonic() > deadline:
                    raise BenchError("server did not open its socket")
                time.sleep(0.001)
        self.sock = s
        self.buf = b""
        self.sub = None

    def request(self, op):
        """Send one control op and return its reply (no job in flight)."""
        self.sock.sendall((json.dumps({"op": op}) + "\n").encode())
        while b"\n" not in self.buf:
            data = self.sock.recv(1 << 16)
            if not data:
                raise BenchError("server closed the connection")
            self.buf += data
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def close(self):
        self.sock.close()


class Server:
    """One `cnfet_dk serve --socket` process with a fresh journal and
    cache; [connections] counts the control connection."""

    def __init__(self, procs, tmp, tag, workers, conns, extra=()):
        d = os.path.join(tmp, tag)
        os.makedirs(d)
        self.path = os.path.join(d, "s.sock")
        n = nproc()
        argv = [CLI, "serve", "--socket", self.path,
                "--connections", str(conns + 1),
                "--max-conns", str(conns + 1),
                "--journal", os.path.join(d, "journal"),
                "--cache-dir", os.path.join(d, "cache")]
        argv += (["--workers", str(n), "--domains", "1"] if workers
                 else ["--domains", str(n)])
        argv += list(extra)
        self.procs = procs
        t0 = time.perf_counter()
        self.proc = procs.spawn(argv, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        self.control = Conn(self.path, self.proc)
        reply = self.control.request("health")
        if reply.get("status") != "ok":
            raise BenchError("server unhealthy: %r" % reply)
        self.setup_s = time.perf_counter() - t0

    def finish(self, conns):
        """Close every connection and wait for the server to drain and
        exit."""
        for c in conns + [self.control]:
            c.close()
        if self.procs.reap(self.proc, timeout=60) != 0:
            raise BenchError("server exited %s" % self.proc.returncode)


def spawn_setups(procs, tmp, workers, k, tag):
    """Set-up time of [k] throwaway servers: spawn to first health reply."""
    out = []
    for j in range(k):
        s = Server(procs, tmp, "%s%d" % (tag, j), workers, conns=0)
        out.append(s.setup_s)
        s.finish([])
    return out


# The server's memory is read after this many completions: the same work
# in every run, however many jobs the time allows.
RSS_AFTER = 30 * len(ROUND)


def drive(server, stream, seconds, conns):
    """Closed loop: each connection keeps one job outstanding; new rounds
    start until [seconds] have passed, and the last round runs out.
    Returns the submissions sent, the connections and the server's peak
    memory after RSS_AFTER completions (or at the end, if fewer)."""
    links = [Conn(server.path, server.proc) for _ in range(conns)]
    sel = selectors.DefaultSelector()
    for c in links:
        sel.register(c.sock, selectors.EVENT_READ, c)
    start = time.perf_counter()
    pos = [0]
    completed = 0
    rss_kb = None

    def send(c):
        if pos[0] == len(stream.subs):
            if time.perf_counter() - start >= seconds:
                return
            stream.add_round()
        sub = stream.subs[pos[0]]
        pos[0] += 1
        sub["t_send"] = time.perf_counter()
        c.sub = sub
        c.sock.sendall(sub["line"])

    for c in links:
        send(c)
    while any(c.sub for c in links):
        ready = sel.select(timeout=120)
        if not ready:
            raise BenchError("no reply from the server in 120 s")
        for key, _ in ready:
            c = key.data
            data = c.sock.recv(1 << 16)
            if not data:
                raise BenchError("server closed a load connection")
            c.buf += data
            while b"\n" in c.buf:
                line, c.buf = c.buf.split(b"\n", 1)
                t = time.perf_counter()
                ev = json.loads(line)
                sub = c.sub
                kind = ev.get("event")
                if kind == "accepted":
                    sub["t_ack"] = t
                    continue
                sub["t_done"] = t
                sub["event"] = ev
                sub["raw"] = line
                c.sub = None
                completed += 1
                if completed == RSS_AFTER:
                    rss_kb = peak_rss_kb(server.proc.pid)
                send(c)
    for c in links:
        sel.unregister(c.sock)
    if rss_kb is None:
        rss_kb = peak_rss_kb(server.proc.pid)
    return stream.subs[:pos[0]], links, rss_kb


def check_served(subs):
    """Per-submission output checks; returns the failure messages."""
    errors = []
    first = {}
    for s in subs:
        ev = s.get("event", {})
        job = s["job"]
        key = json.dumps(job, sort_keys=True)
        if ev.get("event") != "done" or ev.get("state") != "done":
            errors.append("job %d: %s" % (s["i"], ev.get("event") or ev))
            continue
        res = ev.get("result")
        if job["kind"] == "fault" and job["style"] == "new" \
                and res.get("functional_failures") != 0:
            errors.append("job %d: immune cell failed" % s["i"])
        if job["kind"] == "characterize" \
                and len(res.get("points", [])) != len(job["loads"]):
            errors.append("job %d: wrong characterize points" % s["i"])
        if job["kind"] == "flow" and not res.get("gds_bytes"):
            errors.append("job %d: flow wrote no GDS" % s["i"])
        if key in first and first[key] != res:
            errors.append("job %d: repeat differs from its first result" % s["i"])
        first.setdefault(key, res)
    return errors


def check_reference(procs, tmp, subs):
    """The first two fresh jobs of each kind, run in-process through
    Service.Runner, must give the served documents."""
    picked, seen = [], {}
    for s in subs:
        k = s["job"]["kind"]
        if not s["repeat"] and seen.get(k, 0) < 2:
            seen[k] = seen.get(k, 0) + 1
            picked.append(s)
    path = os.path.join(tmp, "reference.ndjson")
    with open(path, "w") as f:
        for s in picked:
            f.write(json.dumps(s["job"]) + "\n")
    out = bench_exe(procs, ["reference", "jobs=" + path])
    return ["job %d: served result differs from in-process Service.Runner"
            % s["i"] for s, ref in zip(picked, out)
            if not ref.get("ok") or ref["result"] != s["event"].get("result")]


def check_digest(subs):
    """The documents of the first 40 submissions must be the same in every
    run of this build on the same requests, with or without --workers."""
    first = subs[:40]
    digest = hashlib.sha256(json.dumps(
        [s["event"].get("result") for s in first], sort_keys=True).encode()
    ).hexdigest()
    key = hashlib.sha256()
    with open(CLI, "rb") as f:
        key.update(f.read())
    for s in first:
        key.update(s["line"])
    key = key.hexdigest()
    os.makedirs(STATE, exist_ok=True)
    path = os.path.join(STATE, "served_digests.json")
    try:
        with open(path) as f:
            known = json.load(f)
    except (FileNotFoundError, ValueError):
        known = {}
    if known.get(key, digest) != digest:
        return digest, ["result digest differs from an earlier run"]
    known[key] = digest
    with open(path + ".tmp", "w") as f:
        json.dump(known, f)
    os.replace(path + ".tmp", path)
    return digest, []


def served_pass(procs, tmp, tag, seed, seconds, workers, extra=()):
    conns = min(2, nproc())
    server = Server(procs, tmp, tag, workers, conns, extra)
    stream = Stream(seed)
    subs, links, rss_kb = drive(server, stream, seconds, conns)
    stats = server.control.request("stats")
    server.finish(links)
    done = [s for s in subs if "t_done" in s]
    window = max(s["t_done"] for s in done) - min(s["t_send"] for s in subs)
    return {"server": server, "subs": subs, "stats": stats, "rss_kb": rss_kb,
            "window": window, "conns": conns}


def served_latencies(subs):
    lat = [1e3 * (s["t_done"] - s["t_send"]) for s in subs if "t_done" in s]
    hits = [1e3 * (s["t_done"] - s["t_send"]) for s in subs
            if s.get("event", {}).get("cached")]
    return lat, hits


def round_walls(subs):
    """Per complete round: first send to last completion."""
    by = {}
    for s in subs:
        if "t_done" in s:
            lo, hi, n = by.get(s["round"], (s["t_send"], s["t_done"], 0))
            by[s["round"]] = (min(lo, s["t_send"]), max(hi, s["t_done"]), n + 1)
    return [hi - lo for lo, hi, n in by.values() if n == len(ROUND)]


def run_served(procs, tmp, seed, seconds, trace, workers):
    if not trace:
        # set-up speed comes in phases of a few seconds on a shared host, so
        # servers are timed before and after the run, and averaged
        setups = spawn_setups(procs, tmp, workers, 7, "pre")
        p = served_pass(procs, tmp, "main", seed, seconds, workers)
        setups += [p["server"].setup_s] + spawn_setups(procs, tmp, workers, 7,
                                                       "post")
        subs = p["subs"]
        errors = check_served(subs)
        errors += check_reference(procs, tmp, subs)
        digest, derr = check_digest(subs)
        errors += derr
        lat, hits = served_latencies(subs)
        n = sum(1 for s in subs if "t_done" in s)
        info = {
            "nproc": nproc(), "loadavg": os.getloadavg(),
            "connections": p["conns"], "rounds": len(round_walls(subs)),
            "job_latency_ms": timing(lat, "ms"),
            "hit_latency_ms": timing(hits, "ms"),
            "setup_s": timing(setups, "s"),
            "cache_hits": p["stats"].get("cache_hits"),
            "result_digest": digest, "errors": errors[:5],
        }
        metrics = {
            "setup_s": statistics.mean(setups),
            "wall_s": median(round_walls(subs)),
            "jobs_per_s": n / p["window"],
            "job_latency_p50_ms": median(lat),
            "peak_rss_mb": p["rss_kb"] / 1024.0,
        }
        return metrics, len(subs), len(errors), info
    # traced run: half the time plain, half with the server's trace and
    # metrics dumps on, then the direct layer calls on the traced traffic
    half = seconds / 2.0
    plain = served_pass(procs, tmp, "plain", seed, half, workers)
    tdir = os.path.join(tmp, "telemetry")
    os.makedirs(tdir)
    traced = served_pass(
        procs, tmp, "traced", seed, half, workers,
        ["--trace-out", os.path.join(tdir, "trace.json"),
         "--metrics-out", os.path.join(tdir, "metrics.prom")])
    subs = [s for s in traced["subs"] if "t_done" in s]
    errors = check_served(traced["subs"])
    req = os.path.join(tmp, "requests.ndjson")
    res = os.path.join(tmp, "results.ndjson")
    with open(req, "wb") as f:
        f.writelines(s["line"] for s in subs)
    with open(res, "wb") as f:
        f.writelines(s["raw"] + b"\n" for s in subs)
    layers = bench_exe(procs, [
        "layers", "requests=" + req, "results=" + res, "dir=" + tmp,
        "domains=%d" % (1 if workers else nproc())])[-1]
    stats = traced["stats"]
    evs = [s["event"] for s in subs]
    computed = [e for e in evs if not e.get("cached")]
    exec_by = {}
    for s, e in zip(subs, evs):
        if not e.get("cached"):
            exec_by.setdefault(s["job"]["kind"], []).append(e["wall_ms"])
    waits = [e["queue_wait_ms"] for e in evs]
    lat = [1e3 * (s["t_done"] - s["t_send"]) for s in subs]
    codec = median(layers["codec_us"])
    append_ms = median(layers["journal_append_ms"])
    appends = stats.get("journal_appends", 0)
    executors = nproc() if workers else 1
    busy_ms = (sum(e["wall_ms"] for e in computed) + appends * append_ms
               + len(subs) * codec / 1e3)
    m = zero_layers()
    m.update({
        "server.ack_ms_p50": median(
            [1e3 * (s["t_ack"] - s["t_send"]) for s in subs if "t_ack" in s]),
        "server.overhead_ms_p50": median(
            [l - e["queue_wait_ms"] - e["wall_ms"] for l, e in zip(lat, evs)]),
        "scheduler.queue_wait_ms_p50": median(waits),
        "scheduler.queue_wait_ms_p90": percentile(waits, 90),
        "cache.hit_ratio": stats.get("cache_hits", 0) / max(1, stats.get("done", 0)),
        "journal.appends": appends,
        "journal.append_ms_p50": append_ms,
        "json.codec_us_p50": codec,
        "workers.restarts": stats.get("worker_restarts", 0),
        "server.conn_errors": stats.get("conn_errors", 0),
        "pool.busy_frac": rate(layers["pool_busy_s"], layers["pool_total_s"]),
        "trace.coverage": busy_ms / (1e3 * traced["window"] * executors),
        "trace.overhead": (len(plain["subs"]) / plain["window"])
        / (len(traced["subs"]) / traced["window"]) - 1.0,
    })
    for kind in ("fault", "testgen", "characterize", "flow"):
        m["runner.exec_ms_p50." + kind] = median(exec_by.get(kind, []))
    m.update(char_metrics(layers["char"]))
    m["injector.trials_per_s"] = rate(layers["injector"]["n"],
                                      layers["injector"]["busy_s"])
    m["testgen.trials_per_s"] = rate(layers["testgen"]["n"],
                                     layers["testgen"]["busy_s"])
    m.update(flow_metrics(layers["flow"]["passes"], layers["flow"]["gds_bytes"],
                          layers["signoff"]))
    return m, len(traced["subs"]), len(errors), {"errors": errors[:5]}


# --- in-process workloads ----------------------------------------------------


def zero_layers():
    """Layers a workload does not exercise read 0: it did no work there."""
    return {name: 0.0 for name in LAYERS}


def char_metrics(c):
    return {
        "library.build_ms": per_ms(c["library"]["busy_s"], c["library"]["n"]),
        "variation.prepare_ms": per_ms(c["variation"]["busy_s"],
                                       c["variation"]["n"]),
        "characterize.arcs": c["arcs"]["n"],
        "characterize.ms_per_arc": per_ms(c["arcs"]["busy_s"], c["arcs"]["n"]),
        "transient.steps": c["steps"]["n"],
        "transient.steps_per_s": rate(c["steps"]["n"], c["steps"]["busy_s"]),
    }


def flow_metrics(passes, gds_bytes, signoff):
    def pass_ms(name):
        return 1e3 * median([p.get(name, 0.0) for p in passes])
    export_s = sum(p.get("export", 0.0) for p in passes)
    n = len(passes)
    return {
        "flow.validate_ms": pass_ms("validate"),
        "flow.place_ms": pass_ms("place"),
        "flow.layout_ms": pass_ms("layout"),
        "flow.export_ms": pass_ms("export"),
        "gds.mb_per_s": rate(gds_bytes / 1e6, export_s),
        "drc.outlines_ms": per_ms(signoff["drc"]["busy_s"], n),
        "extract.couplings_ms": per_ms(signoff["couplings"]["busy_s"], n),
        "crossing.queries_per_s": rate(signoff["crossing"]["n"],
                                       signoff["crossing"]["busy_s"]),
        "drc.violations": signoff["violations"],
    }


def run_dse(procs, seed, seconds, trace):
    out = bench_exe(procs, ["dse", "seed=%d" % seed, "seconds=%d" % seconds,
                            "domains=%d" % nproc(), "trace=%d" % trace])[-1]
    cycles = out["cycles"] + ([out["traced"]] if trace else [])
    campaigns = [c for cy in cycles for c in cy["campaigns"]]
    errors = ["%s/%s: front empty or dominated" % (c["cell"], c["style"])
              for c in campaigns if not c["front_ok"]]
    # the same campaign in every cycle must return the same front
    for cy in cycles[1:]:
        for a, b in zip(cycles[0]["campaigns"], cy["campaigns"]):
            if a["digest"] != b["digest"]:
                errors.append("%s/%s: front differs across repetitions"
                              % (a["cell"], a["style"]))
    if not trace:
        times = [c["s"] for c in campaigns]
        info = {"nproc": nproc(), "loadavg": os.getloadavg(),
                "cycles": len(cycles), "campaign_s": timing(times, "s"),
                "campaigns_per_min": 60.0 * len(times) / sum(times),
                "setup_s": timing(out["setup_s"], "s"), "errors": errors[:5]}
        metrics = {
            "setup_s": statistics.mean(out["setup_s"]),
            "wall_s": cycle_wall(cycles, "campaigns"),
            "jobs_per_s": len(times) / sum(times),
            "job_latency_p50_ms": 1e3 * median(times),
            "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
        }
        return metrics, len(campaigns), len(errors), info
    tr = out["traced"]["campaigns"]
    lay = out["layers"]
    points = sum(c["points"] for c in tr)
    m = zero_layers()
    m.update(char_metrics(lay["char"]))
    char = lay["char"]
    busy = (char["library"]["busy_s"] + char["variation"]["busy_s"]
            + char["arcs"]["busy_s"] + lay["layout"]["busy_s"]
            + lay["mc"]["busy_s"])
    m.update({
        "dse.points": points,
        "dse.trials": sum(c["trials"] for c in tr),
        "dse.eval_ratio": points / sum(c["fine_grid"] for c in tr),
        "dse.pruned_ratio": sum(c["pruned"] for c in tr) / points,
        "dse.round_ms_p50": 1e3 * median(out["round_s"]),
        "pool.busy_frac": rate(lay["pool_busy_s"], lay["pool_total_s"]),
        "injector.trials_per_s": rate(lay["mc"]["n"], lay["pool_busy_s"]),
        "trace.coverage": busy / out["traced"]["s"],
        "trace.overhead": out["traced"]["s"] / out["cycles"][0]["s"] - 1.0,
    })
    return m, len(campaigns), len(errors), {"errors": errors[:5]}


def run_flow(procs, seconds, trace):
    out = bench_exe(procs, ["flow", "seconds=%d" % seconds,
                            "trace=%d" % trace])[-1]
    cycles = out["cycles"] + ([out["traced"]] if trace else [])
    designs = [d for cy in cycles for d in cy["designs"]]
    errors = ["%s/%s: %s" % (d["design"], d["scheme"], d["error"])
              for d in designs if not d["ok"]]
    for cy in cycles[1:]:
        for a, b in zip(cycles[0]["designs"], cy["designs"]):
            if a["gds_digest"] != b["gds_digest"]:
                errors.append("%s/%s: GDS differs across repetitions"
                              % (a["design"], a["scheme"]))
    if not trace:
        times = [d["s"] for d in designs]
        info = {"nproc": nproc(), "loadavg": os.getloadavg(),
                "cycles": len(cycles), "design_s": timing(times, "s"),
                "cells_per_s": sum(d["cells"] for d in designs) / sum(times),
                "setup_s": timing(out["setup_s"], "s"), "errors": errors[:5]}
        metrics = {
            "setup_s": statistics.mean(out["setup_s"]),
            "wall_s": cycle_wall(cycles, "designs"),
            "jobs_per_s": len(times) / sum(times),
            "job_latency_p50_ms": 1e3 * median(times),
            "peak_rss_mb": max(d["peak_rss_kb"]
                               for d in cycles[0]["designs"]) / 1024.0,
        }
        return metrics, len(designs), len(errors), info
    tr = out["traced"]["designs"]
    signoff = {k: {"n": sum(d["signoff"][k]["n"] for d in tr),
                   "busy_s": sum(d["signoff"][k]["busy_s"] for d in tr)}
               for k in ("drc", "couplings", "crossing")}
    signoff["violations"] = sum(d["signoff"]["violations"] for d in tr)
    m = zero_layers()
    m.update(flow_metrics([d["passes"] for d in tr],
                          sum(d["gds_bytes"] for d in tr), signoff))
    busy = sum(d["flow_s"] for d in tr) + sum(
        signoff[k]["busy_s"] for k in ("drc", "couplings", "crossing"))
    untraced = sum(d["s"] for d in out["cycles"][0]["designs"])
    traced = sum(d["s"] for d in tr)
    m.update({
        "library.build_ms": per_ms(out["library"]["busy_s"], out["library"]["n"]),
        "trace.coverage": busy / traced,
        "trace.overhead": traced / untraced - 1.0,
    })
    return m, len(designs), len(errors), {"errors": errors[:5]}


# --- entry point -------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    # a terminated run still stops its servers and removes its scratch
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    procs = Procs()
    tmp = os.path.join(RUN_DIR, str(os.getpid()))
    try:
        build()
        os.makedirs(tmp)
        if a.workload.startswith("served"):
            m, attempted, failed, info = run_served(
                procs, tmp, a.seed, a.seconds, a.trace,
                a.workload == "served_workers")
        elif a.workload == "dse_campaign":
            m, attempted, failed, info = run_dse(procs, a.seed, a.seconds, a.trace)
        else:
            m, attempted, failed, info = run_flow(procs, a.seconds, a.trace)
    except BenchError as e:
        log("perfbench: %s" % e)
        return 2
    finally:
        procs.stop_all()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(RUN_DIR)
        except OSError:
            pass
    units = LAYERS if a.trace else E2E
    info["workload"] = a.workload
    info["seed"] = a.seed
    print(json.dumps(info))
    for name in units:
        print("  %-34s %14.6g %s" % (name, m[name], units[name]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
