#!/usr/bin/env python3
"""perfbench: the webspread benchmark.

    python3 perfbench/run.py --workload paper|scan_store|serve_mix \\
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds wsdctl, wsdd and the
tracer layer_trace from source (Release) into .bench_build. With --trace 0
a run measures the workload end to end on the real programs and prints
every end-to-end metric; with --trace 1 it prints every per-layer metric,
taken from an in-process traced replay (layer_trace) plus an untraced
reference run for the tracing overhead. Either way the outputs are
checked, and the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A known-answer mismatch prints correct=false and exits 1; a build or
set-up failure exits 2 without a result. See perfbench/README.md.
"""

import argparse
import hashlib
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402
import loadgen  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                        or os.path.join(ROOT, ".bench_build"))
THREADS = 4

# Workload constants. Changing any of them changes the benchmark.
PAPER_SCALE = 0.1
SCAN_SCALE = 0.5
SERVE_SCALE = 0.25
SETUP_REPS = 5          # batch workloads: set-ups timed per run
SERVE_SETUP_REPS = 3    # serve_mix: wsdd starts timed per run
SERVE_CONNECTIONS = 4   # keep-alive connections; at most nproc
SERVE_SEQUENCE = 3000   # requests per closed-loop pass
RESPONSE_CACHE_BYTES = 566_000   # 1/4 of all 1,122 responses at seed 42
LOW_RATE = 900.0        # requests/s, ~20% of max_rps at seed 42
HIGH_RATE = 2200.0      # requests/s, ~50% of max_rps at seed 42
STEP_S = 2.5            # seconds per fixed-rate step (>= 1000 samples)
P99_LIMIT_MS = 20.0     # latency limit for max_rps
LAG_LIMIT_MS = 5.0      # a step whose generator ran later is invalid
PAPER_SEED_STRIDE = 1000  # program seeds of a paper run: seed + 1000 i
PAPER_DIGEST_FILE = os.path.join(HERE, "paper_known_answers.txt")

LOCAL_DOMAINS = ["restaurants", "automotive", "banks", "libraries",
                 "schools", "hotels", "retail", "home"]
# The 18 scans of `wsdctl paper`, in its order.
PAPER_SCANS = ([(d, "phone") for d in LOCAL_DOMAINS]
               + [(d, "homepage") for d in LOCAL_DOMAINS]
               + [("books", "isbn"), ("restaurants", "reviews")])
SERVE_PAIRS = PAPER_SCANS[:17]   # every /spread-able pair but reviews

END_TO_END = {  # name -> unit
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
PER_LAYER = {
    "graph.csr_build_s": "s", "graph.components_s": "s",
    "graph.diameter_s": "s", "graph.diameter_max_s": "s",
    "graph.robustness_s": "s", "graph.bfs_runs": "count",
    "corpus.build_web_s": "s", "extract.scan_s": "s",
    "extract.pages": "count", "extract.bytes": "count",
    "extract.mentions": "count", "extract.review_pages": "count",
    "extract.scan_pages_per_s": "1/s",
    "text.detector_train_s": "s",
    "store.write_s": "s", "store.write_bytes": "count",
    "store.load_s": "s", "store.load_bytes": "count",
    "store.mmap_fallbacks": "count", "store.load_mb_per_s": "MB/s",
    "traffic.population_s": "s", "traffic.generate_count_s": "s",
    "traffic.events": "count", "traffic.finalize_s": "s",
    "core.value_add_s": "s", "core.review_spread_s": "s",
    "core.kcoverage_s": "s", "core.setcover_s": "s",
    "serve.p50_ms.low_rate": "ms", "serve.p99_ms.low_rate": "ms",
    "serve.p50_ms.high_rate": "ms", "serve.p99_ms.high_rate": "ms",
    "serve.max_rps": "1/s",
    "serve.parse_us.p50": "us", "serve.handle_hit_us.p50": "us",
    "serve.handle_miss_us.p50": "us", "serve.handle_miss_us.p99": "us",
    "serve.serialize_us.p50": "us", "serve.net_overhead_us": "us",
    "serve.response_cache.hit_ratio": "ratio",
    "serve.response_cache.evictions": "count",
    "serve.scan_cache.misses": "count", "serve.errors": "count",
    "serve.server_cpu_ms_per_req": "ms",
    "gen.lag_ms.p99": "ms", "gen.cpu_pct": "%", "gen.connections": "count",
    "pool.worker_idle_s": "s", "pool.tasks": "count",
    "run.cpu_s": "s", "run.steal_pct": "%",
    "trace.untraced_gap_s": "s", "trace.top_span_coverage_pct": "%",
    "trace.unattributed_s": "s",
    "trace.overhead_pct": "%",
}


class SetupError(Exception):
    """The benchmark could not build or start the program: no result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------
# Build and stamp.


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            raise SetupError("cmake configure failed")
    rc = subprocess.call(
        ["cmake", "--build", BUILD, "-j", str(THREADS),
         "--target", "wsdctl", "wsdd", "layer_trace"],
        stdout=sys.stderr, stderr=sys.stderr)
    if rc != 0:
        raise SetupError("build failed")
    build_type = ""
    with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    if build_type != "Release":
        raise SetupError("refusing a %r build; perfbench measures Release"
                         % build_type)
    return build_type


def binary(name):
    for sub in ("webspread/tools", ""):
        path = os.path.join(BUILD, sub, name)
        if os.path.exists(path):
            return path
    raise SetupError("missing binary " + name)


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout it runs
    in is not always a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _s, fs in os.walk(path)
            if "__pycache__" not in d for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def proc_stat_cpu():
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


# ---------------------------------------------------------------------
# Processes.


class Child:
    """A finished child process: exit status, wall time and rusage."""

    def __init__(self, argv, stdout=subprocess.DEVNULL):
        t = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=stdout,
                                stderr=subprocess.DEVNULL)
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.wall_s = time.perf_counter() - t
        self.rc = proc.returncode
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.maxrss_mb = usage.ru_maxrss / 1024.0


def run_tracer(args, work_name, untraced=False):
    """Runs layer_trace and returns (report dict, Child)."""
    out_path = os.path.join(WORK, work_name + ".json")
    argv = [binary("layer_trace")] + args + (["--untraced"] if untraced
                                             else [])
    with open(out_path, "wb") as out:
        child = Child(argv, stdout=out)
    if child.rc != 0:
        raise SetupError("layer_trace %s failed (exit %d)" % (args[0],
                                                               child.rc))
    with open(out_path) as f:
        return json.load(f), child


def fresh_dir(name):
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def tree_digest(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def setup_batch(name):
    """Set-up of a batch workload: a fresh output directory and one start
    of the program (`wsdctl domains`). Median of SETUP_REPS."""
    times = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        fresh_dir(name)
        child = Child([binary("wsdctl"), "domains"])
        if child.rc != 0:
            raise SetupError("wsdctl domains failed")
        times.append(time.perf_counter() - t)
    return benchlib.median(times)


# ---------------------------------------------------------------------
# paper


def paper_once(seed, outdir, threads=THREADS):
    metrics_path = os.path.join(WORK, "paper_metrics.json")
    child = Child([binary("wsdctl"), "paper", "--scale=%g" % PAPER_SCALE,
                   "--threads=%d" % threads, "--seed=%d" % seed,
                   "--outdir=" + outdir, "--metrics_out=" + metrics_path])
    tier = None
    if child.rc == 0:
        with open(metrics_path) as f:
            tier = json.load(f)["gauges"].get("wsd.scan.simd_tier")
    return child, tier


def paper_seed(seed, i):
    """Program seed of the i-th paper instance of a run: the run's seed
    first, then seeds a fixed stride away, so a run's median spans inputs
    rather than one graph's luck."""
    return seed + PAPER_SEED_STRIDE * i


def check_paper_tables(outdir):
    """Shape checks that hold for any seed: 28 TSVs, fractions in [0, 1]."""
    names = sorted(os.listdir(outdir))
    if len(names) != 28:
        return "expected 28 TSVs, got %d" % len(names)
    for name in names:
        with open(os.path.join(outdir, name)) as f:
            rows = [line.rstrip("\n").split("\t") for line in f]
        if len(rows) < 2:
            return name + ": no data rows"
        if name.startswith(("fig1", "fig2", "fig3", "fig4a", "fig5")):
            for row in rows[1:]:
                if any(not 0.0 <= float(v) <= 1.0 for v in row[1:]):
                    return name + ": coverage outside [0, 1]"
    return None


def committed_paper_digests():
    """{program seed: digest} from the committed known-answer file."""
    out = {}
    with open(PAPER_DIGEST_FILE) as f:
        for line in f:
            if line.strip() and not line.startswith("#"):
                digest, program_seed = line.split()[:2]
                out[int(program_seed)] = digest
    return out


def run_paper(seed, seconds, trace):
    """`wsdctl paper` instances until `seconds` have passed (one when
    traced). Known answers: the committed digests for --seed 42; for any
    other seed, a single-threaded `wsdctl paper` of the first instance,
    run after the timed ones."""
    result = Result()
    if not trace:
        result.metric("setup_s", setup_batch("paper_out"), SETUP_REPS)
    walls, cpus, rss, digests = [], [], [], {}
    deadline = time.perf_counter() + seconds
    steal0 = proc_stat_cpu()
    while not result.attempted or (not trace
                                   and time.perf_counter() < deadline):
        program_seed = paper_seed(seed, result.attempted)
        outdir = fresh_dir("paper_out")
        child, tier = paper_once(program_seed, outdir)
        result.attempted += 1
        problem = ("exit %d" % child.rc) if child.rc else check_paper_tables(
            outdir)
        if problem:
            result.fail("paper seed %d: %s" % (program_seed, problem))
            continue
        result.simd_tier = tier
        log("paper seed %d: %.3f s wall, %.3f s CPU" % (
            program_seed, child.wall_s, child.cpu_s))
        walls.append(child.wall_s)
        cpus.append(child.cpu_s)
        rss.append(child.maxrss_mb)
        digests[program_seed] = tree_digest(outdir)
    result.steal = benchlib.steal_pct(steal0, proc_stat_cpu())
    if seed == 42:
        known = committed_paper_digests()
        source = "committed digest"
    else:
        outdir = fresh_dir("paper_reference")
        child, _tier = paper_once(seed, outdir, threads=1)
        known = {seed: tree_digest(outdir)} if child.rc == 0 else {}
        source = "single-threaded reference run"
        if child.rc:
            result.fail("paper reference run: exit %d" % child.rc)
    for program_seed, digest in digests.items():
        if program_seed in known and digest != known[program_seed]:
            result.fail("paper seed %d: TSV digest %s != %s (%s)" % (
                program_seed, digest[:16], known[program_seed][:16],
                source))
    if not trace:
        if walls:
            result.metric("wall_s", benchlib.median(walls), len(walls))
            result.metric("cpu_s", benchlib.median(cpus), len(cpus))
            result.metric("peak_rss_mb", benchlib.median(rss), len(rss))
        return result

    # Traced: layer_trace renders the same TSVs, which must match. It runs
    # once without spans first, for the tracing overhead.
    args = ["paper", "--seed=%d" % seed, "--scale=%g" % PAPER_SCALE,
            "--threads=%d" % THREADS]
    plain, _child = run_tracer(args + ["--outdir=" + fresh_dir("plain")],
                               "paper_plain", untraced=True)
    tdir = fresh_dir("paper_traced")
    steal0 = proc_stat_cpu()
    report, child = run_tracer(args + ["--outdir=" + tdir], "paper_trace")
    result.attempted += 1
    if digests.get(seed) != tree_digest(tdir):
        result.fail("paper: layer_trace TSVs differ from wsdctl paper")
    layer_metrics(result, report, child, proc_stat_cpu(), steal0,
                  untraced_wall=plain["wall_s"])
    return result


# ---------------------------------------------------------------------
# scan_store


def scan_argv(domain, attr, seed, artifacts):
    return [binary("wsdctl"), "scan", "--domain=" + domain, "--attr=" + attr,
            "--scale=%g" % SCAN_SCALE, "--threads=%d" % THREADS,
            "--seed=%d" % seed, "--artifacts=" + artifacts]


def scan_store_pass(seed, artifacts, tables, result):
    """One cold pass (scan + snapshot write, host table dumped for the
    check) and one warm pass (snapshot reload) in fresh processes.
    Returns (cold_s, warm_s, cpu_s, max_rss_mb, pages, load_bytes)."""
    cold = warm = cpu = rss = 0.0
    pages = load_bytes = 0
    for phase in ("cold", "warm"):
        for domain, attr in PAPER_SCANS:
            mpath = os.path.join(WORK, "scan_metrics.json")
            argv = scan_argv(domain, attr, seed, artifacts) + [
                "--metrics_out=" + mpath]
            if phase == "cold":
                argv.append("--table-out=%s/%s.%s.tsv" % (tables, domain,
                                                          attr))
            child = Child(argv)
            result.attempted += 1
            if child.rc != 0:
                result.fail("scan %s/%s %s: exit %d" % (domain, attr, phase,
                                                        child.rc))
                continue
            with open(mpath) as f:
                m = json.load(f)
            counters = m["counters"]
            if phase == "cold":
                cold += child.wall_s
                pages += counters.get("wsd.scan.pages", 0)
                result.simd_tier = m["gauges"].get("wsd.scan.simd_tier")
            else:
                warm += child.wall_s
                load_bytes += counters.get("wsd.artifact.read_bytes", 0)
                if counters.get("wsd.artifact.hits", 0) != 1:
                    result.fail("scan %s/%s: warm pass missed the store"
                                % (domain, attr))
            cpu += child.cpu_s
            rss = max(rss, child.maxrss_mb)
    return cold, warm, cpu, rss, pages, load_bytes


def check_reloaded_tables(seed, artifacts, tables, result):
    """Every reloaded host table must equal the cold pass's dump."""
    for domain, attr in PAPER_SCANS:
        cold = "%s/%s.%s.tsv" % (tables, domain, attr)
        warm = cold + ".reloaded"
        child = Child(scan_argv(domain, attr, seed, artifacts)
                      + ["--table-out=" + warm])
        same = False
        if child.rc == 0:
            with open(cold, "rb") as a, open(warm, "rb") as b:
                same = a.read() == b.read()
        if not same:
            result.fail("scan %s/%s: reloaded table differs from cold"
                        % (domain, attr))


def run_scan_store(seed, seconds, trace):
    result = Result()
    if not trace:
        result.metric("setup_s", setup_batch("artifacts"), SETUP_REPS)
    walls, cpus, rss_all, cold_rates, load_rates = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    steal0 = proc_stat_cpu()
    while not walls or (not trace and time.perf_counter() < deadline):
        artifacts = fresh_dir("artifacts")
        tables = fresh_dir("tables")
        cold, warm, cpu, rss, pages, load_bytes = scan_store_pass(
            seed, artifacts, tables, result)
        check_reloaded_tables(seed, artifacts, tables, result)
        walls.append(cold + warm)
        cpus.append(cpu)
        rss_all.append(rss)
        cold_rates.append(pages / cold)
        load_rates.append(load_bytes / 1e6 / warm)
    result.steal = benchlib.steal_pct(steal0, proc_stat_cpu())
    if not trace:
        result.metric("wall_s", benchlib.median(walls), len(walls))
        result.metric("cpu_s", benchlib.median(cpus), len(cpus))
        result.metric("peak_rss_mb", benchlib.median(rss_all), len(rss_all))
        return result

    args = ["scan_store", "--seed=%d" % seed, "--scale=%g" % SCAN_SCALE,
            "--threads=%d" % THREADS]
    plain, _child = run_tracer(args + ["--dir=" + fresh_dir("plain")],
                               "scan_store_plain", untraced=True)
    steal0 = proc_stat_cpu()
    report, child = run_tracer(
        args + ["--dir=" + fresh_dir("artifacts_traced")], "scan_store_trace")
    result.attempted += 1
    if report["results"].get("table_mismatches") != 0:
        result.fail("layer_trace: reloaded tables differ")
    layer_metrics(result, report, child, proc_stat_cpu(), steal0,
                  untraced_wall=plain["wall_s"])
    result.metric("extract.scan_pages_per_s", cold_rates[0], 1)
    result.metric("store.load_mb_per_s", load_rates[0], 1)
    return result


# ---------------------------------------------------------------------
# serve_mix


def serve_targets():
    out = []
    for domain, attr in SERVE_PAIRS:
        for fmt in ("json", "tsv"):
            for k in range(1, 33):
                out.append("/spread?domain=%s&attr=%s&k=%d&format=%s"
                           % (domain, attr, k, fmt))
            out.append("/setcover?domain=%s&attr=%s&format=%s"
                       % (domain, attr, fmt))
    return out


def warm_targets():
    """One request per (domain, attr): fills wsdd's scan cache."""
    return ["/setcover?domain=%s&attr=%s&format=json" % p
            for p in SERVE_PAIRS]


class Server:
    """wsdd on an ephemeral port, warmed by one request per scan."""

    def __init__(self, seed):
        t = time.perf_counter()
        self.proc = subprocess.Popen(
            [binary("wsdd"), "--port=0", "--scale=%g" % SERVE_SCALE,
             "--seed=%d" % seed, "--threads=%d" % THREADS,
             "--conn-threads=%d" % SERVE_CONNECTIONS,
             "--response-cache-bytes=%d" % RESPONSE_CACHE_BYTES],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        line = self.proc.stdout.readline().decode()
        if "listening on" not in line:
            self.stop()
            raise SetupError("wsdd did not start")
        self.port = int(line.rsplit(":", 1)[1])
        try:
            for target in warm_targets():
                status, _body = self.get(target)
                if status != 200:
                    raise SetupError("warm-up %s answered %d"
                                     % (target, status))
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t

    def get(self, target):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", target)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def metrics(self):
        _status, body = self.get("/metrics?format=json")
        return json.loads(body)

    def cpu_s(self):
        """CPU time of every wsdd thread (schedstat, in ns)."""
        total = 0
        task_dir = "/proc/%d/task" % self.proc.pid
        for tid in os.listdir(task_dir):
            try:
                with open("%s/%s/schedstat" % (task_dir, tid)) as f:
                    total += int(f.read().split()[0])
            except OSError:
                pass  # the thread ended
        return total / 1e9

    def vm_hwm_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def reference_bodies(seed, requests_path=None, trace=False):
    """layer_trace serve: the reference replies for every target, and
    (with a request file) the in-process replay of that sequence."""
    tpath = os.path.join(WORK, "targets.txt")
    wpath = os.path.join(WORK, "warm.txt")
    rpath = requests_path or os.path.join(WORK, "no_requests.txt")
    bpath = os.path.join(WORK, "bodies.json")
    for path, lines in ((tpath, serve_targets()), (wpath, warm_targets())):
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
    if requests_path is None:
        open(rpath, "w").close()
    args = ["serve", "--seed=%d" % seed, "--scale=%g" % SERVE_SCALE,
            "--threads=%d" % THREADS, "--targets=" + tpath,
            "--warm=" + wpath, "--requests=" + rpath, "--bodies=" + bpath,
            "--response-cache-bytes=%d" % RESPONSE_CACHE_BYTES]
    report, child = run_tracer(args, "serve_trace" if trace
                               else "serve_render", untraced=not trace)
    with open(bpath) as f:
        bodies = {k: v.encode() for k, v in json.load(f).items()}
    return bodies, report, child


def count_step(result, res, what):
    result.attempted += res.attempted
    bad = res.failed()
    if bad:
        result.fail("%s: %d of %d requests failed or had a wrong body"
                    % (what, bad, res.attempted), count=bad)


def run_serve_mix(seed, seconds, trace):
    result = Result()
    if SERVE_CONNECTIONS > (os.cpu_count() or 1):
        raise SetupError("more connections than CPUs")
    expected, _report, _child = reference_bodies(seed)
    targets = serve_targets()
    setups = []
    server = None
    try:
        for i in range(SERVE_SETUP_REPS if not trace else 1):
            if server is not None:
                server.stop()
            server = Server(seed)
            setups.append(server.setup_s)
        if not trace:
            result.metric("setup_s", benchlib.median(setups), len(setups))
            walls, cpus = [], []
            deadline = time.perf_counter() + seconds
            steal0 = proc_stat_cpu()
            n = 0
            while not walls or time.perf_counter() < deadline:
                seq = benchlib.request_sequence(targets, seed * 1000 + n,
                                                SERVE_SEQUENCE)
                n += 1
                cpu0 = server.cpu_s()
                res = loadgen.closed_loop("127.0.0.1", server.port, seq,
                                          expected, SERVE_CONNECTIONS)
                cpus.append(server.cpu_s() - cpu0)
                count_step(result, res, "closed loop")
                walls.append(res.wall_s)
            result.steal = benchlib.steal_pct(steal0, proc_stat_cpu())
            result.metric("wall_s", benchlib.median(walls), len(walls))
            result.metric("cpu_s", benchlib.median(cpus), len(cpus))
            result.metric("peak_rss_mb", server.vm_hwm_mb(), 1)
            result.simd_tier = server.metrics()["gauges"].get(
                "wsd.scan.simd_tier")
            return result
        return serve_traced(result, server, seed, targets, expected)
    finally:
        if server is not None:
            server.stop()


def open_step(server, targets, seed, rate, expected):
    """One fixed-rate open-loop step: (result, valid, send lag p99 ms)."""
    seconds = max(STEP_S, 1100.0 / rate)
    schedule = benchlib.poisson_schedule(targets, seed, rate, seconds)
    res = loadgen.open_loop("127.0.0.1", server.port, schedule, expected,
                            SERVE_CONNECTIONS)
    lag_p99 = benchlib.percentile(res.lag, 99) * 1e3 if res.lag else 0.0
    return res, lag_p99 <= LAG_LIMIT_MS, lag_p99


def meets_limit(res):
    ok = res.ok_latencies()
    if res.failed() or len(ok) < 1000:
        return False
    return (benchlib.percentile(ok, 99) * 1e3 <= P99_LIMIT_MS
            and not benchlib.backlog_growing(res.outstanding))


def serve_traced(result, server, seed, targets, expected):
    m0 = server.metrics()["counters"]
    cpu0 = server.cpu_s()
    served = 0
    steps = {}
    for label, rate in (("low_rate", LOW_RATE), ("high_rate", HIGH_RATE)):
        for attempt in range(2):
            res, valid, lag = open_step(server, targets, seed * 7 + attempt,
                                        rate, expected)
            count_step(result, res, label)
            served += res.attempted
            if valid:
                break
            log("%s step: generator %0.2f ms late (p99); retrying"
                % (label, lag))
        if not valid:
            raise SetupError("load generator fell behind at %s" % label)
        steps[label] = (res, lag)
    server_cpu = server.cpu_s() - cpu0
    m1 = server.metrics()["counters"]

    # max_rps: raise the rate by 1.5x while the limit holds, then bisect.
    good, bad, rate = HIGH_RATE, None, HIGH_RATE * 1.5
    for i in range(8):
        res, valid, _lag = open_step(server, targets, seed * 11 + i, rate,
                                     expected)
        if not valid:
            log("max_rps: generator fell behind at %.0f/s; step invalid"
                % rate)
            break
        if meets_limit(res):
            good = rate
        else:
            bad = rate
        rate = good * 1.5 if bad is None else (good + bad) / 2
        if bad is not None and bad - good < 0.05 * good:
            break
    if not meets_limit(steps["high_rate"][0]):
        good = 0.0 if not meets_limit(steps["low_rate"][0]) else LOW_RATE

    for label, (res, lag) in steps.items():
        ok = res.ok_latencies()
        result.metric("serve.p50_ms.%s" % label,
                      benchlib.percentile(ok, 50) * 1e3, len(ok))
        p, v = benchlib.tail_percentile(ok)
        result.metric("serve.p99_ms.%s" % label,
                      (v or 0.0) * 1e3, len(ok), percentile=p)
    result.metric("serve.max_rps", good)
    lags = steps["high_rate"][0].lag
    result.metric("gen.lag_ms.p99", steps["high_rate"][1], len(lags))
    hres = steps["high_rate"][0]
    result.metric("gen.cpu_pct", 100.0 * hres.cpu_s / hres.wall_s)
    result.metric("gen.connections", hres.connections)
    hits = m1.get("wsd.serve.response_cache.hits", 0) - m0.get(
        "wsd.serve.response_cache.hits", 0)
    misses = m1.get("wsd.serve.response_cache.misses", 0) - m0.get(
        "wsd.serve.response_cache.misses", 0)
    result.metric("serve.response_cache.hit_ratio",
                  hits / max(1, hits + misses))
    for name in ("response_cache.evictions", "scan_cache.misses", "errors"):
        key = "wsd.serve." + name
        result.metric("serve." + name, m1.get(key, 0) - m0.get(key, 0))
    result.metric("serve.server_cpu_ms_per_req",
                  server_cpu * 1e3 / max(1, served))
    server.stop()

    # In-process replay of the low-rate step's sequence: untraced for the
    # overhead baseline, then traced.
    rpath = os.path.join(WORK, "requests.txt")
    with open(rpath, "w") as f:
        f.write("\n".join(t for _d, t in benchlib.poisson_schedule(
            targets, seed * 7, LOW_RATE, max(STEP_S, 1100.0 / LOW_RATE)))
            + "\n")
    _b, plain, _c = reference_bodies(seed, rpath, trace=False)
    steal0 = proc_stat_cpu()
    bodies, report, child = reference_bodies(seed, rpath, trace=True)
    result.attempted += int(report["results"]["requests"])
    if report["results"]["body_mismatches"]:
        result.fail("replay: %s bodies differ from the reference"
                    % report["results"]["body_mismatches"])
    spans = [tuple(s[:5]) for s in report["spans"]]
    by_name = {}
    for _i, _p, name, start, end in spans:
        by_name.setdefault(name, []).append((end - start) * 1e6)
    for metric, name in (("serve.parse_us.p50", "serve.parse"),
                         ("serve.handle_hit_us.p50", "serve.handle_hit"),
                         ("serve.handle_miss_us.p50", "serve.handle_miss"),
                         ("serve.serialize_us.p50", "serve.serialize")):
        vals = by_name.get(name, [0.0])
        result.metric(metric, benchlib.percentile(vals, 50), len(vals))
    misses_us = by_name.get("serve.handle_miss", [0.0])
    p, v = benchlib.tail_percentile(misses_us)
    result.metric("serve.handle_miss_us.p99", v or 0.0, len(misses_us),
                  percentile=p)
    replay_p50 = benchlib.percentile(by_name["serve.request"], 50)
    client_p50 = benchlib.percentile(steps["low_rate"][0].ok_latencies(),
                                     50) * 1e6
    result.metric("serve.net_overhead_us", client_p50 - replay_p50)
    layer_metrics(result, report, child, proc_stat_cpu(), steal0,
                  untraced_wall=float(plain["results"]["replay_s"]),
                  traced_wall=float(report["results"]["replay_s"]))
    return result


# ---------------------------------------------------------------------
# Per-layer metrics from a layer_trace report.

SPAN_SECONDS = {
    "graph.csr_build_s": "graph.csr_build",
    "graph.components_s": "graph.components",
    "graph.diameter_s": "graph.diameter",
    "graph.robustness_s": "graph.robustness",
    "corpus.build_web_s": "corpus.build_web",
    "extract.scan_s": "extract.scan",
    "text.detector_train_s": "text.detector_train",
    "store.write_s": "store.write",
    "store.load_s": "store.load",
    "traffic.population_s": "traffic.population",
    "traffic.generate_count_s": "traffic.generate_count",
    "traffic.finalize_s": "traffic.finalize",
    "core.value_add_s": "core.value_add",
    "core.review_spread_s": "core.review_spread",
    "core.kcoverage_s": "core.kcoverage",
    "core.setcover_s": "core.setcover",
}
SPAN_COUNTS = {  # metric -> (span name, counter)
    "graph.bfs_runs": ("graph.diameter", "wsd.graph.bfs_runs"),
    "extract.pages": ("extract.scan", "wsd.scan.pages"),
    "extract.bytes": ("extract.scan", "wsd.scan.bytes"),
    "extract.mentions": ("extract.scan", "wsd.scan.mentions"),
    "extract.review_pages": ("extract.scan", "wsd.scan.review_pages"),
    "store.write_bytes": ("store.write", "wsd.artifact.write_bytes"),
    "store.load_bytes": ("store.load", "wsd.artifact.read_bytes"),
    "store.mmap_fallbacks": ("store.load", "wsd.store.mmap_fallbacks"),
    "traffic.events": ("traffic.generate_count", "traffic.events"),
}


def layer_metrics(result, report, child, steal1, steal0, untraced_wall,
                  traced_wall=None):
    """Per-layer metrics of one traced layer_trace run. The overhead
    compares `traced_wall` (default: the traced run's wall) with the same
    work run by layer_trace without spans."""
    spans = [tuple(s[:5]) for s in report["spans"]]
    total, own = benchlib.span_totals(spans)
    for metric, name in SPAN_SECONDS.items():
        result.metric(metric, total.get(name, 0.0))
    diam = [e - s for _i, _p, n, s, e in spans if n == "graph.diameter"]
    result.metric("graph.diameter_max_s", max(diam) if diam else 0.0,
                  len(diam))
    for metric, (name, counter) in SPAN_COUNTS.items():
        result.metric(metric, sum(s[5].get(counter, 0)
                                  for s in report["spans"] if s[2] == name))
    counters = report["counters"]
    result.metric("pool.worker_idle_s",
                  counters.get("wsd.pool.worker_idle_us", 0) / 1e6)
    result.metric("pool.tasks", counters.get("wsd.pool.tasks_completed", 0))
    result.metric("run.cpu_s", child.cpu_s)
    result.metric("run.steal_pct", benchlib.steal_pct(steal0, steal1))
    wall = report["wall_s"]
    covered, gap = benchlib.top_level_coverage(spans, wall)
    result.metric("trace.untraced_gap_s", gap)
    result.metric("trace.top_span_coverage_pct", 100.0 * covered / wall)
    result.metric("trace.unattributed_s", sum(
        own[name] for name in {n for _i, p, n, _s, _e in spans if p == -1}))
    traced = traced_wall if traced_wall is not None else wall
    result.metric("trace.overhead_pct",
                  100.0 * (traced / untraced_wall - 1.0)
                  if untraced_wall else 0.0)
    result.steal = benchlib.steal_pct(steal0, steal1)


# ---------------------------------------------------------------------
# Results.


class Result:
    def __init__(self):
        self.metrics = {}
        self.samples = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.simd_tier = None
        self.steal = 0.0

    def metric(self, name, value, samples=1, percentile=None):
        self.metrics[name] = float(value)
        self.samples[name] = (samples, percentile)

    def fail(self, problem, count=1):
        self.failed += count
        self.problems.append(problem)


WORKLOADS = {
    "paper": run_paper,
    "scan_store": run_scan_store,
    "serve_mix": run_serve_mix,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    global WORK
    try:
        build_type = build()
        WORK = os.path.join(BUILD, "work", "%s-%d" % (args.workload,
                                                      os.getpid()))
        os.makedirs(WORK, exist_ok=True)
        result = WORKLOADS[args.workload](args.seed, args.seconds,
                                          bool(args.trace))
        if args.trace:
            # Layers a workload never calls read 0.
            for name in PER_LAYER:
                result.metrics.setdefault(name, 0.0)
                result.samples.setdefault(name, (0, None))
    except (SetupError, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 2
    finally:
        if WORK:
            shutil.rmtree(WORK, ignore_errors=True)

    declared = PER_LAYER if args.trace else END_TO_END
    if not args.trace:
        ok = result.attempted - result.failed
        result.metric("ok_ratio", ok / max(1, result.attempted),
                      result.attempted)
    missing = set(declared) - set(result.metrics)
    if missing:
        log("perfbench: metrics not measured: %s" % sorted(missing))
        return 2
    stamp = {
        "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "commit": commit(),
        "source_sha256": source_digest(), "build_type": build_type,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "simd_tier": result.simd_tier,
        "steal_pct": round(result.steal, 3),
    }
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for name in sorted(declared):
        n, p = result.samples[name]
        extra = " (p%g)" % p if p is not None else ""
        print("%-34s %16.6f %-6s n=%d%s" % (name, result.metrics[name],
                                            declared[name], n, extra))
    for problem in result.problems:
        print("MISMATCH " + problem)
    correct = not result.problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, result.attempted),
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name],
                           "unit": declared[name]}
                    for name in sorted(declared)},
    }))
    return 0 if correct else 1


WORK = None

if __name__ == "__main__":
    sys.exit(main())
