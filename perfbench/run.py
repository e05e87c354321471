#!/usr/bin/env python3
"""genasmx repo benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a genasmx checkout. Builds the library, the shipped
tools and the benchmark helpers from source (into $CARGO_TARGET_DIR, or
.bench_build), generates the workload's inputs from --seed, and then:

  --trace 0  runs genasmx_index / genasmx_map / genasmx_mapd as a user
             would, with tracing off, for --seconds, and prints every
             end-to-end metric;
  --trace 1  runs the traced in-process layer runner (pb_trace) and
             prints every per-layer metric; the Chrome trace is left in
             .bench_work/trace-<workload>-<seed>.json.

Both modes check the outputs (see check_* below) and exit non-zero on any
failure. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
"""

import argparse
import json
import os
import functools
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
WORK = os.path.join(ROOT, ".bench_work")
NPROC = os.cpu_count() or 1
TARGETS = ["genasmx_index", "genasmx_map", "genasmx_mapd",
           "pb_gen", "pb_check", "pb_loadgen", "pb_trace"]

# Mapping flags per workload (pb_gen and pb_trace know the same names).
# trace_rate: open-loop requests/s for the traced in-process server, low
# enough for every workload's read length.
WORKLOADS = {
    "long_all_chains": {"flags": [], "trace_rate": 10},
    "short_primary": {"flags": ["--primary-only"], "trace_rate": 300},
    "long_sketch": {"flags": ["--primary-only", "--prefilter", "sketch"],
                    "trace_rate": 20},
    "mapd_stream": {"flags": ["--primary-only"], "trace_rate": 150},
}
# mapd_stream open loop: one fixed absolute rate in requests/s, about a
# fifth of the closed-loop capacity on a 4-core host; the latency limit
# is in predictions.json.
MAPD_OPEN_RATE = 150.0
# Index builds per batch run, one before every other job, so that one
# noisy moment cannot move them all; mapd runs build before each round.
SETUP_REPEATS = 5
MIN_JOBS = 3
# mapd_stream rounds per run: each builds the index, starts a daemon,
# drives it through a closed then an open phase, and drains it.
MAPD_ROUNDS = 6
# Throughput is reads per CPU-second of the mapping process, not per
# wall second. A virtual machine's host may lend its CPUs to other
# guests ("steal" time in /proc/stat), and at nproc threads a stolen CPU
# stalls every batch: at 20% steal genasmx_map ran 2.8x slower on a
# 4-vCPU host, and wall-clock reads/s spread by a quarter of its median
# between runs of the same code. Stolen time is not charged to a
# process's CPU time; what remains is the slower CPU a busy host gives
# (up to 13% more CPU time per job at 16% steal there). So a job, index
# build or mapd round during which more than this share of CPU time was
# stolen is left out of the median (the least stolen MIN_JOBS are kept
# when too few are quiet). The run length stays fixed either way.
QUIET_STEAL = 0.02


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def rel(path):
    """Paths handed to programs are relative to ROOT (short socket paths)."""
    return os.path.relpath(path, ROOT)


def tool(name):
    for sub in ("", "genasmx"):
        path = os.path.join(BUILD, sub, name)
        if os.path.exists(path):
            return path
    raise BenchError(f"{name} was not built")


def run(cmd):
    """Run to completion; returns stdout. Raises on a non-zero exit."""
    p = subprocess.run(cmd, cwd=ROOT, timeout=170, text=True,
                       capture_output=True)
    if p.returncode != 0:
        raise BenchError(f"{os.path.basename(cmd[0])} exited "
                         f"{p.returncode}: {p.stderr.strip()[-2000:]}")
    return p.stdout


def cpu_ticks():
    """(all, stolen) CPU time of every CPU so far, in clock ticks."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:9]]
    return sum(ticks), ticks[7]


def steal_since(start):
    """Share of CPU time stolen since `start` = cpu_ticks()."""
    total, stolen = cpu_ticks()
    return (stolen - start[1]) / max(1, total - start[0])


def least_stolen(samples):
    """The samples (tuples ending in their steal share) taken while the
    host stole at most QUIET_STEAL, or the MIN_JOBS least stolen ones."""
    quiet = [x for x in samples if x[-1] <= QUIET_STEAL]
    return quiet if len(quiet) >= MIN_JOBS else sorted(
        samples, key=lambda x: x[-1])[:MIN_JOBS]


def timed(cmd):
    """Run to completion; returns (wall s, CPU s, peak RSS MB, steal
    share), with user+sys CPU time and the RSS from wait4."""
    ticks = cpu_ticks()
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE)
    err = p.stderr.read()
    _, status, usage = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stderr.close()
    if p.returncode != 0:
        raise BenchError(f"{os.path.basename(cmd[0])} exited "
                         f"{p.returncode}: {err.decode()[-2000:]}")
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            steal_since(ticks))


def build():
    if not (os.path.exists(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "genasmx"))):
        raise BenchError("not inside a genasmx checkout: "
                         "CMakeLists.txt / src/genasmx missing")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", BENCH, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen, cwd=ROOT,
                       check=True, stdout=sys.stderr, timeout=600)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(NPROC), "--target"]
                   + TARGETS, cwd=ROOT, check=True, stdout=sys.stderr,
                   timeout=850)


def count_reads(fastq):
    with open(fastq, "rb") as f:
        return sum(1 for _ in f) // 4


# ------------------------------------------------------------------ setup

def build_index(d):
    """One genasmx_index build into a fresh file: timed() of it."""
    if os.path.exists(f"{d}/ref.gxi"):
        os.unlink(f"{d}/ref.gxi")
    return timed([tool("genasmx_index"), "--ref", rel(f"{d}/ref.fa"),
                  "--out", rel(f"{d}/ref.gxi")])


def ping(sock_path):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.connect(sock_path)
        s.sendall(b"PING\n")
        reply = b""
        while not reply.endswith(b"\n"):
            chunk = s.recv(4096)
            if not chunk:
                raise ConnectionError("closed")
            reply += chunk
    if not reply.startswith(b"OK"):
        raise BenchError(f"PING answered {reply!r}")


class Daemon:
    """A genasmx_mapd process; stop() drains it and returns its rusage."""

    def __init__(self, d, flags):
        self.sock = rel(f"{d}/mapd.sock")
        self.stats = f"{d}/mapd_stats.json"
        if os.path.exists(os.path.join(ROOT, self.sock)):
            os.unlink(os.path.join(ROOT, self.sock))
        self.err = open(f"{d}/mapd.err", "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [tool("genasmx_mapd"), "--index", rel(f"{d}/ref.gxi"),
             "--unix", self.sock, "--stats-json", rel(self.stats)] + flags,
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=self.err)
        while True:
            try:
                ping(os.path.join(ROOT, self.sock))
                break
            except OSError:
                if self.proc.poll() is None and time.perf_counter() - t0 < 60:
                    time.sleep(0.002)
                    continue
                self.kill()
                raise BenchError("genasmx_mapd did not come up")
            except BenchError:
                self.kill()
                raise
        self.ready_s = time.perf_counter() - t0

    def kill(self):
        self.proc.kill()
        self.proc.wait()
        self.err.close()

    def stop(self):
        """SIGTERM drain; returns the daemon's rusage (exit 0 required)."""
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.perf_counter() + 30
        pid = 0
        while pid == 0 and time.perf_counter() < deadline:
            time.sleep(0.005)
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
        if pid == 0:
            self.kill()
            raise BenchError("genasmx_mapd did not drain within 30 s")
        self.err.close()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        if self.proc.returncode != 0:
            raise BenchError(f"genasmx_mapd exited {self.proc.returncode}")
        return usage


# ---------------------------------------------------------------- checks

def check_paf(d, paf):
    """CIGARs verify against the reference; recall/precision vs truth."""
    return json.loads(run([tool("pb_check"), "--index", rel(f"{d}/ref.gxi"),
                           "--reads", rel(f"{d}/reads.fq"),
                           "--paf", rel(paf)]))


def check_report(stats_path, n_reads):
    """genasmx_map --stats-json: every read seen, RunReport clean."""
    with open(stats_path) as f:
        st = json.load(f)
    rep = st["report"]
    failed = (rep["failed_reads"] + rep["rejected_reads"]
              + rep["skipped_bad_records"])
    if st["stats"]["reads"] != n_reads:
        raise BenchError(f"mapped {st['stats']['reads']} of {n_reads} reads")
    if not rep["clean"]:
        raise BenchError(f"RunReport not clean on clean input: {rep}")
    return failed


def map_cmd(d, flags, paf, stats=None):
    cmd = [tool("genasmx_map"), "--index", rel(f"{d}/ref.gxi"),
           "--reads", rel(f"{d}/reads.fq"), "--out", rel(paf)] + flags
    return cmd + ["--stats-json", rel(stats)] if stats else cmd


def same_bytes(a, b):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


# ------------------------------------------------------------- workloads

def batch_e2e(name, d, seconds):
    flags = WORKLOADS[name]["flags"]
    n_reads = count_reads(f"{d}/reads.fq")
    builds, jobs = [], []  # timed() results
    failed = 0
    first_paf = f"{d}/map0.paf"
    busy = 0.0
    while len(jobs) < MIN_JOBS or busy < seconds:
        if len(builds) < SETUP_REPEATS and len(jobs) % 2 == 0:
            builds.append(build_index(d))
        paf = first_paf if not jobs else f"{d}/map.paf"
        jobs.append(timed(map_cmd(d, flags, paf, f"{d}/stats.json")))
        busy += jobs[-1][0]
        failed += check_report(f"{d}/stats.json", n_reads)
        if paf != first_paf and not same_bytes(paf, first_paf):
            raise BenchError("genasmx_map output differs between runs")
    while len(builds) < SETUP_REPEATS:
        builds.append(build_index(d))
    kept = least_stolen(jobs)
    acc = check_paf(d, first_paf)
    limit_s = predictions()["slo_ms"]["batch_job"] / 1e3
    shown = [(round(j[0], 3), round(j[1], 3), round(j[3] * 100, 1))
             for j in jobs]
    log(f"{name}: kept {len(kept)} of {len(jobs)} jobs of {n_reads} reads; "
        f"(wall s, CPU s, steal%) {shown}; index builds (s) "
        f"{[round(b[0], 3) for b in builds]}")
    metrics = {
        "reads_per_cpu_s": statistics.median(n_reads / j[1] for j in kept),
        "setup_s": statistics.median(b[0] for b in least_stolen(builds)),
        "peak_rss_mb": statistics.median(j[2] for j in kept),
        "recall": acc["recall"],
        "precision": acc["precision"],
        "slo_frac": sum(j[0] <= limit_s for j in jobs) / len(jobs),
    }
    return metrics, n_reads * len(jobs), failed


def mapd_round(d, flags, seed, seconds):
    """Index build, daemon start to PING, load, drain. Returns (setup s,
    setup steal, peak RSS MB, pb_loadgen result, load steal)."""
    build_s, _, _, build_steal = build_index(d)
    daemon = Daemon(d, flags)
    ticks = cpu_ticks()
    try:
        out = run([tool("pb_loadgen"), "--unix", daemon.sock,
                   "--reads", rel(f"{d}/reads.fq"),
                   "--expect", rel(f"{d}/batch.paf"),
                   "--connections", str(NPROC),
                   "--closed-seconds", str(0.4 * seconds),
                   "--open-seconds", str(0.6 * seconds),
                   "--rate", str(MAPD_OPEN_RATE),
                   "--slo-ms", str(predictions()["slo_ms"]["mapd_stream"]),
                   "--seed", str(seed),
                   "--replies-out", rel(f"{d}/replies.paf"),
                   "--server-pid", str(daemon.proc.pid)])
    finally:
        usage = daemon.stop()
    steal = steal_since(ticks)
    with open(daemon.stats) as f:
        conns = json.load(f)["connections"]
    if conns["accepted"] != conns["closed"]:
        raise BenchError(f"mapd leaked connections: {conns}")
    return (build_s + daemon.ready_s, build_steal, usage.ru_maxrss / 1024.0,
            json.loads(out.strip().splitlines()[-1]), steal)


def mapd_e2e(name, d, seed, seconds):
    flags = WORKLOADS[name]["flags"]
    n_reads = count_reads(f"{d}/reads.fq")
    # Reference output for the per-read reply comparison.
    build_index(d)
    run(map_cmd(d, flags, f"{d}/batch.paf", f"{d}/stats.json"))
    check_report(f"{d}/stats.json", n_reads)
    rounds = [mapd_round(d, flags, seed, seconds / MAPD_ROUNDS)
              for _ in range(MAPD_ROUNDS)]
    acc = check_paf(d, f"{d}/replies.paf")
    kept = least_stolen(rounds)
    for r in rounds:
        log(f"{name}: setup {r[0]:.3f} s, load steal {r[4] * 100:.1f}%, "
            f"closed {r[3]['closed']}, open {r[3]['open']}")
    closed = [r[3]["closed"] for r in kept]
    opened = [r[3]["open"] for r in kept]
    metrics = {
        "reads_per_cpu_s": statistics.median(c["reads"] / c["server_cpu_s"]
                                             for c in closed),
        "setup_s": statistics.median(
            r[0] for r in least_stolen([r[:2] for r in rounds])),
        "peak_rss_mb": statistics.median(r[2] for r in kept),
        "recall": acc["recall"],
        "precision": acc["precision"],
        "slo_frac": (sum(o["within_slo"] for o in opened)
                     / sum(o["sent"] for o in opened)),
    }
    loads = [r[3] for r in rounds]
    attempted = sum(l["closed"]["sent"] + l["open"]["sent"] for l in loads)
    failed = sum(l["closed"]["failed"] + l["open"]["failed"] for l in loads)
    return metrics, attempted, failed


def traced(name, d, seed):
    flags = WORKLOADS[name]["flags"]
    n_reads = count_reads(f"{d}/reads.fq")
    build_index(d)
    run(map_cmd(d, flags, f"{d}/map.paf", f"{d}/stats.json"))
    failed = check_report(f"{d}/stats.json", n_reads)
    trace_path = os.path.join(WORK, f"trace-{name}-{seed}.json")
    out = run([tool("pb_trace"), "--workload", name,
               "--index", rel(f"{d}/ref.gxi"), "--reads", rel(f"{d}/reads.fq"),
               "--paf-out", rel(f"{d}/traced.paf"),
               "--trace-out", rel(trace_path), "--work", rel(d),
               "--rate", str(WORKLOADS[name]["trace_rate"])])
    result = json.loads(out.strip().splitlines()[-1])
    if not same_bytes(f"{d}/map.paf", f"{d}/traced.paf"):
        raise BenchError("nproc genasmx_map PAF differs from the traced "
                         "1-thread in-process PAF")
    check_paf(d, f"{d}/traced.paf")
    if not result["clean"]:
        raise BenchError("traced run reported failures on clean input")
    pred = predictions()["per_layer"]
    for metric, value in result["metrics"].items():
        p = pred.get(metric, {})
        log(f"  {metric:32s} {value:14.6g}  -> {p.get('moves', '?')} "
            f"on {p.get('on', '?')}")
    log(f"trace written to {rel(trace_path)}")
    return result["metrics"], n_reads, failed


# ------------------------------------------------------------------ main

@functools.cache
def predictions():
    with open(os.path.join(BENCH, "predictions.json")) as f:
        return json.load(f)


def units(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    d = os.path.join(WORK, f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    try:
        run([tool("pb_gen"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", rel(d)])
        if args.trace:
            metrics, attempted, failed = traced(args.workload, d, args.seed)
            kind = "per_layer"
        elif args.workload == "mapd_stream":
            metrics, attempted, failed = mapd_e2e(args.workload, d, args.seed,
                                                  args.seconds)
            kind = "end_to_end"
        else:
            metrics, attempted, failed = batch_e2e(args.workload, d,
                                                   args.seconds)
            kind = "end_to_end"
    finally:
        shutil.rmtree(d, ignore_errors=True)

    unit = units(kind)
    missing = sorted(set(unit) - set(metrics))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    out = {name: {"value": metrics[name], "unit": unit[name]} for name in unit}
    for name, m in out.items():
        log(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": out}))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, subprocess.SubprocessError, OSError, ValueError,
            KeyError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
