"""k3lattice benchmark: JSON requests into the CLI, one at a time.

    python3 perfbench/run.py --workload gram --seed 7 --seconds 20 --trace 0

Each request calls `k3lattice.cli.main(argv)` from the source tree in this
process, with stdin, stdout and stderr replaced: one client in a closed loop,
as a CLI caller waits for each reply.  A fresh interpreter per request would
add its start-up to every request; that cost is measured once, as setup_s.

A run replays the golden corpus (the default seed's first round) as its
warm-up, comparing every stdout byte for byte with the stored digest, then
measures whole rounds of the seed's requests until the requests have taken
`--seconds`.  Every response is checked by the workload's oracles.

Speed calibration.  On a shared 2-core machine the same Python code runs up
to 1.5x slower in bursts of 0.1-1 s, and the share of slow time drifts over
minutes, so raw times of one workload varied by 20-40% between runs.  A run
therefore times a fixed 0.7 ms pure-Python kernel before its first request
and after every 50 ms of requests, and divides its times by the mean kernel
time over KERNEL_REF_S (its slowness); each set-up probe is divided by the
slowness of the kernel samples around it.  Times then read as on a machine
where the kernel takes KERNEL_REF_S.  The kernel is not library code, so no
library change moves it.  The stderr summary prints the slowness and the
raw values.

--trace 0 prints the end-to-end metrics: throughput_rps (correct responses
per busy second over the run), latency_p50_ms and latency_p90_ms,
correct_frac (1 - failed_frac; failed_frac itself reads 0 when all is well,
so no change can be measured as a share of it), peak_rss_mb and setup_s.
--trace 1 measures half the time untraced and half traced, prints the
per-layer metrics (raw times) with the tracing overhead, and writes the
spans to perfbench/traces/.  The last line of stdout is the JSON result; a
readable summary, failed_frac included, goes to stderr.
"""

import argparse
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden.json"
KERNEL_REF_S = 7e-4
KERNEL_EVERY_S = 0.05
SETUP_PROBES = 9
SETUP_PROBE = """import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import k3lattice.cli
k3lattice.cli.build_parser()
print(time.perf_counter() - t)
"""


def kernel():
    """Seconds taken by a fixed pure-Python task like the library's work
    (exact rationals, integer matrices, JSON)."""
    start = time.perf_counter()
    x = Fraction(0)
    for i in range(1, 160):
        x += Fraction(i % 13 - 6, i % 7 + 1)
    m = [[(i * j) % 17 - 8 for j in range(10)] for i in range(10)]
    for _ in range(3):
        m = [[sum(a * b for a, b in zip(row, col)) % 10007 for col in zip(*m)]
             for row in m]
    json.dumps({"x": str(x), "m": [[str(v) for v in row] for row in m]})
    return time.perf_counter() - start


def send(cli, req):
    """One request through main(); returns (exit code, stdout, seconds)."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = (io.StringIO(req.stdin),
                                         io.StringIO(), io.StringIO())
    start = time.perf_counter()
    try:
        rc = cli.main(list(req.argv))
    except SystemExit as e:
        rc = e.code
    except Exception as e:  # a crash is a failed request, not a dead run
        rc = f"{type(e).__name__}: {e}"
    finally:
        seconds = time.perf_counter() - start
        out = sys.stdout.getvalue()
        sys.stdin, sys.stdout, sys.stderr = saved
    return rc, out, seconds


def verify(req, rc, out):
    """None if the response is correct, else the reason."""
    if rc != req.rc:
        return f"exit code {rc!r}, expected {req.rc}"
    if req.rc:
        return None if out == "" else "output on an expected error"
    try:
        req.check(json.loads(out))
    except (workloads.Mismatch, ValueError, KeyError, IndexError, TypeError,
            ZeroDivisionError) as e:
        return f"{type(e).__name__}: {e}"
    return None


class Run:
    """Counts and failures over every request a run sends."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failures = []

    def request(self, req, golden=None):
        rc, out, seconds = send(self.cli, req)
        self.attempted += 1
        why = verify(req, rc, out)
        if why is None and golden is not None:
            digest = hashlib.sha256(out.encode()).hexdigest()
            if [rc, digest] != golden:
                why = "stdout differs from the golden corpus"
        if why is not None:
            self.failures.append(f"{req.kind} {' '.join(req.argv)}: {why}")
        return why is None, seconds

    def measure(self, workload, seed, seconds, tracer=None):
        """Whole rounds until the requests have taken ``seconds``.

        Returns one (correct responses, raw latencies) per round and the
        run's slowness: the mean of the kernel samples taken before the
        first request and after every KERNEL_EVERY_S of requests, over
        KERNEL_REF_S."""
        rounds, samples, busy, due = [], [], 0.0, 0.0
        for reqs in workloads.rounds(workload, seed):
            ok, latencies = 0, []
            for req in reqs:
                if busy >= due:
                    samples.append(kernel())
                    due = busy + KERNEL_EVERY_S
                if tracer is not None:
                    tracer.request += 1
                good, dt = self.request(req)
                ok += good
                busy += dt
                latencies.append(dt)
            rounds.append((ok, latencies))
            if busy >= seconds:
                return rounds, statistics.mean(samples) / KERNEL_REF_S


def golden_corpus(workload):
    return next(workloads.rounds(workload, workloads.DEFAULT_SEED))


def setup_probes():
    """Times to import k3lattice.cli and build its parser, each timed inside
    a fresh interpreter so that interpreter start-up is excluded, and each
    divided by the slowness of the kernel samples around it."""
    times = []
    before = kernel()
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run([sys.executable, "-I", "-c", SETUP_PROBE,
                               str(SRC)], capture_output=True, text=True,
                              check=True, timeout=60)
        after = kernel()
        if i:  # the first may compile bytecode
            times.append(float(done.stdout) * 2 * KERNEL_REF_S
                         / (before + after))
        before = after
    return times


def write_golden():
    """Record the golden digests from the current library."""
    from k3lattice import cli
    table = {}
    for workload in workloads.WORKLOADS:
        rows = []
        for req in golden_corpus(workload):
            rc, out, _ = send(cli, req)
            why = verify(req, rc, out)
            if why is not None:
                sys.exit(f"{workload} {req.kind}: {why}")
            rows.append([rc, hashlib.sha256(out.encode()).hexdigest()])
        table[workload] = rows
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n")


def throughput(rounds):
    """Correct responses per busy second over the whole run."""
    return (sum(ok for ok, _ in rounds)
            / sum(sum(lat) for _, lat in rounds))


def traced_metrics(run, args):
    import tracing
    half = args.seconds / 2
    untraced, _ = run.measure(args.workload, args.seed, half)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, _ = run.measure(args.workload, args.seed, half, tracer)
    finally:
        tracer.uninstall()
    out_dir = HERE / "traces"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"{args.workload}.jsonl")
    units = {name: unit for name, unit, _ in tracing.per_layer_metrics()}
    busy = sum(sum(lat) for _, lat in traced)
    metrics = tracer.metrics(busy, throughput(traced) - throughput(untraced))
    return metrics, units


def end_to_end_metrics(run, args):
    setup = setup_probes()
    rounds, slow = run.measure(args.workload, args.seed, args.seconds)
    latencies = [t for _, lat in rounds for t in lat]
    raw = {
        "throughput_rps": throughput(rounds),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
    }
    metrics = {
        "throughput_rps": raw["throughput_rps"] * slow,
        "latency_p50_ms": raw["latency_p50_ms"] / slow,
        "latency_p90_ms": raw["latency_p90_ms"] / slow,
        "correct_frac": 1 - len(run.failures) / run.attempted,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }
    units = {"throughput_rps": "1/s", "latency_p50_ms": "ms",
             "latency_p90_ms": "ms", "correct_frac": "fraction",
             "peak_rss_mb": "MB", "setup_s": "s"}
    print(f"{args.workload} seed {args.seed}: {len(latencies)} requests in "
          f"{len(rounds)} rounds, {sum(latencies):.2f} s busy; failed_frac "
          f"{len(run.failures) / run.attempted:.4f}; slowness {slow:.4f}; "
          "raw " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
          file=sys.stderr)
    return metrics, units

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help="record the golden digests and exit")
    args = ap.parse_args()
    if not (SRC / "k3lattice" / "cli.py").is_file():
        sys.exit(f"error: no k3lattice source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    if args.write_golden:
        return write_golden()
    if args.workload is None:
        ap.error("--workload is required")
    from k3lattice import cli

    run = Run(cli)
    golden = json.loads(GOLDEN.read_text())[args.workload]
    corpus = golden_corpus(args.workload)
    if len(corpus) != len(golden):
        sys.exit("error: golden corpus and digests differ in length")
    for req, want in zip(corpus, golden):
        run.request(req, want)

    metrics, units = (traced_metrics if args.trace
                      else end_to_end_metrics)(run, args)
    for why in run.failures[:20]:
        print(f"FAILED {why}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:52s} {value:14.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
