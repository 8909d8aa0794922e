"""cascadia benchmark: one seeded workload, timed, checked, one JSON result.

    python3 benchmarks/run.py --workload small_chains|large_chains|oracle \
        --seed N --seconds T --trace 0|1

Load model: a closed loop from this single process.  Ops run one after
another, in whole passes of the workload, each pass in a seeded random
order so that every kind of op samples the whole run rather than one
stretch of it (a shared host's speed can drift by tens of percent within
seconds);
--seconds sets the number of passes from the reference pass time
(workloads.PASS_SECONDS), so a run measures about --seconds at the
reference speed and always the same ops.
Process parallelism inside an op (`jobs`) is 2 on large_chains and BLAS is
single-threaded, so processes x BLAS threads <= 2.

Op latency quantiles (op_p50_s, op_tail_s) are Harrell-Davis estimates: a
Beta-weighted mean of all order statistics rather than the single one at the
quantile's rank, so a quantile that falls between two kinds of op does not
jump from one to the other with the drawn parameters.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
half the passes with every op twice, plain and traced (wrappers from
layers.py, jobs=1), and prints the per-layer metrics.  Every op's output
is checked after it, outside the timed region.  Stdout carries one line per
op, a per-kind summary, a machine record and, last, the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# what a fresh CLI process pays: the import plus a first call into each
# solver layer (lazy scipy imports, first LSODA/DOP853/hybr calls)
SETUP_SNIPPET = """
import cascadia
from cascadia import ModelParams, exact_steady_state, solve_ce2, solve_steady_state
from cascadia.cli import build_parser
p = ModelParams.from_beta(beta=0.1, s0=1.0, n_emitters=2)
solve_steady_state("UWM", p); solve_ce2(p); exact_steady_state("UWM", p)
build_parser()
"""
TAIL_BEYOND = 10
MAX_OVERRUN = 3      # no new pass once a run has taken 3 x --seconds


def measure_setup(env):
    """Median wall time of fresh interpreters running SETUP_SNIPPET."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env,
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def machine_info(seed, workload):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "workload": workload, "seed": seed}


def peak_rss_mb():
    """Peak resident memory of this process and of its largest reaped child
    (pool workers, the set-up interpreters)."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kid_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, kid_kb) / 1024.0


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile of `values`."""
    import numpy as np       # after main() has pinned the BLAS threads
    from scipy.stats import beta
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    w = np.diff(beta.cdf(np.arange(n + 1) / n, (n + 1) * q, (n + 1) * (1 - q)))
    return float(w @ x)


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND ops beyond it, and
    that percentile."""
    n = len(latencies)
    q = max(n - TAIL_BEYOND, 1) / n
    return quantile(latencies, q), 100.0 * q


class Runner:
    def __init__(self, workloads, name, seed, seconds, tracer, ctx):
        self.pass_ = workloads.WORKLOADS[name]
        self.n_passes = workloads.passes(name, seconds)
        if tracer is not None:
            self.n_passes = max(1, self.n_passes // 2)  # each op runs twice
        self.sampler = workloads.Sampler(
            seed, workloads.op_counts(name, self.n_passes))
        self.seconds = seconds
        self.tracer = tracer
        self.ctx = ctx
        self.records = []        # (kind, latency_s, ok, residual)
        self.flux_rel = []       # exact ops: |flux defect| / flux_in
        self.plain_s = self.traced_s = 0.0

    def untraced(self):
        return self.tracer.pause() if self.tracer else contextlib.nullcontext()

    def run(self):
        t0 = time.perf_counter()
        for _ in range(self.n_passes):
            for i in self.sampler.rng.permutation(len(self.pass_)):
                make = self.pass_[i][1]
                self.records.append(self.one(make(self.sampler, self.ctx)))
            if time.perf_counter() - t0 > MAX_OVERRUN * self.seconds:
                print("stopping early: passes take far longer than the "
                      "reference", flush=True)
                break

    def timed(self, op, traced):
        t = time.perf_counter()
        with self.tracer.span("bench.op") if traced else self.untraced():
            out = op.run()
        return out, time.perf_counter() - t

    def one(self, op):
        res, note, latency = None, "", None
        t = time.perf_counter()
        try:
            if self.tracer is None:
                out, latency = self.timed(op, False)
            else:
                # plain and traced run of the same op, alternating which is
                # first so that first-call costs fall on both alike
                first = len(self.records) % 2 == 1
                for traced in (first, not first):
                    out, secs = self.timed(op, traced)
                    if traced:
                        self.traced_s += secs
                    else:
                        latency = secs
                        self.plain_s += secs
            with self.untraced():
                verdict = op.check(out)
            ok, res, note = verdict[:3]
            if len(verdict) > 3:
                self.flux_rel.append(verdict[3])
        except Exception as exc:  # an op or check that raises counts as failed
            if latency is None:
                latency = time.perf_counter() - t
            ok, note = False, f"{type(exc).__name__}: {exc}"
        inputs = json.dumps({k: round(v, 6) if isinstance(v, float) else v
                             for k, v in op.inputs.items()})
        print(f"op {op.kind} {latency:.4f}s {'ok' if ok else 'FAILED'} {inputs}"
              + (f": {note}" if not ok else ""), flush=True)
        return op.kind, latency, ok, res

    def latencies(self, kind):
        return [r[1] for r in self.records if r[0] == kind]

    def parallel_eff(self):
        """Serial ensemble wall / (2 x wall of its jobs=2 rerun); 0 when the
        workload runs no parallel ensemble."""
        effs = [statistics.median(self.latencies(k)) / (2.0 * p)
                for k, p in self.ctx.parallel_s.items()]
        return effs[0] if effs else 0.0

    def end_to_end(self, setup_s, rss):
        """wall_s is the time one pass takes: the sum over the pass's ops of
        the median latency of their kind in this run."""
        lat = [r[1] for r in self.records]
        by_kind, digits = {}, {}
        for kind, t, _, res in self.records:
            by_kind.setdefault(kind, []).append(t)
            if res is not None:
                digits.setdefault(kind, []).append(-math.log10(max(res, 1e-16)))
        failed = sum(not r[2] for r in self.records)
        tail_s, pct = tail(lat)
        print(f"ops={len(lat)} failed={failed} fail_frac={failed / len(lat):.4f}"
              f" op_tail=p{pct:.1f} (n={len(lat)}, {TAIL_BEYOND} beyond)",
              flush=True)
        for k in sorted(by_kind):
            ts, d = by_kind[k], digits.get(k)
            print(f"  {k:22s} n={len(ts):3d} median={statistics.median(ts):8.4f}s "
                  f"max={max(ts):8.4f}s digits="
                  + (f"{statistics.median(d):.2f}" if d else "-"), flush=True)
        return {
            "wall_s": sum(statistics.median(by_kind[k]) for k, _ in self.pass_),
            "op_p50_s": quantile(lat, 0.5),
            "op_tail_s": tail_s,
            "setup_s": setup_s,
            "peak_rss_mb": rss,
            "ok_frac": 1.0 - failed / len(lat),
            # accuracy of a kind is the median over its ops, so one op whose
            # polish happened to be rejected does not set the run's figure
            "resid_digits_min": min(statistics.median(d) for d in digits.values()),
        }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cascadia" / "__init__.py").is_file():
        print(f"error: no cascadia sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    setup_s = measure_setup(dict(os.environ, PYTHONPATH=str(SRC)))

    import tracing
    import workloads
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None

    def rerun(fn):
        t = time.perf_counter()
        with tracer.pause() if tracer else contextlib.nullcontext():
            value = fn()
        return value, time.perf_counter() - t

    ctx = workloads.Context(tmp=tmp, jobs=1 if tracer else 2, invariance=[],
                            rerun=rerun, parallel_s={})
    runner = Runner(workloads, args.workload, args.seed, args.seconds, tracer,
                    ctx)
    # warm-up: the first-call costs that setup_s measures are not charged to
    # whichever op happens to come first
    exec(SETUP_SNIPPET, {})
    try:
        if tracer is not None:
            import layers
            layers.install(tracer)
        runner.run()
        if tracer is not None:
            with tracer.span("bench.smoke"):
                layers.smoke(tmp)
            with tracer.pause():
                probes = layers.probes()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()

    failed = sum(not r[2] for r in runner.records)
    correct = failed == 0 and all(ok for _, ok in ctx.invariance)
    for what, ok in ctx.invariance:
        print(f"jobs invariance ({what}, jobs 1 vs 2): "
              f"{'identical' if ok else 'DIFFERENT'}", flush=True)
    if tracer is None:
        values = runner.end_to_end(setup_s, peak_rss_mb())
        names = spec["end_to_end"]
    else:
        values, sums_ok = layers.metrics(tracer, runner, probes)
        correct = correct and sums_ok
        names = spec["per_layer"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in names}
    print(json.dumps({"machine": machine_info(args.seed, args.workload)}))
    print(json.dumps({"correct": bool(correct), "attempted": len(runner.records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
