"""opspectra benchmark: one seeded workload, closed loop, one process.

    python3 perfbench/run.py --workload bundled_cli --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the workload runs in whole rounds until at
least ``--seconds`` of operation time have passed, and the last stdout line
is a JSON object with the end-to-end metrics.  With ``--trace 1`` a fixed,
seeded list of operations runs once untraced and once with every layer
wrapped (see tracer.py), and the last line carries the per-layer metrics.
Every operation's output is checked; see workloads.py.  End-to-end times
are seconds at a nominal host speed, with raw seconds beside them; see
speed.py.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"
SETUP_REPEATS = 5
TAIL_BEYOND = 10
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Fresh-process set-up: import, load the six bundled specs, one warm-up
# operation (what a CLI user pays on every invocation).
SETUP_PROBE = """
import contextlib, io, opspectra
from opspectra import cli, specfiles
for name in specfiles.BUNDLED:
    specfiles.load_bundled(name)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["classify", "right_shift"])
raise SystemExit(code)
"""


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def measure_setup(workdir, reference):
    """Median raw and nominal-speed seconds of SETUP_REPEATS fresh processes."""
    import speed

    raw, scaled = [], []
    before = reference.sample()
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=workdir,
                              env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        elapsed = time.perf_counter() - started
        if done.returncode != 0:
            fail(f"set-up probe failed: {done.stderr.decode()[-500:]}")
        after = reference.sample()
        raw.append(elapsed)
        scaled.append(elapsed * speed.NOMINAL_S / ((before + after) / 2.0))
        before = after
    return statistics.median(raw), statistics.median(scaled)


def provenance(seed):
    import ctypes
    import glob
    import platform

    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.exists() else None
        else:
            commit = ref
    return {"nproc": os.cpu_count(), "load_avg": os.getloadavg(),
            "blas": {"vendor": blas.get("name"), "version": blas.get("version"),
                     "threads": threads if threads is not None else int(BLAS_THREADS)},
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "git_commit": commit, "seed": seed}


def execute(op, tracer=None, host=None):
    """Run one operation; returns (seconds, Checked).  With ``host``, time
    its timer handler spent during the operation is not counted."""
    from opspectra.errors import NotStabilized
    from workloads import Checked

    op.setup()
    stolen = host.stolen if host else 0.0
    started = time.perf_counter()
    try:
        result = tracer.operation(op.run) if tracer else op.run()
    except NotStabilized:        # documented outcome: an undetermined verdict
        result, checked = None, Checked(1, 1)
    except Exception as exc:     # any other exception is an error of the operation
        result, checked = None, Checked(failures=[f"{type(exc).__name__}: {exc}"])
    else:
        checked = None
    elapsed = time.perf_counter() - started - ((host.stolen - stolen) if host else 0.0)
    if checked is None:
        try:
            checked = op.check(result)
        except Exception as exc:     # malformed output
            checked = Checked(failures=[f"check raised {type(exc).__name__}: {exc}"])
    return elapsed, checked


class Tally:
    def __init__(self):
        self.latencies = []
        self.attempted = self.failed = self.verdicts = self.undetermined = 0
        self.bytes_out = 0

    def add(self, op, elapsed, checked):
        self.latencies.append(elapsed)
        self.attempted += 1
        self.verdicts += checked.verdicts
        self.undetermined += checked.undetermined
        self.bytes_out += checked.bytes_out
        if checked.failures:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {op.label}: {'; '.join(checked.failures)}",
                      file=sys.stderr)


def timed_run(workload, seconds, reference):
    """Whole rounds until ``seconds`` of raw operation time, so every run
    has the same mix.  Returns the tally, the nominal-speed operation times
    (see speed.py), each round's (first operation, operations) and the host
    speed samples."""
    import speed

    tally, rounds, spans, busy = Tally(), [], [], 0.0
    with speed.HostSpeed(reference) as host:
        while busy < seconds:
            ops = workload.round(len(rounds))
            rounds.append((len(tally.latencies), len(ops)))
            for op in ops:
                started = time.perf_counter()
                elapsed, checked = execute(op, host=host)
                spans.append((started, time.perf_counter(), elapsed))
                busy += elapsed
                tally.add(op, elapsed, checked)
    return tally, [host.scale(*span) for span in spans], rounds, host.samples


def traced_run(workload):
    """The seeded fixed list, each operation once plain and once traced.

    The two copies alternate which runs first, so warm-up effects do not
    land on one side of the tracing overhead.
    """
    from tracer import Tracer

    plain, traced, tracer, restored = Tally(), Tally(), Tracer(), True
    for index in range(workload.trace_rounds):
        pairs = zip(workload.round(index), workload.round(index))
        for position, (plain_op, traced_op) in enumerate(pairs):
            if position % 2:
                plain.add(plain_op, *execute(plain_op))
            tracer.install()
            try:
                traced.add(traced_op, *execute(traced_op, tracer))
            finally:
                restored &= tracer.uninstall()
            if not position % 2:
                plain.add(plain_op, *execute(plain_op))
    return plain, traced, tracer, restored


def tail(latencies):
    """The highest of TAIL_PERCENTILES with at least TAIL_BEYOND samples
    above it (nearest rank); returns (value, percentile)."""
    ordered = sorted(latencies)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * len(ordered))
        if len(ordered) - rank >= TAIL_BEYOND:
            return ordered[rank - 1], pct
    return ordered[-1], 100.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="bundled_cli, generic_scaling, oracle_family, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "opspectra" / "__init__.py").is_file():
        fail(f"no opspectra sources under {SRC}; run from a source checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    import opspectra
    if Path(opspectra.__file__).resolve().parent != (SRC / "opspectra").resolve():
        fail(f"imported opspectra from {opspectra.__file__}, not from {SRC}")

    from workloads import WORKLOADS
    if args.workload == "all":       # each workload in its own process
        codes = [subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for name in WORKLOADS]
        return 0 if not any(codes) else 1
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")

    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch_root)
    cwd = os.getcwd()
    try:
        os.chdir(workdir)        # the CLI's default output files land here
        return measure(args, WORKLOADS[args.workload](args.seed), workdir)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch_root.rmdir()


def measure(args, workload, workdir):
    import resource

    import speed

    print("provenance " + json.dumps(provenance(args.seed)))
    warm = workload.round(0)[0]
    execute(warm)                # lazy imports and first-call costs

    if args.trace:
        plain, traced, tracer, restored = traced_run(workload)
        metrics = tracer.metrics()
        metrics["cli.bytes_out"] = (traced.bytes_out, "byte")
        overhead = sum(traced.latencies) / sum(plain.latencies) - 1.0
        metrics["trace.overhead_share"] = (overhead, "ratio")
        for name, (value, unit) in metrics.items():
            print(f"{workload.name:16s} {name:44s} {value:.6g} {unit}")
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed + (0 if restored else 1)
        if not restored:
            print("FAILED tracer did not restore every binding", file=sys.stderr)
    else:
        reference = speed.Reference()
        setup_raw, setup_s = measure_setup(workdir, reference)
        tally, scaled, rounds, samples = timed_run(workload, args.seconds, reference)
        undetermined = tally.undetermined / tally.verdicts if tally.verdicts else 0.0
        shown = {}
        for label, times, setup in (("", scaled, setup_s),
                                    ("raw_", tally.latencies, setup_raw)):
            tail_value, pct = tail(times)
            shown[label + "setup_s"] = (setup, "s")
            shown[label + "throughput_ops_s"] = (statistics.median(
                n / sum(times[first:first + n]) for first, n in rounds), "1/s")
            shown[label + "latency_p50_s"] = (statistics.median(times), "s")
            shown[label + "latency_tail_s"] = (tail_value, "s")
        shown["determined_share"] = (1.0 - undetermined, "ratio")
        shown["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        shown["undetermined_share"] = (undetermined, "ratio")
        shown["error_share"] = (tally.failed / tally.attempted, "ratio")
        for name, (value, unit) in shown.items():
            note = ""
            if name.endswith("latency_tail_s"):
                note = f"  (p{pct:g} of {len(tally.latencies)} operations)"
            print(f"{workload.name:16s} {name:22s} {value:.6g} {unit}{note}")
        speeds = [speed.NOMINAL_S / s for s in samples]
        print(f"{workload.name:16s} {len(rounds)} rounds, {tally.attempted} operations, "
              f"{tally.verdicts} verdicts, {sum(tally.latencies):.2f} s of operation "
              f"time; host speed {min(speeds):.3f}-{max(speeds):.3f} of nominal "
              f"(median {statistics.median(speeds):.3f}, "
              f"{len(samples)} reference samples)")
        metrics = {name: shown[name] for name in (
            "setup_s", "throughput_ops_s", "latency_p50_s", "latency_tail_s",
            "determined_share", "peak_rss_mb")}
        attempted, failed = tally.attempted, tally.failed

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
