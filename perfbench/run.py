"""vpsep benchmark: one command per workload, run from a source checkout.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Workloads: ``train``, ``separate-long``, ``evaluate-table`` (see
NOTES.md).  The library is imported from ``src/`` of the checkout that
holds this file; inputs are generated from ``--seed`` under
``.perfbench_work/`` and deleted at exit.

Each run sets its workload up at least three times and for at least two
seconds before the loop.  It then runs closed-loop cycles of operations
for ``--seconds``, checking every output; an untraced run also repeats
the set-up on a fresh workload between operations, for about a tenth of
the loop's time, which it adds to the loop.  ``setup_s`` is the median of
all set-ups, so that it samples the machine over the whole run.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` cycles alternate between untraced and traced (under the
wrapper tracer), and it reports per-layer metrics per traced cycle.
Human-readable figures and an ``env`` line come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("train", "separate-long", "evaluate-table")
# Set-up repeats before the closed loop: at least this many, and until
# this many seconds are spent.
SETUP_BEFORE = (3, 2.0)
# Set-up time between the operations of an untraced loop, as a share of
# the operations' time.
SETUP_SHARE_IN_LOOP = 0.1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> int:
    """One BLAS thread per CPU this process may run on.  Takes effect only
    before numpy is first imported."""
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def import_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import vpsep
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import vpsep from {src}: {exc}")
    if Path(vpsep.__file__).resolve().parent != src / "vpsep":
        raise SystemExit(f"perfbench: vpsep was imported from {vpsep.__file__}, not {src}")


def git_commit() -> str | None:
    """HEAD of the checkout's git directory, read without running git;
    None when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """sha256 over the library sources, which identifies the code measured
    even where there is no git metadata."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args, threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas_name,
        "blas_threads": threads, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(), "src_sha256": src_digest(),
    }


class Run:
    """Set-up repeats, the closed loop, and the tallies of one run."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool, work: Path):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = work
        self.setup_s: list[float] = []
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}
        # wall seconds of each whole cycle, untraced (False) and traced (True)
        self.cycle_s: dict[bool, list[float]] = {False: [], True: []}
        self.missing: list[str] = []

    def set_up(self, workload) -> Path:
        """Time one set-up of ``workload`` in a fresh directory."""
        work = self.work / f"setup{len(self.setup_s)}"
        t0 = perf_counter()
        workload.setup(work, self.seed)
        self.setup_s.append(perf_counter() - t0)
        return work

    def prepare(self):
        """Repeat the set-up as SETUP_BEFORE asks; the last repeat's inputs
        are the ones measured."""
        min_repeats, min_s = SETUP_BEFORE
        work = None
        while len(self.setup_s) < min_repeats or sum(self.setup_s) < min_s:
            if work:
                shutil.rmtree(work)
            work = self.set_up(self.workload)
        self.workload.prepare()
        self.samples = {job: [] for job in self.workload.audio_s}

    def attempt(self, job, fn):
        from vpsep.errors import VpsepError

        self.attempted += 1
        t0 = perf_counter()
        try:
            out = fn()
        except (VpsepError, OSError) as exc:
            self.failed += 1
            print(f"operation failed: {job}: {exc}", file=sys.stderr)
            return
        elapsed = perf_counter() - t0
        if job in self.samples:
            self.samples[job].append(elapsed)
        self.problems.extend(self.workload.check(job, out))

    def loop(self, tracer):
        from tracer import installed

        start = perf_counter()
        deadline = start + self.seconds
        setup_in_loop = 0.0
        while True:
            untraced, traced = self.cycle_s[False], self.cycle_s[True]
            if perf_counter() >= deadline and (
                    (len(untraced) >= 2 and traced) if self.trace else untraced):
                break
            tracing = bool(self.trace and len(untraced) > len(traced))
            # Traced cycles always finish, so that per-cycle counts are exact;
            # an untraced run stops at the deadline once one cycle is whole.
            stops = bool(untraced and not self.trace)
            with installed(tracer) if tracing else nullcontext([]) as missing:
                c0 = perf_counter()
                for job, fn in self.workload.cycle_ops():
                    if stops and perf_counter() >= deadline:
                        break
                    self.attempt(job, fn)
                    # set-up samples spread over the run; the operations
                    # still get their --seconds
                    ops_s = perf_counter() - start - setup_in_loop
                    if not self.trace and setup_in_loop < SETUP_SHARE_IN_LOOP * ops_s:
                        shutil.rmtree(self.set_up(type(self.workload)()))
                        setup_in_loop += self.setup_s[-1]
                        deadline += self.setup_s[-1]
                else:
                    self.problems.extend(self.workload.end_cycle())
                self.cycle_s[tracing].append(perf_counter() - c0)
            self.missing = missing or self.missing

    def medians(self) -> dict[str, float]:
        empty = [job for job, times in self.samples.items() if not times]
        if empty:
            raise SystemExit(f"perfbench: no successful operation for {', '.join(empty)}")
        return {job: statistics.median(times) for job, times in self.samples.items()}

    def end_to_end(self, medians) -> dict[str, tuple[float, str]]:
        audio_s = self.workload.audio_s
        rtf = sum(medians.values()) / sum(audio_s[job] for job in medians)
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {
            "rtf": (rtf, "s/s"),
            "setup_s": (statistics.median(self.setup_s), "s"),
            "peak_rss_mib": (peak_mib, "MiB"),
        }

    def per_layer(self, tracer) -> dict[str, tuple[float, str]]:
        """Layer figures per traced cycle, so call counts repeat exactly."""
        from tracer import LAYERS, PARENTS

        per = 1.0 / len(self.cycle_s[True])
        out = {}
        for label in LAYERS:
            out[f"{label}.calls"] = (tracer.calls[label] * per, "count")
            out[f"{label}.s"] = (tracer.total_s[label] * per, "s")
            if label in PARENTS:
                out[f"{label}.self_s"] = (tracer.self_s[label] * per, "s")
        matmul_s = tracer.total_s["vecmat.vec_matmul"]
        flop = tracer.counters["vecmat.vec_matmul.flop"]
        out["vecmat.vec_matmul.gflop_per_s"] = (flop / matmul_s / 1e9 if matmul_s else 0.0,
                                                "GFLOP/s")
        for name in ("optim.adam_step.bytes", "dataset.make_batches.bytes"):
            out[name] = (tracer.counters[name] * per, "B")
        out["metrics.lstsq_fallbacks"] = (tracer.counters["metrics.lstsq_fallbacks"] * per,
                                          "count")
        # the first untraced cycle runs cold and is left out
        plain = statistics.median(self.cycle_s[False][1:])
        traced = statistics.median(self.cycle_s[True])
        out["trace.overhead_s"] = (traced - plain, "s")
        out["trace.overhead_share"] = ((traced - plain) / plain, "ratio")
        out["trace.self_time_coverage"] = (tracer.top_level_s / sum(self.cycle_s[True]),
                                           "ratio")
        out["ops_failed_share"] = (self.failed / self.attempted, "ratio")
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # exit through the finally clause below, which removes the inputs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    threads = pin_blas_threads()
    import_library()
    from tracer import Tracer
    from workloads import WORKLOADS

    env = environment(args, threads)
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    run = Run(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace), work)
    tracer = Tracer()
    try:
        run.prepare()
        run.loop(tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    medians = run.medians()
    if args.trace:
        metrics = run.per_layer(tracer)
        figures = []
    else:
        metrics = run.end_to_end(medians)
        figures = run.workload.report(medians)
        figures.append(("ops_failed_share", run.failed / run.attempted, "ratio"))
    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}; {run.attempted} operations, {run.failed} failed")
    for job, times in run.samples.items():
        print(f"  {job}: {len(times)} operations, median {medians[job]:.4f} s, "
              f"range {min(times):.4f} - {max(times):.4f} s")
    print(f"  cycles: {len(run.cycle_s[False])} untraced, {len(run.cycle_s[True])} traced; "
          f"{len(run.setup_s)} set-ups")
    for name, value, unit in figures + [(n, v, u) for n, (v, u) in metrics.items()]:
        print(f"  {name} = {value:.6g} {unit}")
    for problem in dict.fromkeys(run.problems):
        print(f"  CHECK FAILED: {problem}")
    if run.missing:
        print(f"  untraced (binding not found): {', '.join(run.missing)}")
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
