"""vcgen benchmark: one workload in one process, result as the last stdout line.

    python3 bench/run.py --workload train --seed 1 --seconds 30 --trace 0

Workloads are ``train``, ``decode`` and ``score`` (see bench/README.md).
With ``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1``
it holds the per-layer metrics of a traced run. The process exits 0 only if
every output check passed and the BLAS pool ran on one thread.
"""

import os

# Pin every BLAS/OpenMP pool to one thread before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_SEED = 1  # the held-out seed, for confirming claims only, is 907 (see README.md)
OUT_DIR = ROOT / ".bench_runs"


def import_vcgen():
    """Import vcgen from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        # Import every module the workloads reach, so neither set-up nor
        # the first round pays for imports.
        import vcgen
        import vcgen.cli  # noqa: F401
        import vcgen.generate  # noqa: F401
        import vcgen.metrics  # noqa: F401
        import vcgen.synthetic  # noqa: F401
        import vcgen.train  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"error: cannot import vcgen from {src}: {exc}")
    if not Path(vcgen.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: vcgen imported from {vcgen.__file__}, not from {src}")


def blas_threads() -> tuple[int | None, str]:
    """Threads of the OpenBLAS pool loaded in this process, and its config."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(handle, f"{prefix}_get_config{suffix}", None)
                if get is not None:
                    get.restype = ctypes.c_int
                    if config is not None:
                        config.restype = ctypes.c_char_p
                    return get(), (config().decode() if config is not None else lib)
    return None, "no OpenBLAS found"


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.exists() else "unknown"
    return ref


def environment(args, threads: int | None, blas_config: str, nproc: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_config,
        "blas_threads": threads,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": nproc,
        "pinned_cpu": max(os.sched_getaffinity(0)),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
    }


def timed_setup(out: Path, seed: int):
    """Build the inputs into ``out``; returns (inputs, seconds)."""
    shutil.rmtree(out, ignore_errors=True)
    start = time.perf_counter()
    inputs = workloads.make_inputs(out, seed)
    return inputs, time.perf_counter() - start


def measure(wl, seconds: float, setup_times: list[float]) -> list[dict]:
    """Closed loop: run rounds back to back until ``seconds`` have passed.

    After each round the inputs are built once more into a scratch
    directory, so that set-up is timed across the whole run like the rounds.
    """
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(wl.round(len(rounds)))
        setup_times.append(timed_setup(wl.work / "setup_again", wl.seed)[1])
    return rounds


def measure_traced(wl, tracer, seconds: float) -> tuple[list[dict], list[dict], set[str]]:
    """Alternate untraced and traced rounds, so that their ratio, the
    tracing overhead, is not skewed by drift over the run."""
    plain, traced, installed = [], [], set()
    start = time.perf_counter()
    while len(traced) < 1 or time.perf_counter() - start < seconds:
        index = len(plain) + len(traced)
        if index % 2 == 0:
            plain.append(wl.round(index))
            continue
        installed = {p.name for p in layers.PROBES if tracer.install(*p)}
        wl.tracer = tracer
        try:
            traced.append(wl.round(index))
        finally:
            tracer.restore()
            wl.tracer = None
    return plain, traced, installed


def median_of(rounds: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rounds)


def per_ref(rounds: list[dict], key: str) -> float:
    """Median over rounds of a rate times the reference kernel's time around
    the commands that made it: work done per reference-kernel run."""
    return statistics.median(r[key] * r[key + "_ref"] for r in rounds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "decode", "score"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_vcgen()
    # BLAS runs one thread, so one CPU is all the program uses. Holding the
    # process on one keeps the scheduler from moving it between cores.
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    threads, blas_config = blas_threads()
    env = environment(args, threads, blas_config, nproc)
    print("env " + json.dumps(env, sort_keys=True))
    if threads is not None and threads != 1:
        print(f"error: BLAS pool runs {threads} threads, not 1", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    run_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = run_dir / "work"
    try:
        inputs, first_setup = timed_setup(work / "inputs", args.seed)
        setup_times = [first_setup]
        wl = workloads.WORKLOADS[args.workload](inputs, work, args.seed)
        if args.trace:
            tracer = Tracer()
            plain, traced, installed = measure_traced(wl, tracer, args.seconds)
            wl.final_checks()
            tracer.dump(run_dir / "spans.jsonl")
            metrics = layers.layer_metrics(tracer.spans, installed, len(traced))
            metrics[layers.OVERHEAD.name] = {
                "value": median_of(traced, "wall_s") / median_of(plain, "wall_s") - 1.0,
                "unit": layers.OVERHEAD.unit,
            }
            rounds = plain + traced
            for target in sorted(set(tracer.missing)):
                print(f"warning: probe target {target} not found; its metrics are left out", file=sys.stderr)
        else:
            rounds = measure(wl, args.seconds, setup_times)
            wl.final_checks()
            values = {
                "primary_per_ref": per_ref(rounds, "primary"),
                "secondary_per_ref": per_ref(rounds, "secondary"),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in workloads.END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = wl.failed == 0 and not wl.problems
    print_table(args, wl, rounds, setup_times, metrics)
    for problem in wl.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": correct, "attempted": wl.attempted, "failed": wl.failed, "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps({"env": env, "setup_s": setup_times, "rounds": rounds, "result": result}, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def print_table(args, wl, rounds, setup_times, metrics) -> None:
    """Human-readable figures, with the workload's own names for the rates."""
    n = len(rounds)
    print(f"workload {args.workload}, seed {args.seed}, {n} rounds")
    if not args.trace:
        for key, (name, unit) in (("primary", wl.primary), ("secondary", wl.secondary)):
            values = [r[key] for r in rounds]
            q1, _, q3 = statistics.quantiles(values, n=4) if n > 1 else values * 3
            print(f"  {name:<32} {statistics.median(values):10.3f} {unit:<13} (median of {n}; q1 {q1:.3f}, q3 {q3:.3f})")
            print(f"  {key + '_per_ref':<32} {metrics[key + '_per_ref']['value']:10.3f} {'1/ref':<13} (the same per reference run)")
        ref_ms = statistics.median(r["primary_ref"] for r in rounds) * 1e3
        print(f"  {'reference kernel':<32} {ref_ms:10.3f} {'ms':<13} (median of {n})")
        print(f"  {'setup_s':<32} {statistics.median(setup_times):10.4f} {'s':<13} (median of {len(setup_times)})")
        print(f"  {'peak_rss_mb':<32} {metrics['peak_rss_mb']['value']:10.1f} MB")
        for name, (value, unit) in wl.extra().items():
            print(f"  {name:<32} {value:10.4f} {unit}")
    else:
        for name, m in metrics.items():
            print(f"  {name:<36} {m['value']:12.4f} {m['unit']}")
    fail_rate = wl.failed / wl.attempted if wl.attempted else 1.0
    print(f"  {'fail_rate':<32} {fail_rate:10.4f} {'fraction':<13} ({wl.failed} of {wl.attempted} ops)")


if __name__ == "__main__":
    sys.exit(main())
