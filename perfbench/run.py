"""Benchmark of protoeeg's train, evaluate and review workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train --seed 1 --seconds 12 --trace 0

Set-up (making the inputs and any trained model from the seed) runs several
times in a child process, so that the peak memory reported is the timed
phase's; ``setup_s`` is the median.  The timed phase then runs whole rounds
until ``--seconds`` have passed, the outputs are checked, and the last line
printed is one JSON object: end-to-end metrics with ``--trace 0``, per-layer
metrics from spans with ``--trace 1``.
"""

import os

# One BLAS thread, fixed before numpy loads: a run is one process with one
# load generator, and a thread pool sized by the machine would not repeat.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 170


def _import_program():
    """Import protoeeg from this checkout's src/, and from nowhere else."""
    if not (SRC / "protoeeg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'protoeeg'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import protoeeg

    if Path(protoeeg.__file__).resolve().parent != SRC / "protoeeg":
        sys.exit(f"perfbench: protoeeg imported from {protoeeg.__file__}, not {SRC}")


def _parse(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "evaluate", "review"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-into", type=Path, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup_child(args, workload) -> None:
    """Run every set-up, write their times, the last state and the spans."""
    from spans import Tracer
    from workloads import Bench, remove

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.phase = "setup"
    bench = Bench(tracer)
    times, state, prev = [], None, None
    for i in range(workload.setups):
        root = args.setup_into / f"setup{i}"
        root.mkdir(parents=True)
        t0 = time.perf_counter()
        state = workload.setup(bench, root, args.seed)
        times.append(time.perf_counter() - t0)
        if prev is not None:
            remove([prev])
        prev = root
    remove(state.pop("scratch", []))
    if tracer is not None:
        tracer.phase = None
        tracer.write(args.setup_into / "setup_spans.jsonl")
    (args.setup_into / "setup.json").write_text(
        json.dumps({"times": times, "state": state}), "utf-8")


def _run_setup(args, work: Path) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--setup-into", str(work)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"perfbench: set-up of {args.workload} failed")
    return json.loads((work / "setup.json").read_text("utf-8"))


def _fingerprints(data_file) -> tuple:
    """Window fingerprint -> split, and the validation size, for the tracer."""
    from protoeeg.dataset import load

    samples, manifest = load(data_file)
    split_of = {sid: name for name in ("train", "val", "test")
                for sid in manifest.ids_for(name)}
    prints = {np.asarray(s.values, dtype=np.float64)[0].tobytes():
              split_of.get(s.sample_id, "other") for s in samples}
    return prints, len(manifest.ids_for("val"))


def _trim_heap() -> None:
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):  # not glibc
        pass


def _machine() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "numpy": np.__version__, "python": platform.python_version()}


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    sys.path.insert(0, str(HERE))
    # the benchmark's own modules import protoeeg, so they load only now
    from workloads import WORKLOADS, remove

    workload = WORKLOADS[args.workload]()
    if args.setup_into is not None:
        _setup_child(args, workload)
        return 0

    work = ROOT / ".bench_runs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    remove([work])
    work.mkdir(parents=True)
    try:
        return _measure(args, workload, work)
    finally:
        remove([work])


def _measure(args, workload, work: Path) -> int:
    import spans
    from workloads import Bench

    setup = _run_setup(args, work)
    state = setup["state"]
    timed_root = work / "timed"
    timed_root.mkdir()

    tracer = clock = undo = None
    n_val = 0
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        tracer.spans = spans.read(work / "setup_spans.jsonl")
        tracer.split_of, n_val = _fingerprints(state["data"])
        tracer.phase = "timed"
    else:
        clock = spans.StepClock()
        undo = clock.install()
    bench = Bench(tracer)

    ok_rounds, round_times = [], []
    start = time.perf_counter()
    k = 0
    while True:
        # each round starts without the last one's garbage and with free heap
        # memory handed back, as a fresh CLI process would
        gc.collect()
        _trim_heap()
        t0 = time.perf_counter()
        ok = workload.run_round(bench, state, timed_root, k)
        round_times.append(time.perf_counter() - t0)
        if ok:
            ok_rounds.append(k)
        k += 1
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.phase = None
        tracer.uninstall()
    else:
        undo()
    errors = workload.check(state, timed_root, ok_rounds)
    for line in bench.log:
        print(line, file=sys.stderr)
    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)

    if workload.name == "train":
        ops = spans.steps_from_spans(tracer.spans) if tracer else clock.steps
    else:
        ops = round_times
    timed_s = sum(round_times)
    e2e = {
        "setup_s": (statistics.median(setup["times"]), "s"),
        "windows_per_s": (workload.windows_per_round(state) * k / timed_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    if ops:
        e2e["op_p50_ms"] = (1e3 * statistics.median(ops), "ms")

    print(f"machine: {json.dumps(_machine(), sort_keys=True)}")
    print(f"{workload.name}: seed {args.seed}, {k} rounds in {timed_s:.2f} s timed, "
          f"{len(ops)} operations timed ({workload.op}), "
          f"set-ups {[round(t, 3) for t in setup['times']]} s, "
          f"rounds {[round(t, 3) for t in round_times]} s")
    for name, (value, unit) in e2e.items():
        print(f"{'traced ' if tracer else ''}{name} = {value:.6g} {unit}")

    if tracer is not None:
        layer, absent = spans.layer_metrics(
            tracer, rounds=k, setups=workload.setups,
            stage_windows=workload.stage_windows(state), n_val=n_val)
        tracer.write(ROOT / ".bench_runs" / "spans" / f"{workload.name}-seed{args.seed}.jsonl")
        for name, value in layer.items():
            print(f"{name} = {value:.6g}")
        if absent:
            print(f"absent (wrapped function gone): {', '.join(absent)}")
        metrics = {name: {"value": value, "unit": spans.unit_of(name)}
                   for name, value in layer.items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in e2e.items()}

    attempted, failed = k, k - len(ok_rounds)
    print(f"{workload.name}: attempted {attempted}, failed {failed}, "
          f"checks {'passed' if not errors else f'failed ({len(errors)})'}")
    print(json.dumps({"correct": not errors and "op_p50_ms" in e2e,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
