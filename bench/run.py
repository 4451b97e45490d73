"""dicode benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload {design,certify,tabulate} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from `src/`.

--trace 0 times whole iterations of the workload's call sequence for about
S seconds and reports the end-to-end metrics: wall_s (median iteration),
setup_s (median over SETUP_REPS fresh set-ups before every iteration: dicode
import, channel loading, input generation) and peak_rss_mb.  --trace 1 alternates untraced and traced
iterations and reports the per-layer metrics of tracer.py, plus
trace.overhead_s, the traced minus the untraced median wall time.

Every iteration's outputs are checked.  Each timed call and each check is one
attempted operation; a raise, a non-zero CLI exit or a failed check is one
failed operation.  The last stdout line is the JSON result; a copy with the
environment and per-iteration detail goes to .bench_build/dicode/results/.
"""

from __future__ import annotations

import os

# pinned before numpy loads, so BLAS never starts more threads than cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "dicode"
MODULES = ("channel", "codebook", "evaluator", "geometry", "bounds", "cli")
#: set-ups before each iteration; spreading them over the whole run exposes
#: them to the same machine phases as the iterations
SETUP_REPS = 4

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class SetupError(RuntimeError):
    pass


def fresh_import() -> SimpleNamespace:
    """Import dicode from src/ anew, dropping modules cached by a previous set-up."""
    if not (SRC / "dicode" / "__init__.py").is_file():
        raise SetupError(f"no dicode package under {SRC}")
    for name in [k for k in sys.modules if k == "dicode" or k.startswith("dicode.")]:
        del sys.modules[name]
    pkg = importlib.import_module("dicode")
    if Path(pkg.__file__).resolve().parent != (SRC / "dicode").resolve():
        raise SetupError(f"dicode imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{n: importlib.import_module(f"dicode.{n}") for n in MODULES})


def set_up(workload, seed: int, work: Path):
    """SETUP_REPS full set-ups; returns the last one's modules and inputs, and
    the set-up and channel-loading times of each."""
    times, loads = [], []
    for _ in range(SETUP_REPS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        gc.collect()
        t0 = time.perf_counter()
        m = fresh_import()
        inputs = workload.setup(m, seed, work)
        times.append(time.perf_counter() - t0)
        loads.append(inputs["channel_load_s"])
    return m, inputs, times, loads


def timed_pass(workload, m, inputs):
    """One timed pass over the workload's steps.

    Returns (wall, outputs, per-step walls, errors)."""
    if "out" in inputs:
        shutil.rmtree(inputs["out"], ignore_errors=True)
    out, errors, step_walls = {}, {}, {}
    steps = workload.steps(m, inputs)
    # start every pass from the same collector state: garbage left by the
    # previous pass would otherwise be traversed at a varying point inside it
    gc.collect()
    t0 = time.perf_counter()
    for name, fn in steps:
        t_step = time.perf_counter()
        try:
            out[name] = fn(out)
        except Exception as exc:  # a failed operation is counted, not fatal
            out[name], errors[name] = None, repr(exc)
        step_walls[name] = time.perf_counter() - t_step
    return time.perf_counter() - t0, out, step_walls, errors


def run_checks(workload, m, inputs, out):
    """The workload's output checks; returns (count, errors)."""
    checks = workload.checks(m, inputs, out)
    errors = {}
    for name, fn in checks:
        try:
            if not fn():
                errors[name] = "check failed"
        except Exception as exc:
            errors[name] = repr(exc)
    return len(checks), errors


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "blas_threads": {v: os.environ[v] for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
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
    return "unknown"


def measure(workload, seed: int, work: Path, seconds: float, traced: bool):
    """Iterate for about `seconds`, each iteration after fresh set-ups;
    traced runs alternate untraced and traced iterations."""
    walls = {False: [], True: []}
    setups, loads = [], []
    steps, layer_samples, first_trace = [], [], None
    attempted, failures = 0, []
    start = time.perf_counter()
    use_trace = False
    while True:
        m, inputs, setup_times, load_times = set_up(workload, seed, work)
        setups += setup_times
        loads += load_times
        tracer = None
        if use_trace:
            tracer = tracing.Tracer()
            tracing.install(tracer, m)
        try:
            wall, out, step_walls, errors = timed_pass(workload, m, inputs)
        finally:
            if tracer is not None:
                tracer.uninstall()
        n_checks, check_errors = run_checks(workload, m, inputs, out)
        iteration = len(walls[False]) + len(walls[True])
        walls[use_trace].append(wall)
        if not use_trace:
            steps.append(step_walls)
        attempted += len(step_walls) + n_checks
        failures += [{"iteration": iteration, "op": k, "error": v}
                     for k, v in (errors | check_errors).items()]
        if tracer is not None:
            sample = tracing.layer_metrics(tracer.spans)
            sample.update(workload.observe(inputs, out))
            layer_samples.append(sample)
            first_trace = first_trace or tracer

        done = walls[False] and (walls[True] or not traced)
        typical = max(statistics.median(w) for w in walls.values() if w)
        if done and time.perf_counter() - start + typical > seconds:
            break
        if traced:
            use_trace = not use_trace
    return SimpleNamespace(walls=walls, steps=steps, setups=setups, loads=loads,
                           layer_samples=layer_samples, first_trace=first_trace,
                           attempted=attempted, failures=failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}"
    try:
        r = measure(workload, args.seed, work, args.seconds, bool(args.trace))
    except (SetupError, ImportError, OSError) as exc:
        print(f"benchmark set-up failed: {exc!r}", file=sys.stderr)
        return 2
    walls, failures, attempted = r.walls, r.failures, r.attempted
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    end_to_end = {"wall_s": statistics.median(walls[False]),
                  "setup_s": statistics.median(r.setups), "peak_rss_mb": peak_rss_mb}
    if args.trace:
        per_layer = dict.fromkeys(tracing.UNITS, 0.0)
        per_layer.update({k: statistics.median(s[k] for s in r.layer_samples)
                          for k in r.layer_samples[0]})
        per_layer["channel.load_s"] = statistics.median(r.loads)
        # the first iteration is untraced and also pays first-touch costs, so
        # it stays out of the comparison when there are others
        untraced = walls[False][1:] or walls[False]
        per_layer["trace.overhead_s"] = (statistics.median(walls[True])
                                         - statistics.median(untraced))
        metrics = {k: {"value": v, "unit": tracing.UNITS[k]}
                   for k, v in sorted(per_layer.items())}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in end_to_end.items()}

    env = environment()
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "metrics": metrics,
        "end_to_end": end_to_end, "iteration_walls_s": walls[False],
        "step_walls_s": r.steps, "setup_s_each": r.setups,
        "traced_iteration_walls_s": walls[True], "attempted": attempted,
        "failed": len(failures), "failed_frac": len(failures) / attempted,
        "failures": failures,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if r.first_trace is not None:
        r.first_trace.dump(results / f"{stem}-spans.json",
                           {"workload": args.workload, "seed": args.seed})

    print("environment " + json.dumps(env, sort_keys=True))
    for f in failures:
        print(f"FAILED iteration {f['iteration']} {f['op']}: {f['error']}")
    print(f"iterations {len(walls[False])} untraced, {len(walls[True])} traced; "
          f"failed_frac {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    for k, v in metrics.items():
        print(f"{k} {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
