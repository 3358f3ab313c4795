#!/usr/bin/env python3
"""sqgdiag benchmark: end-to-end metrics per workload, per-layer on request.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload decay_pipeline --seed 1 --seconds 25 --trace 0

``--trace 0`` repeats whole units of the workload until the next one would
end past ``--seconds`` (at least one unit) and reports the end-to-end
metrics as medians over units.  ``--trace 1`` runs one untraced unit and
then one unit with the layer wrappers installed, and reports the per-layer
metrics of the traced unit plus the tracing overhead.  Without
``--workload`` every workload runs in its own child process.  The last
line of standard output is one JSON object with keys correct, attempted,
failed and metrics; ``attempted`` and ``failed`` count correctness checks.

The package is imported from ``src/`` of the checkout and nowhere else;
without it the benchmark exits with a non-zero status and prints no result.
"""

import os

# Single-threaded compute: cap every BLAS / OpenMP pool before numpy loads.
THREAD_CAPS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
SETUP_SAMPLES = 3
BYTES_NOTE = (
    "byte counts are computed from array sizes, not measured bandwidth; a 256^2 "
    "half-spectrum (~0.5 MB) fits in the last-level cache, so no bandwidth claim is made"
)


def import_package():
    """Put the checkout's src/ first on sys.path and import sqgdiag from it."""
    if not (SRC / "sqgdiag" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'sqgdiag'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import sqgdiag

    if Path(sqgdiag.__file__).resolve().parent != SRC / "sqgdiag":
        sys.exit(f"perfbench: sqgdiag imported from {sqgdiag.__file__}, not {SRC}")


def machine_record():
    import numpy
    import scipy

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    model = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    llc_level, llc_size = 0, None
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")) if cache.is_dir() else ():
        level = int(read(index / "level") or 0)
        if level >= llc_level:
            llc_level, llc_size = level, read(index / "size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "last_level_cache": f"L{llc_level} {llc_size}" if llc_size else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": dict(THREAD_CAPS),
        "scipy_fft_workers": 1,
        "note": BYTES_NOTE,
    }


def timed_setup(workload_name, seed):
    """Imports plus one unit's inputs and scratch dir, as every run pays them.

    Returns (seconds, resolved seed)."""
    start = time.perf_counter()
    import_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    seed = workload.default_seed if seed is None else seed
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="setup-", dir=OUT)
    try:
        workload.prepare(seed, scratch)
        return time.perf_counter() - start, seed
    finally:
        shutil.rmtree(scratch)


def median_setup(workload_name, seed, own_seconds):
    """Median of this process's set-up and that of fresh child processes."""
    times = [own_seconds]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload_name,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def run_unit(workload, seed, scratch, checks, tracer=None):
    """Prepare and execute one unit; with a tracer, trace only the execution."""
    import layers
    from workloads import Phases

    inputs = workload.prepare(seed, scratch)
    phase = Phases(tracer)
    if tracer is not None:
        layers.install(tracer)
    try:
        start = time.perf_counter()
        steps, scalars = workload.execute(inputs, phase, checks)
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    for key, value in workload.reference.get(seed, {}).items():
        checks.close_to(f"seed {seed}: {key}", scalars[key], value)
    sim, verify = phase.seconds["simulate"], phase.seconds["verify"]
    return {"seed": seed, "wall_s": wall, "simulate_s": sim, "verify_s": verify,
            "steps": steps, "steps_per_s": steps / sim, "scalars": scalars}


def run_workload(args):
    own_setup, seed = timed_setup(args.workload, args.seed)
    setup_s = None if args.trace else median_setup(args.workload, seed, own_setup)
    from workloads import WORKLOADS, Checks

    workload = WORKLOADS[args.workload]

    import layers
    from tracer import Tracer

    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    checks = Checks()
    units = []
    layer_values, tracer = {}, None
    try:
        start = time.perf_counter()
        while True:
            units.append(run_unit(workload, seed + len(units), scratch, checks))
            typical = statistics.median(u["wall_s"] for u in units)
            if args.trace or time.perf_counter() - start + typical > args.seconds:
                break
        if hasattr(workload, "final_checks"):
            workload.final_checks(checks)
        if args.trace:
            tracer = Tracer()
            traced = run_unit(workload, seed + len(units), scratch, checks, tracer)
            layer_values = layers.metrics(tracer)
            layer_values["trace.wall_s"] = traced["wall_s"]
            layer_values["trace.overhead_frac"] = traced["wall_s"] / units[0]["wall_s"] - 1.0
    finally:
        shutil.rmtree(scratch)

    failed = checks.failed
    attempted = len(checks.results)
    if args.trace:
        values = layer_values
    else:
        values = {
            key: statistics.median(u[key] for u in units)
            for key in ("wall_s", "simulate_s", "verify_s", "steps_per_s")
        }
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["checks_passed_frac"] = (attempted - len(failed)) / attempted
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC[kind]}

    machine = machine_record()
    record = {
        "workload": workload.name,
        "why": WORKLOAD_WHY[workload.name],
        "seed": seed,
        "trace": args.trace,
        "machine": machine,
        "units": units,
        "checks": checks.results,
        "metrics": metrics,
    }
    if tracer is not None:
        verify_self = tracer.self_by_name_under("phase.verify")
        record["verify_self_s_top"] = sorted(verify_self.items(), key=lambda kv: -kv[1])[:8]
        record["absent_hooks"] = tracer.absent
        spans_path = OUT / f"spans-{workload.name}-seed{seed}.json"
        spans_path.write_text(json.dumps(tracer.to_json()))
    tag = f"{workload.name}-seed{seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1, default=float))

    print(f"# {workload.name} (seed {seed}, {len(units)} unit(s)): {WORKLOAD_WHY[workload.name]}")
    print("# machine: " + ", ".join(f"{k} {v}" for k, v in machine.items() if k != "note"))
    print(f"# {BYTES_NOTE}")
    for name in failed:
        print(f"# CHECK FAILED: {name}")
    if tracer is not None:
        print("# verify-phase self time, largest first:")
        for name, secs in record["verify_self_s_top"]:
            print(f"#   {name:32s} {secs:9.3f} s")
        if tracer.absent:
            print(f"# absent hooks: {', '.join(tracer.absent)}")
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))


def run_all(args):
    """Each workload in its own child process; metrics keyed workload/metric."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_WHY:
        cmd = [sys.executable, __file__, "--workload", name, "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOAD_WHY))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the acceptance suite's seed)")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        print(json.dumps({"setup_s": timed_setup(args.workload, args.seed)[0]}))
    elif args.workload is None:
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
