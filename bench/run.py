"""freeflow benchmark runner.

    python3 bench/run.py --workload exact_small --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One process runs one workload. It imports freeflow from ``src/`` of the
checkout it lives in, builds the inputs from ``--seed`` (set-up, repeated
and timed), then runs the workload's ops as a closed loop: one caller, each
op starting after the previous one returned, in as many whole passes over
the op list as fit in ``--seconds`` at the workload's nominal pass time (at
least one). Every op's result
is checked outside the timers against the acceptance tolerances. With
``--trace 0`` the run reports the end-to-end metrics, in reference seconds
(see ``calibrate.py``); with ``--trace 1`` it reports per-layer metrics from
spans around each module's public functions.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics. ``--workload all`` runs every workload in its own process
and prints one table.

Inputs and reports go to ``.bench_build/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build"

SETUP_REPEATS = 3  # set-up runs per process; setup_s is their median
IMPORT_REPEATS = 5  # interpreter starts per process, likewise
IMPORT_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import freeflow"

END_TO_END_UNITS = {
    "wall_ref_s": "s",
    "op_p50_ref_s": "s",
    "op_p90_ref_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "freeflow" / "__init__.py").is_file():
        print(f"freeflow sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import freeflow as ff
    import freeflow.cli  # noqa: F401  (ops call ff.cli.main)
    import freeflow.io  # noqa: F401

    if Path(ff.__file__).resolve().parent != SRC / "freeflow":
        print(f"imported freeflow from {ff.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import tracer as tracing
    from workloads import SETUPS

    if args.workload not in SETUPS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(SETUPS)}", file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        setup_s, workload = timed_setup(ff, SETUPS[args.workload], workdir, args.seed)
        if args.trace:
            result = traced_run(tracing, workload, args.seconds)
        else:
            result = untraced_run(workload, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = provenance(ff, args, workload, result)
    report_dir = WORK_ROOT / "reports"
    report_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(report_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(
            {"provenance": info, "plain_s": result.get("plain"),
             "op_latencies_s": result["op_latencies"], **result["summary"]},
            fh, indent=2,
        )
    if args.trace:
        result["tracer"].write(report_dir / f"{stem}-spans.jsonl")

    print_summary(info, result)
    print(json.dumps(result["summary"]))
    return 0


# -- set-up -----------------------------------------------------------------


def timed_setup(ff, setup, workdir, seed):
    """Median of repeated (interpreter + import) and (inputs + warm-up),
    in reference seconds.

    Interpreter start and package import are timed in fresh child
    processes, input generation, file writing and warm-up in this one;
    both are scaled by reference samples taken around and during them,
    as in the timed phase. The workload built by the last repeat is the
    one measured.
    """
    def build(subdir):
        workload = setup(ff, subdir, seed)
        for warm in workload.warmup:
            warm()
        return workload

    sampler = calibrate.Sampler()
    imports, builds = [], []
    sampler.arm()
    try:
        for _ in range(IMPORT_REPEATS):
            _, _, seconds = sampler.measure(lambda: subprocess.run(
                [sys.executable, "-c", IMPORT_CODE, str(SRC)],
                check=True, cwd=ROOT, timeout=120,
            ), in_child=True)
            imports.append(seconds)
        for i in range(SETUP_REPEATS):
            subdir = os.path.join(workdir, f"setup{i}")
            os.mkdir(subdir)
            workload, _, seconds = sampler.measure(lambda: build(subdir))
            builds.append(seconds)
            if i + 1 < SETUP_REPEATS:
                shutil.rmtree(subdir)
                del workload
    finally:
        sampler.disarm()
    return statistics.median(imports) + statistics.median(builds), workload


# -- timed phase ------------------------------------------------------------


def pass_count(workload, seconds):
    """Whole passes that fit in ``seconds`` at the nominal pass time, at
    least one. Fixed by the arguments, not by the host's speed, so every
    run of a workload does the same work."""
    return max(1, int(seconds // workload.pass_s))


def run_passes(ops, passes, tracer=None, array_share=0.0):
    """Closed loop over ``passes`` whole passes of ``ops``.

    Untraced, each op runs inside ``calibrate.Sampler.measure``:
    host-speed reference samples before, during and after it, weighted
    by ``array_share``. Returns ``(samples, scaled, failures)``:
    ``samples[i]`` holds op i's latency in seconds in each pass,
    ``scaled[i]`` the same latencies in reference seconds (``None``
    when traced), and failures are (label, message) pairs. An op that
    raises fails; its latency is still recorded. Checks run outside
    every timer.
    """
    samples = [[] for _ in ops]
    scaled = [[] for _ in ops]
    failures = []
    op_id = 0
    sampler = calibrate.Sampler(array_share) if tracer is None else None

    def attempt(op):
        try:
            return op.run(), None
        except Exception as exc:  # an op that raises is a failure, never skipped
            traceback.print_exc(file=sys.stderr)
            return None, f"{type(exc).__name__}: {exc}"

    if sampler is not None:
        sampler.arm()
    try:
        for _ in range(passes):
            for i, op in enumerate(ops):
                op_id += 1
                if sampler is None:
                    tracer.op = op_id
                    t0 = time.perf_counter()
                    result, problem = attempt(op)
                    elapsed, ref = time.perf_counter() - t0, None
                    tracer.op = None
                else:
                    (result, problem), elapsed, ref = sampler.measure(
                        lambda: attempt(op), threaded=op.threaded
                    )
                samples[i].append(elapsed)
                scaled[i].append(ref)
                if problem is None:
                    try:
                        problem = op.check(result)
                    except Exception as exc:
                        problem = f"check raised {type(exc).__name__}: {exc}"
                if problem is not None:
                    failures.append((op.label, problem))
                    print(f"FAILED {op.label}: {problem}", file=sys.stderr)
    finally:
        if sampler is not None:
            sampler.disarm()
    return samples, scaled, failures


def untraced_run(workload, seconds, setup_s):
    """End-to-end metrics from each op's median pass, in reference seconds.

    The host's speed drifts by tens of percent over seconds; scaling each
    op by reference samples taken around it removes most of that drift,
    and the median over passes the odd interrupted op. Plain seconds are
    kept in the report and the printed summary.
    """
    samples, scaled, failures = run_passes(
        workload.ops, pass_count(workload, seconds), array_share=workload.array_share
    )
    ref = [statistics.median(latencies) for latencies in scaled]
    plain = [statistics.median(latencies) for latencies in samples]
    values = {
        "wall_ref_s": sum(ref),
        "op_p50_ref_s": statistics.median(ref),
        "op_p90_ref_s": statistics.quantiles(ref, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in END_TO_END_UNITS.items()
    }
    return {
        "summary": summary(samples, failures, metrics),
        "passes": len(samples[0]),
        "plain": {
            "wall_s": sum(plain),
            "op_p50_s": statistics.median(plain),
            "op_p90_s": statistics.quantiles(plain, n=10, method="inclusive")[8],
        },
        "op_latencies": [
            [op.label, lat, lat_ref]
            for op, lat, lat_ref in zip(workload.ops, samples, scaled)
        ],
    }


def traced_run(tracing, workload, seconds):
    """One untraced pass as the overhead baseline, then traced passes.

    Per-layer figures are per pass, so they do not depend on how many
    passes ``seconds`` allows.
    """
    base, _, failures = run_passes(workload.ops, 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        samples, _, more = run_passes(workload.ops, pass_count(workload, seconds), tracer=tracer)
    finally:
        tracer.uninstall()
    failures += more
    passes = len(samples[0])
    per_name = tracing.self_times(tracer.spans)
    metrics = {}
    for name in tracing.LAYER_NAMES:
        calls, busy = per_name.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = {"value": calls / passes, "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": busy / passes, "unit": "s"}
    for name in tracing.COUNTERS:
        metrics[name] = {"value": tracer.counts[name] / passes, "unit": "count"}
    iterations = tracer.counts["freenorm.field_iterations"]
    field_self = per_name.get("freenorm.beckmann_field", (0, 0.0))[1]
    metrics["freenorm.field_s_per_iter"] = {
        "value": field_self / iterations if iterations else 0.0,
        "unit": "s",
    }
    traced_wall = sum(map(sum, samples)) / passes
    metrics["trace_overhead_frac"] = {
        "value": traced_wall / sum(map(sum, base)) - 1.0,
        "unit": "frac",
    }
    return {
        "summary": summary(base + samples, failures, metrics),
        "passes": passes,
        "op_latencies": [[op.label, lat] for op, lat in zip(workload.ops, samples)],
        "tracer": tracer,
    }


def summary(samples, failures, metrics):
    return {
        "correct": not failures,
        "attempted": sum(map(len, samples)),
        "failed": len(failures),
        "metrics": metrics,
    }


# -- reporting --------------------------------------------------------------


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def provenance(ff, args, workload, result):
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "freeflow": ff.__version__,
        "ops_per_pass": len(workload.ops),
        "passes": result["passes"],
        "mesh_vertices": workload.meshes,
        "absent_layers": getattr(result.get("tracer"), "absent", []),
        "hook_failures": sorted(getattr(result.get("tracer"), "hook_failures", ())),
    }


def print_summary(info, result):
    s = result["summary"]
    print(
        f"# {info['workload']} seed={info['seed']} trace={info['trace']} "
        f"git={info['git_sha']} nproc={info['nproc']} python={info['python']} "
        f"numpy={info['numpy']} scipy={info['scipy']}"
    )
    print(
        f"# ops/pass={info['ops_per_pass']} passes={info['passes']} "
        f"attempted={s['attempted']} failed={s['failed']} "
        f"failed_frac={s['failed'] / s['attempted']:.4f} meshes={info['mesh_vertices']}"
    )
    if info["absent_layers"] or info["hook_failures"]:
        print(f"# absent layers: {info['absent_layers']}; hook failures: {info['hook_failures']}")
    for name, value in result.get("plain", {}).items():
        print(f"# {name:43s} {value:.6g} s (plain seconds, not gated)")
    for name, metric in s["metrics"].items():
        print(f"{name:45s} {metric['value']:.6g} {metric['unit']}")


def run_all(args):
    """Each workload in its own process; one table of every metric."""
    from workloads import SETUPS

    combined, attempted, failed = {}, 0, 0
    rows = []
    for name in SETUPS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        rows.append((name, result))
        for metric, entry in result["metrics"].items():
            combined[f"{name}.{metric}"] = entry
    for name, result in rows:
        print(
            f"# {name}: attempted={result['attempted']} failed={result['failed']} "
            f"failed_frac={result['failed'] / result['attempted']:.4f}"
        )
    for metric, entry in combined.items():
        print(f"{metric:58s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
