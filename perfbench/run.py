"""capinv benchmark: one closed-loop client, four workloads, optional tracing.

    python3 perfbench/run.py --workload {generate,train,invert,sweep} \
        --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout and imports capinv from its src/
directory; it exits non-zero without a result when that is missing. Setup
runs SETUPS times (the last one is kept) and setup_s is their median. The
timed phase then runs operations one after another, each only after the
previous returned, until at least the workload's minimum count is done and
--seconds have passed. Every operation's output is checked outside the
timed region; a failed check counts as a failed operation.

With --trace 0 the result carries the end-to-end metrics; on the
workloads that spend their time in the interpreter their times are scaled
to a reference host speed (see REF_S). With --trace 1
each operation runs twice, once untraced and once with every public capinv
function wrapped (order alternating), and the result carries the
per-layer metrics, including the tracing overhead from the pairs. The last
stdout line is the JSON result. A fuller record (machine, digests, setup
times) and, when tracing, the spans are written under .perfbench/ in the
checkout. BLAS thread settings are taken from the environment as given and
recorded, never changed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
LAYERS = ("fields", "network", "generative", "inverse", "experiments", "cli")
# Bounds of the tracing self-test: time outside any capinv span, and the
# slowdown of traced against untraced runs of the same operations (only a
# slowdown fails; a negative share is run-to-run noise).
MAX_UNATTRIBUTED_SHARE = 0.10
MAX_OVERHEAD_SHARE = 0.25
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "OPENBLAS_CORETYPE")

# The shared host runs Python up to half again slower for seconds or
# minutes at a time, and on the workloads that spend their time in the
# interpreter (Workload.host_scaled) that swamps the spread the bounds
# allow. There a fixed pure-Python loop is timed before and after every
# untraced operation, and each time metric of the operations is scaled by
# the loop's nominal duration, REF_S, over the mean of the two loop times
# around it: the time it would have taken with the host at the loop's
# nominal speed. The loop is benchmark code, so a change to capinv moves
# the scaled times as it moves the wall times, unless it keeps the host
# busy between operations. The unscaled times are kept in the record. Numpy
# and BLAS kernels do not follow the loop's speed, so setup_s and the
# workloads spent in them are not scaled: scaling made their spread worse.
REF_LINE = " ".join(repr(k / 7.0) for k in range(441))
REF_REPS = 16
REF_S = 0.005

END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
}

# (metric, unit, statistic, span name, tag) for metrics read off the spans.
SPAN_METRICS = (
    ("fields.solve_sor.calls", "count", "calls", "fields.solve_sor", None),
    ("fields.solve_sor.p50_ms", "ms", "p50_ms", "fields.solve_sor", None),
    ("fields.solve_sor.self_s", "s", "self_s", "fields.solve_sor", None),
    ("fields.generate_dataset.self_s", "s", "self_s", "fields.generate_dataset", None),
    ("fields.save_dataset.ms", "ms", "p50_ms", "fields.save_dataset", None),
    ("fields.load_dataset.ms", "ms", "p50_ms", "fields.load_dataset", None),
    ("network.forward.calls", "count", "calls", "network.forward", None),
    ("network.forward.p50_us", "us", "p50_us", "network.forward", None),
    ("network.backward.calls", "count", "calls", "network.backward", None),
    ("network.backward.p50_us", "us", "p50_us", "network.backward", None),
    ("network.Momentum.step.p50_us", "us", "p50_us", "network.Momentum.step", None),
    ("network.Adam.step.p50_us", "us", "p50_us", "network.Adam.step", None),
    ("generative.encode.p50_us", "us", "p50_us", "generative.encode", None),
    ("generative.decode.p50_us", "us", "p50_us", "generative.decode", None),
    ("generative.save_model.ms", "ms", "p50_ms", "generative.save_model", None),
    ("generative.load_model.ms", "ms", "p50_ms", "generative.load_model", None),
    ("inverse.fit_pipeline.ms", "ms", "p50_ms", "inverse.fit_pipeline", None),
    ("inverse.fit_regression.ms", "ms", "p50_ms", "inverse.fit_regression", None),
    ("inverse.recover_field.p50_us", "us", "p50_us", "inverse.recover_field", None),
    ("inverse.inverse_predict.p50_us.fullspace", "us", "p50_us", "inverse.inverse_predict", "fullspace"),
    ("inverse.inverse_predict.p50_us.latent", "us", "p50_us", "inverse.inverse_predict", "latent"),
    ("inverse.add_awgn.p50_us", "us", "p50_us", "inverse.add_awgn", None),
    ("inverse.save_pipeline.ms", "ms", "p50_ms", "inverse.save_pipeline", None),
    ("inverse.load_pipeline.ms", "ms", "p50_ms", "inverse.load_pipeline", None),
    ("experiments.run_noise_sweep.self_s", "s", "self_s", "experiments.run_noise_sweep", None),
    ("experiments.ssd.p50_us", "us", "p50_us", "experiments.ssd", None),
    ("experiments.export_results.ms", "ms", "p50_ms", "experiments.export_results", None),
)
# Metrics the workloads report themselves (0 where a workload has none).
EXTRA_METRICS = (
    ("fields.save_dataset.bytes", "bytes"),
    ("generative.model.bytes", "bytes"),
    ("generative.models_canonical", "count"),
    ("experiments.export_results.bytes", "bytes"),
    ("experiments.cells_failed", "count"),
)


def per_layer_units() -> dict:
    units = {m: u for m, u, *_ in SPAN_METRICS}
    units.update(EXTRA_METRICS)
    units["network.self_s"] = "s"
    for label in ("ae_momentum", "vae_momentum", "vae_adam"):
        units[f"generative.train_model.ms_per_iter.{label}"] = "ms/iter"
    units["generative.train_model.self_share"] = "share"
    units["cli.main.self_ms"] = "ms"
    for layer in LAYERS:
        units[f"{layer}.self_share"] = "share"
    units["trace.unattributed_share"] = "share"
    units["trace.overhead_share"] = "share"
    order = LAYERS + ("trace",)
    return dict(sorted(units.items(), key=lambda item: order.index(item[0].split(".", 1)[0])))


# -- machine record ----------------------------------------------------------
def _openblas_threads():
    """Thread count OpenBLAS will use, asked from the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[f"L{level}{suffix}"] = size
    return out


def machine_record() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "blas": blas,
        "blas_threads": _openblas_threads(),
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
        "caches": _caches(),
    }


# -- per-layer analysis ------------------------------------------------------
def layer_metrics(tracer, workload, traced_ops: dict, untraced_walls: dict) -> dict:
    """Per-layer metrics from the spans of the traced operations.

    traced_ops and untraced_walls map op id -> wall seconds of the
    operation run with and without tracing.
    """
    a = tracer.arrays()
    index = {name: i for i, name in enumerate(tracer.span_names)}
    tag_index = {t: i for i, t in enumerate(tracer.tag_names)}
    total_ns = sum(traced_ops.values()) * 1e9
    layer_of = np.array([n.split(".", 1)[0] for n in tracer.span_names] or [""])

    def select(span, tag=None):
        sel = a["name"] == index.get(span, -1)
        if tag is not None:
            sel &= a["tag"] == tag_index.get(tag, -2)
        return sel

    out = {}
    for metric, _unit, stat, span, tag in SPAN_METRICS:
        sel = select(span, tag)
        if not sel.any():
            out[metric] = 0
        elif stat == "calls":
            out[metric] = int(sel.sum())
        elif stat == "self_s":
            out[metric] = float(a["self"][sel].sum()) / 1e9
        else:
            out[metric] = float(np.median(a["dur"][sel])) / (1e6 if stat == "p50_ms" else 1e3)
    span_layer = layer_of[a["name"]] if len(a["name"]) else np.zeros(0, dtype=layer_of.dtype)
    for layer in LAYERS:
        out[f"{layer}.self_share"] = float(a["self"][span_layer == layer].sum()) / total_ns
    out["network.self_s"] = float(a["self"][span_layer == "network"].sum()) / 1e9

    for label in ("ae_momentum", "vae_momentum", "vae_adam"):
        sel = select("generative.train_model", label)
        out[f"generative.train_model.ms_per_iter.{label}"] = (
            float(np.median(a["dur"][sel])) / 1e6 / workload.ITERS if sel.any() else 0)
    train = select("generative.train_model")
    out["generative.train_model.self_share"] = (
        float(a["self"][train].sum() / a["dur"][train].sum()) if train.any() else 0)

    cli_spans = span_layer == "cli"
    cli_per_op = [a["self"][cli_spans & (a["op"] == op)].sum() / 1e6 for op in traced_ops]
    out["cli.main.self_ms"] = float(np.median(cli_per_op)) if cli_spans.any() else 0

    top = a["parent"] == -1
    out["trace.unattributed_share"] = 1.0 - float(a["dur"][top].sum()) / total_ns
    paired = [op for op in traced_ops if op in untraced_walls]
    out["trace.overhead_share"] = 1.0 - (sum(untraced_walls[op] for op in paired)
                                         / sum(traced_ops[op] for op in paired))
    for metric, _unit in EXTRA_METRICS:
        out[metric] = workload.extras.get(metric, 0)
    return out


def trace_selftest(missed: list, workload, metrics: dict) -> list:
    """Reasons the traced run cannot be trusted; empty when it can."""
    problems = [f"public capinv function still bound unwrapped at {where}" for where in missed]
    for layer in workload.layers:
        if metrics[f"{layer}.self_share"] <= 0.0:
            problems.append(f"no time attributed to {layer} on {workload.name}")
    if metrics["trace.unattributed_share"] > MAX_UNATTRIBUTED_SHARE:
        problems.append(f"trace.unattributed_share {metrics['trace.unattributed_share']:.3f} "
                        f"> {MAX_UNATTRIBUTED_SHARE}")
    if metrics["trace.overhead_share"] > MAX_OVERHEAD_SHARE:
        problems.append(f"trace.overhead_share {metrics['trace.overhead_share']:.3f} > {MAX_OVERHEAD_SHARE}")
    return problems


# -- main loop ---------------------------------------------------------------
def import_capinv():
    src = ROOT / "src"
    if not (src / "capinv" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no capinv sources under {src}; run from a capinv checkout")
    sys.path.insert(0, str(src))
    import capinv
    import capinv.cli  # noqa: F401  (the package does not import its CLI module)

    if Path(capinv.__file__).resolve().parent != (src / "capinv").resolve():
        raise SystemExit(f"perfbench: imported capinv from {capinv.__file__}, not from {src}")
    return capinv


def median_total(walls, classes) -> float:
    """The run's wall time with each operation at the median of its class.

    A stall of the shared host lengthens a few operations; a sum of medians
    leaves them out where a plain sum would not.
    """
    by_class = {}
    for wall, cls in zip(walls, classes):
        by_class.setdefault(cls, []).append(wall)
    return sum(len(w) * statistics.median(w) for w in by_class.values())


def reference_loop() -> float:
    """Seconds the fixed reference loop takes now."""
    t0 = time.perf_counter()
    for _ in range(REF_REPS):
        sorted(float(x) for x in REF_LINE.split())
    return time.perf_counter() - t0


def time_metrics(wl, setup_times, walls, cpus, child_cpu, classes, units, peak_rss_mb) -> dict:
    walls_ms = np.asarray(walls) * 1e3
    return {
        "setup_s": statistics.median(setup_times),
        # CPU of the process and its children, per min_ops operations,
        # so that it does not depend on how many operations fit the run.
        "cpu_s": (sum(cpus) + child_cpu) * wl.min_ops / len(walls),
        "peak_rss_mb": peak_rss_mb,
        "throughput_per_s": units / median_total(walls, classes),
        "latency_p50_ms": float(np.percentile(walls_ms, 50)),
        "latency_p90_ms": float(np.percentile(walls_ms, 90)),
    }


def timed(fn, op):
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        out, err = fn(op), None
    except Exception:  # one failed operation must not end the run
        out, err = None, traceback.format_exc()
    t1 = time.perf_counter()
    return out, err, t1 - t0, time.process_time() - c0


def check(workload, op, out, err) -> list:
    """Failure messages of one operation; an output the check cannot read is one."""
    if err is not None:
        return [err]
    try:
        return workload.check(op, out)
    except Exception:
        return [traceback.format_exc()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="capinv benchmark")
    parser.add_argument("--workload", required=True, choices=("generate", "train", "invert", "sweep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    capinv = import_capinv()
    pins = json.loads((HERE / "pins.json").read_text(encoding="ascii"))
    machine = machine_record()
    out_dir = ROOT / ".perfbench"
    tmp = out_dir / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](capinv, args.seed, pins)
        setup_times = []
        for k in range(SETUPS):
            workdir = tmp / f"setup{k}"
            workdir.mkdir()
            t0 = time.perf_counter()
            wl.setup(workdir)
            setup_times.append(time.perf_counter() - t0)
            if k:
                shutil.rmtree(tmp / f"setup{k - 1}")

        tracer = tracing.Tracer() if args.trace else None
        missed = tracer.missed_bindings() if tracer is not None else []
        attempted = failed = 0
        messages = []
        walls, cpus, classes, units = [], [], [], 0
        scaled = tracer is None and wl.host_scaled
        refs = [reference_loop()] if scaled else []
        traced_ops, untraced_walls = {}, {}
        children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t_begin = time.perf_counter()
        n = 0
        for op in wl.ops():
            passes = (False,) if tracer is None else ((False, True) if n % 2 == 0 else (True, False))
            for traced in passes:
                if traced:
                    tracer.install(n)
                out, err, wall, cpu = timed(wl.run, op)
                if traced:
                    tracer.uninstall()
                errors = check(wl, op, out, err)
                attempted += 1
                if errors:
                    failed += 1
                    messages.extend(errors)
                if traced:
                    traced_ops[n] = wall
                else:
                    untraced_walls[n] = wall
                    walls.append(wall)
                    cpus.append(cpu)
                    classes.append(wl.op_class(op))
                    units += wl.units(op)
                    if scaled:
                        refs.append(reference_loop())
            n += 1
            if n >= wl.min_ops and n % wl.block == 0 and time.perf_counter() - t_begin >= args.seconds:
                break
        children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        usage = resource.getrusage(resource.RUSAGE_SELF)

        problems = []
        raw, scales = {}, None
        if tracer is None:
            child_cpu = (children1.ru_utime + children1.ru_stime) - (children0.ru_utime + children0.ru_stime)
            peak_rss_mb = max(usage.ru_maxrss, children1.ru_maxrss) / 1024.0
            raw = time_metrics(wl, setup_times, walls, cpus, child_cpu, classes, units, peak_rss_mb)
            refs = np.asarray(refs)
            scales = 2 * REF_S / (refs[:-1] + refs[1:]) if scaled else np.ones(len(walls))
            values = time_metrics(
                wl, setup_times, np.multiply(walls, scales), np.multiply(cpus, scales),
                child_cpu * float(np.median(scales)), classes, units, peak_rss_mb)
            metric_units = END_TO_END
        else:
            values = layer_metrics(tracer, wl, traced_ops, untraced_walls)
            problems = trace_selftest(missed, wl, values)
            metric_units = per_layer_units()
            tracer.write(out_dir / f"{wl.name}-seed{args.seed}.spans.json.gz")

        result = {
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m: {"value": values[m], "unit": u} for m, u in metric_units.items()},
        }
        record = {
            "workload": wl.name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
            "machine": machine, "digests": wl.digests, "setup_times_s": setup_times,
            "operations": n, "units": units, "unit": wl.unit,
            "reference_loop_s": float(np.median(refs)) if len(refs) else None, "unscaled_metrics": raw,
            "op_wall_s": walls, "op_scale": scales.tolist() if tracer is None else None,
            "failures": messages[:20], "selftest_problems": problems, "result": result,
        }
        (out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1), encoding="ascii")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for text in (messages[:10] + problems):
        print(f"perfbench: {text.rstrip()}", file=sys.stderr)
    print("machine " + json.dumps(machine, sort_keys=True))
    print("digests " + json.dumps(wl.digests, sort_keys=True))
    print(f"{wl.name}: {n} operations, {units} {wl.unit}, {attempted} checked, {failed} failed")
    for m, entry in result["metrics"].items():
        unscaled = f"  (unscaled {raw[m]:.6g})" if m in raw else ""
        print(f"  {m:44s} {entry['value']:>16.6g} {entry['unit']}{unscaled}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
