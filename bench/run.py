"""Benchmark for su2strata: four seeded workloads, each a closed loop
with one client, run in-process against the library and the CLI.

    python3 bench/run.py --workload lens-moduli --seed 1 --seconds 25 --trace 0

Run from the repository root.  With `--trace 0` the workload runs in
whole passes, each with fresh inputs, for about `--seconds`, untraced,
and the end-to-end metrics are printed.  With `--trace 1`, untraced and
traced passes over the same inputs alternate, and the per-layer metrics
come from the traced passes, per pass.  Every output is checked; the
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  Spans and a run record go to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 15
REF_STEPS = 400             # about 20 ms of reference kernel
REF_EVERY_S = 0.25          # op time between reference timings
REF_NOMINAL_S = 0.020       # setup_s is scaled to a reference run this long
TAIL_PERMILLE = (999, 990, 950, 900, 750)       # op_tail_ms candidates

# gated metrics; op times are in units of the reference kernel's run time,
# and setup_s is scaled to a machine where that run takes REF_NOMINAL_S
END_TO_END = {"setup_s": "s", "ops_per_ref": "op/ref", "op_p50_ref": "ref",
              "peak_rss_mb": "MB"}
RAW = {"ops_per_s": "op/s", "op_p50_ms": "ms", "setup_raw_s": "s"}
# self time is reported for the functions every workload calls
SELF_TIMED = ("su2.ad", "presentations.Representation.__init__",
              "presentations.relator_residual", "cohomology.system_d0",
              "cohomology.system_d1", "cohomology.system_cohomology",
              "strata.classify_stratum", "numpy.linalg.svd")
PER_OP = ("cohomology.system_cohomology", "invariants.find_conjugator")


def per_layer_units(traced: list) -> dict:
    units = {f"{name}.calls": "count" for name in traced}
    units.update({f"{name}.self_s": "s" for name in SELF_TIMED})
    units.update({f"{name}.per_op": "calls/op" for name in PER_OP})
    units["cli.stdout_bytes"] = "B/op"
    units["trace.overhead_ratio"] = "1"
    return units


def load_package():
    """Import su2strata afresh from src/, dropping any loaded copy."""
    for name in [m for m in sys.modules
                 if m == "su2strata" or m.startswith("su2strata.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    lib = importlib.import_module("su2strata")
    importlib.import_module("su2strata.cli")
    if os.path.dirname(os.path.dirname(lib.__file__)) != SRC:
        raise SystemExit(f"bench: su2strata imported from {lib.__file__}")
    return lib


def package_modules() -> dict:
    return {name.rpartition(".")[2]: mod for name, mod in sys.modules.items()
            if name == "su2strata" or name.startswith("su2strata.")}


def reference_seconds() -> float:
    """Time one run of a frozen kernel shaped like the package's hot path
    (Hamilton products, Ad matrices, d0-style stacking, small SVDs).

    The kernel never changes, so op times divided by its time compare
    code versions even while the machine's speed drifts.
    """
    import numpy as np

    t0 = time.perf_counter()
    p = np.array([1.0, 0.0, 0.0, 0.0])
    q = np.array([0.9, 0.1, 0.3, 0.2]) / np.linalg.norm([0.9, 0.1, 0.3, 0.2])
    d = np.zeros((24, 3))
    for i in range(REF_STEPS):
        w = p[0] * q[0] - p[1:] @ q[1:]
        v = p[0] * q[1:] + q[0] * p[1:] + np.cross(p[1:], q[1:])
        p = np.empty(4)
        p[0], p[1:] = w, v
        p /= np.linalg.norm(p)
        k = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]],
                      [-v[1], v[0], 0.0]])
        j = i % 8
        d[3 * j:3 * j + 3] = ((w * w - v @ v) * np.eye(3)
                              + 2.0 * np.outer(v, v) + 2.0 * w * k
                              - np.eye(3))
        if j == 7:
            np.linalg.svd(d)
    return time.perf_counter() - t0


@dataclass
class Pass:
    """What a pass leaves behind once its outputs are checked."""

    labels: list                        # size class of each op
    seconds: list                       # latency of each op
    digests: list                       # sha256 of each output, or None
    problems: dict                      # op index -> problems found
    refs: list = field(default_factory=list)    # reference s around each op
    cli_bytes: list = field(default_factory=list)


def run_pass(ops, tracer=None, calibrate=False) -> Pass:
    """Run every op once, then check the outputs (outside the timing).

    With `calibrate`, the reference kernel is also timed before the pass
    and after every REF_EVERY_S of op time; each op is given the mean of
    the two reference times around it.
    """
    done = Pass([op.label for op in ops], [], [], {})
    texts = []
    if calibrate:
        last, first, busy = reference_seconds(), 0, 0.0
    for op in ops:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                text = op.run()
            else:
                with tracer.span("op"):
                    text = op.run()
        except Exception as e:          # a failed op is counted, not fatal
            text, err = None, f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
        done.seconds.append(dt)
        texts.append(text if text is not None else err)
        done.digests.append(None if text is None
                            else hashlib.sha256(text.encode()).hexdigest())
        if calibrate:
            busy += dt
            if busy >= REF_EVERY_S or len(texts) == len(ops):
                now = reference_seconds()
                done.refs.extend([(last + now) / 2] * (len(texts) - first))
                last, first, busy = now, len(texts), 0.0
    for i, (op, text, digest) in enumerate(zip(ops, texts, done.digests)):
        if digest is None:
            done.problems[i] = [text]
            continue
        if op.cli:
            done.cli_bytes.append(len(text.encode()))
        try:
            found = op.check(text)
        except (KeyError, TypeError, ValueError) as e:
            found = [f"malformed output: {type(e).__name__}: {e}"]
        if found:
            done.problems[i] = found
    return done


def failures(passes, twins=()) -> dict:
    """(pass, op) -> problems.  In each twin pair of passes, run on the
    same inputs, the second must repeat the first's output bytes."""
    out = {(k, i): found for k, p in enumerate(passes)
           for i, found in p.problems.items()}
    for a, b in twins:
        for i, (x, y) in enumerate(zip(passes[a].digests, passes[b].digests)):
            if x != y:
                out.setdefault((b, i), []).append(
                    f"output differs from pass {a}")
    return out


def digest(p: Pass) -> str:
    h = hashlib.sha256()
    for d in p.digests:
        h.update((d or "failed").encode())
    return h.hexdigest()


def tail(latencies) -> tuple:
    """(percentile, value, samples beyond) at the highest listed
    percentile with at least ten samples beyond it, or None."""
    xs = sorted(latencies)
    for pm in TAIL_PERMILLE:
        beyond = len(xs) * (1000 - pm) // 1000
        if beyond >= 10:
            return pm / 10, xs[len(xs) - beyond - 1], beyond
    return None


def git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def run_record(args) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS,
            "cpu_count": os.cpu_count(), "git_commit": git_commit(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def measure(args, workloads) -> tuple:
    """Untraced run: set-up timing, then whole passes for --seconds.
    Inputs for each later pass are generated outside the timed region."""
    setups, scaled, before = [], [], reference_seconds()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lib = load_package()
        ops = workloads.build(args.workload, lib, args.seed, 0, OUT)
        setups.append(time.perf_counter() - t0)
        after = reference_seconds()
        scaled.append(setups[-1] * REF_NOMINAL_S / ((before + after) / 2))
        before = after

    passes, t0 = [], time.perf_counter()
    while True:
        if passes:
            ops = workloads.build(args.workload, lib, args.seed,
                                  len(passes), OUT)
        p0 = time.perf_counter()
        passes.append(run_pass(ops, calibrate=True))
        now = time.perf_counter()
        if now - t0 + (now - p0) / 2 >= args.seconds:
            break

    problems = failures(passes)
    lat = [dt for p in passes for dt in p.seconds]
    rel = [[dt / ref for dt, ref in zip(p.seconds, p.refs)] for p in passes]
    by_label = {}
    for p in passes:
        for label, dt in zip(p.labels, p.seconds):
            by_label.setdefault(label, []).append(dt)
    metrics = {
        "setup_s": statistics.median(scaled),
        "ops_per_ref": statistics.median(len(r) / sum(r) for r in rel),
        "op_p50_ref": statistics.median(x for r in rel for x in r),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ops_per_s": statistics.median(len(p.seconds) / sum(p.seconds)
                                       for p in passes),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "setup_raw_s": statistics.median(setups),
    }
    info = {"ops": len(lat), "passes": len(passes), "op_s": sum(lat),
            "ref_ms": 1e3 * statistics.median(r for p in passes
                                              for r in p.refs),
            "failed_ratio": len(problems) / len(lat), "tail": tail(lat),
            "digest": digest(passes[0]), "problems": problems,
            "by_label": {k: (statistics.median(v), len(v))
                         for k, v in sorted(by_label.items())}}
    return metrics, len(lat), len(problems), info


def measure_traced(args, workloads, spans) -> tuple:
    """Alternate untraced and traced passes over the same inputs for
    --seconds; per-layer figures are per traced pass, which includes
    generating its inputs."""
    import numpy as np

    lib = load_package()
    tracer = spans.Tracer()
    plain_wall = traced_wall = 0.0
    passes, absent, n_ops = [], [], 0
    while True:
        k = len(passes) // 2
        t0 = time.perf_counter()
        ops = workloads.build(args.workload, lib, args.seed, k, OUT)
        passes.append(run_pass(ops))
        t1 = time.perf_counter()
        restore, absent = spans.install(tracer, package_modules())
        try:
            with tracer.span("setup"):
                ops = workloads.build(args.workload, lib, args.seed, k, OUT)
            passes.append(run_pass(ops, tracer))
        finally:
            restore()
        t2 = time.perf_counter()
        n_ops += len(ops)
        plain_wall += t1 - t0
        traced_wall += t2 - t1
        if plain_wall + traced_wall + (t2 - t0) / 2 >= args.seconds:
            break
    n_traced = len(passes) // 2
    problems = failures(passes, [(a, a + 1)
                                 for a in range(0, len(passes), 2)])

    traced = spans.traced_names()
    row = {name: tracer.intern(name) for name in traced}
    a = tracer.arrays()
    calls, self_s = spans.self_times(a["name"], a["parent"], a["start"],
                                     a["end"], len(tracer.names))
    calls, self_s = calls / n_traced, self_s / n_traced
    in_op = a["name"][spans.roots(a["parent"])] == tracer.intern("op")
    op_calls = np.bincount(a["name"][in_op], minlength=len(tracer.names))
    metrics = {f"{name}.calls": int(round(calls[row[name]]))
               for name in traced}
    metrics.update({f"{name}.self_s": float(self_s[row[name]])
                    for name in SELF_TIMED})
    metrics.update({f"{name}.per_op": float(op_calls[row[name]]) / n_ops
                    for name in PER_OP})
    cli_bytes = [b for p in passes[::2] for b in p.cli_bytes]
    metrics["cli.stdout_bytes"] = (sum(cli_bytes) / len(cli_bytes)
                                   if cli_bytes else 0.0)
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall

    tracer.save(os.path.join(OUT, f"spans-{args.workload}.npz"))
    n = sum(len(p.seconds) for p in passes)
    info = {"ops": n, "traced_passes": n_traced,
            "traced_wall_s": traced_wall, "untraced_wall_s": plain_wall,
            "spans": int(a["name"].size), "absent": absent,
            "layers": {name: {"calls_per_pass": float(calls[i]),
                              "self_s_per_pass": float(self_s[i])}
                       for i, name in enumerate(tracer.names)},
            "digest": digest(passes[0]), "problems": problems}
    return metrics, n, len(problems), info


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_end_to_end(metrics, info):
    for name, unit in {**END_TO_END, **RAW}.items():
        print(f"{name:<14} {_fmt(metrics[name]):>12} {unit}")
    if info["tail"] is not None:
        pct, value, beyond = info["tail"]
        print(f"{'op_tail_ms':<14} {_fmt(1e3 * value):>12} ms   "
              f"(p{pct:g}, {beyond} samples beyond)")
    else:
        print(f"{'op_tail_ms':<14} {'-':>12} ms   (under 10 samples beyond "
              f"p{TAIL_PERMILLE[-1] / 10:g})")
    print(f"{'failed_ratio':<14} {_fmt(info['failed_ratio']):>12} 1")
    print(f"reference kernel median {info['ref_ms']:.3f} ms")
    print(f"ops {info['ops']} in {info['passes']} passes, "
          f"{info['op_s']:.3f} s of op time; p50 over {info['ops']} samples")
    for label, (med, count) in info["by_label"].items():
        print(f"  {label:<12} median {1e3 * med:10.3f} ms over {count}")


def print_layers(metrics, info):
    print(f"traced passes {info['traced_passes']}, spans {info['spans']}, "
          f"traced {info['traced_wall_s']:.3f} s vs untraced "
          f"{info['untraced_wall_s']:.3f} s")
    wall = info["traced_wall_s"] / info["traced_passes"]
    print(f"{'span':<46} {'calls/pass':>11} {'self s/pass':>12} "
          f"{'us/call':>10} {'share':>7}")
    for name, row in info["layers"].items():
        c, s = row["calls_per_pass"], row["self_s_per_pass"]
        per = f"{1e6 * s / c:10.2f}" if c else f"{'-':>10}"
        print(f"{name:<46} {c:11.0f} {s:12.6f} {per} {s / wall:7.2%}")
    for name in info["absent"]:
        print(f"{name:<46} absent from the package")
    for key in sorted(metrics):
        if not key.endswith((".calls", ".self_s")):
            print(f"{key:<46} {_fmt(metrics[key])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "su2strata", "__init__.py")):
        sys.exit(f"bench: no su2strata sources under {SRC}")
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS

    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)

    record = run_record(args)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    if args.trace:
        metrics, attempted, failed, info = measure_traced(args, workloads,
                                                          spans)
        units = per_layer_units(spans.traced_names())
        print_layers(metrics, info)
    else:
        metrics, attempted, failed, info = measure(args, workloads)
        units = END_TO_END
        print_end_to_end(metrics, info)
    info["problems"] = {f"pass {k} op {i}": found for (k, i), found
                        in sorted(info["problems"].items())}
    for where, found in info["problems"].items():
        print(f"{where} FAILED: " + "; ".join(found[:3]))
    print(f"digest {info['digest']} (first pass)")
    print("run_record " + json.dumps(record, sort_keys=True))

    with open(os.path.join(OUT, f"{args.workload}-trace{args.trace}.json"),
              "w", encoding="utf-8") as f:
        json.dump({"run_record": record, "metrics": metrics, "info": info},
                  f, indent=1, sort_keys=True)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
