#!/usr/bin/env python3
"""scalex benchmark: one closed-loop client driving the ``scalex`` CLI.

Run from the repository root:

    python3 benchmark/run.py --workload decide --seed 1 --seconds 58 --trace 0

``--trace 0`` measures the end-to-end metrics.  One client starts one
``python -m scalex ...`` child at a time and waits for it; each operation is
timed from spawn to exit, and its CPU time and peak RSS are read with
``os.wait4``.  ``--trace 1`` replays the same operations in-process through
``scalex.cli.main``, alternating untraced and traced passes, and reports the
per-layer metrics plus the tracing overhead.  Every operation's exit code and
JSON report are checked against the truth planted in its inputs.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The run environment, the tail
percentile and the spans of a traced run are written under ``.bench_work/``.
"""

import os

# Pinned before numpy loads, here and (through the environment) in every child.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from typing import NamedTuple  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 5
TRACE_MAX_PASSES = 20
IMPORT_PROBES = 5
MB = 1e6

OPERATOR_FNS = (
    "synthesize",
    "realize",
    "scaling_defect",
    "classify_properness",
    "infinite_projection_witness",
    "estimate_spectrum",
)
MATIO_FNS = ("save_matrix", "load_matrix", "save_model", "load_model")
COUNTED = ("svd", "eigh", "norm2")

IMPORT_PROBE = (
    "import time\nt = time.perf_counter()\nimport scalex.cli\n"
    "print((time.perf_counter() - t) * 1e3)"
)
NUMPY_PROBE = (
    "import contextlib, io, sys\nfrom scalex.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    main(['classify', '--spec', '{\"intervals\": [[0, 0], [0.5, 0.5], [1, 1]]}'])\n"
    "print(int('numpy' in sys.modules))"
)


class Child(NamedTuple):
    code: int
    stdout: str
    wall_s: float
    cpu_s: float
    maxrss_kb: int


def child_env() -> dict:
    """The caller's environment, without settings that change what is measured.

    Bytecode writing stays on, so the warm-up call leaves the cache that an
    installed package has and later calls do not recompile the sources.
    """
    env = {k: v for k, v in os.environ.items() if k not in ("SCALEX_SEED", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = SRC
    return env


def spawn(cmd: list[str], env: dict) -> Child:
    """Run one child to completion; wall time from spawn to exit, rusage from wait4."""
    with open(os.path.join(WORK, "child.stderr"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    return Child(proc.returncode, out.decode(), wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def scalex_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "scalex", *argv]


def setup(name: str, seed: int, workdir: str, env: dict, repeats: int):
    """Generate and write the inputs, then one untimed warm-up call; seconds of each repeat."""
    times = []
    for _ in range(repeats):
        shutil.rmtree(workdir, ignore_errors=True)
        start = time.perf_counter()
        ops = workloads.make(name, seed, workdir)
        spawn(scalex_cmd(ops[0].argv), env)
        times.append(time.perf_counter() - start)
    return ops, times


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def timed_run(ops, env: dict, seconds: float, setup_s: float):
    runs: list[Child] = []
    walls_by_op: dict[int, list[float]] = defaultdict(list)
    failures: list[str] = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        op = ops[i % len(ops)]
        if op.starts_group and time.perf_counter() >= deadline:
            break
        child = spawn(scalex_cmd(op.argv), env)
        runs.append(child)
        walls_by_op[i % len(ops)].append(child.wall_s)
        reason = workloads.judge(op, child.code, child.stdout)
        if reason:
            failures.append(f"{op.argv[0]}: {reason}")
        i += 1
    elapsed = time.perf_counter() - start
    lat = [1e3 * c.wall_s for c in runs]
    tail_ms, tail_pct = tail(lat)
    # The host's speed moves in phases of tens of seconds.  A mean over the
    # run moves in proportion to the share of the run a phase covers; the
    # median of a mix of operations with different costs jumps between them.
    # So p50 is taken over the cycle's operations, each at its mean wall time.
    per_op_ms = [1e3 * statistics.fmean(w) for w in walls_by_op.values()]
    metrics = {
        "ops_per_s": (len(runs) / elapsed, "1/s"),
        "latency_ms_p50": (statistics.median(per_op_ms), "ms"),
        "latency_ms_tail": (tail_ms, "ms"),
        "cpu_ms_per_op": (statistics.fmean(1e3 * c.cpu_s for c in runs), "ms"),
        "peak_rss_mb": (max(c.maxrss_kb for c in runs) * 1024 / MB, "MB"),
        "setup_s": (setup_s, "s"),
    }
    notes = {
        "elapsed_s": elapsed,
        "samples": len(runs),
        "pooled_latency_ms_p50": statistics.median(lat),
        "tail_percentile": tail_pct,
    }
    return metrics, len(runs), failures, notes


def call_main(cli, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(list(argv))
        except Exception:  # an uncaught error is a failed operation, not a crash
            return 1, traceback.format_exc()
    return code, buf.getvalue()


def run_op(cli, matio, op, tracer: Tracer | None, failures: list[str]) -> float:
    """One in-process invocation, traced or not; seconds inside main()."""
    if tracer is not None:
        tracer.install(cli, matio)
    try:
        start = time.perf_counter()
        if tracer is None:
            code, out = call_main(cli, op.argv)
        else:
            with tracer.span("cli.main", "cli"):
                code, out = call_main(cli, op.argv)
        seconds = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    reason = workloads.judge(op, code, out)
    if reason:
        failures.append(f"{op.argv[0]}: {reason}")
    return seconds


def probes(env: dict) -> dict:
    imports = [float(spawn([sys.executable, "-c", IMPORT_PROBE], env).stdout) for _ in range(IMPORT_PROBES)]
    numpy_loaded = int(spawn([sys.executable, "-c", NUMPY_PROBE], env).stdout)
    return {"cli.import_ms": (statistics.median(imports), "ms"), "cli.numpy_on_decide": (numpy_loaded, "flag")}


def traced_run(ops, env: dict, seconds: float):
    sys.path.insert(0, SRC)
    import scalex.cli as cli
    import scalex.matio as matio

    tracer = Tracer()
    failures: list[str] = []
    time_in = {False: 0.0, True: 0.0}
    deadline = time.perf_counter() + seconds
    passes, pass_s = 0, 0.0
    # whole passes only, and none that would end past the deadline
    while passes < TRACE_MAX_PASSES and (passes == 0 or time.perf_counter() + pass_s <= deadline):
        start = time.perf_counter()
        for k, op in enumerate(ops):
            # each operation runs untraced and traced back to back, in alternating order
            tracer.op = passes * len(ops) + k
            for traced in (False, True) if (passes + k) % 2 == 0 else (True, False):
                time_in[traced] += run_op(cli, matio, op, tracer if traced else None, failures)
        passes += 1
        pass_s = time.perf_counter() - start
    metrics = probes(env)
    metrics.update(layer_metrics(tracer, passes, len(ops)))
    metrics["trace.overhead_pct"] = (100.0 * (time_in[True] / time_in[False] - 1.0), "%")
    notes = {"passes": passes, "ops_per_pass": len(ops), "untraced_s": time_in[False], "traced_s": time_in[True]}
    return metrics, 2 * passes * len(ops), failures, notes, tracer


def layer_metrics(tracer: Tracer, passes: int, ops_per_pass: int) -> dict:
    """Per-layer figures from the spans of all traced passes.

    ``calls`` are per pass, ``<fn>.ms`` and factorization counts per call,
    layer self times per operation.
    """
    own = tracer.self_seconds()
    by_name = defaultdict(list)
    layer_self = defaultdict(float)
    layer_calls = Counter()
    for sp in tracer.spans:
        by_name[sp.name].append(sp)
        layer_self[sp.layer] += own[sp.id]
        layer_calls[sp.layer] += 1

    def per_op_ms(seconds):
        return 1e3 * seconds / (passes * ops_per_pass)

    def mean(values):
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    out = {"cli.self_ms": (per_op_ms(layer_self["cli"]), "ms/op")}
    for layer in ("spectra", "ktheory"):
        out[f"{layer}.calls"] = (layer_calls[layer] / passes, "calls/pass")
        out[f"{layer}.ms"] = (per_op_ms(layer_self[layer]), "ms/op")
    for layer in ("operators", "wold", "matio"):
        out[f"{layer}.self_ms"] = (per_op_ms(layer_self[layer]), "ms/op")
    for name in [f"operators.{fn}" for fn in OPERATOR_FNS] + ["wold.wold_decompose"]:
        spans = by_name[name]
        out[f"{name}.calls"] = (len(spans) / passes, "calls/pass")
        out[f"{name}.ms"] = (mean(1e3 * sp.seconds for sp in spans), "ms/call")
        for kind in COUNTED:
            out[f"{name}.{kind}"] = (mean(sp.counts[kind] for sp in spans), "1/call")
        out[f"{name}.factor_mflop"] = (mean(sp.flop / 1e6 for sp in spans), "Mflop/call")
    wold = by_name["wold.wold_decompose"]
    out["wold.fibers"] = (mean(sp.extra["fibers"] for sp in wold if "fibers" in sp.extra), "1/call")
    out["wold.peak_alloc_mb"] = (max((sp.extra["peak_alloc_bytes"] for sp in wold), default=0) / MB, "MB")
    for fn in MATIO_FNS:
        out[f"matio.{fn}.ms"] = (mean(1e3 * sp.seconds for sp in by_name[f"matio.{fn}"]), "ms/call")
    for direction, prefix, rate in (("written", "save", "write"), ("read", "load", "read")):
        spans = [sp for fn in MATIO_FNS if fn.startswith(prefix) for sp in by_name[f"matio.{fn}"]]
        nbytes = sum(sp.extra.get(f"bytes_{direction}", 0) for sp in spans)
        busy = sum(sp.seconds for sp in spans)
        out[f"matio.bytes_{direction}"] = (nbytes / passes, "bytes/pass")
        out[f"matio.{rate}_mb_s"] = (nbytes / MB / busy if busy else 0.0, "MB/s")
    return out


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": int(BLAS_THREADS),
        "clients": 1,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.MAKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "scalex", "cli.py")):
        print(f"benchmark: no scalex sources in {SRC}", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    env = child_env()
    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": environment(args)}
    try:
        if args.trace:
            ops, _ = setup(args.workload, args.seed, workdir, env, 1)
            metrics, attempted, failures, notes, tracer = traced_run(ops, env, args.seconds)
            with open(os.path.join(WORK, f"spans-{tag}.json"), "w") as fh:
                json.dump([sp.to_json() for sp in tracer.spans], fh)
        else:
            ops, setup_times = setup(args.workload, args.seed, workdir, env, SETUP_REPEATS)
            metrics, attempted, failures, notes = timed_run(ops, env, args.seconds, statistics.median(setup_times))
            notes["setup_s_each"] = setup_times
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(notes=notes, failures=failures, result=result)
    with open(os.path.join(WORK, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for reason in failures[:5]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"env {json.dumps(record['env'])}")
    print(f"run {json.dumps(notes)}")
    if args.trace:
        print("factor_mflop is computed as sum of m*n*min(m, n) over factorized operands")
    else:
        print(f"latency_ms_tail is p{notes['tail_percentile']:.1f} of {notes['samples']} samples")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.4f} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
