"""thermodelay benchmark: times the CLI the way users run it, checks every output.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is default-neumann, long-run, sweep-dirichlet, or all (the three in
turn).  Run it from anywhere; it uses the package source in ../src and
writes only under ../.perfbench_out.

--trace 0 runs each operation as its own process (`python -m thermodelay.cli
...`, or perfbench/probe.py for set-up and the dissipativity check), repeats
whole passes over the workload until --seconds have been measured, and
reports the end-to-end metrics.  --trace 1 runs the same operations
in-process, first untraced and then once with spans recorded around every
layer (tracer.py), and reports the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import workloads
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
PROBE = HERE / "probe.py"

OP_TIMEOUT_S = 160.0
HARD_CAP_S = 120.0     # no further pass starts once one might end past this
CLI_KINDS = ("certify", "simulate", "spectrum", "sweep")


@dataclass
class Result:
    attempted: int = 0
    failures: list = field(default_factory=list)      # (op label, message)
    times: dict = field(default_factory=dict)         # kind -> [seconds]
    rss_kb: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)       # name -> (value, unit)
    detail: dict = field(default_factory=dict)        # name -> (value, unit)

    def record(self, label, kind, seconds, problems):
        self.attempted += 1
        self.times.setdefault(kind, []).append(seconds)
        self.failures += [(label, msg) for msg in problems]

    @property
    def failed(self) -> int:
        return len({label for label, _ in self.failures})


# -- running one operation ------------------------------------------------------

def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv, logdir: Path):
    """Run argv to completion; return (exit code, wall seconds, max RSS in KiB)."""
    with open(logdir / "stdout.txt", "wb") as so, open(logdir / "stderr.txt", "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=so, stderr=se, env=_env(), cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss


def _op_dirs(run_dir: Path, label: str):
    logdir = run_dir / label
    out = logdir / "out"
    out.mkdir(parents=True)
    return logdir, out


def run_process(wl, op, run_dir: Path, label: str, res: Result):
    logdir, out = _op_dirs(run_dir, label)
    cfg = str(run_dir / op.config)
    py = sys.executable
    result = None
    if op.kind == "setup":
        argv = [py, str(PROBE), "setup", cfg]
    elif op.kind == "dissipativity":
        argv = [py, str(PROBE), "dissipativity", cfg, str(wl.seed), str(wl.trials)]
    else:
        argv = [py, "-m", "thermodelay.cli", op.kind, "--config", cfg, "--out", str(out)]
    rc, seconds, rss = spawn(argv, logdir)
    res.rss_kb.append(rss)
    if op.kind == "dissipativity" and rc == 0:
        payload = json.loads((logdir / "stdout.txt").read_text().splitlines()[-1])
        seconds, result = payload["seconds"], payload["result"]
    res.record(label, op.kind, seconds, workloads.check(op.kind, wl, out, rc, result))


def run_inprocess(wl, op, run_dir: Path, label: str, res: Result, mods):
    """One operation inside this process; returns its output directory."""
    logdir, out = _op_dirs(run_dir, label)
    cfg = str(run_dir / op.config)
    result = None
    with open(logdir / "stdout.txt", "w") as so, open(logdir / "stderr.txt", "w") as se, \
            contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
        t0 = time.perf_counter()
        try:
            if op.kind == "setup":
                mods["config"].load_config(cfg)
                rc = 0
            elif op.kind == "dissipativity":
                result = mods["probe"].dissipativity(cfg, wl.seed, wl.trials)["result"]
                rc = 0
            else:
                rc = mods["cli"].main([op.kind, "--config", cfg, "--out", str(out)])
        except Exception:   # a crash fails this operation, not the benchmark
            traceback.print_exc()
            rc = "uncaught exception (see stderr.txt)"
        seconds = time.perf_counter() - t0
    res.record(label, op.kind, seconds, workloads.check(op.kind, wl, out, rc, result))
    return out


# -- the two modes --------------------------------------------------------------

def prepare(wl, tag: str) -> Path:
    run_dir = WORK / f"{wl.name}-seed{wl.seed}-{tag}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    for name, text in wl.configs.items():
        (run_dir / name).write_text(text)
    return run_dir


def schedule(ops):
    """(op, repeat) in rounds, each operation's repeats spread evenly over the pass.

    With as many rounds as the most repeated operation has repeats, repeat j
    of an operation with k repeats runs in round floor((j + 1/2) * rounds / k),
    so the few samples of a heavy operation fall early, middle and late in the
    pass, between the samples of the frequent cheap ones.
    """
    rounds = max(op.reps for op in ops)
    order = []
    for r in range(rounds):
        for op in ops:
            order += [(op, j) for j in range(op.reps)
                      if int((j + 0.5) * rounds / op.reps) == r]
    return order


def run_untraced(wl, seconds: float) -> Result:
    run_dir = prepare(wl, "untraced")
    res = Result()
    # fill the bytecode and file caches once; users do not pay this per command
    logdir = run_dir / "warmup"
    logdir.mkdir()
    rc, _, _ = spawn([sys.executable, "-c", "import thermodelay.cli"], logdir)
    if rc != 0:
        raise RuntimeError("cannot import thermodelay.cli from " + str(SRC))
    start = time.perf_counter()
    npass = 0
    while True:
        t_pass = time.perf_counter()
        for op, i in schedule(wl.ops):
            run_process(wl, op, run_dir, f"p{npass}-{op.kind}-{i}", res)
        npass += 1
        now = time.perf_counter()
        if now - start >= seconds or (now - start) + (now - t_pass) > HARD_CAP_S:
            break

    med = {k: statistics.median(v) for k, v in res.times.items()}
    res.metrics = {
        "setup_s": (med["setup"], "s"),
        "workload_s": (sum(v for k, v in med.items() if k != "setup"), "s"),
        "peak_rss_mb": (max(res.rss_kb) / 1024.0, "MB"),
    }
    for kind in ("certify", "simulate", "spectrum", "sweep", "dissipativity"):
        if kind in med:
            res.detail[f"{kind}_s"] = (med[kind], "s")
    res.detail["ops_failed"] = (res.failed / res.attempted, "ratio")
    res.detail["passes"] = (npass, "count")
    return res


def _import_package():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import importlib
    mods = {m: importlib.import_module(f"thermodelay.{m}") for m in tracing.LAYERS}
    import probe
    mods["probe"] = probe
    return mods


def _output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def run_traced(wl) -> Result:
    """Untraced in-process reference runs, then one traced pass over the workload."""
    mods = _import_package()
    run_dir = prepare(wl, "traced")
    ref = Result()
    for op, i in schedule(wl.ops):
        run_inprocess(wl, op, run_dir, f"ref-{op.kind}-{i}", ref, mods)
    untraced = {k: statistics.median(v) for k, v in ref.times.items()}

    tr = tracing.Tracer()
    res = Result(attempted=ref.attempted, failures=list(ref.failures))
    op_ids = {}
    out_bytes = 0
    tr.install()
    try:
        for n, op in enumerate(wl.ops):
            with tr.operation(n, op.kind):
                out = run_inprocess(wl, op, run_dir, f"traced-{op.kind}", res, mods)
            op_ids[op.kind] = n
            if op.kind in CLI_KINDS:
                out_bytes += _output_bytes(out)
    finally:
        tr.uninstall()
    traced = {k: v[0] for k, v in res.times.items()}

    res.metrics = tracing.layer_metrics(tr.spans, tr.notes, tr.wrapped, workers=wl.workers)
    res.metrics["cli.output_bytes"] = (
        out_bytes if "cli.main" in tr.wrapped else None, "bytes")

    overhead = sum(traced[k] - untraced[k] for k in traced)
    res.metrics["trace.overhead_s"] = (overhead, "s")
    res.metrics["trace.overhead_pct"] = (100.0 * overhead / sum(untraced.values()), "%")

    ix = tracing.SpanIndex(tr.spans)
    share_spec = share_step = 0.0
    if "spectrum" in op_ids:
        share_spec = (tracing.outermost_total(ix, op_ids["spectrum"], "spectral.")
                      / traced["spectrum"])
    if "simulate" in op_ids:
        steps = [s[3] - s[2] for s in ix.op_spans(op_ids["simulate"])
                 if s[1] == "integrate.step_imex"]
        share_step = tracing.median(steps) * len(steps) / untraced["simulate"]
    res.metrics["share.spectral_of_spectrum"] = (share_spec, "ratio")
    res.metrics["share.step_of_simulate"] = (share_step, "ratio")
    for kind, t in untraced.items():
        res.detail[f"inprocess.{kind}_s"] = (t, "s")
        res.detail[f"traced.{kind}_s"] = (traced[kind], "s")
    res.detail["trace.spans"] = (len(tr.spans), "count")
    with open(run_dir / "spans.json", "w") as fh:
        json.dump({"fields": ["id", "name", "start", "end", "parent", "op"],
                   "ops": {str(v): k for k, v in op_ids.items()},
                   "spans": tr.spans, "notes": tr.notes}, fh)
    return res


# -- machine record -------------------------------------------------------------

def _blas_threads():
    """Thread count each loaded OpenBLAS library runs with, by library file name."""
    import scipy.linalg  # noqa: F401  -- loads scipy's own BLAS
    out = {}
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return out
    for path in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def machine() -> dict:
    import platform

    import numpy
    import scipy
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": commit,
    }


# -- output -----------------------------------------------------------------------

def _fmt(value):
    return "null" if value is None else f"{value:.6g}"


def report(wl, res: Result, trace: bool):
    print(f"== {wl.name}  seed={wl.seed}  beta={wl.beta!r}  trace={int(trace)}")
    for kind, ts in res.times.items():
        print(f"   op {kind:<14} n={len(ts):<3} median={statistics.median(ts):.4f} s"
              f"  min={min(ts):.4f}  max={max(ts):.4f}  samples="
              + ",".join(f"{t:.4f}" for t in ts))
    for name, (value, unit) in {**res.metrics, **res.detail}.items():
        print(f"   {name:<40} {_fmt(value):>14} {unit}")
    print(f"   attempted={res.attempted} failed={res.failed}")
    for label, msg in res.failures:
        print(f"   FAILED {label}: {msg}")


def result_line(res: Result, prefix: str = "") -> dict:
    return {name if not prefix else f"{prefix}.{name}": {"value": value, "unit": unit}
            for name, (value, unit) in res.metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that spawn() kills and reaps the running operation
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "thermodelay" / "cli.py").is_file():
        print(f"thermodelay source not found under {SRC}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    print("machine " + json.dumps(machine()))
    print(f"seed {args.seed}")
    attempted = failed = 0
    metrics = {}
    for name in names:
        wl = workloads.build(name, args.seed)
        try:
            res = run_traced(wl) if args.trace else run_untraced(wl, args.seconds)
        except RuntimeError as exc:
            print(f"benchmark aborted: {exc}", file=sys.stderr)
            return 3
        report(wl, res, bool(args.trace))
        attempted += res.attempted
        failed += res.failed
        metrics.update(result_line(res, prefix=name if len(names) > 1 else ""))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
