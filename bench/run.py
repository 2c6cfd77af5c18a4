"""Benchmark of the anmf CLI: end-to-end metrics and a traced per-layer run.

    python3 bench/run.py [--workload train|separate|denoise|all] [--seed N]
                         [--seconds S] [--trace 0|1] [--smoke]

Each workload (see workloads.py) runs one CLI command in-process through
``anmf.cli.run_cli`` on inputs made from ``--seed``. Every invocation's
outputs are checked; an invocation fails on a nonzero exit code, a failed
check, or outputs that differ from the first invocation's.

``--trace 0`` measures with tracing off:

- setup_s: median over 3 set-ups of input generation, file writing, the
  model training a command needs, and one warm-up invocation;
- cold_wall_s, peak_rss_mb: median over 11 fresh processes, started at
  even intervals during the run, of importing anmf plus one invocation,
  and of that process's peak resident memory;
- wall_s, wall_s_tail: median and tail percentile of warm invocations,
  repeated for ``--seconds`` and at least 40 times, so that the p75 has
  10 samples beyond it;
- throughput: work items (named per workload) per second of wall_s;
- quality_db: the workload's output score, computed untimed;
- ops_ok_frac: share of invocations that did not fail.

``--trace 1`` alternates untraced and traced invocations for ``--seconds``
and reports per-layer medians over the traced ones (see tracing.py), the
tracing overhead, and fails if traced outputs differ from untraced ones.
Spans go to .bench_work/<workload>-trace1/spans.jsonl.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it print every metric with
its unit, the environment and the workload's property counts.
"""

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
TAIL_BEYOND = 10
MAX_MEASURE_S = 120.0  # the sample minimum never stretches a run past this

# child process for the cold invocation: import, one call, peak memory
COLD_CHILD = """
import json, resource, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from anmf.cli import run_cli
rc = run_cli(json.loads(sys.argv[2]))
wall = time.perf_counter() - t0
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
print(json.dumps({"rc": rc, "wall_s": wall, "peak_rss_mb": rss_mb}))
"""


@dataclass(frozen=True)
class Mode:
    sizes: object
    min_samples: int  # warm invocations per end-to-end run
    min_traced: int  # traced invocations per per-layer run
    cold_repeats: int


def load_program():
    """Import anmf from this checkout's src/, or exit without a result."""
    if not (SRC / "anmf" / "__init__.py").is_file():
        sys.exit(f"bench: no anmf package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import anmf.cli

    if Path(anmf.__file__).resolve().parent != SRC / "anmf":
        sys.exit(f"bench: imported anmf from {anmf.__file__}, not from {SRC}")
    return anmf.cli


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        **{k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "ANMF_THREADS")},
    }


class Run:
    """One workload's invocations, with the failure bookkeeping they share."""

    def __init__(self, cli, workload_cls, seed, mode, work):
        self.cli, self.cls, self.seed, self.mode, self.work = cli, workload_cls, seed, mode, work
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reference = None  # digest of the first invocation's outputs

    def record(self, rc, wl, label):
        """Check one invocation's outputs; returns True if it succeeded."""
        self.attempted += 1
        if rc != 0:
            errors = [f"exit code {rc}"]
        else:
            try:
                errors = wl.check()
                digest = wl.digest()
            except (OSError, ValueError, KeyError) as e:
                errors = [f"outputs unreadable: {e!r}"]
            else:
                if self.reference is None:
                    self.reference = digest
                elif digest != self.reference:
                    errors.append("outputs differ from the first invocation's")
        self.errors.extend(f"{label}: {e}" for e in errors)
        self.failed += bool(errors)
        return not errors

    def invoke(self, wl):
        gc.collect()
        t0 = time.perf_counter()
        rc = self.cli.run_cli(wl.argv)
        return rc, time.perf_counter() - t0

    def set_up(self):
        """Set up SETUP_REPEATS times; keep the first, check they agree."""
        times, kept, first_digest = [], None, None
        for k in range(SETUP_REPEATS):
            work = self.work / f"setup_{k}"
            work.mkdir(parents=True)
            t0 = time.perf_counter()
            wl = self.cls()
            digest = wl.setup(work, self.seed, self.mode.sizes, self.cli.run_cli)
            rc = self.cli.run_cli(wl.argv)  # warm-up
            times.append(time.perf_counter() - t0)
            self.record(rc, wl, f"warm-up {k}")
            if kept is None:
                kept, first_digest = wl, digest
            else:
                if digest != first_digest:
                    self.errors.append(f"set-up {k}: inputs differ from set-up 0's")
                shutil.rmtree(work)
        return kept, statistics.median(times)

    def cold(self, wl, k):
        """One invocation in a fresh process: (wall seconds, peak RSS MB), or None if it failed."""
        proc = subprocess.run([sys.executable, "-c", COLD_CHILD, str(SRC), json.dumps(wl.argv)],
                              capture_output=True, text=True, timeout=170, cwd=ROOT)
        try:
            child = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            child = {"rc": proc.returncode or 1}
        if self.record(child["rc"], wl, f"cold {k}"):
            return child["wall_s"], child["peak_rss_mb"]
        return None


def tail(walls):
    """Highest listed percentile with TAIL_BEYOND samples beyond it (else the median)."""
    n = len(walls)
    p = next((p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= TAIL_BEYOND), 50)
    return float(np.percentile(walls, p)), p


def end_to_end(run, seconds):
    wl, setup_s = run.set_up()
    # fresh processes are spread over the run, so that they see the same
    # machine load as the warm invocations between them
    cold_due = [seconds * (k + 0.5) / run.mode.cold_repeats for k in range(run.mode.cold_repeats)]
    cold = []
    walls = []
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if cold_due and elapsed >= cold_due[0]:
            cold_due.pop(0)
            cold.append(run.cold(wl, len(cold)))
            continue
        if not cold_due and (elapsed >= MAX_MEASURE_S
                             or (elapsed >= seconds and len(walls) >= run.mode.min_samples)):
            break
        rc, wall = run.invoke(wl)
        if run.record(rc, wl, f"warm {len(walls)}"):
            walls.append(wall)
    cold_walls = [c[0] for c in cold if c]
    cold_rss = [c[1] for c in cold if c]
    wall_s = statistics.median(walls) if walls else float("nan")
    tail_s, p = tail(walls) if walls else (float("nan"), 50)
    metrics = {
        "setup_s": (setup_s, "s", f"median of {SETUP_REPEATS} set-ups"),
        "wall_s": (wall_s, "s", f"median of {len(walls)} warm invocations"),
        "wall_s_tail": (tail_s, "s", f"p{p} of {len(walls)} warm invocations"),
        "cold_wall_s": (_median(cold_walls), "s",
                        f"median of {len(cold_walls)} fresh processes, import + first invocation"),
        "throughput": (wl.items / wall_s, "items/s", f"{wl.item} per second, {wl.items:g} per invocation"),
        "quality_db": (wl.quality_db(), "dB", wl.quality_db.__doc__.strip()),
        "peak_rss_mb": (_median(cold_rss), "MB", "median peak RSS of the fresh processes"),
    }
    return wl, metrics


def _median(values):
    return statistics.median(values) if values else float("nan")


def per_layer(run, seconds):
    from tracing import Tracer

    wl, _ = run.set_up()
    tracer = Tracer()
    untraced, traced = [], []
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if elapsed >= MAX_MEASURE_S or (elapsed >= seconds and len(traced) >= run.mode.min_traced):
            break
        op = len(traced)
        for with_trace in ((False, True) if op % 2 == 0 else (True, False)):
            if with_trace:
                with tracer.patched(op):
                    rc, wall = run.invoke(wl)
                if run.record(rc, wl, f"traced {op}"):
                    traced.append((op, wall))
            else:
                rc, wall = run.invoke(wl)
                if run.record(rc, wl, f"untraced {op}"):
                    untraced.append(wall)
    tracer.write(run.work / "spans.jsonl")
    rows = [layer_row(tracer.op_totals(op), wl) for op, _ in traced]
    metrics = {name: (_median([r[name][0] for r in rows]), unit, note)
               for name, (_, unit, note) in (rows[0].items() if rows else ())}
    overhead = _median([w for _, w in traced]) / _median(untraced) - 1.0
    metrics["trace.overhead_frac"] = (
        overhead, "frac", f"traced median wall over untraced, {len(traced)} and {len(untraced)} invocations")
    return wl, metrics


def layer_row(totals, wl):
    """Per-layer metrics of one traced invocation: name -> (value, unit, note)."""

    def get(name, key="s"):
        return totals.get(name, {}).get(key, 0)

    row = {}

    def timed(name, *keys):
        for key in keys:
            unit = {"calls": "count", "s": "s", "self_s": "s"}[key]
            row[f"{name}.{key}"] = (get(name, key), unit, "")

    ul = "core.update_latents"
    timed(ul, "calls", "s")
    gflop = get(ul, "flop") / 1e9
    row[f"{ul}.gflop"] = (gflop, "Gflop", "computed from operand shapes")
    row[f"{ul}.gbytes"] = (get(ul, "bytes") / 1e9, "GB", "computed from operand shapes")
    row[f"{ul}.gflop_per_s"] = (gflop / get(ul) if get(ul) else 0.0, "Gflop/s", "computed flops over span time")
    callers = totals.get(ul, {}).get("callers", {})
    row["separation.solver_iters"] = (
        sum(n for c, n in callers.items() if c and c.startswith("separation.")), "count",
        "update_latents calls made from separation")
    timed("core.normalize_columns", "calls", "s")
    timed("core.init_exemplar", "s")
    timed("training.train_smu", "s", "self_s")
    for name in ("grad_parts_std", "grad_parts_adv", "grad_parts_sup", "update_basis"):
        timed(f"training.{name}", "calls", "s")
    timed("adversarial.assemble_adversarial", "s")
    timed("adversarial.compute_beta", "s")
    for name in ("separate", "project_denoise"):
        timed(f"separation.{name}", "s", "self_s")
    timed("separation.wiener_filter", "s")
    solver = ("separation.separate", "separation.project_denoise")
    columns = sum(get(n, "columns") for n in solver)
    row["separation.zero_column_share"] = (
        sum(get(n, "zero_columns") for n in solver) / columns if columns else 0.0, "frac",
        "all-zero columns handed to the separation solver")
    for name in ("stft", "istft", "apply_mask"):
        timed(f"features.{name}", "calls", "s")
    for name in ("psnr", "si_sdr"):
        timed(f"metrics.{name}", "calls", "s")
    for name in ("read_matrix", "write_matrix"):
        timed(f"io.{name}", "s")
        row[f"io.{name}.mb"] = (get(f"io.{name}", "bytes") / 1e6, "MB", "matrix payload bytes")
    for name in ("load_wav", "write_wav", "load_bundle", "save_bundle"):
        timed(f"io.{name}", "s")
    row["cli.self_s"] = (sum(t["self_s"] for n, t in totals.items() if n.startswith("cli.")), "s",
                         "time in cli functions outside the layers they call")
    row["workload.column_iters"] = (get(ul, "columns"), "count", "columns x latent updates")
    row["workload.audio_s"] = (wl.audio_s, "s", "seconds of input audio")
    return row


def run_workload(cli, name, seed, seconds, trace, mode):
    import workloads

    work = WORK / f"{name}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(cli, workloads.WORKLOADS[name], seed, mode, work)
    wl, metrics = (per_layer if trace else end_to_end)(run, seconds)
    if not trace:
        metrics["ops_ok_frac"] = (1.0 - run.failed / run.attempted, "frac",
                                  f"{run.attempted - run.failed} of {run.attempted} invocations passed")
    return wl, metrics, run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=("train", "separate", "denoise", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics; default both")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes and sample counts")
    args = parser.parse_args(argv)

    cli = load_program()
    import workloads

    mode = (Mode(workloads.SMOKE, min_samples=3, min_traced=1, cold_repeats=1) if args.smoke
            else Mode(workloads.FULL, min_samples=40, min_traced=5, cold_repeats=11))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    traces = (0, 1) if args.trace is None else (args.trace,)
    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in traces:
            wl, metrics, run = run_workload(cli, name, args.seed, args.seconds, trace, mode)
            print(f"[{name} trace={trace} seed={args.seed}] {wl.why}")
            for err in run.errors:
                print(f"  FAILED {err}")
            for metric, (value, unit, note) in metrics.items():
                print(f"  {metric:36s} {value:14.6g} {unit:8s} {note}")
            (run.work / f"result_trace{trace}.json").write_text(json.dumps(
                {"workload": name, "seed": args.seed, "trace": trace, "env": env, "errors": run.errors,
                 "attempted": run.attempted, "failed": run.failed,
                 "metrics": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in metrics.items()}},
                indent=2))
            prefix = "" if len(names) == 1 else f"{name}."
            result["correct"] = result["correct"] and not run.errors
            result["attempted"] += run.attempted
            result["failed"] += run.failed
            result["metrics"].update({prefix + k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()})
    print(json.dumps(result))


if __name__ == "__main__":
    main()
