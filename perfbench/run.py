"""gpchannel benchmark: one command per workload, closed loop, one client.

    python3 perfbench/run.py --workload capacity --seed 1 --seconds 12 --trace 0

Run from the repository root. The workload's seeded job list is run
in-process through ``gpchannel.cli.main(args, standalone_mode=False)``,
each job starting when the previous one ends, twice:

1. a timed pass with tracing off and ``--workers`` = the usable CPU
   count, which gives the end-to-end metrics;
2. a traced pass with ``--workers 1`` and spans around the public
   functions of every layer, which gives the per-layer metrics.

The two passes alternate round by round (timed round 1, traced round 1,
timed round 2, ...), so the timed jobs sample the host's speed across
the whole run rather than one stretch of it; host speed on a shared VM
drifts over tens of seconds.

Every job's artifacts must be byte-identical between the two passes and
pass its output check (``checks.py``); a job that fails either, exits
non-zero or raises counts as failed. The last line of standard output is
the JSON result; the line before it is a JSON report with machine facts,
the tail percentile and job count, failures and the tracing overhead.
Spans and the report are also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import SpanRecorder  # noqa: E402

SETUP_REPS = 3
TAIL_BEYOND = 10


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def load_metric_names() -> tuple[list, list]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["end_to_end"], spec["per_layer"]


# ---------------------------------------------------------------------------
# set-up


def fresh_import_seconds() -> float:
    """Wall time of a new interpreter importing the CLI (numpy, scipy, click)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import gpchannel.cli"], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    return time.perf_counter() - t0


def set_up(workload: str, seed: int, seconds: float, spec_dir: Path):
    """Median over SETUP_REPS of (fresh import + spec generation)."""
    totals = []
    for _ in range(SETUP_REPS):
        t_import = fresh_import_seconds()
        t0 = time.perf_counter()
        jobs = workloads.build_jobs(workload, seed, seconds)
        spec_paths = workloads.write_specs(jobs, spec_dir)
        totals.append(t_import + time.perf_counter() - t0)
    return statistics.median(totals), jobs, spec_paths


# ---------------------------------------------------------------------------
# passes


def invoke(cli_main, argv, recorder=None, job_index=-1):
    """Run one CLI job; None on success, else the reason it failed."""
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if recorder is None:
                cli_main(argv, standalone_mode=False)
            else:
                recorder.current_job = job_index
                recorder.run("cli.command", cli_main, argv, standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (None, 0):
            return f"exit {exc.code}: {stderr.getvalue().strip()[-300:]}"
    except Exception:  # the loop must go on; the job is counted as failed
        return "raised " + traceback.format_exc().strip().splitlines()[-1][:300]
    return None


def run_jobs(cli_main, jobs, spec_paths, out_root: Path, workers: int, recorder=None):
    """(durations, errors) of running ``jobs`` one after another."""
    gc.collect()
    durations, errors = [], []
    for job in jobs:
        argv = [job.command, "--spec", str(spec_paths[job.index]), "--out", str(out_root / job.name),
                "--seed", str(job.cli_seed), "--workers", str(workers), *job.args]
        t0 = time.perf_counter()
        errors.append(invoke(cli_main, argv, recorder, job.index))
        durations.append(time.perf_counter() - t0)
    return durations, errors


def trace_targets(gp):
    """(span name, module, function, counter hook) for every traced layer."""

    def on_optimize(rec, args, kwargs, result):
        diag = result[3]
        rec.count("capacity.batch_rows", diag["batch"])
        rec.count("capacity.row_iters", diag["batch"] * diag["iterations"])
        rec.count("capacity.heuristic_solves", int(bool(diag["heuristic_warning"])))

    def on_minimize(rec, args, kwargs, result):
        rec.count("region.objective_evals", int(result.nfev))

    def on_frontier(rec, args, kwargs, result):
        rec.per_job.setdefault(rec.current_job, {})["points"] = result

    def on_experiment(rec, args, kwargs, result):
        rec.count("coding.trials", len(result.trials))

    def on_build_code(rec, args, kwargs, result):
        rec.count("coding.codewords", result.words.shape[0])
        rec.per_job.setdefault(rec.current_job, {})["codebook"] = {
            "n": int(result.words.shape[1]), "codewords": int(result.words.shape[0]),
            "bytes": int(result.words.nbytes)}

    def on_scores(rec, args, kwargs, result):
        table, codewords, y_block = args
        rec.count("kernels.score_cells", codewords.size)
        # operands the kernel must read plus the scores it writes
        rec.count("kernels.score_bytes_computed",
                  codewords.size * codewords.itemsize + y_block.nbytes + table.nbytes + result.nbytes)

    def on_spectrum(rec, args, kwargs, result):
        rec.count("mixture.spectrum_draws", kwargs["draws"] if "draws" in kwargs else args[3])

    return [
        ("capacity.optimize_gp_policy", gp.capacity, "optimize_gp_policy", on_optimize),
        ("capacity.gp_capacity_dm", gp.capacity, "gp_capacity_dm", None),
        ("capacity.blahut_arimoto", gp.capacity, "blahut_arimoto", None),
        ("mixture.maximize_mixed_lower_bound", gp.mixture, "maximize_mixed_lower_bound", None),
        ("mixture.mixture_spectrum_demo", gp.mixture, "mixture_spectrum_demo", on_spectrum),
        ("region.region_frontier", gp.region, "region_frontier", on_frontier),
        ("region.minimize", gp.region, "minimize", on_minimize),
        ("coding.run_experiment", gp.coding, "run_experiment", on_experiment),
        ("coding.estimate_pi", gp.coding, "estimate_pi", None),
        ("coding.eta", gp.coding, "eta", None),
        ("coding.encode", gp.coding, "encode", None),
        ("coding.build_code", gp.coding, "build_code", on_build_code),
        ("kernels.codebook_scores", gp.kernels, "codebook_scores", on_scores),
        ("info.mutual_information", gp.info, "mutual_information", None),
        ("info.spectral_rate_estimate", gp.info, "spectral_rate_estimate", None),
        ("specio.load_spec", gp.specio, "load_spec", None),
    ]


# ---------------------------------------------------------------------------
# results


def same_artifacts(a: Path, b: Path) -> str | None:
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()) if a.is_dir() else []
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file()) if b.is_dir() else []
    if files_a != files_b:
        return f"artifact sets differ across worker counts: {files_a} vs {files_b}"
    for rel in files_a:
        if not filecmp.cmp(a / rel, b / rel, shallow=False):
            return f"{rel} differs between --workers passes"
    return None


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with TAIL_BEYOND jobs above it."""
    n = len(durations)
    k = n - TAIL_BEYOND  # 1-based rank
    if k < 1:
        raise ValueError(f"{n} jobs leave no percentile with {TAIL_BEYOND} jobs beyond it")
    return sorted(durations)[k - 1], 100.0 * k / n


def blas_facts(np) -> dict:
    facts = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):  # the layout of numpy's build info varies by version
        facts["name"] = "unknown"
    facts["threads"] = blas_threads()
    return facts


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, else the usual env vars."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if var in os.environ:
            return f"{var}={os.environ[var]}"
    return "unknown"


def cache_sizes() -> dict:
    """Data and unified cache sizes of cpu0 by level, in bytes."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
            out[f"L{level}"] = int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    return out


def machine_facts(np, scipy, gp_kernels, nproc: int) -> dict:
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_facts(np),
        "kernels_backend": gp_kernels.backend(),
        "cache_bytes_cpu0": cache_sizes(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gpchannel" / "cli.py").is_file():
        print(f"error: gpchannel sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    end_to_end, per_layer = load_metric_names()
    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = HERE / "out"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return measure(args, work, out_dir, end_to_end, per_layer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def measure(args, work: Path, out_dir: Path, end_to_end, per_layer) -> int:
    setup_s, jobs, spec_paths = set_up(args.workload, args.seed, args.seconds, work / "specs")

    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy

    import gpchannel
    import gpchannel.cli  # also loads specio; the package loads every other layer

    nproc = len(os.sched_getaffinity(0))
    cli_main = gpchannel.cli.main

    recorder = SpanRecorder()
    targets = trace_targets(gpchannel)
    durations, errors, traced_durations, traced_errors = [], [], [], []
    peak_rss_mb = None
    for r in sorted({j.round for j in jobs}):
        group = [j for j in jobs if j.round == r]
        d, e = run_jobs(cli_main, group, spec_paths, work / "timed", nproc)
        durations += d
        errors += e
        if peak_rss_mb is None:  # every round holds every job kind; no tracing yet
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        with recorder.installed(targets):
            d, e = run_jobs(cli_main, group, spec_paths, work / "traced", 1, recorder)
        traced_durations += d
        traced_errors += e
    wall_s, traced_wall_s = sum(durations), sum(traced_durations)

    verdicts = []
    for job, err, traced_err in zip(jobs, errors, traced_errors):
        timed_out, traced_out = work / "timed" / job.name, work / "traced" / job.name
        problem = err or traced_err or same_artifacts(timed_out, traced_out)
        if problem:
            verdicts.append(checks.Verdict(False, problem))
            continue
        try:
            points, membership = None, None
            if job.command == "region":
                spec = gpchannel.specio.load_spec(spec_paths[job.index])
                points = recorder.per_job.get(job.index, {}).get("points")
                membership = partial(gpchannel.region.region_membership,
                                     channel=spec["channel"], state=spec["state"])
            verdicts.append(checks.check_job(job, timed_out, points, membership))
        except (OSError, KeyError, ValueError, IndexError) as exc:
            verdicts.append(checks.Verdict(False, f"unreadable output: {type(exc).__name__}: {exc}"))

    artifact_bytes = sum(p.stat().st_size for p in (work / "traced").rglob("*") if p.is_file())
    failed = sum(not v.ok for v in verdicts)
    known = sum(v.known_defect for v in verdicts)
    tail_s, tail_pct = tail(durations)

    def kind_rate(command, per_job):
        sel = [i for i, j in enumerate(jobs) if j.command == command and errors[i] is None]
        busy = sum(durations[i] for i in sel)
        return sum(per_job(jobs[i]) for i in sel) / busy if busy > 0 else 0.0

    values = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "job_s.p50": statistics.median(durations),
        "job_s.tail": tail_s,
        "peak_rss_mb": peak_rss_mb,
    }
    st, calls, cnt = recorder.self_time, recorder.calls, recorder.counters
    layer_values = {
        "trials_per_s": kind_rate("simulate", lambda j: j.meta["trials"]),
        "draws_per_s": kind_rate("spectrum", lambda j: j.meta["draws"]),
        "fail_frac": failed / len(jobs),
        "trace.overhead_s": traced_wall_s - wall_s,
        "cli.artifact_bytes": artifact_bytes,
        "coding.eta_per_trial": calls.get("coding.eta", 0) / cnt["coding.trials"] if cnt.get("coding.trials") else 0.0,
    }
    for m in per_layer:
        name = m["name"]
        if name in layer_values:
            continue
        if name.endswith(".s"):
            layer_values[name] = st.get(name[:-2], 0.0)
        elif name.endswith(".calls"):
            layer_values[name] = calls.get(name[: -len(".calls")], 0)
        else:
            layer_values[name] = cnt.get(name, 0)

    chosen = end_to_end if args.trace == 0 else per_layer
    source = values if args.trace == 0 else layer_values
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in chosen}

    facts = machine_facts(np, scipy, gpchannel.kernels, nproc)
    caches = facts["cache_bytes_cpu0"]
    codebooks = {d["codebook"]["n"]: d["codebook"] for d in recorder.per_job.values() if "codebook" in d}
    codebooks = [dict(c, **{f"fits_{level}": c["bytes"] <= caches[level] for level in ("L2", "L3") if level in caches})
                 for _, c in sorted(codebooks.items())]
    kinds = dict.fromkeys(j.kind for j in jobs)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "jobs": len(jobs),
        "job_s.tail": {"percentile": round(tail_pct, 2), "jobs": len(jobs), "jobs_beyond": TAIL_BEYOND},
        "kinds": {k: {"jobs": sum(j.kind == k for j in jobs),
                      "job_s.p50": statistics.median(d for j, d in zip(jobs, durations) if j.kind == k)}
                  for k in kinds},
        "fail_frac": failed / len(jobs),
        "known_defect_failures": known,
        "failures": [{"job": j.name, "reason": v.reason, "known_defect": v.known_defect}
                     for j, v in zip(jobs, verdicts) if not v.ok],
        "wall_s": {"untraced": wall_s, "traced": traced_wall_s, "tracing_overhead_s": traced_wall_s - wall_s},
        "machine": facts,
        "codebooks": codebooks,
        "per_layer": layer_values,
        "end_to_end": values,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    recorder.write(out_dir / f"spans-{args.workload}.npz")
    (out_dir / f"report-{args.workload}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    # correct: every failure is the documented confusion-clip defect;
    # those still count in `failed` and fail_frac
    result = {"correct": failed == known, "attempted": len(jobs), "failed": failed, "metrics": metrics}
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
