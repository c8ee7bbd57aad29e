"""mollab benchmark: one workload, end-to-end or per-layer numbers.

Usage (from the root of a checkout):

    python3 bench/run.py --workload kappa-table --seed 1 --seconds 25 --trace 0

Workloads: kappa-table, general-sweep, profile-dense (see bench/README.md).

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
the per-layer metrics of a traced run, with the tracing overhead and the
import-time breakdown.  Either way the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A
readable report precedes it, and the full run record is written to
``.bench_out/``.

Set-up time is measured here, in fresh interpreters; the workload itself
runs in one more fresh process (``bench/worker.py``) with the BLAS thread
pools capped at the number of usable cores.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_SPAWNS = 5
RUN_BUDGET_S = 170.0  # the whole run must end well inside 180 s
IMPORT_MODULES = (
    "mollab", "mollab.quad", "mollab.hyp2f1", "mollab.varsol", "mollab.siegel",
    "mollab.kappa", "mollab.oracle", "mollab.cli", "mollab._verify",
    "numpy", "scipy.linalg",
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = nproc
    return env


def setup_seconds(env: dict) -> list:
    """Cold interpreter start until ``import mollab.cli`` is done, per spawn."""
    times = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", "import mollab.cli; print('ready', flush=True)"],
            stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
        )
        line = proc.stdout.readline()
        times.append(time.perf_counter() - start)
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError("import mollab.cli failed in a fresh interpreter")
    return times


def import_breakdown(env: dict) -> dict:
    """Cumulative import seconds per module from ``python -X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import mollab.cli"],
        capture_output=True, cwd=ROOT, env=env, text=True, timeout=60, check=True,
    )
    cumulative = {}
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            cumulative[fields[2].strip()] = int(fields[1]) / 1e6
    # a module the import no longer pulls in costs nothing
    return {m: cumulative.get(m, 0.0) for m in IMPORT_MODULES}


def run_record(args, worker: dict, setup: list) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")
    )
    summary = worker["summary"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "versions": worker["versions"],
        "git_sha": git_sha,
        "src_lines": src_lines,
        "requests": summary["attempted"],
        "latency_samples": summary["latency_samples"],
        "p90_samples_beyond": summary["beyond_p90"],
        "setup_spawns_s": setup,
        "item_unit": worker["item_unit"],
        "quad_budget": worker["quad_budget"],
        "deadline_s": worker["deadline_s"],
        "ref_kernel_s": worker["ref_kernel_s"],
        "kernel_ms_median": summary["kernel_ms"],
    }


def report(args, record, worker, metrics, units) -> None:
    s = worker["summary"]
    print(f"mollab benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"  items are {worker['item_unit']}; closed loop, 1 client; quadrature budget "
          f"{worker['quad_budget']} evaluations; request deadline {worker['deadline_s']:g} s")
    print(f"  times in reference seconds: wall x {worker['ref_kernel_s'] * 1e3:g} ms / "
          f"reference kernel time (median {s['kernel_ms']:.3f} ms this run); wall "
          f"items_per_s {s['items_per_wall_s']:.6g}, latency_p50 {s['latency_p50_wall_s']}")
    print(f"  {s['attempted']} requests, {s['failed']} failed "
          f"(failed_frac {s['failed_frac']:.4f}), {s['unverified']} unverified; "
          f"latency over {s['latency_samples']} completed requests, "
          f"{s['beyond_p90']} beyond p90; medians over {s['chunks']} chunks; "
          f"err_ratio_max {s['err_ratio_max']}")
    for name, value in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<40} {shown:>14} {units[name]}")
    led = worker["ledger"]
    print(f"  failure classes: {json.dumps(led['failure_classes'])}")
    for r in led["corners"]:
        print(f"  corner {r['status']}: {' '.join(r['argv'])}  {r['class']} "
              f"{r['latency_s']:.3f} s {r['detail']}")
    for r in led["unverified"]:
        print(f"  unverified: {' '.join(r['argv'])}  ({r['reason']})")
    for r in led["slowest"]:
        print(f"  slow: {r['latency_s']:.3f} s {r['status']} {r['class']} "
              f"{json.dumps(r['params'])}")
    for a in worker["anchors"]:
        print(f"  anchor {a['status']}: {' '.join(a['argv'])} {a['class']} {a['detail']}")
    print(f"  record: {json.dumps(record)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark_spec()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mollab" / "__init__.py").is_file():
        print(f"no mollab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    start = time.perf_counter()
    env = child_env()
    setup = setup_seconds(env)
    imports = import_breakdown(env) if args.trace else {}
    config = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(config)],
        stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
        timeout=max(RUN_BUDGET_S - (time.perf_counter() - start), 1.0),
    )
    if proc.returncode != 0:
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    worker = json.loads(proc.stdout.splitlines()[-1])

    s = worker["summary"]
    if args.trace:
        units = metric_units("per_layer")
        metrics = dict(worker["layers"])
        metrics.update({f"setup.import_s.{m}": v for m, v in imports.items()})
        metrics = {name: metrics[name] for name in units}
    else:
        units = metric_units("end_to_end")
        metrics = {
            "setup_s": statistics.median(setup),
            "items_per_s": s["items_per_s"],
            "latency_p50_s": s["latency_p50_s"],
            "latency_p90_s": s["latency_p90_s"],
            "peak_rss_mb": worker["peak_rss_mb"],
        }
    record = run_record(args, worker, setup)
    report(args, record, worker, metrics, units)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"record": record, "metrics": metrics, "worker": worker}, fh, indent=1)

    print(json.dumps({
        "correct": worker["correct"],
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def metric_units(kind: str) -> dict:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    return {m["name"]: m["unit"] for m in benchmark_spec()[kind]}


if __name__ == "__main__":
    sys.exit(main())
