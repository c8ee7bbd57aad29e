"""Run one workload in this (fresh) process and print its numbers as JSON.

Started by ``bench/run.py`` as ``python3 bench/worker.py '<config json>'``
with ``src`` on PYTHONPATH.  The process warms up on a seed stream
disjoint from the timed one, then drives ``mollab.cli.main`` in-process,
one call per request, as a single closed-loop client (the next request
starts when the previous one returns).  Only the calls themselves are
timed; parsing and checking happen outside the timed intervals, and the
outputs are checked after the timed phase.

With ``trace`` set, one request of each pair is traced, so the per-layer
numbers come with their own tracing overhead, and the workload's failure
corners run after the checks, untimed, for the failure ledger.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

import mollab
import mollab.cli
import tracing
import workloads
from workloads import Request, Verdict

ROOT = Path(__file__).resolve().parent.parent

# failure classes the corner ledger counts; anything else is "other"
CORNER_CLASSES = (
    "wrong", "DepthExceeded", "NonPositiveArgument", "NonConvergence",
    "DegenerateParameters", "budget",
)
_MODE_CACHES = ("_zero_state", "_w_cache", "_c1_state")

# Integrand evaluations one adaptive quadrature may use before the request
# is stopped.  Answered requests need at most ~510; the large-phi corners
# of general-sweep thrash on towards DepthExceeded for 7-18 s (30k-70k
# evaluations per second).
QUAD_BUDGET = 8192
# Wall-clock safety net per request, so a run always ends in time.
DEADLINE_S = 20.0

# Timings are reported in reference seconds: wall seconds scaled by how
# fast the machine runs a fixed computation that does not touch mollab.
# On a shared machine the speed of the same code drifts by up to 2x
# within seconds; the reference kernel, run before every request, drifts
# with it (window correlation 0.95-0.98), so the scaled times keep the
# program's own cost and shed most of the drift.
REF_KERNEL_S = 0.0025  # the kernel's duration at the reference speed
REF_WINDOW = 9  # kernel timings in the running median for one request
CHUNKS = 15  # most chunks a run's statistics are the median over
CHUNK_REQUESTS = 20  # fewest requests in one chunk
_REF_X = np.linspace(0.0, 1.0, 20000)


def reference_kernel() -> float:
    """Seconds taken by the fixed reference computation: numpy ufuncs over
    a 20k-element array plus a Python loop, like mollab's own mix."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(4):
        acc += float(np.sum(np.exp(-_REF_X) * np.sin(3.0 * _REF_X) + np.log1p(_REF_X)))
    acc += sum(i * i for i in range(8000))
    return time.perf_counter() - start


STOPPED = ("budget", "deadline")  # failure classes of requests the benchmark stops


class RequestStopped(BaseException):
    """Raised into a request that the benchmark stops (budget or deadline).

    A BaseException, so the CLI's numeric-error handler cannot swallow it.
    """

    def __init__(self, cls: str):
        super().__init__(cls)
        self.cls = cls


def _on_alarm(signum, frame):
    raise RequestStopped("deadline")


def install_quad_budget(varsol) -> None:
    """Wrap ``varsol.integrate`` so one quadrature stops past QUAD_BUDGET."""
    real = getattr(varsol, "integrate", None)
    if real is None:  # quadrature gone from the production path
        return

    def integrate(f, lo, hi, cfg=None):
        used = 0

        def budgeted(x):
            nonlocal used
            used += int(np.size(x))
            if used > QUAD_BUDGET:
                raise RequestStopped("budget")
            return f(x)

        return real(budgeted, lo, hi, cfg)

    varsol.integrate = integrate


@dataclass
class Record:
    req: Request
    latency: float  # wall seconds
    phase: str
    cls: str = ""  # failure class seen while running ("" when rc == 0)
    parsed: object = None
    verdict: Optional[Verdict] = None
    kernel_s: float = REF_KERNEL_S  # reference kernel time just before the request
    ref_latency: float = 0.0  # latency in reference seconds


def run_request(wl, req: Request, phase: str, tracer=None) -> Record:
    out, err = io.StringIO(), io.StringIO()
    cls = ""
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = mollab.cli.main(req.argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    except RequestStopped as exc:
        rc, cls = None, exc.cls
    except SystemExit as exc:  # argparse rejected the command line
        rc = exc.code if isinstance(exc.code, int) else 2
    latency = time.perf_counter() - start
    stdout = out.getvalue()
    if tracer is not None:
        tracer.counts["cli.bytes_out"] += len(stdout.encode())
    rec = Record(req, latency, phase)
    if rc == 0:
        try:
            rec.parsed = wl.parse(req, stdout)
        except (ValueError, KeyError, IndexError) as exc:
            rec.cls = f"malformed output ({type(exc).__name__})"
    else:
        rec.cls = cls or wl.failure_class(stdout, err.getvalue()) or f"exit {rc}"
    return rec


def timed_phase(wl, stream, seconds: float, tracer=None, coin=None):
    """Closed loop until the summed request time reaches ``seconds``.

    With a tracer, one request of each consecutive pair is traced, the
    one a seeded coin picks: the traced and plain halves then see the same
    input mix and the same machine, so their throughputs compare.
    (Alternating would not do: the input sequences and the fixed
    kappa-table rows depend on index parity.)
    """
    records, busy = [], 0.0
    trace_first = False
    while busy < seconds or (tracer is not None and len(records) < 2):
        if len(records) % 2 == 0 and coin is not None:
            trace_first = coin.random() < 0.5
        traced = tracer is not None and (len(records) % 2 == 0) == trace_first
        kernel_s = reference_kernel()
        if traced:
            tracer.request += 1
            tracer.install(mollab)
            before = mode_cache_stats()
        rec = run_request(wl, next(stream), "traced" if traced else "plain",
                          tracer if traced else None)
        if traced:
            tracer.uninstall()
            tracer.add_cache_delta(before, mode_cache_stats())
        rec.kernel_s = kernel_s
        busy += rec.latency
        records.append(rec)
    kernels = [r.kernel_s for r in records]
    half = REF_WINDOW // 2
    for i, rec in enumerate(records):
        local = statistics.median(kernels[max(0, i - half):i + half + 1])
        rec.ref_latency = rec.latency * REF_KERNEL_S / local
    return records


def judge(wl, rec: Record) -> Verdict:
    if rec.cls:
        return Verdict("failed", rec.cls)
    try:
        return wl.check(rec.req, rec.parsed)
    except (ValueError, ArithmeticError, KeyError, IndexError) as exc:
        return Verdict("failed", f"malformed output ({type(exc).__name__})", detail=str(exc))


def mode_cache_stats():
    """(hits, builds) summed over varsol's mode caches; None when the
    private caches are gone (the refactors planned for them)."""
    hits = builds = 0
    for name in _MODE_CACHES:
        info = getattr(getattr(mollab.varsol, name, None), "cache_info", None)
        if info is None:
            return None
        ci = info()
        hits += ci.hits
        builds += ci.misses
    return hits, builds


def chunk_stats(chunk):
    """(items per reference second, p50, p90) of consecutive requests.

    A request the benchmark stopped has no latency of its own and completed
    no items, but its time counts towards the throughput.  Items of every
    request that ran to completion count, whatever its verdict; a failed
    request makes the run incorrect anyway.
    """
    done = [r for r in chunk if r.cls not in STOPPED]
    lat = [r.ref_latency for r in done] or [math.nan]
    rate = sum(r.req.items for r in done) / math.fsum(r.ref_latency for r in chunk)
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    return rate, statistics.median(lat), p90


def summarize(records):
    """Run statistics; times in reference seconds unless named ``wall``.

    Throughput and latency percentiles are medians over consecutive chunks
    of the run (at most CHUNKS, of at least CHUNK_REQUESTS requests each).
    On a shared machine other tenants slow the program down in bursts of a
    few seconds; a burst then spoils a chunk or two, and the median over
    chunks passes it by, where the 90th percentile of the whole run would
    take it in.
    """
    done = [r for r in records if r.cls not in STOPPED]
    lat = [r.ref_latency for r in done]
    wall = [r.latency for r in done]
    failed = [r for r in records if r.verdict.status == "failed"]
    ok = [r for r in records if r.verdict.status == "ok"]
    busy = math.fsum(r.ref_latency for r in records)
    busy_wall = math.fsum(r.latency for r in records)
    items = sum(r.req.items for r in done)
    k = max(1, min(CHUNKS, len(records) // CHUNK_REQUESTS))
    n = len(records)
    chunks = [chunk_stats(records[i * n // k:(i + 1) * n // k]) for i in range(k)]
    rate, p50, p90 = (statistics.median(c[j] for c in chunks) for j in range(3))
    return {
        "attempted": len(records),
        "failed": len(failed),
        "ok": len(ok),
        "unverified": len(records) - len(failed) - len(ok),
        "busy_s": busy,
        "busy_wall_s": busy_wall,
        "items": items,
        "chunks": k,
        "items_per_s": rate,
        "items_per_wall_s": items / busy_wall,
        "latency_p50_wall_s": statistics.median(wall) if wall else None,
        "kernel_ms": 1e3 * statistics.median(r.kernel_s for r in records),
        "latency_samples": len(lat),
        "latency_p50_s": p50,
        "latency_p90_s": p90,
        "beyond_p90": sum(1 for x in lat if x > p90),
        "failed_frac": len(failed) / len(records),
        "err_ratio_max": max((r.verdict.err_ratio for r in ok), default=None),
    }


def ledger(records, corners):
    """Failure classes of the timed requests and of the corner requests,
    the unverified requests, and the slowest timed requests."""
    classes = Counter(r.verdict.cls for r in records if r.verdict.status == "failed")
    unverified = [
        {"argv": r.req.argv, "reason": r.verdict.cls}
        for r in records if r.verdict.status == "unverified"
    ]
    slowest = sorted(records, key=lambda r: r.latency, reverse=True)[:5]
    return {
        "failure_classes": dict(sorted(classes.items())),
        "corners": [
            {"argv": r.req.argv, "latency_s": r.latency, "status": r.verdict.status,
             "class": r.verdict.cls, "detail": r.verdict.detail}
            for r in corners
        ],
        "unverified": unverified,
        "slowest": [
            {"latency_s": r.latency, "params": r.req.params,
             "status": r.verdict.status, "class": r.verdict.cls, "detail": r.verdict.detail}
            for r in slowest
        ],
    }


def corner_metrics(corners):
    """Per-class counts over the corner requests."""
    classes = Counter(r.verdict.cls for r in corners if r.verdict.status == "failed")
    out = {"corners.failed": float(sum(classes.values()))}
    for name in CORNER_CLASSES:
        out[f"corners.{name}"] = float(classes.pop(name, 0))
    out["corners.other"] = float(sum(classes.values()))
    return out


def layer_metrics(tracer, untraced, traced, summary):
    c = tracer.counts
    out = {k: c.get(k, 0.0) for k in (
        "hyp2f1.calls", "hyp2f1.points", "hyp2f1.self_s",
        "quad.calls", "quad.panels", "quad.evals", "quad.self_s",
        "varsol.calls", "varsol.profile_points", "varsol.self_s",
        "varsol.mode_builds", "varsol.mode_hits",
        "kappa.calls", "kappa.self_s",
        "cli.calls", "cli.self_s", "cli.bytes_out",
        "oracle.calls", "oracle.nodes", "oracle.self_s",
    )}
    if tracer.caches_gone:
        out["varsol.mode_builds"] = out["varsol.mode_hits"] = None
    out["oracle.err_ratio_max"] = summary["err_ratio_max"]
    out["hyp2f1.us_per_point"] = 1e6 * out["hyp2f1.self_s"] / max(out["hyp2f1.points"], 1)
    out["quad.evals_per_call"] = out["quad.evals"] / max(out["quad.calls"], 1)
    out["varsol.hyp_points_per_profile_point"] = (
        out["hyp2f1.points"] / max(out["varsol.profile_points"], 1)
    )
    out["trace.items_per_s_untraced"] = untraced["items_per_s"]
    out["trace.items_per_s_traced"] = traced["items_per_s"]
    out["trace.items_per_s_ratio"] = traced["items_per_s"] / untraced["items_per_s"]
    out["trace.spans"] = float(sum(1 for s in tracer.spans if s is not None))
    return out


def main(config: dict) -> dict:
    signal.signal(signal.SIGALRM, _on_alarm)
    install_quad_budget(mollab.varsol)
    for _ in range(REF_WINDOW):
        reference_kernel()
    wl = workloads.WORKLOADS[config["workload"]](config["seed"])
    seconds = float(config["seconds"])
    for req in wl.warmup():
        run_request(wl, req, "warmup")

    tracer = tracing.Tracer() if config["trace"] else None
    coin = random.Random(f"trace:{config['seed']}")
    records = timed_phase(wl, wl.timed(), seconds, tracer, coin)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.install(mollab)  # the oracle side of the checks
    for rec in records:
        rec.verdict = judge(wl, rec)
    if tracer is not None:
        tracer.uninstall()
    anchors = []
    for req in wl.anchors():
        rec = run_request(wl, req, "anchor")
        rec.verdict = judge(wl, rec)
        anchors.append(rec)
    corners = []
    for req in wl.corners() if tracer is not None else ():
        rec = run_request(wl, req, "corner")
        rec.verdict = judge(wl, rec)
        corners.append(rec)

    summary = summarize(records)
    anchors_ok = all(r.verdict.status == "ok" for r in anchors)
    correct = anchors_ok and summary["failed"] == 0
    result = {
        "workload": wl.name,
        "item_unit": wl.item_unit,
        "quad_budget": QUAD_BUDGET,
        "deadline_s": DEADLINE_S,
        "ref_kernel_s": REF_KERNEL_S,
        "correct": correct,
        "summary": summary,
        "peak_rss_mb": peak_rss_mb,
        "anchors": [
            {"argv": r.req.argv, "status": r.verdict.status, "class": r.verdict.cls,
             "detail": r.verdict.detail}
            for r in anchors
        ],
        "ledger": ledger(records, corners),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        untraced = summarize([r for r in records if r.phase == "plain"])
        traced = summarize([r for r in records if r.phase == "traced"])
        result["layers"] = layer_metrics(tracer, untraced, traced, summary)
        result["layers"].update(corner_metrics(corners))
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{wl.name}-seed{config['seed']}.json")
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
