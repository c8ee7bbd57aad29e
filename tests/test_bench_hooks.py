"""The benchmark's in-process hooks still fit the library's call shapes.

``bench/tracing.py`` and ``bench/worker.py`` patch names inside mollab
(``varsol.hyp2f1_neg`` with t as its 4th positional argument,
``varsol.integrate``, the three mode caches' ``cache_info``, ...).  This
runs one general ``kappa`` request through them, as a traced benchmark
request does, and checks that every counter the per-layer report reads
is filled.
"""

import contextlib
import io
from pathlib import Path

import mollab
import mollab.cli
from mollab import varsol

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_and_quad_budget_count_a_general_kappa(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import worker
    import workloads

    # install_quad_budget replaces varsol.integrate for the whole process
    monkeypatch.setattr(varsol, "integrate", varsol.integrate)
    real_neg = varsol.hyp2f1_neg
    worker.install_quad_budget(varsol)

    tracer = tracing.Tracer()
    tracer.install(mollab)
    try:
        before = worker.mode_cache_stats()
        out = io.StringIO()
        # a theta no other test uses, so the mode caches miss
        argv = ["kappa", "--theta", "0.3141", "--R", "2.718", "--beta", "1.1"]
        with contextlib.redirect_stdout(out):
            rc = mollab.cli.main(argv)
        after = worker.mode_cache_stats()
        mode = varsol.make_mode_general(0.3141, 2.718, 1.1)
        ref, _, why = workloads.kappa_reference(mode)
    finally:
        tracer.uninstall()
    tracer.add_cache_delta(before, after)

    assert rc == 0 and out.getvalue().startswith("theta=")
    assert ref is not None, why
    c = tracer.counts
    assert c["cli.calls"] == 1
    assert c["kappa.calls"] == 1
    assert c["hyp2f1.points"] > 0
    assert c["varsol.calls"] > 0
    assert c["quad.calls"] == 0  # no adaptive quadrature on the kappa path
    # per grid: bvp_solve, k_functional_direct and kappa_from_functional
    assert c["oracle.calls"] == 3 * len(workloads.KAPPA_ORACLE_NODES)
    assert c["oracle.nodes"] == sum(workloads.KAPPA_ORACLE_NODES)
    assert not tracer.caches_gone
    assert c["varsol.mode_builds"] == 3  # _zero_state, _w_cache, _c1_state
    assert c["varsol.mode_hits"] > 0
    assert varsol.hyp2f1_neg is real_neg
