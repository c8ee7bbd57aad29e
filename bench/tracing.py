"""Spans around the calls into each mollab layer, for the traced run.

Every wrapped function is replaced where it is bound (``varsol.hyp2f1_neg``,
``kappa.exp_weighted_integral``, ...), so the program's own files stay
untouched.  A span records its id, its parent, the request it belongs to,
its layer and name, start and end.  Spans are kept in memory; ``dump``
writes them when the run ends.  A layer's self time is its span time
minus the time of the spans it directly contains.

Layers
    cli      cli.main (one span per request)
    kappa    kappa.kappa_special, kappa.kappa_general
    varsol   varsol.s_profile and, as bound in kappa, s_prime_zero,
             s_prime and exp_weighted_integral; plus each call of a
             quadrature integrand (the closed-form S)
    quad     varsol.integrate, kappa.integrate
    hyp2f1   varsol.hyp2f1_neg, varsol.hyp2f1_deriv
    oracle   oracle.bvp_solve, and kappa.k_functional_direct and
             kappa.kappa_from_functional (the check side)
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, Optional

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, request, layer, name, start, end)
        self.stack = []  # open spans: [id, child seconds]
        self.request = -1
        self.counts = defaultdict(float)  # "layer.counter" -> value
        self.caches_gone = False
        self._patched = []

    # -- spans ---------------------------------------------------------------

    def _open(self):
        sid = len(self.spans)
        parent = self.stack[-1][0] if self.stack else -1
        self.spans.append(None)
        self.stack.append([sid, 0.0])
        return sid, parent, time.perf_counter()

    def _close(self, token, layer: str, name: str) -> None:
        end = time.perf_counter()
        sid, parent, start = token
        _, child = self.stack.pop()
        dur = end - start
        if self.stack:
            self.stack[-1][1] += dur
        self.spans[sid] = (sid, parent, self.request, layer, name, start, end)
        self.counts[f"{layer}.calls"] += 1
        self.counts[f"{layer}.self_s"] += dur - child

    def call(self, layer: str, name: str, fn: Callable, *args, **kwargs):
        token = self._open()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(token, layer, name)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, module, attr: str, layer: str,
             count: Optional[Callable[[tuple], None]] = None) -> None:
        """Replace ``module.attr`` by a span-recording wrapper."""
        fn = getattr(module, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(args)
            token = tracer._open()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(token, layer, attr)

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def wrap_integrate(self, module) -> None:
        """Trace adaptive quadrature: calls, panels, integrand evaluations,
        and the integrand itself as a varsol span."""
        real = module.integrate
        tracer = self
        c = self.counts

        def integrate(f, lo, hi, cfg=None):
            def integrand(x):
                n = int(np.size(x))
                c["quad.evals"] += n
                c["varsol.profile_points"] += n
                return tracer.call("varsol", "integrand", f, x)

            token = tracer._open()
            try:
                res = real(integrand, lo, hi, cfg)
            finally:
                tracer._close(token, "quad", "integrate")
            c["quad.panels"] += res.panels_used
            return res

        module.integrate = integrate
        self._patched.append((module, "integrate", real))

    def install(self, mollab) -> None:
        cli, kappa, oracle, varsol = mollab.cli, mollab.kappa, mollab.oracle, mollab.varsol
        c = self.counts

        def bump(key, n):
            c[key] += n

        def size_of(key, i):
            return lambda args: bump(key, int(np.size(args[i])))

        self.wrap(varsol, "hyp2f1_neg", "hyp2f1", count=size_of("hyp2f1.points", 3))
        self.wrap(varsol, "hyp2f1_deriv", "hyp2f1", count=lambda args: bump("hyp2f1.points", 1))
        self.wrap_integrate(varsol)
        self.wrap_integrate(kappa)
        self.wrap(varsol, "s_profile", "varsol", count=size_of("varsol.profile_points", 0))
        self.wrap(kappa, "s_prime", "varsol", count=size_of("varsol.profile_points", 0))
        self.wrap(kappa, "s_prime_zero", "varsol")
        self.wrap(kappa, "exp_weighted_integral", "varsol")
        self.wrap(kappa, "kappa_special", "kappa")
        self.wrap(kappa, "kappa_general", "kappa")
        self.wrap(cli, "main", "cli")
        self.wrap(oracle, "bvp_solve", "oracle", count=lambda args: bump("oracle.nodes", args[1]))
        self.wrap(kappa, "k_functional_direct", "oracle")
        self.wrap(kappa, "kappa_from_functional", "oracle")

    def add_cache_delta(self, before, after) -> None:
        """Add varsol mode-cache hits and builds between two (hits, builds)
        readings; either is None once the private caches are gone."""
        if before is None or after is None:
            self.caches_gone = True
            return
        self.counts["varsol.mode_hits"] += after[0] - before[0]
        self.counts["varsol.mode_builds"] += after[1] - before[1]

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "request", "layer", "name", "start", "end"],
                    "spans": [s for s in self.spans if s is not None],
                },
                fh,
                separators=(",", ":"),
            )
