"""Per-layer tracing of carpetquant from outside the package.

The layers are the package modules carpet, constants, antichain (with the
product-measure scan it calls), quantize and runner.  `words` has no span of
its own: its functions run once per tree node, so it is measured through the
antichain sizes and counts.  Spans come from replacing module attributes that
callers look up at call time; see tracing.patched.
"""

from __future__ import annotations

import inspect
import math
import re
from typing import Any, Callable

from tracing import Span, Tracer, patched, self_times, wrap

# Relative distortion improvement below which a Lloyd iteration counts as idle.
USEFUL_IMPROVEMENT = 1e-6


def _args(fn: Callable, args: tuple, kwargs: dict) -> dict[str, Any]:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def tag(r: float) -> str:
    return f"r{r:g}"


class Layers:
    """Wrap targets for one traced run and the per-layer metrics they yield."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self._probing = False

    # hooks: run after the traced call, outside its span

    def _on_certify(self, tr: Tracer, sp: Span, args, kwargs, report) -> None:
        checks = [c for jc in report.certificates for c in jc.checks]
        checks.extend(report.cross_checks)
        tr.count("antichain.checks", len(checks))
        tr.count("antichain.checks_failed", sum(not c.passed for c in checks))

    def _on_upsilon(self, tr: Tracer, sp: Span, args, kwargs, antichain) -> None:
        tr.count("antichain.psi_total", antichain.psi)

    def _on_l1_l2(self, tr: Tracer, sp: Span, args, kwargs, res) -> None:
        tr.count("antichain.phi_total", res.phi)
        tr.count("antichain.tau_total", res.tau_count)
        tr.count("antichain.gamma_pairs_total", sum(res.gamma_sizes))

    def _on_write_csv(self, tr: Tracer, sp: Span, args, kwargs, _) -> None:
        tr.count("runner.csv_bytes", args[0].stat().st_size)

    def _on_proxy_distortion(self, tr: Tracer, sp: Span, args, kwargs, _) -> None:
        # antichain codebooks are labelled "antichain(<j>)"
        level = re.search(r"\((\d+)\)", args[1].origin)
        sp.attrs["j"] = level.group(1) if level else "unknown"

    def _lloyd_best_factory(self, quantize) -> Callable[[Callable], Callable]:
        def factory(fn: Callable) -> Callable:
            def hook(tr: Tracer, sp: Span, args, kwargs, res) -> None:
                a = _args(fn, args, kwargs)
                sp.attrs.update(r=float(a["r"]), k=int(a["k"]))
                # One distortion() call on the final codebook times the
                # nearest-centre kernel at this k; it is not Lloyd's work.
                with tr.span("trace.probe", r=float(a["r"]), k=int(a["k"])):
                    self._probing = True
                    try:
                        quantize.distortion(a["pool"], res.codebook, a["r"])
                    finally:
                        self._probing = False

            return wrap(self.tracer, fn, "quantize.lloyd_best", hook)

        return factory

    def _lloyd_factory(self, fn: Callable) -> Callable:
        tracer = self.tracer

        def traced(*args, **kwargs):
            a = _args(fn, args, kwargs)
            history = a["trace"] if a["trace"] is not None else []
            a["trace"] = history
            with tracer.span("quantize.lloyd") as sp:
                res = fn(**a)
            useful = sum(
                prev - cur > USEFUL_IMPROVEMENT * abs(prev)
                for prev, cur in zip(history, history[1:])
            )
            converged = len(history) >= 2 and (
                history[-2] - history[-1] <= a["tol"] * abs(history[-2])
            )
            capped = res.iters >= a["max_iters"] and not converged
            sp.attrs.update(iters=res.iters, useful=useful)
            tracer.count("quantize.lloyd_descents")
            tracer.count("quantize.lloyd_capped", int(capped))
            tracer.count("quantize.lloyd_repairs", res.repairs)
            return res

        return traced

    def _nearest_factory(self, quantize) -> Callable[[Callable], Callable]:
        tree_threshold = getattr(quantize, "_TREE_THRESHOLD", math.inf)

        def factory(fn: Callable) -> Callable:
            def counted(points, centers, *args, **kwargs):
                k = len(centers)
                if not self._probing and k <= tree_threshold:
                    # the dense kernel scores every point against every centre
                    pairs = len(points) * k
                    self.tracer.count("quantize.nearest_pair_evals", pairs)
                    self.tracer.count("quantize.nearest_bytes_computed", 8 * pairs)
                return fn(points, centers, *args, **kwargs)

            return counted

        return factory

    def replacements(self) -> list[tuple[Any, str, Callable]]:
        from carpetquant import antichain, cli, quantize, runner

        def spans(name: str, hook=None) -> Callable[[Callable], Callable]:
            return lambda fn: wrap(self.tracer, fn, name, hook)

        lloyd_best = self._lloyd_best_factory(quantize)
        return [
            (runner, "load_config", spans("carpet.load")),
            (runner, "validate_spec", spans("carpet.load")),
            (cli, "load_config", spans("carpet.load")),
            (cli, "validate_spec", spans("carpet.load")),
            (runner, "constants", spans("constants.solve")),
            (cli, "constants", spans("constants.solve")),
            (runner, "certify", spans("antichain.certify", self._on_certify)),
            (cli, "certify", spans("antichain.certify", self._on_certify)),
            (antichain, "build_upsilon", spans("antichain.build_upsilon", self._on_upsilon)),
            (cli, "build_upsilon", spans("antichain.build_upsilon", self._on_upsilon)),
            (antichain, "build_l1_l2", spans("antichain.build_l1_l2", self._on_l1_l2)),
            (antichain, "s2_family", spans("antichain.s2_family")),
            (antichain, "s1_scan", spans("product.s1_scan")),
            (runner, "sample", spans("quantize.sample")),
            (cli, "sample", spans("quantize.sample")),
            (runner, "lloyd_best", lloyd_best),
            (cli, "lloyd_best", lloyd_best),
            (quantize, "lloyd", self._lloyd_factory),
            (quantize, "_nearest", self._nearest_factory(quantize)),
            (cli, "antichain_codebook", spans("quantize.antichain_codebook")),
            (cli, "distortion", spans("quantize.proxy_distortion", self._on_proxy_distortion)),
            (runner, "write_csv", spans("runner.write_csv", self._on_write_csv)),
            (cli, "run", spans("runner.run")),
        ]

    def traced(self):
        """Context manager: wrappers in place inside, originals restored after."""
        return patched(self.replacements())

    def metrics(self, reps: int) -> dict[str, float]:
        """Per-layer metrics, each a per-repetition value unless it is a ratio."""
        spans = self.tracer.spans
        own = self_times(spans)
        per_rep = 1.0 / reps
        out: dict[str, float] = {}

        def add(name: str, value: float) -> None:
            out[name] = out.get(name, 0.0) + value

        lloyd_best_of: dict[int, tuple[float, int]] = {}
        probe: dict[tuple[float, int], list[float]] = {}
        iterations = useful = 0
        for i, sp in enumerate(spans):
            dur = sp.end - sp.start
            name = sp.name
            if name == "quantize.lloyd_best":
                r, k = sp.attrs["r"], sp.attrs["k"]
                lloyd_best_of[i] = (r, k)
                add(f"quantize.lloyd_best_s.{tag(r)}.k{k}", dur * per_rep)
            elif name == "quantize.lloyd":
                if sp.parent in lloyd_best_of:
                    r, k = lloyd_best_of[sp.parent]
                    add(f"quantize.lloyd_iters.{tag(r)}.k{k}", sp.attrs["iters"] * per_rep)
                iterations += sp.attrs["iters"]
                useful += sp.attrs["useful"]
            elif name == "trace.probe":
                probe.setdefault((sp.attrs["r"], sp.attrs["k"]), []).append(dur)
            elif name == "quantize.proxy_distortion":
                add(f"quantize.proxy_distortion_s.j{sp.attrs['j']}", dur * per_rep)
            elif name != "runner.run":
                add(f"{name}_s", dur * per_rep)
            if name in ("antichain.certify", "runner.run"):
                add(f"{name}_self_s", own[i] * per_rep)

        # Derived: Lloyd time minus iterations times one nearest-centre call.
        by_k: dict[int, list[float]] = {}
        for (r, k), ts in probe.items():
            t = sum(ts) / len(ts)
            by_k.setdefault(k, []).append(t)
            best = out.get(f"quantize.lloyd_best_s.{tag(r)}.k{k}", 0.0)
            iters = out.get(f"quantize.lloyd_iters.{tag(r)}.k{k}", 0.0)
            add(f"quantize.center_update_s.{tag(r)}", best - iters * t)
        for k, ts in by_k.items():
            out[f"quantize.nearest_s.k{k}"] = sum(ts) / len(ts)

        out["quantize.lloyd_useful_iter_ratio"] = useful / iterations if iterations else 0.0
        for name, value in self.tracer.counts.items():
            out[name] = value * per_rep
        return out

