"""Spans around calls into each ``resnet`` module, recorded from outside.

``Tracer.install`` replaces every public function in every module namespace
of the package (re-imported names included), the entries of
``resnet.cli._BUILDERS`` and ``GroundedSystem.__init__``/``solve`` with
wrappers that record a span: group, start, end, parent span, op id. Spans
stay in memory until ``write``. ``uninstall`` puts every original back and
verifies that no wrapper is left behind.

A function's group is ``<module>.<part>`` from ``GROUPS``; public names not
listed there fall into ``<module>.other``, so new code is still timed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
from time import perf_counter

GROUPS = {
    "network": {
        "parse_network": "parse",
        "render_network": "render",
        "build_laplacian": "laplacian",
        **{name: "build" for name in (
            "path", "cycle", "clique2", "empty_network", "complete_bipartite",
            "cartesian_product", "cone", "join", "hypercube", "ladder",
            "block_tower", "fan")},
    },
    "exact": {
        "resistance_exact": "pair",
        "resistance_matrix_exact": "matrix",
        "GroundedSystem.__init__": "factor",
        "GroundedSystem.solve": "solve",
    },
    "spectra": {
        "generic_spectrum": "eigen",
        "network_spectrum": "eigen",
        "product_spectrum": "product",
        "resistance_spectral": "query",
        **{name: "closed" for name in (
            "path_spectrum", "cycle_spectrum", "clique2_spectrum",
            "hypercube_spectrum")},
    },
    "reduction": {
        "apply_step": "apply",
        "greedy_reduce": "driver",
        "fan_chain_reduce": "driver",
        "terminal_table": "certify",
        "trace_to_json": "export",
        "trace_to_text": "export",
        **{name: "rewrite" for name in (
            "series_reduce", "parallel_reduce", "delta_y", "eliminate_block",
            "eligible_blocks", "substitute_bipartite_star")},
    },
    "analysis": {
        "conjecture_scan": "scan",
        "resistance_diameter": "diameter",
        "product_resistance": "product",
        **{name: "export" for name in (
            "scan_to_csv", "scan_to_json", "diameter_to_csv", "diameter_to_json")},
    },
}
# modules whose whole public surface is one layer
WHOLE = {"formulas", "cli"}
STEP_KINDS = ("series", "parallel", "delta_y", "eliminate_block")

# span record fields
NAME, START, END, PARENT, OP, OK, INFO = range(7)


def group_of(module: str, qualname: str) -> str:
    layer = module.rsplit(".", 1)[-1]
    if layer in WHOLE:
        return layer
    return f"{layer}.{GROUPS.get(layer, {}).get(qualname, 'other')}"


def _bits(x):
    return x.numerator.bit_length() + x.denominator.bit_length()


def _info(group, args, out):
    """Sizes the per-layer counts need, read from arguments and results."""
    if group == "network.parse":
        return len(args[0])
    if group == "exact.factor":
        return (args[1].n - 1) ** 2
    if group == "exact.pair":
        return _bits(out)
    if group == "exact.matrix":
        return out  # bit sizes are read after the op, outside its time
    if group == "spectra.eigen" and len(args) == 1 and not hasattr(args[0], "edges"):
        return len(args[0]) ** 3
    if group == "reduction.certify":
        t, n = len(set(args[1])), args[0].n
        return (t * (t - 1) // 2, n * (n - 1) // 2)
    if group in ("reduction.export", "analysis.export"):
        return len(out)
    if group == "reduction.apply":
        return args[1].kind
    if group == "analysis.scan":
        return (len(out.rows), sum(n * 2**out.k for n in range(2, out.rows[-1].n + 1)))
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.op_id = None
        self._stack = []
        self._patches = []
        self._wrappers = {}

    # -- patching -----------------------------------------------------------

    def _wrap(self, fn, group):
        if fn in self._wrappers:
            return self._wrappers[fn]
        spans, stack = self.spans, self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [group, 0.0, 0.0, stack[-1] if stack else -1, tracer.op_id, True, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[OK] = False
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
            rec[INFO] = _info(group, args, out)
            return out

        traced.__bench_traced__ = True
        self._wrappers[fn] = traced
        return traced

    def _patch(self, owner, name, new):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def _modules(self):
        import resnet

        mods = [resnet]
        for info in pkgutil.iter_modules(resnet.__path__):
            mods.append(importlib.import_module(f"resnet.{info.name}"))
        return mods

    def install(self):
        from resnet import cli, exact

        for mod in self._modules():
            for name, obj in list(vars(mod).items()):
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__.startswith("resnet")):
                    self._patch(mod, name, self._wrap(obj, group_of(obj.__module__,
                                                                     obj.__qualname__)))
        for key, (fn, arity) in list(cli._BUILDERS.items()):
            wrapped = (self._wrap(fn, group_of(fn.__module__, fn.__qualname__)), arity)
            self._patches.append((cli._BUILDERS, key, (fn, arity)))
            cli._BUILDERS[key] = wrapped
        for meth in ("__init__", "solve"):
            fn = getattr(exact.GroundedSystem, meth)
            self._patch(exact.GroundedSystem, meth,
                        self._wrap(fn, group_of(fn.__module__, fn.__qualname__)))

    def uninstall(self):
        from resnet import cli, exact

        for owner, name, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[name] = orig
            else:
                setattr(owner, name, orig)
        self._patches.clear()
        left = [f"{m.__name__}.{n}" for m in self._modules()
                for n, obj in vars(m).items() if hasattr(obj, "__bench_traced__")]
        left += [k for k, (fn, _) in cli._BUILDERS.items()
                 if hasattr(fn, "__bench_traced__")]
        left += [m for m in ("__init__", "solve")
                 if hasattr(getattr(exact.GroundedSystem, m), "__bench_traced__")]
        if left:
            raise RuntimeError(f"tracing wrappers left installed: {left[:5]}")

    # -- per-op bookkeeping --------------------------------------------------

    def finish_op(self, first_span):
        """Resolve deferred sizes of the op's spans once its clock stopped."""
        for rec in self.spans[first_span:]:
            if rec[NAME] == "exact.matrix" and rec[INFO] is not None:
                rec[INFO] = max((_bits(r) for _, r in rec[INFO].items()), default=0)

    def write(self, path):
        with open(path, "w") as fh:
            for i, rec in enumerate(self.spans):
                info = rec[INFO]
                fh.write(json.dumps({
                    "id": i, "name": rec[NAME], "start": rec[START], "end": rec[END],
                    "parent": rec[PARENT], "op": rec[OP], "ok": rec[OK],
                    "info": info if isinstance(info, (int, str, list, tuple)) else None,
                }) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, op_time, rounds, stdout_bytes):
    """Per-layer numbers per traced round, from the spans of those rounds.

    ``op_time`` is the summed latency of the traced ops; coverage is the
    share of it inside top-level spans.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    self_s, total_s, calls = {}, {}, {}
    info = {}
    steps = dict.fromkeys(STEP_KINDS, 0)
    rewrite_ok = 0
    covered = 0.0
    for i, rec in enumerate(spans):
        name, dur = rec[NAME], rec[END] - rec[START]
        parent = spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else None
        self_s[name] = self_s.get(name, 0.0) + dur - child[i]
        if parent is None:
            covered += dur
        if parent != name:  # outermost span of its group counts as one call
            calls[name] = calls.get(name, 0) + 1
            total_s[name] = total_s.get(name, 0.0) + dur
        info.setdefault(name, []).append(rec[INFO])
        if name == "reduction.apply" and rec[INFO] in steps:
            steps[rec[INFO]] += 1
        if name == "reduction.rewrite" and rec[OK] and parent != name:
            rewrite_ok += 1

    def per_round(x):
        return x / rounds

    def s(name):
        return per_round(self_s.get(name, 0.0))

    def c(name):
        return per_round(calls.get(name, 0))

    def summed(name, pick=lambda x: x):
        return per_round(sum(pick(x) for x in info.get(name, ()) if x is not None))

    certify = [x for x in info.get("reduction.certify", ()) if x is not None]
    m = {
        "network.build.calls": c("network.build"),
        "network.build.self_s": s("network.build"),
        "network.parse.self_s": s("network.parse"),
        "network.parse.bytes": summed("network.parse"),
        "network.laplacian.self_s": s("network.laplacian"),
        "exact.pair.calls": c("exact.pair"),
        "exact.pair.self_s": s("exact.pair"),
        "exact.matrix.calls": c("exact.matrix"),
        "exact.matrix.self_s": s("exact.matrix"),
        "exact.factor.calls": c("exact.factor"),
        "exact.factor.self_s": s("exact.factor"),
        "exact.factor.dense_cells": summed("exact.factor"),
        "exact.solve.calls": c("exact.solve"),
        "exact.solve.self_s": s("exact.solve"),
        "exact.answer_bits_max": max(
            (x for g in ("exact.pair", "exact.matrix") for x in info.get(g, ())
             if isinstance(x, int)), default=0),
        "spectra.eigen.calls": c("spectra.eigen"),
        "spectra.eigen.self_s": s("spectra.eigen"),
        "spectra.eigen.n3_sum": summed("spectra.eigen"),
        "spectra.closed.self_s": s("spectra.closed"),
        "spectra.product.calls": c("spectra.product"),
        "spectra.product.self_s": s("spectra.product"),
        "spectra.query.calls": c("spectra.query"),
        "spectra.query.self_s": s("spectra.query"),
        "reduction.rewrite.attempts": c("reduction.rewrite"),
        "reduction.rewrite.success_ratio": _ratio(rewrite_ok, calls.get("reduction.rewrite", 0)),
        "reduction.rewrite.self_s": s("reduction.rewrite"),
        **{f"reduction.steps.{k}": per_round(v) for k, v in steps.items()},
        "reduction.apply.calls": c("reduction.apply"),
        "reduction.apply.self_s": s("reduction.apply"),
        "reduction.driver.self_s": s("reduction.driver"),
        "reduction.certify.calls": c("reduction.certify"),
        "reduction.certify.self_s": s("reduction.certify"),
        "reduction.certify.total_s": per_round(total_s.get("reduction.certify", 0.0)),
        "reduction.certify.useful_ratio": _ratio(sum(k for k, _ in certify),
                                                 sum(n for _, n in certify)),
        "reduction.export.self_s": s("reduction.export"),
        "reduction.export.bytes": summed("reduction.export"),
        "analysis.scan.calls": c("analysis.scan"),
        "analysis.scan.self_s": s("analysis.scan"),
        "analysis.scan.total_s": per_round(total_s.get("analysis.scan", 0.0)),
        "analysis.scan.rows": summed("analysis.scan", lambda x: x[0]),
        "analysis.scan.tower_vertices": summed("analysis.scan", lambda x: x[1]),
        "analysis.diameter.calls": c("analysis.diameter"),
        "analysis.diameter.self_s": s("analysis.diameter"),
        "analysis.product.self_s": s("analysis.product"),
        "analysis.export.self_s": s("analysis.export"),
        "formulas.self_s": s("formulas"),
        "cli.self_s": s("cli"),
        "cli.stdout_bytes": per_round(stdout_bytes),
        "trace.coverage": _ratio(covered, op_time),
    }
    return m
