"""Span tracer for hodge-degen, installed from outside the program.

Every public module-level function of each layer module, and
``QMatrix.mul_vector``, is replaced by a wrapper that records a span
``[name, start, end, parent]``.  Names imported elsewhere by ``from ...
import`` are rebound too, in every ``hodge_degen`` module, so calls made
through those names are traced as well.  Spans stay in memory until the
job ends.  A layer's self time is the sum over its spans of the span's
duration minus the durations of its direct children.

Run as a script, it traces one CLI job in this process:

    PYTHONPATH=src python perfbench/tracer.py OUT.json -- basis --d 5

and writes the exit status, the report text, the spans and the counts
to OUT.json.
"""

from __future__ import annotations

import functools
import inspect
import io
import json
import sys
import time
from collections import Counter
from contextlib import redirect_stdout

LAYERS = ("exactlin", "arrangement", "degeneration", "cycles", "quadrature", "periods", "limits", "cli")
QUAD_PREFIX = "quadrature."

# Inclusive time of single functions, reported as <metric> = summed span
# durations.  None of these functions calls itself.
FUNCTION_TIMES = {
    "exactlin.mul_vector_s": "exactlin.QMatrix.mul_vector",
    "cycles.express_in_B_s": "cycles.express_in_B",
    "cycles.span_rank_s": "cycles.span_rank",
    "arrangement.tempered_arrangement_s": "arrangement.tempered_arrangement",
    "periods.membrane_quadrature_s": "periods.membrane_quadrature",
    "periods.check_functional_equations_s": "periods.check_functional_equations",
    "limits.independence_matrix_s": "limits.independence_matrix",
}
FUNCTION_CALLS = {
    "exactlin.mul_vector_calls": "exactlin.QMatrix.mul_vector",
    "degeneration.kernel_basis_builds": "degeneration.hodge_kernel_basis",
    "degeneration.phi_matrix_builds": "degeneration.phi_matrix",
    "cycles.express_in_B_calls": "cycles.express_in_B",
    "quadrature.adaptive_quad_calls": "quadrature.adaptive_quad",
    "periods.dilog_calls": "periods.dilog",
    "limits.limit_of_pairing_calls": "limits.limit_of_pairing",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, before=None):
        """fn wrapped in a span; ``before(args, kwargs)`` may count or
        rewrite the arguments and runs before the span opens."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def _count_elim(self, args, kwargs):
        """rows x cols of the matrix (or vector list) handed to elimination."""
        if args and hasattr(args[0], "rows"):
            m = args[0]
            self.counts["exactlin.elim_entries"] += m.rows * m.cols
        elif len(args) >= 2:
            vectors = list(args[0])  # in_span(vectors, v); may be any iterable
            args = (vectors, *args[1:])
            self.counts["exactlin.elim_entries"] += len(vectors) * len(args[1])
        return args, kwargs

    def _count_fevals(self, args, kwargs):
        """Count the integrand of a quadrature call made from another layer.

        Calls from inside the quadrature layer (double_integral's inner
        passes) evaluate integrands that are themselves counted already.
        """
        if self.stack and self.spans[self.stack[-1]][0].startswith(QUAD_PREFIX):
            return args, kwargs
        counts = self.counts

        def counted(f):
            def g(*a):
                counts["quadrature.fevals"] += 1
                return f(*a)

            return g

        if args:
            args = (counted(args[0]),) + args[1:]
        else:
            kwargs = dict(kwargs, f=counted(kwargs["f"]))
        return args, kwargs

    def install(self) -> None:
        """Wrap every layer's public functions and rebind every reference."""
        import hodge_degen.cli  # noqa: F401  (loads every layer module)
        from hodge_degen.exactlin import QMatrix

        hooks = {
            "exactlin.rank": self._count_elim,
            "exactlin.kernel_basis": self._count_elim,
            "exactlin.in_span": self._count_elim,
        }
        replacement = {}
        for layer in LAYERS:
            mod = sys.modules[f"hodge_degen.{layer}"]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    span = f"{layer}.{name}"
                    hook = self._count_fevals if layer == "quadrature" else hooks.get(span)
                    replacement[obj] = self.wrap(span, obj, hook)
        for modname, mod in list(sys.modules.items()):
            if modname == "hodge_degen" or modname.startswith("hodge_degen."):
                for name, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in replacement:
                        setattr(mod, name, replacement[obj])
        QMatrix.mul_vector = self.wrap("exactlin.QMatrix.mul_vector", QMatrix.mul_vector)


def summarize(spans: list[list], counts: dict) -> dict:
    """Per-layer self time, selected function times and call counts."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = {layer: 0.0 for layer in LAYERS}
    layer_calls = Counter()
    fn_time = Counter()
    fn_calls = Counter()
    for i, (name, start, end, _) in enumerate(spans):
        layer = name.split(".", 1)[0]
        self_s[layer] += (end - start) - child[i]
        fn_time[name] += end - start
        fn_calls[name] += 1
        if layer == "exactlin" and name != "exactlin.QMatrix.mul_vector":
            layer_calls[layer] += 1
    out = {f"{layer}.self_s": v for layer, v in self_s.items()}
    out["exactlin.calls"] = layer_calls["exactlin"]
    out["exactlin.elim_entries"] = counts.get("exactlin.elim_entries", 0)
    out["quadrature.fevals"] = counts.get("quadrature.fevals", 0)
    out.update({metric: float(fn_time[name]) for metric, name in FUNCTION_TIMES.items()})
    out.update({metric: fn_calls[name] for metric, name in FUNCTION_CALLS.items()})
    return out


def main(argv: list[str]) -> int:
    out_path, sep, job = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT.json -- <cli arguments>")
    import hodge_degen.cli as cli

    tracer = Tracer()
    tracer.install()
    buf = io.StringIO()
    with redirect_stdout(buf):
        try:
            rc = cli.main(["--format", "json", *job])
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
    with open(out_path, "w") as fh:
        json.dump({"rc": rc, "stdout": buf.getvalue(), "spans": tracer.spans, "counts": tracer.counts}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
