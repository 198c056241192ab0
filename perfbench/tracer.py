"""Spans and counters around the public functions of each sharpsets module.

Nothing inside the package is patched: the tracer replaces module
attributes with wrappers and puts the originals back on `uninstall`.
A function is wrapped at every name it is reachable through (for example
`certify.enumerate_group` as well as `perm.enumerate_group`), because a
module that imported it by name calls it through its own attribute.

A span is `[name, start, end, parent, job]`; spans live in memory and
are handed back with the run's result. The layer of a span is the part
of its name before the first dot. Counts come from the arguments and
results of the wrapped calls.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

MODULES = ("perm", "gf", "geometry", "designs", "certify", "linsys", "sharp_search", "cli")
LAYERS = ("perm", "geometry", "designs", "certify", "linsys", "sharp_search", "cli")


def _count_enumerate(counts, args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    counts["perm.elements"] += len(result.elements)
    counts["perm.products"] += len(result.elements) * len(spec.generators)


def _count_generators(counts, args, kwargs, result):
    counts["geometry.generators"] += len(result.generators)


def _count_lines(counts, args, kwargs, result):
    counts["geometry.lines"] += len(result)


def _count_walk(counts, args, kwargs, result):
    G = args[0] if args else kwargs["G"]
    counts["certify.elements_walked"] += G.order


def _count_closure(counts, args, kwargs, result):
    family = args[0] if args else kwargs["family"]
    witness = kwargs.get("closure_witness")
    if witness is not None and not isinstance(witness, str):
        counts["certify.closure_applications"] += len(family) * len(witness)


def _count_cells(counts, args, kwargs, result):
    counts["linsys.cells"] += result.rows * result.cols


def _count_rank(counts, args, kwargs, result):
    counts["linsys.rank"] += result.notes.get("rank", 0)


def _count_znn(counts, args, kwargs, result):
    counts["linsys.znn_nodes"] += result.notes.get("nodes", 0)
    _count_rank(counts, args, kwargs, result)


def _count_search(counts, args, kwargs, result):
    counts["sharp_search.nodes"] += result.nodes


def _mod_p_span(args, kwargs):
    p = args[1] if len(args) > 1 else kwargs["p"]
    return "linsys.f2" if p == 2 else "linsys.fp"


# (module, function, span name or a function of the call's arguments, counter)
SPANS = (
    ("perm", "enumerate_group", "perm.enumerate", _count_enumerate),
    ("perm", "induced_action", "perm.induced", None),
    ("perm", "load_group", "perm.load", None),
    ("geometry", "symplectic_space", "geometry.space", None),
    ("geometry", "elliptic_quadric", "geometry.quadric", None),
    ("geometry", "enumerate_lines", "geometry.lines", _count_lines),
    ("geometry", "nonsingular_lines", "geometry.lines", None),
    ("geometry", "symplectic_generators", "geometry.generators", _count_generators),
    ("geometry", "frobenius_point_map", "geometry.lift", None),
    ("geometry", "vector_lift", "geometry.lift", None),
    ("designs", "golay_witt_design", "designs.build", None),
    ("designs", "witt_stabilizer_generators", "designs.build", None),
    ("designs", "mclaughlin_graph", "designs.build", None),
    ("designs", "blocks_avoiding", "designs.build", None),
    ("certify", "run_case", "certify.case", None),
    ("certify", "verify_certificate_enumerated", "certify.walk", _count_walk),
    ("certify", "verify_certificate_family", "certify.family", _count_closure),
    ("linsys", "build_full_system", "linsys.build", _count_cells),
    ("linsys", "solve_mod_p", _mod_p_span, _count_rank),
    ("linsys", "solve_rational", "linsys.q", _count_rank),
    ("linsys", "solve_integer", "linsys.z", _count_rank),
    ("linsys", "solve_nonneg_integer", "linsys.znn", _count_znn),
    ("linsys", "verify_witness", "linsys.witness_check", None),
    ("sharp_search", "build_cover_instance", "sharp_search.build", None),
    ("sharp_search", "find_sharp_set", "sharp_search.search", _count_search),
    ("sharp_search", "verify_sharp_set", "sharp_search.verify", None),
    ("cli", "main", "cli.main", None),
)

# Hot inner functions: counted, not timed, so the span list stays small.
COUNTS = (
    ("gf", "mul", "gf.mul_calls"),
    ("geometry", "symplectic_form", "geometry.form_calls"),
)

# Span name -> per-layer metric holding its self time.
SELF_METRICS = {
    "perm.enumerate": "perm.enumerate_s",
    "perm.induced": "perm.induced_s",
    "perm.load": "perm.load_s",
    "geometry.space": "geometry.space_s",
    "geometry.quadric": "geometry.quadric_s",
    "geometry.lines": "geometry.lines_s",
    "geometry.generators": "geometry.generators_s",
    "geometry.lift": "geometry.lift_s",
    "designs.build": "designs.build_s",
    "certify.case": "certify.case_self_s",
    "certify.walk": "certify.walk_s",
    "certify.family": "certify.family_s",
    "linsys.build": "linsys.build_s",
    "linsys.f2": "linsys.f2_s",
    "linsys.fp": "linsys.fp_s",
    "linsys.q": "linsys.q_s",
    "linsys.z": "linsys.z_s",
    "linsys.znn": "linsys.znn_s",
    "linsys.witness_check": "linsys.witness_check_s",
    "sharp_search.build": "sharp_search.build_s",
    "sharp_search.search": "sharp_search.search_s",
    "sharp_search.verify": "sharp_search.verify_s",
    "cli.main": "cli.self_s",
}

COUNT_METRICS = (
    "perm.elements", "perm.products", "gf.mul_calls", "geometry.generators",
    "geometry.form_calls", "geometry.lines", "certify.elements_walked",
    "certify.closure_applications", "linsys.cells", "linsys.rank",
    "linsys.znn_nodes", "sharp_search.nodes",
)


class Tracer:
    """Installs the wrappers for one job and collects its spans and counts."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _span_wrapper(self, fn, name, counter):
        spans, stack, counts, job = self.spans, self._stack, self.counts, self.job

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            spans.append([label, 0.0, 0.0, stack[-1] if stack else None, job])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, metric):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = {m: importlib.import_module(f"sharpsets.{m}") for m in MODULES}
        plan = [self._span_wrapper(getattr(modules[m], f), n, c) for m, f, n, c in SPANS]
        plan += [self._count_wrapper(getattr(modules[m], f), metric) for m, f, metric in COUNTS]
        for wrapper in plan:
            original = wrapper.__wrapped__
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the time covered by its direct children.

    Spans come from one thread and nest, so children of a span cover
    disjoint parts of it.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer numbers of one traced job: self times, layer totals, counts."""
    metrics = {name: 0.0 for name in SELF_METRICS.values()}
    metrics.update({f"{layer}.self_s": 0.0 for layer in LAYERS if layer != "cli"})
    for span, own in zip(spans, self_times(spans)):
        metrics[SELF_METRICS[span[0]]] += own
        layer = span[0].split(".", 1)[0]
        if layer != "cli":
            metrics[f"{layer}.self_s"] += own
    for name in COUNT_METRICS:
        metrics[name] = counts.get(name, 0)
    return metrics
