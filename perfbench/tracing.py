"""Span tracer for the benchmark's traced run.

Spans are recorded from outside the program: while ``Tracer.installed()`` is
active, dunklsmooth's public entry points are replaced by timing wrappers.
A wrapper replaces a function both as a module attribute and under every name
another dunklsmooth module imported it as, so calls between modules are seen
too.  ``BesselEvaluator.__call__`` / ``.one_minus`` are wrapped on the class
and the experiment runners as ``EXPERIMENTS`` entries.  Everything is restored
on exit, so untraced passes run the unmodified program.

Each span records its name, start, end, parent span and root span.  Spans stay
in memory; ``dump`` writes them out when the run ends.  ``layer_metrics``
turns the spans under the benchmark's pass spans into per-module metrics.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import math
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

NAME, START, END, PARENT, ROOT, ATTRS = range(6)

PASS_SPAN = "bench.pass"
SMOOTHNESS_FNS = (
    "modulus",
    "diff_norm",
    "best_approx",
    "realization",
    "realization_candidate_min",
    "k_functional_upper",
)
P_TAGS = ("p1", "p2", "pinf")
EXPERIMENT_NAMES = (
    "jackson",
    "equivalence",
    "realization",
    "bernstein",
    "nikolskii_stechkin",
    "boas",
    "general_entire",
    "inverse",
)


def _p_tag(p) -> str:
    p = float(p)
    if p == math.inf:
        return "pinf"
    return f"p{p:g}"


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._seen_kernels: set[tuple] = set()
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self._stack[0] if self._stack else idx
        self.spans.append([name, time.perf_counter(), None, parent, root, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name_of, attrs_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name_of(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if attrs_of is not None:
                tracer.spans[idx][ATTRS] = attrs_of(args, kwargs, result)
            return result

        return traced

    # -- installing the wrappers -------------------------------------------

    def _patch_everywhere(self, module, attr, name_of, attrs_of=None) -> None:
        original = getattr(module, attr)
        traced = self._wrap(original, name_of, attrs_of)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "dunklsmooth" and not mod_name.startswith("dunklsmooth."):
                continue
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, traced)
                self._restore.append((setattr, mod, attr, original))

    def _patch_p_tagged(self, module, attr) -> None:
        fn = getattr(module, attr)
        p_index = list(inspect.signature(fn).parameters).index("p")

        def name_of(args, kwargs):
            p = kwargs["p"] if "p" in kwargs else args[p_index]
            return f"smoothness.{attr}.{_p_tag(p)}"

        self._patch_everywhere(module, attr, name_of)

    def _hankel_attrs(self, args, kwargs, result):
        f, lam = args[0], float(args[1] if len(args) > 1 else kwargs["lam"])
        out_grid = args[2] if len(args) > 2 else kwargs.get("out_grid")
        kernel = (lam, f.grid.key, (out_grid or f.grid).key)
        cold = kernel not in self._seen_kernels
        self._seen_kernels.add(kernel)
        digest = hashlib.blake2b(np.ascontiguousarray(f.values).tobytes(), digest_size=16)
        return {"input": kernel + (digest.hexdigest(),), "cold": cold}

    @contextmanager
    def installed(self):
        """Wrap the public entry points for the duration of the block."""
        import dunklsmooth.cli as cli
        import dunklsmooth.harness as harness
        import dunklsmooth.operators as operators
        import dunklsmooth.quad as quad
        import dunklsmooth.smoothness as smoothness
        import dunklsmooth.special as special
        import dunklsmooth.transforms as transforms

        def fixed(name):
            return lambda args, kwargs: name

        cls = special.BesselEvaluator
        for attr, name, attrs_of in (
            ("__call__", "special.bessel",
             lambda args, kwargs, result: {"points": int(np.size(args[1]))}),
            ("one_minus", "special.one_minus", None),
        ):
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(original, fixed(name), attrs_of))
            self._restore.append((setattr, cls, attr, original))

        for module, attr, name in (
            (quad, "lp_norm", "quad.lp_norm"),
            (quad, "nu_weights", "quad.nu_weights"),
            (quad, "load_radial_csv", "quad.csv_io"),
            (quad, "save_radial_csv", "quad.csv_io"),
            (transforms, "inverse_hankel", "transforms.inverse_hankel"),
            (transforms, "spectral_tail_l2", "transforms.spectral_tail_l2"),
            (transforms, "save_spectrum_csv", "transforms.spectrum_csv"),
            (transforms, "load_spectrum_csv", "transforms.spectrum_csv"),
            (transforms, "dunkl_transform_1d", "transforms.dunkl_1d"),
            (transforms, "dunkl_inverse_1d", "transforms.dunkl_1d"),
            (operators, "vallee_poussin", "operators.vallee_poussin"),
            (smoothness, "marchaud_bound", "smoothness.marchaud_bound"),
            (harness, "write_report", "harness.write_report"),
            (cli, "main", "cli.main"),
        ):
            self._patch_everywhere(module, attr, fixed(name))
        self._patch_everywhere(transforms, "hankel", fixed("transforms.hankel"), self._hankel_attrs)
        for attr in SMOOTHNESS_FNS:
            self._patch_p_tagged(smoothness, attr)

        def report_attrs(args, kwargs, report):
            return {"rows": len(report.rows), "failed_rows": sum(not r.passed for r in report.rows)}

        experiments = harness.EXPERIMENTS
        for exp_name, runner in list(experiments.items()):
            experiments[exp_name] = self._wrap(runner, fixed(f"harness.{exp_name}"), report_attrs)
            self._restore.append((experiments.__setitem__, exp_name, runner))
        try:
            yield self
        finally:
            while self._restore:
                restore, *target = self._restore.pop()
                restore(*target)

    # -- output ------------------------------------------------------------

    def dump(self, path: Path) -> None:
        fields = ("name", "start", "end", "parent", "root", "attrs")
        records = [dict(zip(fields, span)) for span in self.spans]
        path.write_text(json.dumps({"fields": fields, "spans": records}) + "\n")

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        return [span[END] - span[START] - c for span, c in zip(self.spans, child)]


def layer_names() -> list[str]:
    """Every per-module metric ``layer_metrics`` reports, in order."""
    names = [
        "special.bessel.calls",
        "special.bessel.points",
        "special.bessel.self_s",
        "special.bessel.ns_per_point",
        "special.one_minus.calls",
        "special.one_minus.self_s",
        "quad.lp_norm.calls",
        "quad.lp_norm.self_s",
        "quad.nu_weights.calls",
        "quad.csv_io.self_s",
        "transforms.hankel.calls",
        "transforms.hankel.self_s",
        "transforms.hankel.ms_p50",
        "transforms.hankel.distinct_inputs",
        "transforms.hankel.reuse_ratio",
        "transforms.kernel_builds",
        "transforms.kernel_build_s",
        "transforms.spectral_tail_l2.calls",
        "transforms.spectral_tail_l2.self_s",
        "transforms.inverse_hankel.calls",
        "transforms.inverse_hankel.self_s",
        "transforms.spectrum_csv.self_s",
        "transforms.dunkl_1d.calls",
        "transforms.dunkl_1d.self_s",
        "operators.vallee_poussin.calls",
        "operators.vallee_poussin.self_s",
    ]
    for fn in SMOOTHNESS_FNS:
        for tag in P_TAGS:
            names += [f"smoothness.{fn}.{tag}.calls", f"smoothness.{fn}.{tag}.self_s"]
    names.append("smoothness.marchaud_bound.self_s")
    names += [f"harness.{name}.self_s" for name in EXPERIMENT_NAMES]
    names += ["harness.write_report.self_s", "harness.rows", "harness.failed_rows"]
    names += ["cli.main.self_s", "cli.main.ms_p50"]
    return names


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-module metrics, averaged over the traced passes.

    Only spans inside a ``bench.pass`` span count, except
    ``transforms.kernel_build_s``: the median self time of a ``hankel`` call
    whose (lambda, grid) pair the run had not transformed before, wherever
    in the traced run it happened (set-up included).
    """
    spans = tracer.spans
    self_s = tracer.self_times()
    passes = [i for i, s in enumerate(spans) if s[NAME] == PASS_SPAN and s[PARENT] < 0]
    n_passes = len(passes)
    if n_passes == 0:
        raise ValueError("no traced pass to aggregate")
    in_pass = set(passes)

    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    attr_sums: dict[str, float] = {}
    distinct_per_pass: dict[int, set] = {root: set() for root in passes}
    cold_build_s = []
    for i, span in enumerate(spans):
        name, attrs = span[NAME], span[ATTRS] or {}
        if name == "transforms.hankel" and attrs.get("cold"):
            cold_build_s.append(self_s[i])
        if span[ROOT] not in in_pass or i in in_pass:
            continue
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + self_s[i]
        durations.setdefault(name, []).append(span[END] - span[START])
        for key, value in attrs.items():
            if key == "input":
                distinct_per_pass[span[ROOT]].add(value)
            elif key != "cold":
                attr_sums[key] = attr_sums.get(key, 0.0) + value

    def per_pass(value: float) -> float:
        return value / n_passes

    out: dict[str, float] = {}
    for name in layer_names():
        span_name, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = per_pass(calls.get(span_name, 0))
        elif stat == "self_s":
            out[name] = per_pass(busy.get(span_name, 0.0))
        elif stat == "ms_p50":
            samples = durations.get(span_name)
            out[name] = 1e3 * statistics.median(samples) if samples else 0.0
    points = attr_sums.get("points", 0.0)
    out["special.bessel.points"] = per_pass(points)
    out["special.bessel.ns_per_point"] = 1e9 * busy.get("special.bessel", 0.0) / points if points else 0.0
    hankel_calls = calls.get("transforms.hankel", 0)
    distinct = sum(len(inputs) for inputs in distinct_per_pass.values())
    out["transforms.hankel.distinct_inputs"] = per_pass(distinct)
    out["transforms.hankel.reuse_ratio"] = distinct / hankel_calls if hankel_calls else 0.0
    out["transforms.kernel_builds"] = per_pass(
        sum(1 for s in spans if s[ROOT] in in_pass and s[NAME] == "transforms.hankel"
            and (s[ATTRS] or {}).get("cold"))
    )
    out["transforms.kernel_build_s"] = statistics.median(cold_build_s) if cold_build_s else 0.0
    out["harness.rows"] = per_pass(attr_sums.get("rows", 0.0))
    out["harness.failed_rows"] = per_pass(attr_sums.get("failed_rows", 0.0))
    return {name: out[name] for name in layer_names()}
