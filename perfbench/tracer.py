"""Outside-in layer spans for a traced benchmark run.

The tracer wraps the public functions of each opspectra layer (and the
``numpy.linalg`` kernels they call) from outside the package: every module
binding of a wrapped function is replaced, so ``from .numerics import
discrete_eigs_below`` inside ``opspectra.classify`` is traced as well as
``opspectra.numerics.discrete_eigs_below``.  ``uninstall`` restores every
original binding.  Nothing under ``src/`` is edited.

A span records calls, total (outermost) time and self time, which is its
duration minus the time its child spans cover.  Counts such as matrix sizes
are computed from arguments, so they repeat exactly for a fixed input list.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Span name -> (module, attribute).  Methods are wrapped on their class.
LAYER_FUNCTIONS = {
    "core.compose": ("opspectra.core", "StructuredOperator.compose"),
    "core.add": ("opspectra.core", "StructuredOperator.__add__"),
    "core.truncate": ("opspectra.core", "StructuredOperator.truncate"),
    "numerics.discrete_eigs_below": ("opspectra.numerics", "discrete_eigs_below"),
    "numerics.operator_norm": ("opspectra.numerics", "operator_norm"),
    "numerics.positivity_verdict": ("opspectra.numerics", "positivity_verdict"),
    "numerics.region_clusters": ("opspectra.classify", "_region_clusters"),
    "symbols.winding_regions": ("opspectra.symbols", "winding_regions"),
    "symbols.polygon_winding": ("opspectra.symbols", "polygon_winding"),
    "symbols.winding": ("opspectra.symbols", "winding"),
    "symbols.extremum": ("opspectra.symbols", "_refined_extremum"),
    "symbols.extremum_signed": ("opspectra.numerics", "symbol_min_modulus_signed"),
    "symbols.modulus_constant": ("opspectra.symbols", "modulus_constant"),
    "symbols.constant_value": ("opspectra.symbols", "constant_value"),
    "classify.check_selfadjoint": ("opspectra.classify", "check_selfadjoint"),
    "classify.check_normal": ("opspectra.classify", "check_normal"),
    "classify.check_hyponormal": ("opspectra.classify", "check_hyponormal"),
    "classify.check_paranormal": ("opspectra.classify", "check_paranormal"),
    "classify.check_an": ("opspectra.classify", "check_an"),
    "classify.check_am_normal": ("opspectra.classify", "check_am_normal"),
    "classify.spectral_summary": ("opspectra.classify", "spectral_summary"),
    "decompose.structure_decompose": ("opspectra.decompose", "structure_decompose"),
    "decompose.verify_decomposition": ("opspectra.decompose", "verify_decomposition"),
    "decompose.normality_from_blocks": ("opspectra.decompose", "normality_from_blocks"),
    "decompose.spectrum_inclusion_check": ("opspectra.decompose", "spectrum_inclusion_check"),
    "specfiles.resolve_spec": ("opspectra.specfiles", "resolve_spec"),
    "cli.main": ("opspectra.cli", "main"),
}

KERNELS = ("eigvalsh", "eigvals", "eigh", "svd")

# The n/2n stabilization loops: each eigen or norm kernel they call directly
# is one truncation size tried.
LOOPS = ("numerics.discrete_eigs_below", "numerics.operator_norm",
         "numerics.region_clusters")

# Spans whose time is summed into one reported metric.
MERGED = {"symbols.extremum_signed": "symbols.extremum",
          "symbols.modulus_constant": "symbols.sampled",
          "symbols.constant_value": "symbols.sampled"}

CALLS_AND_SELF = ("core.compose", "core.add", "core.truncate",
                  "numerics.discrete_eigs_below", "numerics.operator_norm",
                  "numerics.positivity_verdict", "numerics.region_clusters",
                  "kernel.eigvalsh", "kernel.eigvals", "kernel.eigh", "kernel.svd",
                  "symbols.winding_regions", "symbols.polygon_winding",
                  "symbols.winding", "symbols.extremum", "symbols.sampled")
TOTALS = ("classify.check_selfadjoint", "classify.check_normal",
          "classify.check_hyponormal", "classify.check_paranormal",
          "classify.check_an", "classify.check_am_normal",
          "classify.spectral_summary", "decompose.structure_decompose",
          "decompose.verify_decomposition", "decompose.normality_from_blocks",
          "decompose.spectrum_inclusion_check", "specfiles.resolve_spec")


def _resolve(module_name, dotted):
    obj = sys.modules[module_name]
    *owners, attr = dotted.split(".")
    for name in owners:
        obj = getattr(obj, name)
    return obj, attr


class Tracer:
    """Span recorder; ``install`` wraps the layers, ``uninstall`` restores them."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []             # [name, child seconds]
        self._active = defaultdict(int)
        self._patches = []           # (owner, attribute, original)
        self.op_seconds = 0.0
        self.uncovered_seconds = 0.0

    # -- recording ------------------------------------------------------------

    def _enter(self, name):
        frame = [name, 0.0]
        self._stack.append(frame)
        self._active[name] += 1
        return frame, time.perf_counter()

    def _exit(self, frame, started):
        elapsed = time.perf_counter() - started
        self._stack.pop()
        name = frame[0]
        self._active[name] -= 1
        self.calls[name] += 1
        self.self_s[name] += elapsed - frame[1]
        if not self._active[name]:
            self.total_s[name] += elapsed
        if self._stack:
            self._stack[-1][1] += elapsed
        return elapsed

    def parent(self):
        return self._stack[-1][0] if self._stack else None

    def operation(self, fn):
        """Run one benchmark operation as the root span; returns fn()."""
        frame, started = self._enter("op")
        try:
            return fn()
        finally:
            elapsed = self._exit(frame, started)
            self.op_seconds += elapsed
            self.uncovered_seconds += elapsed - frame[1]

    def _span(self, name, fn, measure=None, outcome=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:        # outside a benchmark operation
                return fn(*args, **kwargs)
            if measure is not None:
                measure(tracer.parent(), args, kwargs)
            frame, started = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if outcome is not None:
                    outcome(None, exc)
                raise
            finally:
                tracer._exit(frame, started)
            if outcome is not None:
                outcome(result, None)
            return result

        return wrapper

    # -- computed counts ------------------------------------------------------

    def _kernel_measure(self, kernel):
        def measure(parent, args, kwargs):
            shape = getattr(args[0], "shape", (0, 0))
            rows, cols = shape[-2], shape[-1]
            n = max(rows, cols)
            self.counts[f"kernel.{kernel}.n3"] += rows * cols * min(rows, cols)
            key = f"kernel.{kernel}.max_n"
            self.counts[key] = max(self.counts[key], n)
            if parent in LOOPS:
                self.counts["numerics.stabilization.rounds"] += 1
                key = "numerics.stabilization.max_n"
                self.counts[key] = max(self.counts[key], n)
        return measure

    def _truncate_measure(self, parent, args, kwargs):
        n = args[1] if len(args) > 1 else kwargs["n"]
        self.counts["core.truncate.cells"] += n * n

    def _shift_measure(self, parent, args, kwargs):
        if parent == "classify.check_paranormal":
            self.counts["classify.check_paranormal.shifts"] += 1

    def _unstable(self, name):
        from opspectra.errors import NotStabilized

        def outcome(result, exc):
            if exc is not None:
                unstable = isinstance(exc, NotStabilized)
            elif name == "numerics.discrete_eigs_below":
                unstable = not result.stabilized
            elif name == "numerics.region_clusters":
                unstable = not result[1]
            else:
                unstable = False
            if unstable:
                self.counts["numerics.stabilization.unstable"] += 1
        return outcome

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _rebind_everywhere(self, original, replacement):
        """Replace every opspectra module binding of ``original``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "opspectra"
                                      or mod_name.startswith("opspectra.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    def install(self):
        import numpy as np
        import opspectra.cli  # noqa: F401  (load every module before rebinding)
        import opspectra.suites  # noqa: F401
        from opspectra.core import DiagonalDescriptor

        for name, (module_name, dotted) in LAYER_FUNCTIONS.items():
            owner, attr = _resolve(module_name, dotted)
            original = getattr(owner, attr)
            measure = outcome = None
            if name == "core.truncate":
                measure = self._truncate_measure
            elif name == "numerics.positivity_verdict":
                measure = self._shift_measure
            if name in LOOPS:
                outcome = self._unstable(name)
            wrapped = self._span(name, original, measure, outcome)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
            else:
                self._rebind_everywhere(original, wrapped)

        for kernel in KERNELS:
            original = getattr(np.linalg, kernel)
            self._patch(np.linalg, kernel, self._span(
                f"kernel.{kernel}", original, self._kernel_measure(kernel)))

        # norm(., 2) of a matrix is an SVD; other norms pass straight through.
        norm = np.linalg.norm
        svd_span = self._span("kernel.svd", norm, self._kernel_measure("svd"))

        @functools.wraps(norm)
        def traced_norm(x, ord=None, *args, **kwargs):
            if ord == 2 and getattr(x, "ndim", 0) == 2:
                return svd_span(x, ord, *args, **kwargs)
            return norm(x, ord, *args, **kwargs)

        self._patch(np.linalg, "norm", traced_norm)

        post_init = DiagonalDescriptor.__post_init__

        @functools.wraps(post_init)
        def counted_post_init(desc):
            if self._stack:
                self.counts["core.descriptor.count"] += 1
            post_init(desc)

        self._patch(DiagonalDescriptor, "__post_init__", counted_post_init)

    def uninstall(self):
        """Restore every patched binding; returns True when all are back."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        return all(getattr(owner, attr) is original
                   for owner, attr, original in patches)

    # -- report ---------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics in the names BENCHMARK.json lists."""
        calls, self_s = defaultdict(int), defaultdict(float)
        for name in set(self.calls) | set(self.self_s):
            key = MERGED.get(name, name)
            calls[key] += self.calls[name]
            self_s[key] += self.self_s[name]
        out = {}
        for name in CALLS_AND_SELF:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        for name in TOTALS:
            out[f"{name}.total_s"] = (self.total_s[name], "s")
        out["cli.main.self_s"] = (self.self_s["cli.main"], "s")
        for key in ("core.descriptor.count", "core.truncate.cells",
                    "numerics.stabilization.rounds", "numerics.stabilization.max_n",
                    "numerics.stabilization.unstable", "kernel.eigvalsh.n3",
                    "kernel.eigvalsh.max_n", "kernel.eigvals.n3", "kernel.svd.n3",
                    "classify.check_paranormal.shifts"):
            out[key] = (self.counts[key], "count")
        out["trace.uncovered_share"] = (
            self.uncovered_seconds / self.op_seconds if self.op_seconds else 0.0,
            "ratio")
        return out
