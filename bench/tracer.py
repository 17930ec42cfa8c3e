"""Call tracing from outside the library, for the benchmark's traced runs.

Every layer function is replaced, in every ``dispersive_cqed`` module that
binds it, by a wrapper that records a span.  ``from .x import f`` binds ``f``
in the importing module at import time, so patching only the defining
module would miss most calls; the wrapper is installed under each name a
calling module uses.

Spans of the coarse layers (``modes``, ``lightmatter``, ``cli`` and the
``impedance`` entry points called once per operation) are kept one by one.
The high-frequency layers (``elliptic``, ``mattis_bardeen``,
``surface_impedance``, ``epsilon``) are aggregated per parent span as
(calls, total seconds, self seconds).  A span's self time is its duration
minus the time covered by its wrapped children.  Everything stays in memory
until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
import warnings
from collections import defaultdict

# defining module -> layer functions wrapped in traced runs
LAYER_FUNCTIONS = {
    "elliptic": ["carlson_rf", "carlson_rd", "ellip_incomplete_f", "ellip_incomplete_e",
                 "contour_quadrature"],
    "mattis_bardeen": ["sigma_tilde", "sigma_real_axis", "sigma_oracle"],
    "impedance": ["surface_impedance", "epsilon", "kk_parts", "calibrate_prefactor"],
    "modes": ["fixed_point_eigenfrequency", "dispersive_modes", "resonator_modes",
              "secular_roots", "greens_function"],
    "lightmatter": ["lamb_shift_report", "spectral_density"],
    "cli": ["main", "load_run_config"],
}
AGGREGATED = {"elliptic", "mattis_bardeen", "impedance.surface_impedance", "impedance.epsilon"}
FIXED_POINT = "modes.fixed_point_eigenfrequency"


def _aggregated(name: str) -> bool:
    return name in AGGREGATED or name.split(".")[0] in AGGREGATED


def fixed_point_key(args, kwargs) -> str:
    """Digest of (k_n, material, geometry, options): equal keys are the same solve."""
    text = repr((args, sorted(kwargs.items())))
    return hashlib.sha1(text.encode()).hexdigest()[:16]


class Tracer:
    """In-memory spans, per-parent aggregates and counters of one process."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.spans = []  # [span_id, parent_id, op, name, start_s, end_s, self_s]
        self.aggregates = defaultdict(lambda: [0, 0.0, 0.0])  # (parent id, name) -> stats
        self.counts = defaultdict(int)
        self.fixed_points = []  # (pass, key, impedance calls made by this solve)
        self.op = None
        self.pass_index = None
        self._stack = []  # [span_id or None when aggregated, child_seconds]
        self._next_id = 1

    # -- recording -------------------------------------------------------

    def _parent_span(self):
        for frame in reversed(self._stack):
            if frame[0] is not None:
                return frame[0]
        return 0

    def _call(self, name, fn, args, kwargs):
        span_id = None
        if not _aggregated(name):
            span_id, self._next_id = self._next_id, self._next_id + 1
        parent = self._parent_span()
        frame = [span_id, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += t1 - t0
            if span_id is None:
                stats = self.aggregates[(parent, name)]
                stats[0] += 1
                stats[1] += t1 - t0
                stats[2] += t1 - t0 - frame[1]
            else:
                self.spans.append([span_id, parent, self.op, name, t0, t1, t1 - t0 - frame[1]])

    def wrap(self, name, fn):
        special = {
            "elliptic.ellip_incomplete_f": self._incomplete,
            "elliptic.ellip_incomplete_e": self._incomplete,
            "elliptic.contour_quadrature": self._quadrature,
            "mattis_bardeen.sigma_real_axis": self._real_axis,
            FIXED_POINT: self._fixed_point,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if special is not None:
                return special(name, fn, args, kwargs)
            return self._call(name, fn, args, kwargs)

        return wrapper

    def _incomplete(self, name, fn, args, kwargs):
        method = kwargs.get("method", args[2] if len(args) > 2 else "auto")
        before = self.counts["quadrature_calls"]
        out = self._call(name, fn, args, kwargs)
        if method == "auto":
            self.counts["incomplete_auto"] += 1
            # the probe is one quadrature; a second one is the full-tolerance fallback
            if self.counts["quadrature_calls"] - before >= 2:
                self.counts["probe_fallbacks"] += 1
        return out

    def _quadrature(self, name, fn, args, kwargs):
        self.counts["quadrature_calls"] += 1
        integrand, rest = args[0], args[1:]
        counts = self.counts

        def counted(z):
            counts["quadrature_points"] += getattr(z, "size", 1)
            return integrand(z)

        return self._call(name, fn, (counted, *rest), kwargs)

    def _real_axis(self, name, fn, args, kwargs):
        nu = kwargs.get("nu", args[0] if args else None)
        if nu is not None and nu <= 2.0:
            self.counts["real_axis_below_gap"] += 1
        return self._call(name, fn, args, kwargs)

    def _fixed_point(self, name, fn, args, kwargs):
        from dispersive_cqed.errors import GapStraddle

        span_id = self._next_id
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", GapStraddle)
            try:
                out = self._call(name, fn, args, kwargs)
            finally:
                calls = self.aggregates.get((span_id, "impedance.surface_impedance"), [0])[0]
                self.fixed_points.append((self.pass_index, fixed_point_key(args, kwargs), calls))
        self.counts["gap_restarts"] += sum(issubclass(w.category, GapStraddle) for w in caught)
        for w in caught:  # hand the recorded warnings on unchanged
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return out

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every binding of every layer function in ``dispersive_cqed``."""
        import dispersive_cqed.cli  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sys.modules.items()
                   if n == "dispersive_cqed" or n.startswith("dispersive_cqed.")]
        for layer, names in LAYER_FUNCTIONS.items():
            defining = sys.modules[f"dispersive_cqed.{layer}"]
            for fn_name in names:
                original = getattr(defining, fn_name)
                wrapper = self.wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    # -- summaries -------------------------------------------------------

    def summary(self) -> dict:
        """Per-name totals, counters and fixed-point records (JSON-ready)."""
        per_name = defaultdict(lambda: [0, 0.0, 0.0])
        for (_, name), (calls, total, self_s) in self.aggregates.items():
            stats = per_name[name]
            stats[0] += calls
            stats[1] += total
            stats[2] += self_s
        for _, _, _, name, t0, t1, self_s in self.spans:
            stats = per_name[name]
            stats[0] += 1
            stats[1] += t1 - t0
            stats[2] += self_s
        return {"per_name": dict(per_name), "counts": dict(self.counts),
                "fixed_points": list(self.fixed_points)}

    def dump(self, path, extra=None):
        payload = {
            "summary": self.summary(),
            "spans_columns": ["span_id", "parent_id", "op", "name", "start_s", "end_s", "self_s"],
            "spans": self.spans,
            "aggregates_columns": ["parent_id", "name", "calls", "total_s", "self_s"],
            "aggregates": [[p, n, *stats] for (p, n), stats in self.aggregates.items()],
        }
        payload.update(extra or {})
        with open(path, "w") as fh:
            json.dump(payload, fh)
