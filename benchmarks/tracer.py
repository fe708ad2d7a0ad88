"""Outside-in tracer for the qubitbench package.

The package has no instrumentation of its own, so this module wraps its public
functions from outside.  Modules import functions by name (``suites`` holds its
own ``evolve``, ``dualrail`` its own ``kron_all``), so a wrapper is installed at
every module binding that refers to the original function, not only in the
defining module.  Wrappers live only inside ``Tracer.report``; outside it the
package runs unmodified.

Spans (name, start, end, parent, report id, size, ok) are kept in memory and
written out by ``Tracer.write``.  A span's self time is its duration minus the
durations of its direct children; one thread runs the package, so children
nest inside their parent and never overlap each other.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

PACKAGE = "qubitbench"

# Computed cost model for linalg.evolve on an n x n operator: a complex
# Hermitian eigendecomposition with vectors (about 4 x 9 n^3 real flops, the
# LAPACK estimate for the real symmetric case times four for complex) plus one
# complex n x n product (8 n^3).
EVOLVE_FLOPS_PER_N3 = 44


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _square_dim(args, kwargs):
    return int(_first_arg(args, kwargs).shape[0])


def _fock_dim(args, kwargs):
    return int(_first_arg(args, kwargs).dim)


def _stack_bytes(args, kwargs):
    """rows x cols x 16 of the complex constraint stack commutant_basis builds:
    one n^2 x n^2 block per generator or non-Hermitian adjoint."""
    alg = _first_arg(args, kwargs)
    n2 = alg.ambient_dim ** 2
    return len(alg.with_adjoints()) * n2 * n2 * 16


# (span name, module under the package, attribute, size function or None).
# An attribute "Class.method" is patched on the class.
TARGETS = (
    ("linalg.evolve", "linalg", "evolve", _square_dim),
    ("linalg.kron_all", "linalg", "kron_all", None),
    ("linalg.partial_trace", "linalg", "partial_trace", None),
    ("linalg.KrausChannel.apply", "linalg", "KrausChannel.apply", None),
    ("frames.verify_frame", "frames", "verify_frame", None),
    ("frames.commutant_basis", "frames", "commutant_basis", _stack_bytes),
    ("frames.isotypic_decomposition", "frames", "isotypic_decomposition", None),
    ("frames.generated_algebra_dimension", "frames", "generated_algebra_dimension", None),
    ("dualrail.beam_splitter", "dualrail", "beam_splitter", _fock_dim),
    ("dualrail.csign", "dualrail", "csign", _fock_dim),
    ("dualrail.number", "dualrail", "number", _fock_dim),
    ("dualrail.dual_rail_projector", "dualrail", "dual_rail_projector", _fock_dim),
    ("dualrail.ns_gate", "dualrail", "ns_gate", _fock_dim),
    ("dualrail.annihilation", "dualrail", "annihilation", _fock_dim),
    ("dualrail.creation", "dualrail", "creation", _fock_dim),
    ("repetition.error_operator", "repetition", "error_operator", None),
    ("repetition.invariance_suite", "repetition", "invariance_suite", None),
    ("collective.scalars", "collective", "scalars", None),
    ("collective.noiseless_frame", "collective", "noiseless_frame", None),
    ("collective.noiseless_invariance_suite", "collective", "noiseless_invariance_suite", None),
    ("suites.projector_number_identity_deviation", "suites",
     "projector_number_identity_deviation", None),
    ("suites.run_bosonic", "suites", "run_bosonic", None),
    ("suites.run_repetition", "suites", "run_repetition", None),
    ("suites.run_collective", "suites", "run_collective", None),
    ("suites.run_algebra", "suites", "run_algebra", None),
    ("suites.run_suite", "suites", "run_suite", None),
    ("cli.main", "cli", "main", None),
)

# Rows of the layer table that add up several spans.
GROUPS = {
    "dualrail.builders": ("dualrail.number", "dualrail.dual_rail_projector",
                          "dualrail.ns_gate", "dualrail.annihilation", "dualrail.creation"),
}


class Tracer:
    """Collects spans for reports run inside ``with tracer.report(id):``."""

    def __init__(self):
        # [name, start, end, parent index, report id, size, ok]
        self.spans = []
        self._stack = []
        self._report = None

    @contextlib.contextmanager
    def report(self, report_id):
        if self._report is not None:
            raise RuntimeError("traced reports do not nest")
        patches = self._install()
        self._report = report_id
        try:
            yield
        finally:
            self._report = None
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)

    def _install(self):
        owners = {module: importlib.import_module(f"{PACKAGE}.{module}")
                  for _, module, _, _ in TARGETS}
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        patches = []
        for span, module, attr, size in TARGETS:
            owner = owners[module]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self._wrap(span, original, size))
                patches.append((cls, method, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original, size)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        patches.append((mod, key, original))
        return patches

    def _wrap(self, name, fn, size):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = size(args, kwargs) if size else None
            index = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else None, self._report, extra, False])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                spans[index][6] = True
                return result
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()

        return traced

    def summary(self, report_id):
        """Per span name and group for one report: calls, ok, total_s, self_s, sizes.

        Every traced function has a row, with zeros when it was not called.
        """
        child_s = defaultdict(float)
        mine = [(i, s) for i, s in enumerate(self.spans) if s[4] == report_id]
        for _, (_, start, end, parent, _, _, _) in mine:
            if parent is not None:
                child_s[parent] += end - start
        rows = {span: {"calls": 0, "ok": 0, "total_s": 0.0, "self_s": 0.0, "sizes": []}
                for span, _, _, _ in TARGETS}
        for i, (name, start, end, _, _, size, ok) in mine:
            row = rows[name]
            row["calls"] += 1
            row["ok"] += ok
            row["total_s"] += end - start
            row["self_s"] += end - start - child_s[i]
            if size is not None:
                row["sizes"].append(size)
        for group, members in GROUPS.items():
            parts = [rows[m] for m in members]
            rows[group] = {
                "calls": sum(p["calls"] for p in parts),
                "ok": sum(p["ok"] for p in parts),
                "total_s": sum(p["total_s"] for p in parts),
                "self_s": sum(p["self_s"] for p in parts),
                "sizes": [x for p in parts for x in p["sizes"]],
            }
        return rows

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, report, size, ok in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "report": report,
                                     "size": size, "ok": ok}) + "\n")


def layer_values(rows):
    """Every per-layer value of one traced report, keyed by metric name."""
    values = {}
    for name, row in rows.items():
        values[f"{name}.calls"] = row["calls"]
        values[f"{name}.self_s"] = row["self_s"]
        values[f"{name}.s"] = row["total_s"]
    # Whole modules: the self time of every span the module owns.
    for module in sorted({module for _, module, _, _ in TARGETS}):
        values[f"{module}.self_s"] = sum(
            row["self_s"] for name, row in rows.items()
            if name.startswith(module + ".") and name not in GROUPS)
    values["frames.commutant_basis.stack_bytes"] = max(
        rows["frames.commutant_basis"]["sizes"], default=0)
    iso = rows["frames.isotypic_decomposition"]
    # 0 when the workload makes no attempt.
    values["frames.isotypic_decomposition.attempts_per_success"] = (
        iso["calls"] / iso["ok"] if iso["ok"] else 0.0)
    values["dualrail.dim_max"] = max(
        (n for name, row in rows.items() if name.startswith("dualrail.") for n in row["sizes"]),
        default=0)
    sizes = rows["linalg.evolve"]["sizes"]
    values["linalg.evolve.dim_max"] = max(sizes, default=0)
    values["linalg.evolve.flops"] = sum(EVOLVE_FLOPS_PER_N3 * n ** 3 for n in sizes)
    # cli.main's own time: argument parsing, json.dumps or render_text, and
    # the write; run_suite is its child span.
    values["cli.render_s"] = values["cli.main.self_s"]
    return values
