"""Outside-in tracer for the conelab benchmark.

The tracer wraps conelab's public entry points from the benchmark's side: it
replaces each function in every module namespace where the name is bound
(``suites`` binds ``make_report``, ``sin`` and friends by name, so patching
``report.make_report`` alone would miss its calls), and each method or
property on its class.  ``Jet.__rmul__``, ``__radd__`` and ``__rsub__`` are
separate class attributes and are wrapped one by one.

Calls to the wrapped module entry points become spans (name, start, end,
parent, op id).  The jet ring operations are far too frequent for one span
per call (a sweep pass makes about 250k of them), so their calls, exclusive
seconds, multiplications and computed bytes are aggregated on the innermost
open span instead.  ``Jet.truncate`` stays unwrapped: it runs about 109k
times per ``weitzenboeck`` op and is a slice.

Spans and counters are kept in memory; ``write_spans`` writes them out when
the benchmark ends.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import defaultdict

perf_counter = time.perf_counter

# span group -> entry points, as "module:attribute" or "module:Class.attribute"
SPAN_GROUPS = {
    "suites.run": ["suites:run_suite"],
    "suites.integrand": ["suites:integrand_values"],
    "report.make": ["report:make_report", "report:error_report"],
    "report.json": ["report:report_json"],
    "chart.metric": ["chart:ManifoldChart.metric_components", "chart:jet_point"],
    # SplitMix64.uniform is left bare: it runs once per coordinate drawn
    "chart.sample": ["chart:ManifoldChart.sample_points", "rng:SplitMix64.uniforms",
                     "rng:SplitMix64.unit_vector"],
    "geometry.ginv": ["geometry:PointGeometry.ginv", "geometry:inverse_metric"],
    "geometry.gamma": ["geometry:PointGeometry.gamma"],
    "geometry.curvature": ["geometry:PointGeometry.riemann",
                           "geometry:PointGeometry.riemann_low",
                           "geometry:PointGeometry.ricci",
                           "geometry:PointGeometry.scalar_curvature"],
    "geometry.covd": ["geometry:PointGeometry.covd"],
    "geometry.operators": ["geometry:PointGeometry.laplacian_scalar",
                           "geometry:PointGeometry.codifferential_oneform"],
    # the remaining geometry helpers only feed geometry.self_s
    "geometry.other": ["geometry:PointGeometry.g", "geometry:PointGeometry.g_values",
                       "geometry:PointGeometry.ginv_values",
                       "geometry:PointGeometry.raise_index",
                       "geometry:PointGeometry.lower_index",
                       "geometry:tmap", "geometry:dpartial", "geometry:grad",
                       "geometry:tvalues", "geometry:contract",
                       "geometry:exterior_derivative", "geometry:wedge_oneform",
                       "geometry:interior_product", "geometry:norm_squared",
                       "geometry:inner_product", "geometry:orthonormal_frame_values"],
    "cone.geometry": ["cone:cone_geometry", "cone:base_geometry"],
    "cone.residuals": ["cone:block_metric_residuals",
                       "cone:connection_relation_residuals",
                       "cone:form_relation_residuals", "cone:dr_relation_residuals",
                       "cone:curvature_relation_residuals",
                       "cone:lemma_codifferential_residuals",
                       "cone:lemma_laplacian_residuals"],
    "contact.residuals": ["contact:unit_length_residuals", "contact:kc_residuals",
                          "contact:reeb_residuals", "contact:killing_residuals",
                          "contact:ricci_reeb_deficit", "contact:sasaki_residuals"],
    "contact.symplectic": ["contact:symplectic_residuals",
                           "contact:parallel_omega_residuals"],
    "pairs.residuals": ["pairs:anticommutator_lambda",
                        "pairs:commutator_square_residuals",
                        "pairs:third_structure_values",
                        "pairs:third_structure_residuals",
                        "pairs:parallel_third_structure_residuals",
                        "pairs:quaternion_relation_residuals",
                        "pairs:s2_family_coefficients"],
    "weitzenboeck.data": ["weitzenboeck:weitzenboeck_data"],
    "weitzenboeck.diagnostics": ["weitzenboeck:radial_parallel_residuals",
                                 "weitzenboeck:omega_derivative_blocks",
                                 "weitzenboeck:phi_identity_residuals",
                                 "weitzenboeck:phi_invariance_residuals",
                                 "weitzenboeck:ricci_split_residuals",
                                 "weitzenboeck:star_scalar_consistency",
                                 "weitzenboeck:scaling_ratio"],
    "quadrature.level_set": ["quadrature:integrate_level_set"],
}

# jet ring-operation kind -> Jet methods
JET_KINDS = {
    "mul": ["__mul__", "__rmul__"],
    "add": ["__add__", "__radd__", "__sub__", "__rsub__", "__neg__"],
    "series": ["sin", "cos", "exp", "log", "power", "sqrt", "reciprocal"],
    "partial": ["partial"],
}

KINDS = tuple(JET_KINDS)
FLOAT_BYTES = 8

# frame slots: span frames and jet frames share the first two
_START, _CHILD, _NAME, _ID, _PARENT, _GROUP, _JETS = range(7)


class Tracer:
    """Span recorder with per-span jet counters."""

    def __init__(self):
        self.op = None                    # id of the current benchmark op
        self.spans = []                   # finished spans, as tuples
        self.stack = []                   # open frames (spans and jet ops)
        self.open_spans = []              # open span frames only
        self.totals = defaultdict(float)  # metric name -> value
        self._active = defaultdict(int)   # group -> open span count
        self._next_id = 0
        self._pairs = {}

    # -- spans --------------------------------------------------------------

    def begin(self, name, group):
        parent = self.open_spans[-1][_ID] if self.open_spans else None
        self._next_id += 1
        # jet counters per kind: calls, exclusive seconds, mults, bytes
        frame = [perf_counter(), 0.0, name, self._next_id, parent, group,
                 [[0, 0.0, 0, 0] for _ in KINDS]]
        self.stack.append(frame)
        self.open_spans.append(frame)
        self._active[group] += 1
        return frame

    def end(self, frame):
        end = perf_counter()
        self.stack.pop()
        self.open_spans.pop()
        group = frame[_GROUP]
        self._active[group] -= 1
        dur = end - frame[_START]
        if self.stack:
            self.stack[-1][_CHILD] += dur
        self_s = dur - frame[_CHILD]
        t = self.totals
        t[group + ".calls"] += 1
        t[group + ".self_s"] += self_s
        if not self._active[group]:       # outermost span of its group
            t[group + ".s"] += dur
        for kind, (calls, secs, mults, nbytes) in zip(KINDS, frame[_JETS]):
            if calls:
                t[f"jets.{kind}.calls"] += calls
                t[f"jets.{kind}.s"] += secs
                if kind == "mul":
                    t["jets.mul.mults"] += mults
                    t["jets.mul.bytes"] += nbytes
        self.spans.append((frame[_ID], frame[_NAME], frame[_START], end,
                           frame[_PARENT], self.op, self_s, frame[_JETS]))

    def span(self, name, group, fn, count=None):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer.begin(name, group)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(frame)
            if count is not None:
                count(tracer.totals, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- jet operations -------------------------------------------------------

    def _pair_count(self, dim, order):
        """Coefficient pairs of a dense truncated product: C(order + 2 dim, 2 dim)."""
        key = (dim, order)
        if key not in self._pairs:
            self._pairs[key] = math.comb(order + 2 * dim, 2 * dim)
        return self._pairs[key]

    def jet(self, kind, fn, jet_type):
        """Wrap a Jet method; its counts land on the innermost open span."""
        stack = self.stack
        open_spans = self.open_spans
        slot = KINDS.index(kind)
        is_mul = kind == "mul"
        pair_count = self._pair_count

        def wrapper(*args):
            t0 = perf_counter()
            frame = [t0, 0.0]
            stack.append(frame)
            try:
                result = fn(*args)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][_CHILD] += dur
            if not open_spans:
                return result
            counters = open_spans[-1][_JETS][slot]
            counters[0] += 1
            counters[1] += dur - frame[_CHILD]
            if is_mul:
                batch, ncoef = result.coeffs.shape
                if isinstance(args[1], jet_type):
                    # gather a[:, left] and b[:, right], their product, scatter
                    pairs = pair_count(result.dim, result.order)
                    counters[2] += batch * pairs
                    counters[3] += FLOAT_BYTES * batch * (3 * pairs + ncoef)
                else:
                    # coefficient-wise scaling: read and write the coefficients
                    counters[2] += batch * ncoef
                    counters[3] += FLOAT_BYTES * batch * 2 * ncoef
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output -----------------------------------------------------------------

    def write_spans(self, path):
        """One JSON object per span: name, start, end, parent, op and jet counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op, self_s, jets in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "self_s": self_s,
                    "jets": {k: dict(zip(("calls", "s", "mults", "bytes"), c))
                             for k, c in zip(KINDS, jets) if c[0]},
                }) + "\n")


# suites passes these arguments positionally:
# weitzenboeck_data(sympl, base_points, ...) and integrate_level_set(cone, r, fn, counts)
def _count_samples(totals, args, kwargs):
    totals["weitzenboeck.data.samples"] += len(args[1])


def _count_nodes(totals, args, kwargs):
    cone, counts = args[0], args[3]
    if isinstance(counts, int):
        counts = (counts,) * cone.base.dim
    totals["quadrature.nodes"] += math.prod(counts)


_COUNTERS = {"weitzenboeck.data": _count_samples,
             "quadrature.level_set": _count_nodes}


def install(conelab):
    """Wrap conelab's entry points in place; returns the tracer."""
    tracer = Tracer()
    modules = [conelab] + [importlib.import_module(f"conelab.{m}") for m in
                           ("catalog", "chart", "cli", "cone", "contact", "geometry",
                            "jets", "pairs", "quadrature", "report", "rng",
                            "suites", "weitzenboeck")]
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules[1:]}

    for group, targets in SPAN_GROUPS.items():
        for target in targets:
            mod_name, attr = target.split(":")
            mod = by_name[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = vars(cls)[meth]
                name = f"{mod_name}.{cls_name}.{meth}"
                if isinstance(orig, property):
                    setattr(cls, meth, property(tracer.span(name, group, orig.fget)))
                else:
                    setattr(cls, meth, tracer.span(name, group, orig))
                continue
            orig = getattr(mod, attr)
            wrapped = tracer.span(f"{mod_name}.{attr}", group, orig,
                                  _COUNTERS.get(group))
            # rebind wherever the name was imported, so calls through
            # `from .x import name` bindings are traced too
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)

    jet_type = by_name["jets"].Jet
    for kind, methods in JET_KINDS.items():
        for meth in methods:
            setattr(jet_type, meth, tracer.jet(kind, vars(jet_type)[meth], jet_type))
    return tracer
