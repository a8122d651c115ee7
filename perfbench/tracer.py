"""Span tracing of fracvar from outside the library.

``install`` replaces, for the rest of the process, three kinds of boundary
with timing wrappers, without editing the library's source:

1. the names each module imported from the layer below (``suites.integrate_1d``,
   ``operators.integrate_core``, ``operators._segment``, ``cli.run_all``, ...),
   plus the module attributes reached through ``ops.``, ``cf.`` and the inline
   ``from .quadrature import angular_profile``;
2. the ``values``, ``grad_values`` and ``laplacian_values`` methods of the
   catalog field classes;
3. ``mu``, ``nu`` and ``gamma`` in every module that imported them.

Every call through a wrapper is one span: name, parent span, thread, start,
end, self time (duration minus the time its child spans cover), the integrand
evaluations charged during it, a size (points for field calls and the batch
gradient), the ambient dimension, and a convergence flag.  Evaluations are
counted once, at ``_Counter.add``, so quadrature calls that share a counter
are never double counted.  Spans stay in memory until ``layer_metrics``
reduces them and ``dump`` writes them out.
"""

from __future__ import annotations

import threading
import time

_QUAD_FUNCS = ("integrate_core", "integrate_1d", "integrate_ball", "integrate_complement",
               "_segment", "_tail_segment", "angular_profile")
_OPERATOR_FUNCS = ("frac_gradient", "frac_gradient_batch", "frac_divergence", "riesz_potential",
                   "riesz_potential_hyperplane", "frac_laplacian", "cube_kernel_integral",
                   "nl_gradient", "spectral_gradient_1d", "gagliardo_seminorm",
                   "variation_lower_bound", "variation_lower_bound_detail")
_CLOSED_FORM_FUNCS = ("half_space_gradient", "riesz_hyperplane", "gamma_radial_integral",
                      "interval_identities", "weight_w", "f_alpha_closed")
_CONSTANT_FUNCS = ("mu", "nu", "gamma")
_FIELD_METHODS = ("values", "grad_values", "laplacian_values")

FIELD_KINDS = {"SmoothBump": "smooth_bump", "Gaussian": "gaussian", "FAlpha": "f_alpha"}
OPERATOR_GROUPS = {"frac_gradient": "grad", "frac_gradient_batch": "grad_batch",
                   "riesz_potential": "riesz", "frac_laplacian": "laplacian",
                   "cube_kernel_integral": "laplacian", "nl_gradient": "nlgrad",
                   "gagliardo_seminorm": "gagliardo", "variation_lower_bound": "varbound",
                   "variation_lower_bound_detail": "varbound"}

# (name, unit, better) of every metric ``layer_metrics`` returns
LAYER_METRIC_SPECS = (
    [("quadrature.calls", "count", "lower"), ("quadrature.self_s", "s", "lower"),
     ("quadrature.evals", "count", "lower"), ("quadrature.evals_per_s", "1/s", "higher"),
     ("quadrature.nonconverged", "count", "lower"),
     ("quadrature.useful_evals_ratio", "ratio", "higher"),
     ("quadrature.angular_profile.points", "count", "lower"),
     ("fields.values.calls", "count", "lower"), ("fields.values.points", "count", "lower"),
     ("fields.values.self_s", "s", "lower"), ("fields.values.points_per_s", "1/s", "higher")]
    + [(f"fields.values.points.{k}", "count", "lower") for k in FIELD_KINDS.values()]
    + [("fields.grad_values.self_s", "s", "lower"),
       ("operators.grad.calls", "count", "lower"), ("operators.grad.self_s", "s", "lower"),
       ("operators.grad.evals", "count", "lower"),
       ("operators.grad_batch.calls", "count", "lower"),
       ("operators.grad_batch.points", "count", "lower"),
       ("operators.grad_batch.n2_calls", "count", "lower"),
       ("operators.grad_batch.self_s", "s", "lower")]
    + [(f"operators.{g}.self_s", "s", "lower")
       for g in ("riesz", "laplacian", "nlgrad", "gagliardo", "varbound")]
    + [("operators.nonconverged", "count", "lower"),
       ("constants.calls", "count", "lower"), ("constants.self_s", "s", "lower"),
       ("closed_forms.calls", "count", "lower"), ("closed_forms.self_s", "s", "lower"),
       ("cli.self_s", "s", "lower")]
)
LAYER_METRICS = tuple(name for name, _, _ in LAYER_METRIC_SPECS)

# span record layout
NAME, PARENT, T0, T1, SELF, EVALS, SIZE, DIM, CONV = range(9)


class _ThreadState:
    __slots__ = ("stack", "spans", "evals")

    def __init__(self) -> None:
        self.stack: list[list] = []  # [span index, child time, evals at start, saw nonconvergence]
        self.spans: list = []
        self.evals = 0


def _conv_of(res) -> int:
    """1/0 when the result carries a convergence flag, -1 when it does not."""
    flag = getattr(res, "converged", None)
    if flag is None and isinstance(res, tuple) and res and type(res[-1]).__name__ in ("bool", "bool_"):
        flag = res[-1]
    return -1 if flag is None else int(bool(flag))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._tls = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        st = getattr(self._tls, "st", None)
        if st is None:
            st = self._tls.st = _ThreadState()
            with self._lock:
                self._threads.append(st)
        return st

    def wrap(self, name: str, fn, size=None, dim=None, flagged: bool = False):
        """A wrapper recording one span per call of ``fn``.

        ``size``/``dim`` map the call's arguments to the span's size and
        dimension.  ``flagged`` spans (quadrature and operator calls) read a
        convergence flag from their result; a span that did not converge, or
        inside which a flagged span did not, marks every open span on its
        thread as not converged.
        """
        nid = len(self.names)
        self.names.append(name)
        state = self._state
        clock = time.perf_counter

        def wrapper(*args, **kw):
            st = state()
            stack, spans = st.stack, st.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0.0, st.evals, False]
            stack.append(frame)
            res = None
            t0 = clock()
            try:
                res = fn(*args, **kw)
                return res
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                conv = _conv_of(res) if flagged else -1
                if frame[3]:
                    conv = 0
                if conv == 0:
                    for fr in stack:
                        fr[3] = True
                spans[idx] = (nid, parent, t0, t1, dur - frame[1], st.evals - frame[2],
                              size(args) if size else 0, dim(args) if dim else 0, conv)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by its wrapper."""
        if isinstance(owner, dict):
            owner[attr] = self.wrap(name, owner[attr], **kw)
        else:
            # a class's own function, not one bound through the instance protocol
            orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, orig, **kw))

    def install(self, fracvar) -> None:
        cli, suites, ops = fracvar.cli, fracvar.suites, fracvar.operators
        quad, fields, cf = fracvar.quadrature, fracvar.fields, fracvar.closed_forms
        modules = (cli, suites, ops, fields, cf)

        # evaluations: counted where every integrand evaluation is charged
        orig_add = quad._Counter.add
        state = self._state

        def add(counter, k):
            state().evals += k
            return orig_add(counter, k)

        quad._Counter.add = add

        def points(args):
            return len(args[-1]) if hasattr(args[-1], "__len__") else 1

        def field_dim(args):
            return args[0].dim

        # boundary 1: names imported from the layer below, and module attributes
        for mod in modules:
            for fn in _QUAD_FUNCS:
                if fn in mod.__dict__:
                    self.patch(mod, fn, f"quadrature:{fn}", flagged=True)
        self.patch(quad, "angular_profile", "quadrature:angular_profile", flagged=True)
        for fn in _OPERATOR_FUNCS:
            kw = {"size": lambda a: len(a[2]), "dim": field_dim} if fn == "frac_gradient_batch" else {}
            self.patch(ops, fn, f"operators:{fn}", flagged=True, **kw)
        for fn in _CLOSED_FORM_FUNCS:
            self.patch(cf, fn, f"closed_forms:{fn}")
        for fn in ("run_all", "run_suite", "reports_to_csv"):
            self.patch(cli, fn, f"suites:{fn}")
        self.patch(suites, "run_all", "suites:run_all")
        self.patch(suites, "suite_ibp", "suites:ibp")
        for nm in list(suites._SUITE_RUNNERS):
            self.patch(suites._SUITE_RUNNERS, nm, f"suites:{nm}")
        # boundary 3: the normalization constants, where each module imported them
        for mod in modules:
            for fn in _CONSTANT_FUNCS:
                if fn in mod.__dict__:
                    self.patch(mod, fn, f"constants:{fn}")
        # boundary 2: the catalog field classes' evaluation methods
        for cls in vars(fields).values():
            if isinstance(cls, type) and issubclass(cls, fields.ScalarField):
                for meth in _FIELD_METHODS:
                    if meth in cls.__dict__:
                        self.patch(cls, meth, f"fields:{meth}:{cls.__name__}", size=points)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals.  A layer's ``calls`` are its spans whose parent
        span belongs to another layer (or that have none)."""
        layer = [n.split(":")[0] for n in self.names]
        func = [n.split(":")[1] for n in self.names]
        m = {k: 0.0 for k in LAYER_METRICS}
        quad_evals = quad_useful = 0
        for st in self._threads:
            spans = st.spans
            for nid, parent, _, _, self_s, evals, size, dim, conv in filter(None, spans):
                lay, fn = layer[nid], func[nid]
                outer = parent < 0 or layer[spans[parent][NAME]] != lay
                m[f"{lay}.self_s"] = m.get(f"{lay}.self_s", 0.0) + self_s
                if lay == "quadrature":
                    if outer:
                        m["quadrature.calls"] += 1
                        quad_evals += evals
                        if conv == 1:
                            quad_useful += evals
                        elif conv == 0:
                            m["quadrature.nonconverged"] += 1
                    if fn == "angular_profile" and (parent < 0 or func[spans[parent][NAME]] != fn):
                        m["quadrature.angular_profile.points"] += evals
                elif lay == "fields":
                    key = "fields.values" if fn == "values" else f"fields.{fn}"
                    if fn == "values":
                        m["fields.values.calls"] += 1
                        m["fields.values.points"] += size
                        kind = FIELD_KINDS.get(self.names[nid].split(":")[2])
                        if kind:
                            m[f"fields.values.points.{kind}"] += size
                    m[f"{key}.self_s"] = m.get(f"{key}.self_s", 0.0) + self_s
                elif lay == "operators":
                    group = OPERATOR_GROUPS.get(fn)
                    if group:
                        m[f"operators.{group}.self_s"] += self_s
                    if fn == "frac_gradient":
                        m["operators.grad.calls"] += 1
                        m["operators.grad.evals"] += evals
                    elif fn == "frac_gradient_batch":
                        m["operators.grad_batch.calls"] += 1
                        m["operators.grad_batch.points"] += size
                        m["operators.grad_batch.n2_calls"] += dim == 2
                    if outer and conv == 0:
                        m["operators.nonconverged"] += 1
                elif lay in ("constants", "closed_forms"):
                    m[f"{lay}.calls"] += 1
        m["quadrature.evals"] = float(sum(st.evals for st in self._threads))
        qs = m["quadrature.self_s"]
        m["quadrature.evals_per_s"] = m["quadrature.evals"] / qs if qs > 0 else 0.0
        m["quadrature.useful_evals_ratio"] = quad_useful / quad_evals if quad_evals else 0.0
        fs = m["fields.values.self_s"]
        m["fields.values.points_per_s"] = m["fields.values.points"] / fs if fs > 0 else 0.0
        return {k: m[k] for k in LAYER_METRICS}

    def dump(self, path) -> None:
        """Write every span, one row each; ``parent`` indexes rows of the same thread."""
        import numpy as np

        rows = [(t,) + rec for t, st in enumerate(self._threads) for rec in st.spans if rec]
        table = np.array(rows, dtype=float).reshape(-1, 10)
        np.savez_compressed(path, names=np.array(self.names), spans=table,
                            columns=np.array(["thread", "name", "parent", "t0", "t1", "self_s",
                                              "evals", "size", "dim", "conv"]))
