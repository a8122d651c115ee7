"""The eval-mix workload: a seeded, stratified stream of single-point operator calls.

A class is op x field kind x dimension x order.  Every class gets the same
number of calls in every run; the seed only draws the points, one from each
stratum of the class's distance range, so runs differ in where they probe and
never in what they probe, nor in how many points fall inside a support or on
each side of a singular point.  The two budget-exhausting classes probe only
their middle stratum (see ``ONE_STRATUM``).
"""

from __future__ import annotations

import math
import random
import time

import oracle

ORDERS = (0.25, 0.5, 0.75)

GAUSS_CENTER = (0.1, -0.2, 0.15)
PAIR = ((0.0, 0.0), 1.0, (0.6, -0.3), 1.2)  # (center f, width f, center g, width g)
HALF_SPACE_NU = {1: (1.0,), 2: (0.6, 0.8), 3: (2 / 7, 3 / 7, 6 / 7)}
HALF_SPACE_X0 = 0.1
MARGIN = 0.05  # distance kept from jump sets and singular points

# (op, kind, n) of every group; each runs at every order in ORDERS
GROUPS = (
    [("grad", "gaussian", n) for n in (1, 2, 3)]
    + [("grad", "smooth_bump", n) for n in (1, 2, 3)]
    + [("grad", "f_alpha", 1), ("grad", "interval_indicator", 1)]
    + [("grad", "half_space_indicator", n) for n in (1, 2, 3)]
    + [("div", "smooth_bump", 1)]
    + [("riesz", "gaussian", n) for n in (1, 2, 3)]
    + [("laplacian", "gaussian", n) for n in (1, 2, 3)]
    + [("laplacian", "interval_indicator", 1), ("laplacian", "cube_indicator", 2)]
    + [("nlgrad", "gaussian", n) for n in (1, 2)]
)

# classes (op, kind, n, order) that exhaust the quadrature budget at every
# point, about 5 s a call on a 2-core x86-64 VM: three calls each took 32 s of
# a 44 s stream, too long to repeat the stream within one benchmark run.  They
# keep one call, in the middle stratum, which holds the known silent miss of
# riesz_potential at x = -1.2; both still fail on every seed.
ONE_STRATUM = {("grad", "f_alpha", 1, 0.25), ("riesz", "gaussian", 1, 0.25)}
MIDDLE_STRATUM = 1

# groups checked only for a finite value and convergence: the multi-dimensional
# bump gradients have no reference affordable at set-up
UNREFERENCED = {("grad", "smooth_bump", 2), ("grad", "smooth_bump", 3)}


def group_name(op: str, kind: str, n: int) -> str:
    return f"{op}.{kind}.n{n}"


def descriptors(op: str, kind: str, n: int, order: float) -> list[dict]:
    """JSON descriptors of the call's fields (two for nlgrad)."""
    if op == "nlgrad":
        (c1, w1, c2, w2) = PAIR
        return [{"kind": "gaussian", "center": list(c[:n]), "width": w, "dim": n}
                for c, w in ((c1, w1), (c2, w2))]
    if kind == "gaussian":
        return [{"kind": "gaussian", "center": list(GAUSS_CENTER[:n]), "width": 1.0, "dim": n}]
    if kind == "smooth_bump":
        return [{"kind": "smooth_bump", "center": [0.0] * n, "width": 1.0}]
    if kind == "f_alpha":
        return [{"kind": "f_alpha", "alpha": order}]
    if kind == "interval_indicator":
        return [{"kind": "interval_indicator", "a": -1.0, "b": 1.0}]
    if kind == "half_space_indicator":
        return [{"kind": "half_space_indicator", "nu": list(HALF_SPACE_NU[n]),
                 "x0": [HALF_SPACE_X0] * n}]
    return [{"kind": "cube_indicator", "dim": n, "half_width": 1.0}]


# One call per stratum of a scalar coordinate.  Strata boundaries sit on jump
# sets, singular points and support edges, so every stratum keeps the same
# topology (inside or outside, which side of a singularity) for every seed.
LINE_STRATA = {  # the coordinate itself
    "f_alpha": ((-1.5, 0.0), (0.0, 1.0), (1.0, 2.5)),
    "interval_indicator": ((-2.0, -1.0), (-1.0, 1.0), (1.0, 2.0)),
}
HALF_SPACE_STRATA = ((-2.0, 0.0), (0.0, 1.0), (1.0, 2.0))  # signed distance
BOX_STRATA = ((0.0, 1.0), (1.0, 1.5), (1.5, 2.0))  # max-norm radius, box edge at 1
RADIAL_STRATA = ((0.05, 0.7), (0.7, 1.35), (1.35, 2.0))  # distance from the center
CALLS_PER_CLASS = len(RADIAL_STRATA)


def _direction(rng: random.Random, n: int) -> list[float]:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(n)]
        norm = math.sqrt(sum(c * c for c in v))
        if norm > 1e-3:
            return [c / norm for c in v]


def _draw(rng: random.Random, stratum: tuple[float, float]) -> float:
    """A uniform draw from the stratum, kept MARGIN away from its ends."""
    lo, hi = stratum
    return rng.uniform(lo + MARGIN, hi - MARGIN)


def draw_point(rng: random.Random, op: str, kind: str, n: int, k: int) -> list[float]:
    if kind in LINE_STRATA:
        return [_draw(rng, LINE_STRATA[kind][k])]
    if kind == "half_space_indicator":
        nv = HALF_SPACE_NU[n]
        d = _draw(rng, HALF_SPACE_STRATA[k])
        t = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        tn = sum(a * b for a, b in zip(t, nv))
        return [HALF_SPACE_X0 + d * a + (b - tn * a) for a, b in zip(nv, t)]
    if kind in ("smooth_bump", "cube_indicator"):  # both supported on (-1, 1)^n
        rho = _draw(rng, BOX_STRATA[k])
        p = [rng.uniform(-rho, rho) for _ in range(n)]
        p[rng.randrange(n)] = rho if rng.random() < 0.5 else -rho
        return p
    if op == "nlgrad":
        center = [0.5 * (a + b) for a, b in zip(PAIR[0][:n], PAIR[2][:n])]
    else:
        center = list(GAUSS_CENTER[:n])
    r = _draw(rng, RADIAL_STRATA[k])
    return [c + r * u for c, u in zip(center, _direction(rng, n))]


def build(seed: int) -> list[dict]:
    """The call stream for one seed.

    Calls go stratum by stratum, each stratum through every class in a fixed
    order, so every class is sampled at the start, middle and end of the
    stream rather than in one stretch of a shared machine's speed.
    """
    per_class = []
    for op, kind, n in GROUPS:
        for order in ORDERS:
            cls = f"{group_name(op, kind, n)}.a{order}"
            rng = random.Random(f"{seed}:{cls}")
            calls = {k: {
                "group": group_name(op, kind, n), "cls": cls, "op": op, "kind": kind,
                "n": n, "order": order, "x": draw_point(rng, op, kind, n, k),
                "fields": descriptors(op, kind, n, order),
            } for k in range(CALLS_PER_CLASS)}
            if (op, kind, n, order) in ONE_STRATUM:
                calls = {MIDDLE_STRATUM: calls[MIDDLE_STRATUM]}
            per_class.append(calls)
    return [calls[k] for k in range(CALLS_PER_CLASS) for calls in per_class if k in calls]


def attach_references(stream: list[dict], fracvar) -> None:
    """Add ``ref`` (a list of floats, or None) and the requested tolerances to every call."""
    import numpy as np

    cf, ops, fields = fracvar.closed_forms, fracvar.operators, fracvar.fields
    for call in stream:
        op, kind, n, a, x = call["op"], call["kind"], call["n"], call["order"], call["x"]
        ref = None
        if (op, kind, n) in UNREFERENCED:
            pass
        elif kind == "half_space_indicator":
            H = fields.HalfSpace.make(HALF_SPACE_NU[n], [HALF_SPACE_X0] * n)
            ref = cf.half_space_gradient(a, H, np.array(x)).tolist()
        elif op == "grad" and kind == "interval_indicator":
            left, right = fields.HalfSpace.make((1.0,), (-1.0,)), fields.HalfSpace.make((1.0,), (1.0,))
            ref = (cf.half_space_gradient(a, left, np.array(x))
                   - cf.half_space_gradient(a, right, np.array(x))).tolist()
        elif op == "grad" and kind == "f_alpha":
            ref = [0.0]
        elif op in ("grad", "div") and kind == "smooth_bump":
            ref = [oracle.bump_grad_1d(a, x[0])]
        elif kind == "gaussian":
            d = [xi - ci for xi, ci in zip(x, GAUSS_CENTER)]
            if op == "grad" and n == 1:
                g = fields.field_from_json(call["fields"][0])
                ref = [ops.spectral_gradient_1d(g, a, np.array(x))]
            elif op == "grad":
                ref = oracle.gaussian_grad(n, a, 1.0, d)
            elif op == "riesz":
                ref = [oracle.gaussian_riesz(n, a, 1.0, d)]
            elif op == "laplacian":
                ref = [oracle.gaussian_laplacian(n, a, 1.0, d)]
            elif op == "nlgrad":
                c1, w1, c2, w2 = PAIR
                ref = oracle.gaussian_pair_nl(n, a, c1[:n], w1, c2[:n], w2, x)
        elif op == "laplacian" and kind == "interval_indicator":
            ref = [oracle.interval_laplacian(a, -1.0, 1.0, x[0])]
        elif op == "laplacian" and kind == "cube_indicator":
            ref = [oracle.square_laplacian(a, x)]
        call["ref"] = ref
        spec = fracvar.quadrature.default_spec(n)
        call["rel_tol"], call["abs_tol"] = spec.rel_tol, spec.abs_tol


def prepare(stream: list[dict], fracvar) -> None:
    """Build the fields from their JSON descriptors, and the argument arrays."""
    import numpy as np

    fields = fracvar.fields
    for call in stream:
        objs = [fields.field_from_json(d) for d in call["fields"]]
        if call["op"] == "div":
            objs = [fields.VectorField(components=tuple(objs))]
        call["objs"] = objs
        call["arr"] = np.array(call["x"], dtype=float)


def _issue(ops, call):
    op, f, a, x = call["op"], call["objs"][0], call["order"], call["arr"]
    if op == "grad":
        res = ops.frac_gradient(f, a, x, detail=True)
        return list(res.value), res.converged
    if op == "div":
        return [ops.frac_divergence(f, a, x)], None
    if op == "riesz":
        return [ops.riesz_potential(f, a, x)], None
    if op == "laplacian":
        return [ops.frac_laplacian(f, a, x)], None
    return ops.nl_gradient(f, call["objs"][1], a, x).tolist(), None


def run(stream: list[dict], ops) -> list[tuple[float, float, object]]:
    """Issue the calls one at a time; returns (seconds, CPU seconds, outcome) per call."""
    out = []
    clock, cpu = time.perf_counter, time.process_time
    for call in stream:
        t0, c0 = clock(), cpu()
        try:
            outcome = _issue(ops, call)
        except Exception as exc:  # a call that raises is a failed item
            outcome = exc
        out.append((clock() - t0, cpu() - c0, outcome))
    return out


def check(call: dict, outcome) -> str | None:
    """None when the call passed, else the reason it failed."""
    if isinstance(outcome, Exception):
        return f"raised {type(outcome).__name__}"
    value, converged = outcome
    if not all(math.isfinite(v) for v in value):
        return "non-finite value"
    if converged is False:
        return "converged=False"
    ref = call["ref"]
    if ref is None:
        return None
    err = max(abs(v - r) for v, r in zip(value, ref))
    tol = max(call["abs_tol"], call["rel_tol"] * max(abs(r) for r in ref))
    if not err <= tol:
        return f"missed reference by {err:.3g} (tol {tol:.3g})"
    return None
