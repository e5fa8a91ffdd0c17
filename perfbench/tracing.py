"""Traced run: wrappers around rahecke callables, spans, and per-layer metrics.

``Tracer.install`` replaces each listed callable with a wrapper: a method on
its class, a function in every rahecke module that holds it (so names bound
by ``from ... import`` are wrapped too), and a class through its
``__init__``.  Each call records a span (name, start, end, parent span, op
id) in compact ``array`` columns; the spans stay in memory and are
written once, at the end.  A layer's self time is its span duration minus
the time its child spans cover.  ``polys.evaluate`` runs millions of times,
so it only counts calls.

A callable missing at the traced commit is reported as absent and its
metrics read 0; the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import sys
import weakref
from array import array
from time import perf_counter

import numpy as np

# (module, qualified name, extra work counts).  The counts are computed by
# the functions in _COUNTERS from (args, result).
TARGETS = (
    ("coxeter", "CoxeterDiagram.normal_form", ()),
    ("coxeter", "CoxeterDiagram.left_multiply", ()),
    ("enumeration", "Ball", ("elements", "elements_per_s")),
    ("enumeration", "ball", ("hit_ratio",)),
    ("enumeration", "NormalFormAutomaton.sphere_series", ()),
    ("enumeration", "prefixes", ()),
    ("enumeration", "sphere_weight", ()),
    ("polys", "sturm_chain", ("max_degree",)),
    ("polys", "count_roots", ()),
    ("polys", "smallest_positive_root", ()),
    ("growth", "classify_simplicity", ("flips",)),
    ("growth", "region_membership", ()),
    ("growth", "pole_and_rho", ()),
    ("growth", "ray_numerator", ()),
    ("hecke", "HeckeElement.__mul__", ("terms_out",)),
    ("hecke", "central_projection_partial", ()),
    ("hecke", "cliq_decomposition", ()),
    ("radial", "RadialModel.product", ()),
    ("l2rep", "rep_hecke", ("columns",)),
    ("l2rep", "rep_group_word", ()),
    ("l2rep", "proj_p", ()),
    ("l2rep", "TruncatedOperator.__matmul__", ()),
    ("l2rep", "verify_remark22", ()),
    ("l2rep", "verify_cliq_identity", ()),
    ("l2rep", "verify_corollary_split", ()),
    ("l2rep", "BallAction", ("nnz",)),
    ("l2rep", "BallAction.apply_gen", ("nnz_cols",)),
    ("l2rep", "sphere_operator_norms", ("columns",)),
    ("l2rep", "haagerup_ratio", ()),
    ("cli", "main", ()),
)
COUNT_ONLY = (("polys", "evaluate"),)
MODULES = ("coxeter", "enumeration", "polys", "growth", "hecke", "radial",
           "l2rep", "cli")

UNITS = {"calls": ("count", "lower"), "self_s": ("s", "lower"),
         "elements": ("count", "lower"), "elements_per_s": ("1/s", "higher"),
         "hit_ratio": ("ratio", "higher"), "max_degree": ("degree", "lower"),
         "flips": ("count", "lower"), "terms_out": ("count", "lower"),
         "columns": ("count", "lower"), "nnz": ("count", "lower"),
         "nnz_cols": ("count", "lower")}


def _ball_elements(args, result):
    return len(args[0])


def _nnz(args, result):
    return sum(m.nnz for m in args[0].mats)


def _nnz_cols(args, result):
    # computed: stored entries times batch columns, not a hardware count
    vec = args[2]
    return args[0].mats[args[1]].nnz * (vec.shape[1] if vec.ndim == 2 else 1)


_COUNTERS = {
    "elements": _ball_elements,
    "max_degree": lambda args, result: len(args[0]) - 1,
    "flips": lambda args, result: len(result.per_flip),
    "terms_out": lambda args, result: len(result.coeffs),
    "columns": lambda args, result: (len(result.cols) if hasattr(result, "cols")
                                     else int(np.asarray(result).size)),
    "nnz": _nnz,
    "nnz_cols": _nnz_cols,
}


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for mod, qual, extra in TARGETS:
        for stat in ("calls", "self_s") + extra:
            out.append((f"{mod}.{qual}.{stat}",) + UNITS[stat])
    for mod, qual in COUNT_ONLY:
        out.append((f"{mod}.{qual}.calls", "count", "lower"))
    for mod in MODULES + ("other",):
        out.append((f"self_share.{mod}", "ratio", "lower"))
    out += [("trace.ops_per_s_untraced", "1/s", "higher"),
            ("trace.ops_per_s_traced", "1/s", "higher"),
            ("trace.overhead", "ratio", "lower")]
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.calls_only: dict[str, int] = {}
        self.absent: list[str] = []
        self.ball_builds = 0
        self.last_ball = None           # weak reference to the newest Ball
        self.ball_hits = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        got = self.name_id.get(name)
        if got is None:
            got = self.name_id[name] = len(self.names)
            self.names.append(name)
        return got

    def open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self.stack.pop()

    def run_op(self, op_id: int, fn):
        """Run one op under a root span named ``op``."""
        self.op = op_id
        idx = self.open(self._id("op"))
        try:
            return fn()
        finally:
            self.close(idx)

    # -- wrappers --------------------------------------------------------------

    def _span_wrapper(self, fn, name: str, extra: tuple):
        nid = self._id(name)
        tracer = self
        counters = [(f"{name}.{s}", _COUNTERS[s]) for s in extra if s in _COUNTERS]
        is_ball = name == "enumeration.Ball"
        is_ball_memo = name == "enumeration.ball"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            builds = tracer.ball_builds
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            for key, count in counters:
                try:
                    value = count(args, result)
                except Exception:   # the API moved; report the stat as 0
                    continue
                if key.endswith(".max_degree"):
                    tracer.maxima[key] = max(tracer.maxima.get(key, 0), value)
                else:
                    tracer.counts[key] = tracer.counts.get(key, 0) + value
            if is_ball:
                tracer.ball_builds += 1
                tracer.last_ball = weakref.ref(args[0])
            elif is_ball_memo:
                # a hit returns an object that this call did not construct
                built = tracer.ball_builds > builds and tracer.last_ball() is result
                tracer.ball_hits += not built
            return result

        return wrapper

    def _count_wrapper(self, fn, name: str):
        tracer = self
        tracer.calls_only[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls_only[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _install_one(self, mod_name: str, qual: str, make) -> None:
        name = f"{mod_name}.{qual}"
        try:
            module = importlib.import_module(f"rahecke.{mod_name}")
            owner = module
            parts = qual.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
        except (ImportError, AttributeError):
            self.absent.append(name)
            return
        if isinstance(original, type):
            # a class: time its construction
            init = original.__init__
            self._patch(original, "__init__", make(init))
            return
        wrapped = make(original)
        if owner is not module:
            self._patch(owner, parts[-1], wrapped)
            return
        for mname, mod in list(sys.modules.items()):
            if mname == "rahecke" or mname.startswith("rahecke."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for mod_name, qual, extra in TARGETS:
            name = f"{mod_name}.{qual}"
            self._install_one(mod_name, qual,
                              lambda fn, n=name, e=extra: self._span_wrapper(fn, n, e))
        for mod_name, qual in COUNT_ONLY:
            name = f"{mod_name}.{qual}"
            self._install_one(mod_name, qual, lambda fn, n=name: self._count_wrapper(fn, n))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """(calls, self seconds) per name id."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - np.frombuffer(
            self.span_start, dtype=np.float64)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        own = dur - child
        k = len(self.names)
        return (np.bincount(names, minlength=k),
                np.bincount(names, weights=own, minlength=k))

    def metrics(self) -> tuple[dict[str, float], dict]:
        calls, own = self.self_times()
        by_name = {n: (int(calls[i]), float(own[i])) for i, n in enumerate(self.names)}
        out: dict[str, float] = {}
        for mod, qual, extra in TARGETS:
            name = f"{mod}.{qual}"
            c, s = by_name.get(name, (0, 0.0))
            out[f"{name}.calls"] = c
            out[f"{name}.self_s"] = s
            for stat in extra:
                key = f"{name}.{stat}"
                out[key] = self.maxima.get(key, self.counts.get(key, 0))
        ball_time = by_name.get("enumeration.Ball", (0, 0.0))[1]
        out["enumeration.Ball.elements_per_s"] = (
            out["enumeration.Ball.elements"] / ball_time if ball_time > 0 else 0.0)
        memo_calls = out["enumeration.ball.calls"]
        out["enumeration.ball.hit_ratio"] = self.ball_hits / memo_calls if memo_calls else 0.0
        for name in self.calls_only:
            out[f"{name}.calls"] = self.calls_only[name]
        for mod, qual in COUNT_ONLY:
            out.setdefault(f"{mod}.{qual}.calls", 0)
        total = float(own.sum())
        shares = {m: 0.0 for m in MODULES + ("other",)}
        for n, (c, s) in by_name.items():
            mod = n.split(".")[0]
            shares[mod if mod in shares else "other"] += s
        for m, s in shares.items():
            out[f"self_share.{m}"] = s / total if total > 0 else 0.0
        inclusive = self.inclusive_shares()
        return out, {"absent": self.absent, "spans": len(self.span_start),
                     "inclusive_share": inclusive}

    def inclusive_shares(self) -> dict[str, float]:
        """Share of all op time spent inside each name, counting nested
        spans of the same name once."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        op_id = self.name_id.get("op")
        total = float((end - start)[names == op_id].sum()) if op_id is not None else 0.0
        out = {}
        for i, n in enumerate(self.names):
            if n == "op" or total <= 0:
                continue
            s, e = start[names == i], end[names == i]
            # spans are stored in start order; same-name spans nest or are
            # disjoint, so a span is outermost iff it starts after every
            # earlier one ended
            prior_end = np.concatenate(([-np.inf], np.maximum.accumulate(e)[:-1]))
            outer = s >= prior_end
            out[n] = round(float((e[outer] - s[outer]).sum()) / total, 4)
        return out

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 op=np.frombuffer(self.span_op, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
