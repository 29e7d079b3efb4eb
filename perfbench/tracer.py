"""Span and counter tracing of smplab, installed from outside the package.

``Tracer.install`` wraps the public functions of every smplab module (except
the CLI, whose calls are the experiment spans themselves) and rebinds each
wrapper under every name a module looked the function up by, since modules
import names directly.  Classes keep their identity, so ``isinstance`` checks
still hold: their methods are wrapped in place, and the strategy closures and
coin samplers a protocol carries are wrapped when the protocol is built.

Two kinds of boundary are recorded:

* spans, kept one by one with id, parent, name, start and end, for the coarse
  calls (each experiment, each exact enumeration, each learn or replay walk,
  compile, derandomize, each oracle search);
* aggregates, for boundaries that fire up to millions of times (referee,
  strategy, distribution checks, generators, ...): a count, total time and
  self time per (function, parent span).

A boundary nested inside an open boundary of the same name is not counted
again, so a referee that delegates to another referee counts once.  The
tracer lives for the whole process; ``dump`` writes what it recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager
from functools import cached_property
from statistics import median

MODULES = (
    "config", "errors", "rng", "qcore", "smp", "codes",
    "protocols", "transforms", "oracle", "serialize",
)

# Public functions recorded as individual spans; every other one aggregates.
SPANS = {
    "smp.exact_acceptance",
    "smp.empirical_success",
    "transforms.learn_state_message",
    "transforms.reconstruct_estimates",
    "transforms.compile_qc_to_cc",
    "transforms.derandomize_alice",
    "oracle.search_relation_protocol",
}

REFEREE_METHODS = ("accept_probability", "output_distribution", "sample_output")


def _learn_k(args, kwargs, result):
    if result is not None:
        record = result[0]
        return {"K": record.r * record.q}
    r = args[3] if len(args) > 3 else kwargs.get("r")
    return {"K": None if r is None else args[0].num_qubits * r}


def _replay_k(args, kwargs, result):
    record = args[0] if args else kwargs["record"]
    return {"K": record.r * record.q}


TAGS = {
    "transforms.learn_state_message": _learn_k,
    "transforms.reconstruct_estimates": _replay_k,
}


def _product_flops(d: int) -> float:
    """Computed floating-point operations of one complex d x d matrix product."""
    return 8.0 * d**3


class Tracer:
    """Spans and aggregated boundaries of one process; see the module docstring."""

    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.spans: list[dict] = []
        self.aggregates: dict[tuple[str, int | None], list[float]] = {}
        self.strategy_keys: dict[str | None, set] = {}  # distinct (role, input, coin)
        self._frames: list[list] = []    # open boundaries: [child seconds]
        self._span_ids: list[int] = []   # open spans, innermost last
        self._active: dict[str, bool] = {}
        self._next_id = 1
        self._next_role = 0
        self.experiment: str | None = None

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str, **tags):
        sid = self._next_id
        self._next_id += 1
        parent = self._span_ids[-1] if self._span_ids else None
        frame = [0.0]
        self._frames.append(frame)
        self._span_ids.append(sid)
        record = {"id": sid, "parent": parent, "name": name, **tags}
        t0 = self.clock()
        try:
            yield record
        except BaseException as ex:
            record["error"] = type(ex).__name__
            raise
        finally:
            t1 = self.clock()
            d = t1 - t0
            self._frames.pop()
            if self._frames:
                self._frames[-1][0] += d
            self._span_ids.pop()
            record.update(start=t0 - self.origin, end=t1 - self.origin, self_s=d - frame[0])
            self.spans.append(record)

    def spanned(self, name: str, fn):
        tag = TAGS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    if tag is not None:
                        record.update(tag(args, kwargs, result))

        wrapper._perfbench = True
        return wrapper

    def aggregated(self, name: str, fn, work=None, before=None):
        """Wrap ``fn`` as an aggregated boundary.

        ``work(args, result)`` adds computed floating-point operations;
        ``before(args)`` runs first, outside the timed interval.
        """
        active = self._active
        frames = self._frames
        span_ids = self._span_ids
        aggregates = self.aggregates
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active.get(name):
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            active[name] = True
            frame = [0.0]
            frames.append(frame)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                d = clock() - t0
                frames.pop()
                if frames:
                    frames[-1][0] += d
                active[name] = False
                key = (name, span_ids[-1] if span_ids else None)
                agg = aggregates.get(key)
                if agg is None:
                    agg = aggregates[key] = [0, 0.0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += d
                agg[2] += d - frame[0]
                if work is not None and result is not None:
                    agg[3] += work(args, result)

        wrapper._perfbench = True
        return wrapper

    def _strategy(self, fn):
        role = self._next_role
        self._next_role += 1

        def note(args):
            try:
                key = (role, args[0], args[1])
                hash(key)
            except TypeError:
                key = (role, id(args[0]), id(args[1]))
            self.strategy_keys.setdefault(self.experiment, set()).add(key)

        return self.aggregated("protocols.strategy", fn, before=note)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap smplab for the rest of this process."""
        import numpy as np

        mods = [importlib.import_module(f"smplab.{m}") for m in MODULES]
        lookups = mods + [importlib.import_module("smplab"),
                          importlib.import_module("smplab.cli")]
        work = {
            "qcore.band_projector": lambda a, m: 8.0 * m.shape[0] ** 2 * round(m.trace().real),
            "qcore.project_renormalize": lambda a, rho: 2 * _product_flops(rho.dim),
        }
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(mod).items()):
                public = not attr.startswith("_") and inspect.isfunction(fn)
                if not public or fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if name in SPANS:
                    wrapped = self.spanned(name, fn)
                else:
                    wrapped = self.aggregated(name, fn, work=work.get(name))
                for target in lookups:
                    for k, v in list(vars(target).items()):
                        if v is fn:
                            setattr(target, k, wrapped)

        smp = sys.modules["smplab.smp"]
        qcore = sys.modules["smplab.qcore"]
        protocols = sys.modules["smplab.protocols"]
        smp._sample_output_once = self.aggregated("smp.sample", smp._sample_output_once)

        for mod in (smp, protocols):
            for cls in vars(mod).values():
                if inspect.isclass(cls) and cls.__module__ == mod.__name__:
                    for meth in REFEREE_METHODS:
                        if meth in vars(cls):
                            wrapped = self.aggregated("protocols.referee", vars(cls)[meth])
                            setattr(cls, meth, wrapped)

        self._wrap_fields(smp.SmpProtocol, ("alice_strategy", "bob_strategy"), self._strategy)
        self._wrap_fields(smp.CoinSpace, ("sampler",),
                          lambda fn: self.aggregated("protocols.coin_sampler", fn))

        obs = qcore.Observable
        matrix = cached_property(self.aggregated(
            "qcore.Observable.matrix", obs.matrix.func,
            work=lambda a, m: _product_flops(m.shape[0]),
        ))
        matrix.__set_name__(obs, "matrix")
        obs.matrix = matrix
        obs.expectation = self.aggregated("qcore.Observable.expectation", obs.expectation)
        qcore.PureState.__init__ = self.aggregated("qcore.PureState", qcore.PureState.__init__)

        for attr in ("eigh", "eigvalsh"):
            setattr(np.linalg, attr, self._eigen(getattr(np.linalg, attr)))

    def _wrap_fields(self, cls, fields, wrap) -> None:
        init = cls.__init__

        @functools.wraps(init)
        def traced_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            for f in fields:
                fn = getattr(obj, f)
                if not getattr(fn, "_perfbench", False):
                    object.__setattr__(obj, f, wrap(fn))

        cls.__init__ = traced_init

    def _eigen(self, fn):
        """Count numpy eigensolvers only when smplab.qcore calls them."""
        counted = self.aggregated("qcore.eigen", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == "smplab.qcore":
                return counted(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        data = {
            "spans": self.spans,
            "aggregates": [
                {"name": name, "parent": parent, "count": c, "total_s": t, "self_s": s, "flops": w}
                for (name, parent), (c, t, s, w) in self.aggregates.items()
            ],
            "strategy_distinct": {exp: len(keys) for exp, keys in self.strategy_keys.items()},
        }
        with open(path, "w") as fh:
            json.dump(data, fh)


# -- per-layer metrics --------------------------------------------------------


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def experiment_counts(trace: dict) -> dict:
    """Exact counts per experiment label, for the self-check."""
    spans = {s["id"]: s for s in trace["spans"]}

    def root(sid):
        while sid is not None and spans[sid]["name"] != "experiment":
            sid = spans[sid]["parent"]
        return spans[sid]["label"] if sid is not None else None

    out: dict[str, dict] = {}
    ea = {s["id"] for s in trace["spans"] if s["name"] == "smp.exact_acceptance"}
    for a in trace["aggregates"]:
        exp = out.setdefault(root(a["parent"]), {})
        key = a["name"]
        if key == "protocols.referee" and a["parent"] in ea:
            exp["terms"] = exp.get("terms", 0) + a["count"]
        exp[key] = exp.get(key, 0) + a["count"]
    for label, distinct in trace["strategy_distinct"].items():
        out.setdefault(label, {})["strategy_distinct"] = distinct
    return out


def layer_metrics(trace: dict, labels: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced workload process (see BENCHMARK.json)."""
    spans = trace["spans"]
    aggs = trace["aggregates"]
    m: dict[str, float] = {}

    def dur(s):
        return s["end"] - s["start"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def agg(name, parents=None):
        """(calls, seconds) of an aggregated boundary, optionally under some spans."""
        rows = [a for a in aggs
                if a["name"] == name and (parents is None or a["parent"] in parents)]
        return sum(a["count"] for a in rows), sum(a["total_s"] for a in rows)

    exps = {s["label"]: s for s in named("experiment")}
    for label in labels:
        m[f"cli.{label}.s"] = dur(exps[label]) if label in exps else 0.0
    m["cli.self_s"] = sum(s["self_s"] for s in exps.values())

    ea = named("smp.exact_acceptance")
    ea_ids = {s["id"] for s in ea}
    terms = agg("protocols.referee", ea_ids)[0]
    m["smp.exact_acceptance.calls"] = len(ea)
    m["smp.exact_acceptance.self_s"] = sum(s["self_s"] for s in ea)
    m["smp.exact.terms"] = terms
    m["smp.exact.us_per_term"] = _ratio(sum(dur(s) for s in ea), terms, 1e6)
    m["smp.validate_distribution.calls"], m["smp.validate_distribution.s"] = agg(
        "smp.validate_distribution")
    es = named("smp.empirical_success")
    trials = agg("smp.sample", {s["id"] for s in es})[0]
    m["smp.empirical_success.self_s"] = sum(s["self_s"] for s in es)
    m["smp.sample.trials"] = trials
    m["smp.sample.us_per_trial"] = _ratio(sum(dur(s) for s in es), trials, 1e6)

    calls, secs = agg("protocols.strategy")
    distinct = sum(trace["strategy_distinct"].values())
    m["protocols.strategy.calls"], m["protocols.strategy.s"] = calls, secs
    m["protocols.strategy.unique_ratio"] = _ratio(distinct, calls)
    m["protocols.referee.calls"], m["protocols.referee.s"] = agg("protocols.referee")
    m["protocols.coin_sampler.calls"], m["protocols.coin_sampler.s"] = agg(
        "protocols.coin_sampler")

    calls, secs = agg("rng.trial_rng")
    m["rng.trial_rng.calls"] = calls
    m["rng.trial_rng.us_per_call"] = _ratio(secs, calls, 1e6)
    m["rng.derive_seed.calls"] = agg("rng.derive_seed")[0]

    m["codes.encode.calls"], m["codes.encode.s"] = agg("codes.encode")

    for metric, name in (
        ("average_observable", "qcore.average_observable"),
        ("expectation", "qcore.Observable.expectation"),
        ("band_projector", "qcore.band_projector"),
        ("project_renormalize", "qcore.project_renormalize"),
        ("pure_state", "qcore.PureState"),
    ):
        m[f"qcore.{metric}.calls"], m[f"qcore.{metric}.s"] = agg(name)
    m["qcore.observable_matrix.builds"], m["qcore.observable_matrix.s"] = agg(
        "qcore.Observable.matrix")
    m["qcore.acceptance_probability.calls"] = agg("qcore.acceptance_probability")[0]
    m["qcore.eigen_solves"], m["qcore.eigen.s"] = agg("qcore.eigen")
    m["qcore.kernel.gflop_computed"] = sum(a["flops"] for a in aggs) / 1e9

    learn = named("transforms.learn_state_message")
    replay = named("transforms.reconstruct_estimates")
    for k in (8, 10):
        ls = [s for s in learn if s.get("K") == k]
        ids = {s["id"] for s in ls}
        steps = agg("qcore.Observable.expectation", ids)[0]
        corrections = agg("qcore.band_projector", ids)[0]
        correction_s = sum(agg(n, ids)[1] for n in (
            "qcore.band_projector", "qcore.project_renormalize", "qcore.band_edge_margin"))
        m[f"transforms.learn.K{k}.calls"] = len(ls)
        m[f"transforms.learn.K{k}.steps"] = steps
        m[f"transforms.learn.K{k}.corrections"] = corrections
        m[f"transforms.learn.K{k}.ms_per_step"] = _ratio(sum(dur(s) for s in ls), steps, 1e3)
        m[f"transforms.learn.K{k}.ms_per_correction"] = _ratio(correction_s, corrections, 1e3)
        rs = [s for s in replay if s.get("K") == k]
        steps = agg("qcore.Observable.expectation", {s["id"] for s in rs})[0]
        m[f"transforms.reconstruct.K{k}.ms_per_step"] = _ratio(sum(dur(s) for s in rs), steps, 1e3)
    degenerate = sum(1 for s in learn if s.get("error") == "VanishingProjectionError")
    m["transforms.learn.degenerate_ratio"] = _ratio(degenerate, len(learn))
    m["transforms.compile.s"] = sum(dur(s) for s in named("transforms.compile_qc_to_cc"))
    m["transforms.derandomize.s"] = sum(dur(s) for s in named("transforms.derandomize_alice"))

    searches = named("oracle.search_relation_protocol")
    m["oracle.search.calls"] = len(searches)
    m["oracle.search.us_per_call"] = _ratio(sum(dur(s) for s in searches), len(searches), 1e6)
    m["oracle.union_bound_check.s"] = agg("oracle.union_bound_check")[1]
    m["oracle.det_complexity.s"] = agg("oracle.det_complexity_function")[1]

    m["serialize.load_matrix.calls"], m["serialize.load_matrix.s"] = agg(
        "serialize.load_matrix")
    return m


COUNT_SUFFIXES = (".calls", ".builds", ".terms", ".trials", ".steps", ".corrections",
                  "eigen_solves", ".unique_ratio", "degenerate_ratio")


def exact_counts(metrics: dict[str, float]) -> dict[str, float]:
    """The metrics that count work and so must repeat exactly on one seed."""
    return {k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: median(s[k] for s in samples) for k in samples[0]}
