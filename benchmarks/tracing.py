"""Span tracing of qqdesign's public functions, from outside the package.

``Tracer.install`` replaces every binding of each traced function in every
loaded ``qqdesign`` module, because ``cli``, ``search`` and ``reference``
import functions by name: wrapping only the defining module would miss
their calls.  ``PairCache`` and ``Design`` methods are wrapped on the
class.  ``Tracer.remove`` puts the originals back.

A wrapper records a span (name, start, end, parent, op) only while
``Tracer.active`` is set, so the benchmark's own output checks, which call
the same functions, stay out of the statistics.  Self time is a span's
duration minus the time its child spans cover.  Spans are kept in memory
(up to ``SPAN_CAP``) and written out by ``write_spans``.

Besides times, the wrappers derive work counts from arguments and
results: pair entries reduced, balance subsets enumerated, search
proposals and reverts.  These are computed, so they repeat exactly.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import tracemalloc
from array import array
from pathlib import Path

# (layer name, module, attribute) of every traced function; a dotted
# attribute names a method, wrapped on its class.
TRACED = (
    ("cli.main", "cli", "main"),
    ("designio.read_design", "designio", "read_design"),
    ("designio.write_design", "designio", "write_design"),
    ("model.validate_utype", "model", "validate_utype"),
    ("model.is_mcd", "model", "is_mcd"),
    ("model.frequency_vector", "model", "frequency_vector"),
    ("model.is_lattice", "model", "Design.is_lattice"),
    ("discrepancy.qqd_squared", "discrepancy", "qqd_squared"),
    ("discrepancy.qqd_squared_quadratic", "discrepancy", "qqd_squared_quadratic"),
    ("discrepancy.wd_squared", "discrepancy", "wd_squared"),
    ("discrepancy.dd", "discrepancy", "dd"),
    ("discrepancy.swd", "discrepancy", "swd"),
    ("discrepancy.paircache_init", "discrepancy", "PairCache.__init__"),
    ("discrepancy.apply_swap", "discrepancy", "PairCache.apply_swap"),
    ("discrepancy.paircache_value", "discrepancy", "PairCache.value"),
    ("bounds.lb", "bounds", "lb"),
    ("bounds.lb1", "bounds", "lb1"),
    ("bounds.lb2", "bounds", "lb2"),
    ("balance.balance_pattern", "balance", "balance_pattern"),
    ("balance.balance_pattern_rowform", "balance", "balance_pattern_rowform"),
    ("balance.qqd_from_balance", "balance", "qqd_from_balance"),
    ("search.search_uniform", "search", "search_uniform"),
    ("search.random_utype", "search", "random_utype"),
    ("reference.run_checks", "reference", "run_checks"),
)
LAYER_NAMES = tuple(name for name, _, _ in TRACED)
NAME_ID = {name: i for i, name in enumerate(LAYER_NAMES)}

# the closed forms reduce one n x n pair matrix per call
_PAIR_REDUCTIONS = frozenset(
    ("discrepancy.qqd_squared", "discrepancy.wd_squared", "discrepancy.dd",
     "discrepancy.paircache_value")
)
_SUBSET_FORMS = frozenset(("balance.balance_pattern", "balance.qqd_from_balance"))

SPAN_CAP = 100_000  # spans kept per run; a search_small round makes about 480 000


class RoundStats:
    """Per-function totals and derived counts for one round of ops."""

    def __init__(self) -> None:
        k = len(LAYER_NAMES)
        self.calls = [0] * k
        self.inclusive = [0.0] * k
        self.self_time = [0.0] * k
        self.pair_entries = 0
        self.subsets = 0
        self.proposals = 0
        self.reverts = 0
        self.unchanged = 0
        self.jobs = 0
        self.bound_jobs = 0
        self.bound_job_proposals = 0
        self.best_value_sum = 0.0


class _CacheState:
    """What the tracer last saw on one PairCache: for revert and no-op detection."""

    __slots__ = ("last_args", "last_was_revert", "last_value")

    def __init__(self) -> None:
        self.last_args = None
        self.last_was_revert = False
        self.last_value = None


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.heap_mode = False  # tracemalloc around qqd_squared calls
        self.record_spans = False
        self.stats = RoundStats()
        self.op_id = -1
        self.peak_heap_bytes = 0
        self._stack: list[list] = []  # [span id, start, child time]
        self._next_id = 0
        self._caches: dict[int, _CacheState] = {}
        self._patched: list[tuple[object, str, object]] = []
        self.spans_dropped = 0
        self._span_cols = {
            "id": array("q"), "name": array("h"), "start": array("d"),
            "end": array("d"), "parent": array("q"), "op": array("q"),
        }

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every traced function in the loaded package."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            mod for name, mod in sys.modules.items()
            if mod is not None and (name == "qqdesign" or name.startswith("qqdesign."))
        ]
        for layer, module_name, attr in TRACED:
            owner = sys.modules[f"qqdesign.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[method]
                self._patch(cls, method, self._wrap(layer, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(layer, orig)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, name, wrapper)

    def _patch(self, target, name: str, value) -> None:
        self._patched.append((target, name, getattr(target, name)))
        setattr(target, name, value)

    def remove(self) -> None:
        for target, name, orig in reversed(self._patched):
            setattr(target, name, orig)
        self._patched.clear()

    # -- rounds and spans -------------------------------------------------

    def start_round(self) -> None:
        self.stats = RoundStats()
        self._caches.clear()

    def _wrap(self, layer: str, fn):
        name_id = NAME_ID[layer]
        before = getattr(self, f"_before_{layer.split('.')[1]}", None)
        after = getattr(self, f"_after_{layer.split('.')[1]}", None)
        pair = layer in _PAIR_REDUCTIONS
        subsets = layer in _SUBSET_FORMS
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            token = before(args) if before else None
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                st = tracer.stats
                st.calls[name_id] += 1
                st.inclusive[name_id] += duration
                st.self_time[name_id] += duration - frame[2]
                if tracer.record_spans:
                    tracer._add_span(span_id, name_id, frame[1], end, parent)
            if pair:
                st.pair_entries += args[0].spec.n ** 2
            if subsets:
                st.subsets += 2 ** args[0].spec.m - 1
            if after:
                after(args, result, token)
            return result

        return traced

    def _add_span(self, span_id, name_id, start, end, parent) -> None:
        cols = self._span_cols
        if len(cols["id"]) >= SPAN_CAP:
            self.spans_dropped += 1
            return
        cols["id"].append(span_id)
        cols["name"].append(name_id)
        cols["start"].append(start)
        cols["end"].append(end)
        cols["parent"].append(parent)
        cols["op"].append(self.op_id)

    def write_spans(self, path: Path, metadata: dict) -> None:
        """One JSON document: metadata, the layer names, and the span columns."""
        cols = self._span_cols
        doc = {
            "metadata": metadata,
            "names": list(LAYER_NAMES),
            "spans_recorded": len(cols["id"]),
            "spans_dropped": self.spans_dropped,
            "columns": {key: col.tolist() for key, col in cols.items()},
        }
        path.write_text(json.dumps(doc))

    # -- derived counters -------------------------------------------------
    # hooks are looked up by the function part of the layer name

    def _before_qqd_squared(self, args):
        if self.heap_mode:
            tracemalloc.start()
            tracemalloc.reset_peak()
        return None

    def _after_qqd_squared(self, args, result, token):
        if self.heap_mode:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            self.peak_heap_bytes = max(self.peak_heap_bytes, peak)

    def _after_swd(self, args, result, token):
        design = args[0]
        for k, s in enumerate(design.spec.qualitative_levels):
            counts = [0] * s
            for level in design.qualitative[:, k].tolist():
                counts[level] += 1
            self.stats.pair_entries += sum(c * c for c in counts)

    def _cache_state(self, cache) -> _CacheState:
        return self._caches.setdefault(id(cache), _CacheState())

    def _after_paircache_init(self, args, result, token):
        self._caches[id(args[0])] = _CacheState()

    def _after_paircache_value(self, args, result, token):
        self._cache_state(args[0]).last_value = result

    def _before_apply_swap(self, args):
        return self._cache_state(args[0]).last_value

    def _after_apply_swap(self, args, result, previous):
        state = self._cache_state(args[0])
        call = tuple(args[1:])
        st = self.stats
        if call == state.last_args and not state.last_was_revert:
            st.reverts += 1
            state.last_was_revert = True
        else:
            st.proposals += 1
            if result == previous:
                st.unchanged += 1
            state.last_was_revert = False
        state.last_args = call
        state.last_value = result

    def _before_search_uniform(self, args):
        return self.stats.proposals

    def _after_search_uniform(self, args, result, proposals_before):
        st = self.stats
        st.jobs += 1
        st.best_value_sum += result.best_value
        if result.terminated_by == "bound":
            st.bound_jobs += 1
            st.bound_job_proposals += st.proposals - proposals_before


def layer_metrics(rounds: list[RoundStats], factors: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: the median over traced rounds of each per-round figure.

    Times are scaled by each round's host speed factor, as the end-to-end
    times are.
    """
    med = statistics.median
    out: dict[str, tuple[float, str]] = {}
    for i, layer in enumerate(LAYER_NAMES):
        out[f"{layer}.calls"] = (med([r.calls[i] for r in rounds]), "count")
        out[f"{layer}.busy_s"] = (med([r.self_time[i] * f for r, f in zip(rounds, factors)]), "s")
        out[f"{layer}.mean_us"] = (
            med([r.inclusive[i] * f / r.calls[i] * 1e6 if r.calls[i] else 0.0
                 for r, f in zip(rounds, factors)]),
            "us",
        )
    search = NAME_ID["search.search_uniform"]

    def ratio(num, den):
        return num / den if den else 0.0

    out["search.proposals"] = (med([r.proposals for r in rounds]), "count")
    out["search.reverts"] = (med([r.reverts for r in rounds]), "count")
    out["search.accept_ratio"] = (
        med([ratio(r.proposals - r.reverts, r.proposals) for r in rounds]), "ratio"
    )
    out["search.unchanged_ratio"] = (
        med([ratio(r.unchanged, r.proposals) for r in rounds]), "ratio"
    )
    out["search.proposals_per_s"] = (
        med([ratio(r.proposals, r.inclusive[search] * f) for r, f in zip(rounds, factors)]),
        "1/s",
    )
    out["search.loop_self_us"] = (
        med([ratio(r.self_time[search] * f * 1e6, r.proposals) for r, f in zip(rounds, factors)]),
        "us",
    )
    out["search.iters_to_bound"] = (
        med([ratio(r.bound_job_proposals, r.bound_jobs) for r in rounds]), "count"
    )
    out["search.bound_hit_ratio"] = (
        med([ratio(r.bound_jobs, r.jobs) for r in rounds]), "ratio"
    )
    out["search.best_value_mean"] = (
        med([ratio(r.best_value_sum, r.jobs) for r in rounds]), "qqd2"
    )
    out["discrepancy.pair_entries"] = (med([r.pair_entries for r in rounds]), "count")
    out["balance.subsets"] = (med([r.subsets for r in rounds]), "count")
    return out
