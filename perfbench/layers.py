"""Per-layer tracing installed from the benchmark's own files.

Nothing under ``src/`` changes: :func:`install` swaps each layer's
public functions for timing wrappers, and :func:`uninstall` puts the
originals back.  A module that bound a name with ``from … import`` holds
its own reference, so a wrapper on the defining module alone would miss
those call sites; :func:`install` therefore replaces *every* reference
to the original object in every loaded ``repro`` module
(``validate.py`` checks the resulting call counts against cProfile).

Time is attributed by :class:`LayerClock`.  At every wrapper entry and
exit the clock advances; the interval since the last event is split
evenly between the threads that are inside some traced layer (each
thread's innermost one), or booked as unattributed when no thread is.
So a layer's share is its *self* time (nested traced calls are charged
to the inner layer), concurrent threads are not double-counted, and the
layer shares plus ``unattributed_s`` add up to the traced wall time.
The remainder is reported, never hidden: pipeline-engine glue and any
code without a wrapper lands there.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: "exceeded iteration cap" is the simulator's runaway-loop verdict.
LOOP_CAP_MARKER = "exceeded iteration cap"


class LayerClock:
    """Self-time accounting shared by every installed wrapper."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stacks: Dict[int, List[str]] = {}
        self._last = time.perf_counter()
        self.started = self._last
        self.self_s: Dict[str, float] = {}
        self.unattributed_s = 0.0
        self.calls: Dict[str, int] = {}
        #: calls per wrapped target (``module:path``), for validation.
        self.target_calls: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        self.durations: Dict[str, List[float]] = {}
        #: per-op distinct-input sets (reset by :meth:`new_op`).
        self._unique: Dict[str, set] = {}
        self.unique_total: Dict[str, int] = {}
        #: id -> (hits, misses) counters of every ResultCache built
        #: while tracing (counters, not caches, so entries can be freed).
        self.cache_counters: Dict[int, Tuple[Any, Any]] = {}

    # -- time ----------------------------------------------------------

    def _advance(self, now: float) -> None:
        elapsed = now - self._last
        self._last = now
        active = [stack[-1] for stack in self._stacks.values() if stack]
        if not active:
            self.unattributed_s += elapsed
            return
        share = elapsed / len(active)
        for layer in active:
            self.self_s[layer] = self.self_s.get(layer, 0.0) + share

    def enter(self, layer: str) -> None:
        with self._lock:
            self._advance(time.perf_counter())
            self._stacks.setdefault(threading.get_ident(), []).append(layer)

    def leave(self) -> None:
        with self._lock:
            self._advance(time.perf_counter())
            self._stacks[threading.get_ident()].pop()

    def restart(self) -> None:
        """Start the traced window now (after installation)."""
        with self._lock:
            self._last = self.started = time.perf_counter()

    def close(self) -> float:
        """Book the tail interval; returns the traced wall time."""
        with self._lock:
            self._advance(time.perf_counter())
            return self._last - self.started

    # -- work counters -------------------------------------------------

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def observe(self, name: str, seconds: float) -> None:
        with self._lock:
            self.durations.setdefault(name, []).append(seconds)

    def see(self, name: str, key: Any) -> None:
        """Count ``key`` once per op under ``name``."""
        with self._lock:
            seen = self._unique.setdefault(name, set())
            if key not in seen:
                seen.add(key)
                self.unique_total[name] = self.unique_total.get(name, 0) + 1

    def new_op(self) -> None:
        with self._lock:
            self._unique.clear()

    def count_call(self, name: str,
                   into: Optional[Dict[str, int]] = None) -> None:
        into = self.calls if into is None else into
        with self._lock:
            into[name] = into.get(name, 0) + 1


# -- what each wrapper records beyond self time -----------------------
#
# An ``after`` hook gets ``(clock, args, kwargs, result, seconds)``;
# ``result`` is None when the call raised, and ``seconds`` is the
# calling thread's CPU time in the call (so two calls sharing the
# interpreter lock on two threads are not each charged the other's
# turns).


def _after_parse(clock, args, kwargs, result, seconds):
    source = args[0] if args else kwargs.get("source", "")
    clock.see("verilog.parse", hash(source))


def _after_check(clock, args, kwargs, result, seconds):
    clock.observe("sim.check", seconds)
    if LOOP_CAP_MARKER in (getattr(result, "detail", "") or ""):
        clock.add("sim.loop_cap_hits")
        clock.add("sim.loop_cap_s", seconds)


def _after_verify(clock, args, kwargs, result, seconds):
    if getattr(result, "status", "") == "unsupported":
        clock.add("formal.unsupported")
    clock.add("formal.bdd_nodes", getattr(result, "n_bdd_nodes", 0))


def _after_signature(clock, args, kwargs, result, seconds):
    shingles = args[1] if len(args) > 1 else kwargs.get("shingles", ())
    clock.add("dedup.shingles_hashed", len(shingles))


def _after_write_store(clock, args, kwargs, result, seconds):
    clock.add("store.write.bytes", getattr(result, "total_bytes", 0))


def _after_train_batch(clock, args, kwargs, result, seconds):
    clock.add("finetune.examples", getattr(result, "examples", 0))


def _after_generate(clock, args, kwargs, result, seconds):
    description = args[1] if len(args) > 1 else kwargs.get("description")
    clock.see("eval.completions", hash((description, result)))


def _after_eval(clock, args, kwargs, result, seconds):
    clock.add("eval.samples",
              sum(item.n_samples for item in getattr(result, "results", [])))


def _after_wait(clock, args, kwargs, result, seconds):
    clock.add("service.waits")


def _after_cache_init(clock, args, kwargs, result, seconds):
    cache = args[0]
    clock.cache_counters[id(cache._hits)] = (cache._hits, cache._misses)


#: (module, attribute path, layer or None, counter name, after hook).
#: A ``None`` layer records no time of its own (counting only).
TARGETS: List[Tuple[str, str, Optional[str], Optional[str],
                    Optional[Callable]]] = [
    ("repro.verilog.lexer", "Lexer.tokenize", "verilog.lex", None, None),
    ("repro.verilog.preprocessor", "preprocess", "verilog.preprocess",
     None, None),
    ("repro.verilog.parser", "parse", "verilog.parse", "verilog.parse",
     _after_parse),
    ("repro.verilog.syntax_checker", "check", "verilog.check", None, None),
    ("repro.verilog.style", "lint", "verilog.lint", None, None),
    ("repro.verilog.metrics", "measure", "verilog.measure", None, None),
    ("repro.verilog.sim.elaborate", "elaborate", "sim.elaborate",
     "sim.elaborate", None),
    ("repro.eval.functional", "run_functional_test", "sim.check",
     "sim.check", _after_check),
    ("repro.verilog.formal.check", "verify_design", "formal.verify",
     "formal.verify", _after_verify),
    ("repro.dataset.dedup", "tokenize_for_dedup", "dedup", None, None),
    ("repro.dataset.dedup", "MinHasher.signature", "dedup",
     "dedup.signature", _after_signature),
    ("repro.dataset.dedup", "deduplicate", "dedup", None, None),
    ("repro.dataset.families", "build_family_artifacts", "families",
     None, None),
    ("repro.dataset.describe", "family_description", "families",
     "families.describe", None),
    ("repro.dataset.ranking", "score_code", "ranking", None, None),
    ("repro.dataset.complexity", "classify_code", "ranking", None, None),
    ("repro.dataset.describe", "describe_source", "describe", None, None),
    ("repro.dataset.describe", "describe_blocks", "describe", None, None),
    ("repro.pipeline.cache", "ResultCache.__init__", None, None,
     _after_cache_init),
    ("repro.pipeline.cache", "ResultCache.get", "cache", None, None),
    ("repro.pipeline.cache", "ResultCache.get_many", "cache", None, None),
    ("repro.pipeline.cache", "ResultCache.put", "cache", None, None),
    ("repro.pipeline.diskcache", "DiskCache.get", "cache.disk.get",
     "cache.disk.get", None),
    ("repro.pipeline.diskcache", "DiskCache.put", "cache.disk.put", None,
     None),
    ("repro.store.writer", "write_store", "store.write", None,
     _after_write_store),
    ("repro.store.reader", "StoreReader._read_and_verify", "store.read",
     None, None),
    ("repro.finetune.trainer", "Trainer.run", "finetune", None, None),
    ("repro.model.generator", "ConditionalCodeModel.train_batch",
     "finetune", None, _after_train_batch),
    ("repro.model.generator", "ConditionalCodeModel.generate",
     "model.generate", "model.generate", _after_generate),
    # Count-only: the calling thread just waits for the problem fan-out,
    # and a waiting thread must not take a share of the wall time.
    ("repro.eval.harness", "evaluate_model", None, None, _after_eval),
    ("repro.service.client", "ServiceClient._request", "service.http",
     "service.http.requests", None),
    ("repro.service.client", "ServiceClient.job", None, "service.polls",
     None),
    ("repro.service.client", "ServiceClient.wait", None, None, _after_wait),
]


def _wrap(original: Callable, clock: LayerClock, target: str,
          layer: Optional[str], counter: Optional[str],
          after: Optional[Callable]) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        entered = time.perf_counter()
        clock.count_call(target, clock.target_calls)
        if counter is not None:
            clock.count_call(counter)
        if layer is not None:
            clock.enter(layer)
        started = time.thread_time()
        calling = time.perf_counter()
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            returned = time.perf_counter()
            if layer is not None:
                clock.leave()
            if after is not None:
                after(clock, args, kwargs, result,
                      time.thread_time() - started)
            # The wrapper's own time, outside the wrapped call.
            clock.add("obs.tracing_s", calling - entered
                      + time.perf_counter() - returned)

    wrapper.__perfbench_original__ = original
    return wrapper


def _resolve(module_name: str, path: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, original)`` for ``module:path``."""
    owner: Any = sys.modules[module_name]
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attribute, owner.__dict__[attribute]


class Installation:
    """The set of replaced references; :meth:`uninstall` restores them."""

    def __init__(self) -> None:
        self.replaced: List[Tuple[Any, str, Any]] = []
        self.originals: Dict[str, Callable] = {}

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self.replaced):
            setattr(owner, attribute, original)
        self.replaced.clear()


def import_layers() -> None:
    """Import every module a target lives in (and the packages that
    re-export them), so no reference escapes the sweep."""
    import importlib

    for module_name, _path, *_ in TARGETS:
        importlib.import_module(module_name)
    for extra in ("repro", "repro.core", "repro.service", "repro.store",
                  "repro.dataset", "repro.verilog", "repro.verilog.formal",
                  "repro.eval"):
        importlib.import_module(extra)


def install(clock: LayerClock) -> Installation:
    """Wrap every target and rebind every module-level reference."""
    import_layers()
    installation = Installation()
    functions: Dict[int, Callable] = {}
    for module_name, path, layer, counter, after in TARGETS:
        owner, attribute, original = _resolve(module_name, path)
        target = f"{module_name}:{path}"
        wrapper = _wrap(original, clock, target, layer, counter, after)
        installation.originals[target] = original
        installation.replaced.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)
        if not isinstance(owner, type):
            functions[id(original)] = wrapper
    # ``from x import f`` copies: rebind them in every repro module.
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            wrapper = functions.get(id(value))
            if wrapper is not None and wrapper.__perfbench_original__ \
                    is value:
                installation.replaced.append((module, attribute, value))
                setattr(module, attribute, wrapper)
    return installation


# -- the per-layer table ----------------------------------------------

#: Layers whose self time is reported, as ``<layer>.self_s``: every
#: layer a target books time to.
SELF_TIME_LAYERS = tuple(dict.fromkeys(
    layer for _module, _path, layer, *_ in TARGETS if layer is not None))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_table(clock: LayerClock, wall_s: float, n_ops: int,
                extra: Dict[str, float]) -> Dict[str, float]:
    """Per-op layer metrics from one traced window.

    Times and counts are window totals divided by ``n_ops``; ratios,
    percentiles and maxima are over the whole window.  Distinct sources
    and completions are counted afresh in each op of a single-loop
    workload; the service's two clients share one set for the window,
    so there ``verilog.parse.per_unique_source`` counts re-curation of
    the same corpora across jobs.  ``sim.check`` percentiles are the
    calling thread's CPU seconds per call.
    ``obs.tracing_overhead_ratio`` is the wrappers' own time outside the
    wrapped calls, summed over threads, per second of the window.
    ``extra`` holds the values the workload measures itself (the
    service's job splits).
    """
    per_op = 1.0 / max(n_ops, 1)
    calls = clock.calls
    counts = clock.counts
    table: Dict[str, float] = {}
    for layer in SELF_TIME_LAYERS:
        table[f"{layer}.self_s"] = clock.self_s.get(layer, 0.0) * per_op
    table["unattributed_s"] = clock.unattributed_s * per_op
    table["wall_s"] = wall_s * per_op
    parse_calls = calls.get("verilog.parse", 0)
    parse_unique = clock.unique_total.get("verilog.parse", 0)
    table["verilog.parse.calls"] = parse_calls * per_op
    table["verilog.parse.unique_sources"] = parse_unique * per_op
    table["verilog.parse.per_unique_source"] = _ratio(parse_calls,
                                                      parse_unique)
    table["sim.elaborate.calls"] = calls.get("sim.elaborate", 0) * per_op
    checks = clock.durations.get("sim.check", [])
    table["sim.check.calls"] = calls.get("sim.check", 0) * per_op
    table["sim.check.p50_s"] = statistics.median(checks) if checks else 0.0
    table["sim.check.max_s"] = max(checks) if checks else 0.0
    table["sim.loop_cap_hits"] = counts.get("sim.loop_cap_hits", 0) * per_op
    table["sim.loop_cap_s"] = counts.get("sim.loop_cap_s", 0.0) * per_op
    verifies = calls.get("formal.verify", 0)
    table["formal.verify.calls"] = verifies * per_op
    table["formal.unsupported_ratio"] = _ratio(
        counts.get("formal.unsupported", 0), verifies)
    table["formal.bdd_nodes"] = counts.get("formal.bdd_nodes", 0) * per_op
    table["dedup.signature.calls"] = calls.get("dedup.signature", 0) * per_op
    table["dedup.shingles_hashed"] = (
        counts.get("dedup.shingles_hashed", 0) * per_op)
    table["families.describe.calls"] = (
        calls.get("families.describe", 0) * per_op)
    hits = sum(hit.value for hit, _ in clock.cache_counters.values())
    misses = sum(miss.value for _, miss in clock.cache_counters.values())
    table["cache.hit_ratio"] = _ratio(hits, hits + misses)
    table["cache.disk.get.calls"] = calls.get("cache.disk.get", 0) * per_op
    table["store.write.bytes"] = counts.get("store.write.bytes", 0) * per_op
    table["finetune.examples"] = counts.get("finetune.examples", 0) * per_op
    generates = calls.get("model.generate", 0)
    table["model.generate.calls"] = generates * per_op
    samples = counts.get("eval.samples", 0)
    table["eval.samples"] = samples * per_op
    table["eval.unique_ratio"] = _ratio(
        clock.unique_total.get("eval.completions", 0), generates)
    table["service.http.requests"] = (
        calls.get("service.http.requests", 0) * per_op)
    table["service.polls_per_job"] = _ratio(calls.get("service.polls", 0),
                                            counts.get("service.waits", 0))
    # Measured by the service workload from its job records.
    table["service.handler.self_s"] = 0.0
    table["service.overhead_s"] = 0.0
    table["obs.tracing_overhead_ratio"] = _ratio(
        counts.get("obs.tracing_s", 0.0), wall_s)
    table.update(extra)
    return table
