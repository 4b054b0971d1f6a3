"""Span recorder behind the benchmark's timing wrappers.

``install()`` replaces the public functions the benchmark times (see
``TARGETS``) with wrappers, in every loaded ``repro`` module that binds
them, and ``uninstall()`` puts the originals back.  Nothing in the program
changes: the wrappers call the original and time it.

Each wrapped call pushes a frame on a per-thread stack, so a layer's self
time (its duration minus the part its wrapped children cover) is known the
moment it returns.  Coarse layers (a config, a workload, a prepare/execute,
a store load, ...) record a span: name, start, end, self time, parent span
and the config hash or job id it serves.  The hot leaves (window gets,
ledger charges, fetch plans, kernels, ``from_coo``) run tens of thousands of
times per config, so they are folded into their nearest coarse ancestor's
span as a call count, total and self time instead of one span each.
``layer_totals`` sums spans and folded leaves per layer.

Spans stay in memory until ``dump()`` writes them, at process exit or, for
a pool worker, when its loop returns.  ``time.perf_counter`` reads
``CLOCK_MONOTONIC`` on Linux, so spans of different processes share one
time axis.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import statistics
import sys
import threading
import time
from typing import Dict, List, Optional

clock = time.perf_counter

#: (module, attribute path, layer, coarse?) — every public entry point the
#: benchmark times.  A module function is replaced wherever a loaded
#: ``repro`` module binds it (``from x import f`` copies the reference).
TARGETS = [
    ("repro.matrices.suite", "load_dataset", "matrices.load", True),
    ("repro.matrices.transport", "SharedMatrixRef.materialise", "matrices.load", True),
    ("repro.apps.squaring", "prepare_ordering", "partition.ordering", True),
    ("repro.core.estimator", "estimate_communication", "core.estimate", True),
    ("repro.core.block_fetch", "BlockFetchPlanner.plan_compact", "core.plan", False),
    ("repro.runtime.backend", "create_cluster", "runtime.cluster", True),
    ("repro.runtime.simulator", "SimulatedCluster.shutdown", "runtime.cluster", True),
    ("repro.runtime.window", "RdmaWindow.get_concat_many", "runtime.window_get", False),
    ("repro.sparse.local_spgemm", "local_spgemm", "sparse.kernel", False),
    ("repro.sparse.csc", "CSCMatrix.from_coo", "sparse.assemble", False),
    ("repro.experiments.engine", "execute_config", "experiments.config", True),
    ("repro.experiments.workloads", "execute_workload", "experiments.record_build", True),
    ("repro.experiments.store", "ResultStore.load", "experiments.store_load", True),
    ("repro.experiments.store", "ResultStore.append", "experiments.store_append", True),
    ("repro.experiments.journal", "Journal.append", "experiments.journal_append", True),
    ("repro.experiments.scheduler", "Scheduler.submit", "experiments.submit", True),
]

#: the ledger's charge_* methods, wrapped on each of these classes
CHARGE_CLASSES = [
    ("repro.runtime.stats", "RankStats"),
    ("repro.runtime.stats", "PhaseLedger"),
    ("repro.runtime.simulator", "SimulatedCluster"),
]

#: wrapper bookkeeping done inside a wrapped call (the kernel flop count)
#: is charged here, not to the enclosing layer
OVERHEAD = "trace.overhead"


class _Frame:
    """One open wrapped call: time its children cover, and its span."""

    __slots__ = ("child", "owner", "ctx")

    def __init__(self, owner: Optional[dict], ctx: Optional[str]) -> None:
        self.child = 0.0
        #: the span of this call (coarse) or of its nearest coarse ancestor
        self.owner = owner
        self.ctx = ctx


class Tracer:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._spans: List[dict] = []
        self._ids = itertools.count(1)
        self._patches: List[tuple] = []
        self.pid = os.getpid()
        #: seconds a wrapped call costs its caller outside the interval it
        #: times (frame set-up and bookkeeping); set by ``calibrate()``
        self.outside = 0.0

    # -- recording --------------------------------------------------------
    def _stack(self) -> List[_Frame]:
        if self.pid != os.getpid():
            # Forked child (a pool worker): keep none of the parent's spans.
            self.pid = os.getpid()
            self._spans = []
            self._local = threading.local()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, layer: str, coarse: bool, ctx: Optional[str]):
        stack = self._stack()
        parent = stack[-1] if stack else None
        owner = parent.owner if parent else None
        ctx = ctx or (parent.ctx if parent else None)
        if coarse:
            owner = {
                "id": next(self._ids), "parent": owner["id"] if owner else 0,
                "name": layer, "ctx": ctx, "pid": self.pid,
                "tid": threading.get_ident(), "leaves": {}, "counts": {},
            }
        frame = _Frame(owner, ctx)
        stack.append(frame)
        return stack, parent, frame

    def _exit(self, stack, parent, frame, layer, coarse, t0, t1, ctx=None) -> None:
        stack.pop()
        dur = t1 - t0
        if parent is not None:
            # The caller's self time excludes this wrapper's own cost too;
            # that cost is charged to the tracer instead.
            parent.child += dur + self.outside
            if parent.owner is not None:
                over = parent.owner["leaves"].setdefault(OVERHEAD, [0, 0.0, 0.0])
                over[0] += 1
                over[1] += self.outside
                over[2] += self.outside
        if coarse:
            frame.owner.update(start=t0, end=t1, self=dur - frame.child)
            if ctx:
                frame.owner["ctx"] = ctx
            self._spans.append(frame.owner)
        elif frame.owner is not None:
            leaf = frame.owner["leaves"].setdefault(layer, [0, 0.0, 0.0])
            leaf[0] += 1
            leaf[1] += dur
            leaf[2] += dur - frame.child

    def wrap(self, fn, layer: str, coarse: bool, ctx_of=None, counter=None):
        """Return ``fn`` timed as ``layer``.

        ``ctx_of(args, result)`` names the config or job the call serves;
        ``counter(args, kwargs, result)`` returns counts to add to the span.
        """
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            ctx = ctx_of(args, None) if ctx_of is not None else None
            stack, parent, frame = tracer._enter(layer, coarse, ctx)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                late = None
                if ctx_of is not None and ctx is None and result is not None:
                    late = ctx_of(args, result)     # a job id comes with the handle
                tracer._exit(stack, parent, frame, layer, coarse, t0, t1, late)
                if counter is not None and frame.owner is not None:
                    c0 = clock()
                    counts = frame.owner["counts"]
                    for key, value in counter(args, kwargs, result).items():
                        counts[key] = counts.get(key, 0) + value
                    spent = clock() - c0
                    # Bookkeeping time is the tracer's, not the caller's.
                    over = frame.owner["leaves"].setdefault(OVERHEAD, [0, 0.0, 0.0])
                    over[0] += 1
                    over[1] += spent
                    over[2] += spent
                    if parent is not None:
                        parent.child += spent

        return timed

    @contextlib.contextmanager
    def span(self, name: str, ctx: Optional[str] = None):
        """Record a benchmark-side coarse span around a ``with`` block.

        Yields the frame, so the block can name the span's ``ctx`` once it
        knows it (a job id arrives with the submit's acknowledgement).
        """
        stack, parent, frame = self._enter(name, True, ctx)
        t0 = clock()
        try:
            yield frame
        finally:
            self._exit(stack, parent, frame, name, True, t0, clock())

    def calibrate(self, calls: int = 20000, repeats: int = 5) -> None:
        """Measure ``outside``: time ``calls`` no-op calls, plain and
        wrapped, inside a span; what the wrapped loop costs beyond the plain
        one and the wrapped calls' own intervals is the wrappers' cost to
        their caller."""
        def noop():
            return None

        timed = self.wrap(noop, "trace.calibration", False)
        samples = []
        for _ in range(repeats):
            with self.span("trace.calibration") as frame:
                t0 = clock()
                for _ in range(calls):
                    noop()
                plain = clock() - t0
                t0 = clock()
                for _ in range(calls):
                    timed()
                wrapped = clock() - t0
            inside = frame.owner["leaves"]["trace.calibration"][1]
            samples.append(max(0.0, (wrapped - plain - inside) / calls))
        self._spans = [s for s in self._spans if s["name"] != "trace.calibration"]
        self.outside = statistics.median(samples)

    # -- output -----------------------------------------------------------
    def spans(self) -> List[dict]:
        return list(self._spans)

    def dump(self, directory: str) -> None:
        """Write this process's spans to ``directory``."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans(), fh)

    # -- patching ---------------------------------------------------------
    def _replace_everywhere(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _patch_method(self, cls, attr: str, layer: str, coarse: bool, **kw) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            timed = self.wrap(raw.__func__, layer, coarse, **kw)
            setattr(cls, attr, classmethod(timed))
        else:
            setattr(cls, attr, self.wrap(raw, layer, coarse, **kw))
        self._patches.append((cls, attr, raw))

    def install(self) -> None:
        """Wrap every target; import what they live in first."""
        import importlib

        # Every module that may bind a target by name must be loaded before
        # the scan, or it would keep the unwrapped original.
        for module_name in ({t[0] for t in TARGETS} | {c[0] for c in CHARGE_CLASSES}
                            | {"repro.apps.triangles", "repro.experiments", "repro.core"}):
            importlib.import_module(module_name)
        from repro.sparse import spgemm_flops

        def kernel_flops(args, kwargs, result):
            return {"sparse.flops": spgemm_flops(args[0], args[1])}

        def config_ctx(args, result):
            return args[0].config_hash() if args else None

        def job_ctx(args, result):
            return getattr(result, "job_id", None)

        special = {
            "execute_config": {"ctx_of": config_ctx},
            "Scheduler.submit": {"ctx_of": job_ctx},
            "local_spgemm": {"counter": kernel_flops},
        }
        for module_name, path, layer, coarse in TARGETS:
            module = sys.modules[module_name]
            kw = special.get(path, {})
            if "." in path:
                cls_name, attr = path.split(".")
                self._patch_method(getattr(module, cls_name), attr, layer, coarse, **kw)
            else:
                original = getattr(module, path)
                self._replace_everywhere(original, self.wrap(original, layer, coarse, **kw))
        for module_name, cls_name in CHARGE_CLASSES:
            cls = getattr(sys.modules[module_name], cls_name)
            for attr in [a for a in vars(cls) if a.startswith("charge_")]:
                self._patch_method(cls, attr, "runtime.charge", False)
        from repro.core import ALGORITHM_FACTORIES

        for cls in set(ALGORITHM_FACTORIES.values()):
            for attr, layer in (("prepare", "core.prepare"), ("execute", "core.execute")):
                if attr in cls.__dict__:
                    self._patch_method(cls, attr, layer, True)
        if not self.outside:
            self.calibrate()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def layer_totals(spans: List[dict], since: float = float("-inf")):
    """Per-layer ``[calls, total s, self s]`` and summed counts of the spans
    that started at or after ``since``, folded leaves included."""
    totals: Dict[str, list] = {}
    counts: Dict[str, int] = {}

    def add(layer, calls, total, own):
        acc = totals.setdefault(layer, [0, 0.0, 0.0])
        acc[0] += calls
        acc[1] += total
        acc[2] += own

    for s in spans:
        if s["start"] < since:
            continue
        add(s["name"], 1, s["end"] - s["start"], s["self"])
        for layer, (calls, total, own) in s["leaves"].items():
            add(layer, calls, total, own)
        for key, value in s["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return totals, counts


def load_dumps(directory: str) -> List[dict]:
    """All spans written to ``directory`` by every process of a run."""
    out: List[dict] = []
    for name in sorted(os.listdir(directory)) if os.path.isdir(directory) else []:
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                out.extend(json.load(fh))
    return out


def chrome_trace(spans: List[dict]) -> dict:
    """Chrome trace-event JSON (viewable in Perfetto) of the coarse spans.

    Leaf calls folded into a span appear in its ``args.leaves`` as
    ``[calls, total seconds, self seconds]``.
    """
    events = []
    for s in spans:
        events.append({
            "name": s["name"], "ph": "X", "cat": s["name"].split(".")[0],
            "ts": s["start"] * 1e6, "dur": (s["end"] - s["start"]) * 1e6,
            "pid": s["pid"], "tid": s["tid"],
            "args": {"id": s["id"], "parent": s["parent"], "ctx": s["ctx"],
                     "self_s": s["self"], "leaves": s["leaves"], "counts": s["counts"]},
        })
    events.sort(key=lambda e: (e["pid"], e["ts"]))
    return {"traceEvents": events, "displayTimeUnit": "ms"}
