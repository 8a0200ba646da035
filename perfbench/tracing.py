"""Per-layer host-time attribution, measured from outside the program.

The traced run wraps the public entry point of every layer with a span
recorder kept here, in the benchmark's own files; nothing under ``src/``
knows it is being timed.  A span's *self time* is its duration minus
the time its direct child spans cover, so summing self time per layer
partitions the traced wall exactly: what no span covers is ``other_s``.

Spans stay in memory while the run lasts and are written to a file when
it ends (:meth:`SpanRecorder.write`).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time

#: layer key -> the entry points whose calls it owns, as
#: ``(module, "Class.method")`` or ``(module, "function")``
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "workloads.synth": (
        ("repro.serve.workloads", "traffic_mix_graphs"),
    ),
    "serve.round": (
        ("repro.serve.service", "SchedulerService.run"),
        ("repro.serve.service", "SchedulerService.drain"),
    ),
    "serve.place": (("repro.serve.fleet", "GpuFleet.choose"),),
    "parallel.slot_work": (
        ("repro.parallel.work", "execute_slot_work"),
    ),
    "parallel.stage": (
        ("repro.parallel.work", "submit_replay"),
        ("repro.parallel.work", "submit_context"),
    ),
    "parallel.readback": (("repro.parallel.work", "read_outputs"),),
    "kernels.payload": (("repro.kernels.kernel", "KernelLaunch.execute"),),
    "core.launch": (
        ("repro.core.context", "SerialExecutionContext.launch"),
        ("repro.core.context", "ParallelExecutionContext.launch"),
    ),
    "multigpu.launch": (
        ("repro.multigpu.context", "MultiGpuExecutionContext.launch"),
    ),
    "coherence.self": tuple(
        ("repro.memory.coherence", f"CoherenceEngine.{name}")
        for name in (
            "acquire",
            "release",
            "cpu_access",
            "flush_window",
            "acquire_multi",
            "release_multi",
            "cpu_write_full_multi",
            "cpu_read_multi",
        )
    ),
    "gpusim.sync": (
        ("repro.gpusim.engine", "SimEngine.sync_all"),
        ("repro.gpusim.engine", "SimEngine.sync_event"),
        ("repro.gpusim.engine", "SimEngine.sync_stream"),
    ),
    "gpusim.submit": (("repro.gpusim.engine", "SimEngine.submit"),),
    "graphs.capture": (
        ("repro.graphs.capture", "StreamCapture.launch"),
        ("repro.graphs.capture", "StreamCapture.end_capture"),
        ("repro.graphs.graph", "CudaGraph.instantiate"),
    ),
    "graphs.replay": (("repro.graphs.graph", "ExecutableGraph.launch"),),
    "graphs.handtuned": (
        ("repro.graphs.handtuned", "HandTunedScheduler.launch"),
    ),
    "cluster.round": (("repro.cluster.cluster", "Cluster.run"),),
    "cluster.place": (("repro.cluster.scheduler", "ClusterScheduler.place"),),
    "cluster.net": (("repro.cluster.network", "ClusterNetwork.transfer"),),
    "report.fingerprint": (
        ("repro.serve.service", "ServiceReport.fingerprint"),
        ("repro.cluster.cluster", "ClusterReport.fingerprint"),
    ),
}


class SpanRecorder:
    """Records nested spans on one thread and folds them into self time.

    Each span is stored as ``(name_id, start_ns, end_ns, parent)`` where
    ``parent`` is the index of the enclosing span (-1 at top level).
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int]] = []
        #: span name -> [calls, self_ns]
        self.totals: dict[str, list[int]] = {}
        # open spans: [span_index, start_ns, child_ns]
        self._stack: list[list[int]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.totals[name] = [0, 0]
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        name_id = self.name_id(name)
        totals = self.totals[name]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append((name_id, 0, 0, parent))
            frame = [index, clock(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                spans[index] = (name_id, frame[1], end, parent)
                totals[0] += 1
                totals[1] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration

        return traced

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for layer, targets in LAYERS.items():
            calls = 0
            self_ns = 0
            for _, qualname in targets:
                c, s = self.totals.get(qualname, (0, 0))
                calls += c
                self_ns += s
            out[layer] = {"calls": calls, "self_s": self_ns * 1e-9}
        return out

    def entry_self_s(self, qualname: str) -> float:
        return self.totals.get(qualname, (0, 0))[1] * 1e-9

    def write(self, path, meta: dict) -> None:
        """Dump every span (times relative to the first one)."""
        origin = min((s[1] for s in self.spans), default=0)
        payload = {
            **meta,
            "fields": ["name", "start_ns", "end_ns", "parent"],
            "names": self.names,
            "spans": [
                [n, start - origin, end - origin, parent]
                for n, start, end, parent in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
            fh.write("\n")


def _resolve(module_name: str, qualname: str):
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return module, owner, attr


@contextlib.contextmanager
def instrument(recorder: SpanRecorder):
    """Wrap every :data:`LAYERS` entry point for the duration of the
    block, then restore the originals.

    A method is replaced on the class that defines it.  A module-level
    function is replaced in every loaded ``repro`` module that holds a
    reference to it, because callers import such functions by name.
    """
    undo: list[tuple[object, str, object]] = []
    try:
        for targets in LAYERS.values():
            for module_name, qualname in targets:
                module, owner, attr = _resolve(module_name, qualname)
                original = owner.__dict__[attr]
                traced = recorder.wrap(qualname, original)
                if owner is not module:
                    undo.append((owner, attr, original))
                    setattr(owner, attr, traced)
                    continue
                for name, mod in list(sys.modules.items()):
                    if mod is None or not name.startswith("repro"):
                        continue
                    if getattr(mod, attr, None) is original:
                        undo.append((mod, attr, original))
                        setattr(mod, attr, traced)
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

