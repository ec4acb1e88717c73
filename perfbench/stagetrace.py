"""Per-stage spans of a training step, recorded from outside the program.

``Model.forward`` and ``Model.batch_loss`` reach every pipeline stage through
module attributes (``enc.encode_image``, ``interact.cross_attention``, ...),
so replacing those attributes for the length of a traced epoch wraps each
stage call in a span without touching the package. A span's forward time is
its self time: its duration minus that of the spans it encloses.

Tape nodes are attributed to the innermost open span: while tracing,
``mmfnd.tensor.Tensor`` is replaced by a subclass that records each node it
creates. When a span closes, the ``_backward`` closure of each node it
created is wrapped in a timer, which gives each stage's backward time.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from time import perf_counter

from mmfnd import align, enrich, fuse, interact
from mmfnd import encoders as enc
from mmfnd import model as model_mod
from mmfnd import tensor as T
from mmfnd import train as train_mod

# (module, attribute) pairs that Model.forward / batch_loss call per stage
STAGE_FUNCTIONS = {
    "encoders": [(enc, "pooled_embedding"), (enc, "encode_image"), (enc, "encode_description")],
    "enrich": [(enrich, "enhance")],
    "align": [(align, "shared_encode"), (align, "similarity_matrix"), (align, "contrastive_loss")],
    "interact": [
        (interact, "cross_attention"), (interact, "modality_update"),
        (interact, "interaction_feature"),
    ],
    "fuse": [
        (fuse, "adaptive_weights"), (fuse, "fuse"), (fuse, "classify"),
        (fuse, "detection_loss"), (fuse, "total_loss"),
    ],
    # what is left is Model's own wiring: projections, stack_rows, mean_scalars
    "model": [(model_mod.Model, "forward"), (model_mod.Model, "batch_loss")],
}
STAGES = tuple(STAGE_FUNCTIONS)


@contextmanager
def patched(owner, name, make):
    """Replace ``owner.name`` by ``make(original)`` until the block ends."""
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


class CallTimer:
    """Total seconds and call count per key, for whole-call spans."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)

    def wrap(self, key):
        def make(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.seconds[key] += perf_counter() - start
                    self.calls[key] += 1
            return timed
        return make


class StageTracer:
    """Stage spans, node counts, tape-sweep and Adam time of training steps.

    ``install()`` and ``uninstall()`` bracket the traced epochs; totals
    accumulate across them and are read per batch by ``per_batch()``.
    """

    def __init__(self):
        self.fwd = defaultdict(float)
        self.bwd = defaultdict(float)
        self.nodes = defaultdict(int)
        self.loose_nodes = 0  # created outside every span
        self.sweep = 0.0
        self.adam = 0.0
        self.batches = 0
        self._frames: list[list] = []  # [stage, start, child seconds, created nodes]
        self._stack: ExitStack | None = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._stack is not None:
            return
        stack = ExitStack()
        base = T.Tensor
        tracer = self

        class TracedTensor(base):
            __slots__ = ()

            def __init__(self, data, parents=()):
                base.__init__(self, data, parents)
                if tracer._frames:
                    tracer._frames[-1][3].append(self)
                else:
                    tracer.loose_nodes += 1

        stack.enter_context(patched(T, "Tensor", lambda _: TracedTensor))
        for stage, targets in STAGE_FUNCTIONS.items():
            for owner, name in targets:
                stack.enter_context(patched(owner, name, functools.partial(self._span, stage)))
        stack.enter_context(patched(model_mod.Model, "batch_loss", self._count_batch))
        stack.enter_context(patched(base, "backward", self._timed_sweep))
        stack.enter_context(patched(train_mod.Adam, "step", self._timed_adam))
        self._stack = stack

    def uninstall(self) -> None:
        if self._stack is not None:
            self._stack.close()
            self._stack = None

    # -- wrappers ----------------------------------------------------------

    def _span(self, stage, fn):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [stage, perf_counter(), 0.0, []]
            self._frames.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                self._frames.pop()
                created = frame[3]
                for node in created:
                    if node._backward is not None:
                        node._backward = self._timed_closure(stage, node._backward)
                elapsed = perf_counter() - frame[1]
                self.fwd[stage] += elapsed - frame[2]
                self.nodes[stage] += len(created)
                if self._frames:
                    self._frames[-1][2] += elapsed
        return span

    def _timed_closure(self, stage, closure):
        def timed():
            start = perf_counter()
            closure()
            self.bwd[stage] += perf_counter() - start
        return timed

    def _count_batch(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.batches += 1
            return fn(*args, **kwargs)
        return counted

    def _timed_sweep(self, fn):
        @functools.wraps(fn)
        def timed(node):
            start = perf_counter()
            fn(node)
            self.sweep += perf_counter() - start
        return timed

    def _timed_adam(self, fn):
        @functools.wraps(fn)
        def timed(opt):
            start = perf_counter()
            fn(opt)
            self.adam += perf_counter() - start
        return timed

    # -- results -----------------------------------------------------------

    def per_batch(self) -> dict[str, float]:
        """Per-layer metrics per training batch, in ms or node counts."""
        n = self.batches
        if n == 0:
            raise RuntimeError("no traced training batch")
        out: dict[str, float] = {}
        for stage in STAGES:
            prefix = "model.self_" if stage == "model" else f"{stage}."
            out[f"{prefix}fwd_ms_per_batch"] = 1e3 * self.fwd[stage] / n
            out[f"{prefix}bwd_ms_per_batch"] = 1e3 * self.bwd[stage] / n
            out[f"{prefix}nodes_per_batch"] = self.nodes[stage] / n
        closures = sum(self.bwd.values())
        out["tensor.nodes_per_batch"] = (sum(self.nodes.values()) + self.loose_nodes) / n
        out["tensor.sweep_ms_per_batch"] = 1e3 * self.sweep / n
        out["tensor.sweep_overhead_ms_per_batch"] = 1e3 * (self.sweep - closures) / n
        out["train.adam_ms_per_batch"] = 1e3 * self.adam / n
        return out
