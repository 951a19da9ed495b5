"""In-memory span tracer over nerchain's public functions.

The tracer replaces each layer function at every name a nerchain module binds
it under (for example both ``nerchain.crf.viterbi_decode`` and
``nerchain.training.viterbi_decode``) with a wrapper that records a span:
(name, parent span index, start ns, end ns, operation index). Spans stay in
memory until the benchmark writes them out. Nothing is patched unless
``install`` is called, so an untraced run executes the program unchanged.
"""

import functools
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from nerchain.training import GRAD_CLIP_NORM

# (layer name, defining module, function)
LAYERS = (
    ("conll_io.parse_conll", "nerchain.conll_io", "parse_conll"),
    ("conll_io.load_embeddings", "nerchain.conll_io", "load_embeddings"),
    ("conll_io.write_conll", "nerchain.conll_io", "write_conll"),
    ("tagscheme.transition_mask", "nerchain.tagscheme", "transition_mask"),
    ("tagscheme.repair_bio", "nerchain.tagscheme", "repair_bio"),
    ("encoders.embed", "nerchain.encoders", "embed"),
    ("encoders.embed_backward", "nerchain.encoders", "embed_backward"),
    ("encoders.emissions_forward", "nerchain.encoders", "emissions_forward"),
    ("encoders.emissions_backward", "nerchain.encoders", "emissions_backward"),
    ("encoders.fc_head_forward", "nerchain.encoders", "fc_head_forward"),
    ("encoders.cross_entropy_and_grads", "nerchain.encoders", "cross_entropy_and_grads"),
    ("crf.log_likelihood", "nerchain.crf", "log_likelihood"),
    ("crf.nll_gradients", "nerchain.crf", "nll_gradients"),
    ("crf.viterbi_decode", "nerchain.crf", "viterbi_decode"),
    ("training.adam_step", "nerchain.training", "adam_step"),
    ("training.clip_global_norm", "nerchain.training", "clip_global_norm"),
    ("training.evaluate_corpus", "nerchain.training", "evaluate_corpus"),
    ("training.save_checkpoint", "nerchain.training", "save_checkpoint"),
    ("training.load_checkpoint", "nerchain.training", "load_checkpoint"),
    ("metrics.score", "nerchain.metrics", "score"),
    ("metrics.error_breakdown", "nerchain.metrics", "error_breakdown"),
)
# cli commands run through cli.main; the benchmark opens their spans itself
CLI_SPANS = ("cli.predict", "cli.evaluate", "cli.inspect")
SPAN_NAMES = tuple(name for name, _, _ in LAYERS) + CLI_SPANS


def _stream_bytes(stream):
    if isinstance(stream, str):
        return len(stream.encode("utf-8"))
    return os.fstat(stream.fileno()).st_size


def _count_read(counters, args, result):
    counters["conll_io.bytes_read"] += _stream_bytes(args[0])


def _count_saved(counters, args, result):
    counters["training.checkpoint_bytes"] += os.path.getsize(args[1])


def _count_loaded(counters, args, result):
    counters["training.checkpoint_bytes"] += os.path.getsize(args[0])


def _count_clip(counters, args, result):
    counters["training.clipped_steps"] += result > GRAD_CLIP_NORM


_COUNTERS = {
    "conll_io.parse_conll": _count_read,
    "conll_io.load_embeddings": _count_read,
    "training.save_checkpoint": _count_saved,
    "training.load_checkpoint": _count_loaded,
    "training.clip_global_norm": _count_clip,
}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, parent, start_ns, end_ns, op)
        self.counters = defaultdict(float)
        self.op = -1
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, parent, start, end, self.op)

    def _wrap(self, name, fn):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counters, args, result)
            return result

        return wrapper

    def install(self):
        """Patch every nerchain binding of every layer function."""
        modules = [module for name, module in sys.modules.items()
                   if name == "nerchain" or name.startswith("nerchain.")]
        for name, module_name, attr in LAYERS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        while self._patches:
            module, key, original = self._patches.pop()
            setattr(module, key, original)

    @contextmanager
    def tracing(self, op):
        self.op = op
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self.op = -1

    def totals(self, scale):
        """Per span name: busy seconds, self seconds and calls; plus seconds in
        top-level spans. scale maps an operation index to its time factor."""
        child = [0] * len(self.spans)
        for name, parent, start, end, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        top = 0.0
        for i, (name, parent, start, end, op) in enumerate(self.spans):
            factor = scale[op] / 1e9
            busy[name] += (end - start) * factor
            own[name] += (end - start - child[i]) * factor
            calls[name] += 1
            if parent < 0:
                top += (end - start) * factor
        return busy, own, calls, top

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
