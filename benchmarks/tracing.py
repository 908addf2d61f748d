"""Spans and counters around calls into cqarank's layers.

The benchmark installs these wrappers from its own files; nothing under
`src/` knows about them. A span records a name, a start, an end and the
span that was open when it began. Spans are kept in flat arrays and written
out once, when the run ends. A span's self time is its duration minus the
time covered by its direct children; spans never overlap, because the
program is single-threaded.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# Per-layer metric names, in the order they are reported, with their units.
LAYER_METRICS = [
    ("tensor.backward_s", "s"),
    ("tensor.backward_calls", "count"),
    ("tensor.graph_nodes", "count"),
    ("tensor.op_calls", "count"),
    ("tensor.pair_concat_s", "s"),
    ("tensor.pair_concat_mb", "MB"),
    ("tensor.matmul_s", "s"),
    ("layers.conv1d_s", "s"),
    ("layers.batchnorm_s", "s"),
    ("layers.maxpool1d_s", "s"),
    ("layers.dropout_s", "s"),
    ("optim.adam_step_s", "s"),
    ("optim.adam_steps", "count"),
    ("model.embedding_lookup_s", "s"),
    ("model.encode_batch_s", "s"),
    ("model.sentences_encoded", "count"),
    ("model.match_pair_s", "s"),
    ("model.match_pair_calls", "count"),
    ("model.match_cells", "count"),
    ("model.head_s", "s"),
    ("adversarial.build_pool_s", "s"),
    ("adversarial.generator_distribution_s", "s"),
    ("adversarial.sample_negatives_s", "s"),
    ("adversarial.negative_rewards_s", "s"),
    ("adversarial.discriminator_loss_s", "s"),
    ("evaluation.rank_s", "s"),
    ("evaluation.write_predictions_s", "s"),
    ("data.load_jsonl_s", "s"),
    ("data.synth_generate_s", "s"),
    ("model.load_checkpoint_s", "s"),
]

# Layers timed once per run, during set-up; every other layer is reported
# per round of the measured phase.
SETUP_LAYERS = ("data.load_jsonl", "data.synth_generate", "model.load_checkpoint")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[list] = []  # [span index, time covered by children]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.enabled = True

    def begin(self, name: str):
        idx = len(self.start)
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(nid)
        self.parent.append(self._open[-1][0] if self._open else -1)
        self.end.append(0.0)
        self._open.append([idx, 0.0])
        self.start.append(perf_counter())

    def finish(self):
        t = perf_counter()
        idx, covered = self._open.pop()
        self.end[idx] = t
        duration = t - self.start[idx]
        self.self_s[self.names[self.name_id[idx]]] += duration - covered
        if self._open:
            self._open[-1][1] += duration

    def wrap(self, name: str, fn, count=None):
        """`fn` inside a span; `count(counts, args, result)` may add to the counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def layer_metrics(self, rounds: int) -> dict:
        """Every per-layer metric: set-up layers once, the rest per round."""
        out = {}
        for metric, unit in LAYER_METRICS:
            if metric.endswith("_s"):
                layer = metric[:-2]
                value = self.self_s.get(layer, 0.0)
                if layer not in SETUP_LAYERS:
                    value /= rounds
            elif metric.endswith("_mb"):
                value = self.counts[metric[:-3] + "_bytes"] / 1e6 / rounds
            else:
                value = self.counts[metric] // rounds
            out[metric] = {"value": value, "unit": unit}
        return out

    def save(self, path):
        """Write the recorded spans as arrays (times in seconds)."""
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
            parent=np.frombuffer(self.parent, np.int32),
            start=np.frombuffer(self.start, np.float64), end=np.frombuffer(self.end, np.float64),
        )


def replace_everywhere(original, replacement):
    """Point every cqarank module attribute that is `original` at `replacement`,
    so that `from .x import f` aliases are covered too."""
    found = False
    for name, module in list(sys.modules.items()):
        if not name.startswith("cqarank") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                found = True
    return found


def install(tracer: Tracer):
    """Wrap the public entry points of every layer named in LAYER_METRICS.

    Each op result is counted where it is built, in the tensor module's
    `_make`, so that ops added later are counted as well."""
    from cqarank import adversarial, data, evaluation, model
    from cqarank.numerics import layers, optim, tensor

    missing = []

    def patch(owner, attr, span, count=None):
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(f"{owner.__name__}.{attr}")
            return
        wrapped = tracer.wrap(span, original, count)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
        elif not replace_everywhere(original, wrapped):
            missing.append(f"{owner.__name__}.{attr}")

    make = getattr(tensor, "_make", None)
    if make is None:
        missing.append("numerics.tensor._make")
    else:
        @functools.wraps(make)
        def counted_make(data, parents, backward):
            out = make(data, parents, backward)
            if tracer.enabled:
                tracer.counts["tensor.op_calls"] += 1
                tracer.counts["tensor.graph_nodes"] += out.requires_grad
            return out

        replace_everywhere(make, counted_make)

    def pair_bytes(counts, args, result):
        counts["tensor.pair_concat_bytes"] += result.data.nbytes

    def calls(key):
        def count(counts, args, result):
            counts[key] += 1
        return count

    def sentences(counts, args, result):
        counts["model.sentences_encoded"] += len(args[1])

    def cells(counts, args, result):
        counts["model.match_pair_calls"] += 1
        counts["model.match_cells"] += args[1].shape[1] * args[2].shape[1]

    patch(tensor.Tensor, "backward", "tensor.backward", calls("tensor.backward_calls"))
    patch(tensor, "pair_concat", "tensor.pair_concat", pair_bytes)
    patch(tensor, "matmul", "tensor.matmul")
    patch(layers, "conv1d", "layers.conv1d")
    patch(layers.BatchNorm1d, "__call__", "layers.batchnorm")
    patch(layers, "maxpool1d", "layers.maxpool1d")
    patch(layers, "dropout", "layers.dropout")
    patch(optim.Adam, "step", "optim.adam_step", calls("optim.adam_steps"))
    patch(model.EmbeddingTable, "lookup", "model.embedding_lookup")
    patch(model.MatchingModel, "encode_batch", "model.encode_batch", sentences)
    patch(model.MatchingModel, "match_pair", "model.match_pair", cells)
    patch(model.MatchingModel, "score_from_hierarchies", "model.head")
    patch(model, "load_checkpoint", "model.load_checkpoint")
    for attr in ("build_pool", "generator_distribution", "sample_negatives",
                 "negative_rewards", "discriminator_loss"):
        patch(adversarial, attr, f"adversarial.{attr}")
    patch(evaluation, "rank", "evaluation.rank")
    patch(evaluation, "write_predictions", "evaluation.write_predictions")
    patch(data, "load_jsonl", "data.load_jsonl")
    patch(data, "synth_generate", "data.synth_generate")
    return missing
