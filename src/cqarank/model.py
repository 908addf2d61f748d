"""Multi-scale matching scorer.

A sentence is embedded and pushed through K conv blocks (conv3 -> batchnorm
-> relu -> maxpool), producing a hierarchy of representations whose level-k
length is ceil(m / 2^k). Scale pairs (u, v) selected by the score mode are
compared position-by-position with a two-layer network, max-pooled across
the opposite sentence, mean-aggregated, and the concatenated match vectors
are collapsed to one relevance score by a second two-layer head.

The same class serves as discriminator and generator; they differ only in
their parameter values.
"""

from __future__ import annotations

import enum
import json
import sys
import typing
from dataclasses import dataclass, asdict, fields

import numpy as np

from . import numerics as N
from .data import Vocabulary
from .errors import ConfigError, ContractError, EmptyInputError, ParseError, VocabularyError
from .numerics import Tensor

CHECKPOINT_MAGIC = b"CQARANK-CKPT-1\n"


class ScoreMode(enum.Enum):
    """Which scale pairs contribute match vectors.

    WORD compares only word-level representations (1 pair), MULTI adds
    word-to-ngram pairs in both directions (2K+1), FULL takes the whole
    (K+1)^2 grid.
    """

    WORD = "word"
    MULTI = "multi"
    FULL = "full"


def scale_pairs(mode: ScoreMode, levels: int) -> list[tuple[int, int]]:
    if mode is ScoreMode.WORD:
        return [(0, 0)]
    if mode is ScoreMode.MULTI:
        return [(0, 0)] + [(0, v) for v in range(1, levels + 1)] + \
               [(u, 0) for u in range(1, levels + 1)]
    return [(u, v) for u in range(levels + 1) for v in range(levels + 1)]


def public_name(f) -> str:
    """A config field's flag and config-file key, when it differs from the
    field's own name, is declared in the field's metadata."""
    return f.metadata.get("name", f.name)


# what a config field of each declared type accepts, and how to say so
_ACCEPTS = {
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    float: (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max, "a finite number"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    str: (lambda v: isinstance(v, str), "a string"),
}


def check_field_types(config) -> None:
    """ConfigError unless every field of the dataclass `config` holds its
    declared type: an int field takes no bool or float, a float field also
    takes an int, a bool field takes only a bool, and an enum field takes a
    member or a member's value. Values are stored as the declared type."""
    hints = typing.get_type_hints(type(config))
    for f in fields(config):
        kind, value = hints[f.name], getattr(config, f.name)
        if issubclass(kind, enum.Enum):
            values = [m.value for m in kind]
            if not (isinstance(value, kind) or isinstance(value, str) and value in values):
                raise ConfigError(f"{public_name(f)} must be one of {values}, got {value!r}")
        elif not _ACCEPTS[kind][0](value):
            raise ConfigError(f"{public_name(f)} must be {_ACCEPTS[kind][1]}, got {value!r}")
        setattr(config, f.name, kind(value))


@dataclass
class ModelConfig:
    vocab_size: int
    dim: int = 64
    levels: int = 2
    channels: int = 128
    h_dim: int = 128
    hidden: int = 128
    mode: ScoreMode = ScoreMode.MULTI
    dropout: float = 0.2
    dtype: str = "float64"
    emb_trainable: bool = True

    def __post_init__(self):
        check_field_types(self)
        if min(self.vocab_size, self.dim, self.channels, self.h_dim, self.hidden) < 1 \
                or self.levels < 0:
            raise ConfigError("vocab_size, dim, channels, h_dim and hidden must be positive, "
                              "levels non-negative")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be float32 or float64, got {self.dtype}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["mode"] = self.mode.value
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


class EmbeddingTable:
    """V x d embedding matrix; id 0 is the padding/unknown vector."""

    def __init__(self, matrix: np.ndarray, trainable: bool):
        self.matrix = Tensor(matrix, requires_grad=trainable)
        self.trainable = trainable

    @classmethod
    def random(cls, vocab_size: int, dim: int, rng: np.random.Generator, dtype) -> "EmbeddingTable":
        matrix = rng.uniform(-0.1, 0.1, size=(vocab_size, dim)).astype(dtype)
        matrix[0] = 0.0
        return cls(matrix, trainable=True)

    def lookup(self, token_ids) -> Tensor:
        """Embed a sentence: token ids -> (dim, length)."""
        ids = list(token_ids)
        if not ids:
            raise EmptyInputError("cannot embed an empty sentence")
        vocab = self.matrix.shape[0]
        for t in ids:
            if not 0 <= t < vocab:
                raise VocabularyError(f"token id {t} outside vocabulary of size {vocab}")
        if self.trainable:
            return N.take_rows(self.matrix, ids).T
        return Tensor(self.matrix.data[ids].T.copy())


class ConvBlock:
    def __init__(self, in_channels: int, out_channels: int, rng, dtype):
        self.conv = N.Conv1d(in_channels, out_channels, rng, dtype=dtype)
        self.bn = N.BatchNorm1d(out_channels, dtype=dtype)

    def parameters(self):
        return self.conv.parameters() + self.bn.parameters()


class PairNet:
    """Comparison network for one scale pair: two affine layers, relu between."""

    def __init__(self, in_width: int, hidden: int, h_dim: int, rng, dtype):
        self.fc1 = N.Linear(in_width, hidden, rng, dtype=dtype)
        self.fc2 = N.Linear(hidden, h_dim, rng, dtype=dtype)

    def parameters(self):
        return self.fc1.parameters() + self.fc2.parameters()


class MatchingModel:
    def __init__(self, config: ModelConfig, rng: np.random.Generator,
                 embedding_matrix: np.ndarray | None = None):
        self.config = config
        dtype = config.np_dtype
        if embedding_matrix is not None:
            if embedding_matrix.shape != (config.vocab_size, config.dim):
                raise ConfigError(
                    f"embedding matrix shape {embedding_matrix.shape} does not match "
                    f"config ({config.vocab_size}, {config.dim})"
                )
            config.emb_trainable = False
            self.embedding = EmbeddingTable(embedding_matrix.astype(dtype), trainable=False)
        else:
            self.embedding = EmbeddingTable.random(config.vocab_size, config.dim, rng, dtype)
            config.emb_trainable = True
        self.blocks = []
        for k in range(config.levels):
            in_ch = config.dim if k == 0 else config.channels
            self.blocks.append(ConvBlock(in_ch, config.channels, rng, dtype))
        self.pairs = scale_pairs(config.mode, config.levels)
        self.pair_nets = {}
        for (u, v) in self.pairs:
            in_width = self._width(u) + self._width(v)
            self.pair_nets[(u, v)] = PairNet(in_width, config.hidden, config.h_dim, rng, dtype)
        agg_in = 2 * config.h_dim * len(self.pairs)
        self.agg1 = N.Linear(agg_in, config.hidden, rng, dtype=dtype)
        self.agg2 = N.Linear(config.hidden, 1, rng, dtype=dtype)

    def _width(self, level: int) -> int:
        return self.config.dim if level == 0 else self.config.channels

    def max_level(self) -> int:
        """Deepest representation the score mode actually reads."""
        return max(max(u, v) for (u, v) in self.pairs)

    # -- parameters --------------------------------------------------------

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        named = []
        if self.embedding.trainable:
            named.append(("embedding.matrix", self.embedding.matrix))
        for k, block in enumerate(self.blocks):
            named.append((f"block{k}.conv.weight", block.conv.weight))
            named.append((f"block{k}.conv.bias", block.conv.bias))
            named.append((f"block{k}.bn.gamma", block.bn.gamma))
            named.append((f"block{k}.bn.beta", block.bn.beta))
        for (u, v) in self.pairs:
            net = self.pair_nets[(u, v)]
            named.append((f"pair{u}_{v}.fc1.weight", net.fc1.weight))
            named.append((f"pair{u}_{v}.fc1.bias", net.fc1.bias))
            named.append((f"pair{u}_{v}.fc2.weight", net.fc2.weight))
            named.append((f"pair{u}_{v}.fc2.bias", net.fc2.bias))
        named.append(("agg.fc1.weight", self.agg1.weight))
        named.append(("agg.fc1.bias", self.agg1.bias))
        named.append(("agg.fc2.weight", self.agg2.weight))
        named.append(("agg.fc2.bias", self.agg2.bias))
        return named

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def weight_parameters(self) -> list[Tensor]:
        """Matrices subject to L2 decay: conv kernels and affine weights only."""
        return [p for name, p in self.named_parameters()
                if name.endswith(".weight") or name.endswith("conv.weight")]

    # -- forward -----------------------------------------------------------

    def encode_batch(self, sentences, train: bool = False,
                     rng: np.random.Generator | None = None) -> list[list[Tensor]]:
        """Encode sentences jointly: train-mode batchnorm statistics are shared
        across every sentence in the call. Returns one hierarchy per sentence."""
        per_level = [[self.embedding.lookup(s) for s in sentences]]
        for k in range(self.max_level()):
            block = self.blocks[k]
            convs = [block.conv(x) for x in per_level[-1]]
            if train:
                joint = N.concat(convs, axis=1) if len(convs) > 1 else convs[0]
                normed = block.bn(joint, train=True)
                outs = []
                offset = 0
                for c in convs:
                    length = c.shape[1]
                    outs.append(N.narrow(normed, 1, offset, length)
                                if len(convs) > 1 else normed)
                    offset += length
            else:
                outs = [block.bn(c, train=False) for c in convs]
            per_level.append([N.maxpool1d(N.relu(o)) for o in outs])
        return [[lvl[i] for lvl in per_level] for i in range(len(sentences))]

    def encode(self, sentence, train: bool = False, rng=None) -> list[Tensor]:
        return self.encode_batch([sentence], train=train, rng=rng)[0]

    def _dropout_rng(self, train, rng):
        if train and self.config.dropout > 0.0 and rng is None:
            raise ContractError("train-mode forward needs an rng for dropout")
        return rng

    def question_sides(self, hq: list[Tensor]) -> dict:
        """What a question contributes to each scale pair's comparison,
        whatever the answer: see `_question_side`. A question scored against
        many answers computes these once."""
        return {(u, v): self._question_side(hq[u], (u, v)) for (u, v) in self.pairs}

    def _question_side(self, xq: Tensor, pair: tuple[int, int]):
        """(question rows projected by fc1 plus its bias, shaped (m, 1, hidden);
        fc1's answer rows; fc2's bias repeated for both summaries)."""
        net = self.pair_nets[pair]
        wq, width = xq.shape[0], net.fc1.weight.shape[0]
        projected = xq.T @ N.narrow(net.fc1.weight, 0, 0, wq) + net.fc1.bias
        return (projected.reshape((xq.shape[1], 1, -1)),
                N.narrow(net.fc1.weight, 0, wq, width - wq),
                N.concat([net.fc2.bias, net.fc2.bias], axis=0))

    def match_pair(self, xq: Tensor, xa: Tensor, pair: tuple[int, int],
                   train: bool = False, rng=None, q_side=None) -> Tensor:
        """Compare all position pairs of two representations; returns the
        concatenated per-sentence summaries, length 2*h_dim.

        fc1([q_i; a_j]) = q_i W_q + a_j W_a + b1 is formed by broadcasting the
        two projected sides over an (m, n, hidden) array, and fc2's bias is
        added after the max-pools, since max_j(z_ij + b2) = max_j z_ij + b2,
        so no (m*n, wq+wa) pair matrix is built. `q_side` is the pair's entry
        of `question_sides(hq)`, computed here when not given."""
        net = self.pair_nets[pair]
        m, n = xq.shape[1], xa.shape[1]
        if xq.shape[0] + xa.shape[0] != net.fc1.weight.shape[0]:
            raise ConfigError(
                f"pair {pair} expects input width {net.fc1.weight.shape[0]}, "
                f"got {xq.shape[0] + xa.shape[0]}"
            )
        q_proj, w_a, b2 = q_side if q_side is not None else self._question_side(xq, pair)
        hidden = N.relu(q_proj + xa.T @ w_a)  # (m, n, hidden)
        hidden = N.dropout(hidden, self.config.dropout, train, self._dropout_rng(train, rng))
        z = (hidden.reshape((m * n, -1)) @ net.fc2.weight).reshape((m, n, self.config.h_dim))
        h_q = N.reduce_max(z, axis=1).mean(axis=0)  # max over answer positions
        h_a = N.reduce_max(z, axis=0).mean(axis=0)  # max over question positions
        return N.concat([h_q, h_a], axis=0) + b2

    def score_from_hierarchies(self, hq: list[Tensor], ha: list[Tensor],
                               train: bool = False, rng=None, sides=None) -> Tensor:
        """One answer's score; `sides` is `question_sides(hq)` when the caller has it."""
        if sides is None:
            sides = self.question_sides(hq)
        vecs = [self.match_pair(hq[u], ha[v], (u, v), train, rng, sides[(u, v)])
                for (u, v) in self.pairs]
        feats = N.concat(vecs, axis=0).reshape((1, -1))
        hidden = N.relu(self.agg1(feats))
        hidden = N.dropout(hidden, self.config.dropout, train, self._dropout_rng(train, rng))
        return self.agg2(hidden).reshape(())

    def score_answers(self, hq: list[Tensor], answers, train: bool = False,
                      rng=None) -> list[Tensor]:
        """Score one encoded question against encoded answers, projecting the
        question side of every scale pair once. Dropout draws keep the
        per-answer order: one mask per comparison, then the head's."""
        sides = self.question_sides(hq)
        return [self.score_from_hierarchies(hq, ha, train, rng, sides) for ha in answers]

    def score(self, q_tokens, a_tokens, train: bool = False, rng=None) -> Tensor:
        hq, ha = self.encode_batch([q_tokens, a_tokens], train=train, rng=rng)
        return self.score_from_hierarchies(hq, ha, train, rng)

    def score_candidates(self, q_tokens, candidates_tokens, train: bool = False,
                         rng=None) -> list[Tensor]:
        """Score one question against many answers; the question is encoded
        once and, in train mode, batch statistics pool over all sentences."""
        hierarchies = self.encode_batch([q_tokens] + list(candidates_tokens),
                                        train=train, rng=rng)
        return self.score_answers(hierarchies[0], hierarchies[1:], train, rng)

    # -- persistence ---------------------------------------------------------

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Every array needed to reconstruct the model bit-exactly."""
        arrays = [("embedding.matrix", self.embedding.matrix.data)]
        arrays += [(name, p.data) for name, p in self.named_parameters()
                   if name != "embedding.matrix"]
        for k, block in enumerate(self.blocks):
            arrays.append((f"block{k}.bn.running_mean", block.bn.running_mean))
            arrays.append((f"block{k}.bn.running_var", block.bn.running_var))
        return arrays


def save_checkpoint(path, model: MatchingModel, seed: int, vocabulary: Vocabulary):
    """Single self-describing binary file; identical inputs give identical bytes."""
    arrays = model.named_arrays()
    header = {
        "config": model.config.to_dict(),
        "seed": seed,
        "vocab": vocabulary.tokens(),
        "arrays": [
            {"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape)}
            for name, arr in arrays
        ],
    }
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for _, arr in arrays:
            fh.write(np.ascontiguousarray(arr).tobytes())


def load_checkpoint(path):
    """Returns (model, seed, vocabulary). Round-trips save_checkpoint bit-exactly.

    Raises ParseError unless the header parses and lists exactly the arrays of
    the model it configures, in order, dtype and shape, and the file ends
    right after them."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ParseError(f"{path} is not a checkpoint file")
        try:
            header = json.loads(fh.readline().decode("utf-8"))
            config = ModelConfig.from_dict(header["config"])
            seed, tokens, specs = header["seed"], header["vocab"], header["arrays"]
            # the initial values are placeholders, overwritten below
            frozen = None if config.emb_trainable else np.zeros((config.vocab_size, config.dim))
            model = MatchingModel(config, np.random.default_rng(0), embedding_matrix=frozen)
        except (ValueError, KeyError, TypeError, ConfigError) as exc:
            raise ParseError(f"{path}: malformed checkpoint header ({exc})") from exc
        if not isinstance(seed, int) or not isinstance(tokens, list) \
                or not all(isinstance(t, str) for t in tokens) or len(set(tokens)) != len(tokens):
            raise ParseError(f"{path}: malformed checkpoint header (seed or vocabulary)")
        targets = model.named_arrays()
        _check_layout(path, specs, targets)
        for name, target in targets:
            buf = fh.read(target.nbytes)
            if len(buf) != target.nbytes:
                raise ParseError(f"{path}: truncated checkpoint array {name!r}")
            target[...] = np.frombuffer(buf, dtype=target.dtype).reshape(target.shape)
        if fh.read(1):
            raise ParseError(f"{path}: unexpected bytes after the last checkpoint array")
    return model, seed, Vocabulary(tokens)


def _check_layout(path, specs, targets):
    """ParseError naming the first way the header's array list differs from
    the model's arrays."""
    expected = [{"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape)}
                for name, arr in targets]
    if specs == expected:
        return
    if not isinstance(specs, list) or not all(isinstance(s, dict) for s in specs):
        raise ParseError(f"{path}: malformed checkpoint header (array list)")
    listed = {s.get("name") for s in specs}
    for want in expected:
        if want["name"] not in listed:
            raise ParseError(f"{path}: checkpoint lacks array {want['name']!r}")
    for spec, want in zip(specs, expected):
        if spec != want:
            raise ParseError(f"{path}: checkpoint array {spec.get('name')!r} is "
                             f"{spec.get('dtype')} {spec.get('shape')}, expected "
                             f"{want['name']!r} {want['dtype']} {want['shape']}")
    raise ParseError(f"{path}: checkpoint lists {len(specs)} arrays, the model has "
                     f"{len(expected)}")
