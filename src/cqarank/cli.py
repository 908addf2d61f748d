"""Command-line interface: synth, train, eval, rank, gradcheck.

Configuration comes from an optional JSON file plus command-line overrides;
the resolved config is archived into the output directory so a run can be
reproduced exactly. Exit codes: 0 success, 1 usage/config error, 2 data
error, 3 numerical divergence (including a failed gradient check).
"""

from __future__ import annotations

import argparse
import enum
import json
import sys
import typing
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import adversarial as adv
from . import data as D
from . import evaluation as E
from .errors import (
    ConfigError,
    ContractError,
    CqaRankError,
    DataError,
    DivergenceError,
    EvaluationError,
    VocabularyError,
)
from .model import (MatchingModel, ModelConfig, ScoreMode, load_checkpoint, public_name,
                    save_checkpoint)
from .numerics import gradcheck, layers as L, tensor as T

GRADCHECK_TOLERANCE = 1e-4


# `cqarank train` settings that name files, with their defaults. Every other
# setting is a ModelConfig or TrainConfig field.
PATHS = {"corpus": None, "out": "run", "embeddings": None}
# ModelConfig fields worked out from the corpus and --embeddings
DERIVED = ("vocab_size", "emb_trainable")


def _config_fields():
    """(config class, field, declared type) of every settable config field."""
    found = []
    for cls in (ModelConfig, adv.TrainConfig):
        hints = typing.get_type_hints(cls)
        found += [(cls, f, hints[f.name]) for f in fields(cls) if f.name not in DERIVED]
    return found


def resolve_train_settings(args) -> dict:
    """Every `cqarank train` setting by its flag name with _ for -: the
    default, overridden by the --config file, overridden by explicit flags.
    The paths are checked here, the other settings by `train_configs`."""
    settings = dict(PATHS)
    settings.update((public_name(f), f.default) for _, f, _ in _config_fields())
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"config file {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        unknown = set(loaded) - set(settings)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        settings.update(loaded)
    for name in settings:
        flag = getattr(args, name)
        if flag is not None:
            settings[name] = flag
    for name in PATHS:
        value = settings[name]
        if not (isinstance(value, str) or value is None and name != "out"):
            raise ConfigError(f"{name} must be a path string, got {value!r}")
    if not settings["corpus"]:
        raise ConfigError("train requires --corpus")
    return settings


def train_configs(settings: dict, vocab_size: int) -> tuple[ModelConfig, adv.TrainConfig]:
    """The model and training configurations that `settings` describe;
    ConfigError names the first wrongly typed or out-of-range value."""
    kwargs = {ModelConfig: {"vocab_size": vocab_size}, adv.TrainConfig: {}}
    for cls, f, _ in _config_fields():
        kwargs[cls][f.name] = settings[public_name(f)]
    return ModelConfig(**kwargs[ModelConfig]), adv.TrainConfig(**kwargs[adv.TrainConfig])


def load_corpus(path) -> D.Corpus:
    path = Path(path)
    if path.suffix.lower() == ".xml":
        return D.import_semeval_xml(path)
    return D.load_jsonl(path)


def remap_tokens(ids, corpus_vocab, model_vocab):
    """Translate a sentence from the corpus vocabulary into the checkpoint's."""
    return [model_vocab.lookup(corpus_vocab.token(i)) for i in ids]


def _remap_thread(thread, corpus_vocab, model_vocab) -> D.QuestionThread:
    """The thread with its question and answers in the checkpoint's vocabulary."""
    cands = [D.Candidate(c.answer_id, c.text, c.relevant,
                         remap_tokens(c.token_ids, corpus_vocab, model_vocab))
             for c in thread.candidates]
    return D.QuestionThread(thread.thread_id, thread.question_text, cands, thread.split,
                            remap_tokens(thread.question_ids, corpus_vocab, model_vocab))


# -- commands ----------------------------------------------------------------


def cmd_synth(args) -> int:
    corpus = D.synth_generate(
        args.threads, args.answers_per_thread, args.topics, args.vocab_per_topic,
        args.seed, relevant_rate=args.relevant_rate,
        split_sizes=tuple(args.split_sizes) if args.split_sizes else None,
    )
    D.save_jsonl(corpus, args.out)
    print(f"wrote {len(corpus.threads)} threads to {args.out}")
    return 0


def cmd_train(args) -> int:
    settings = resolve_train_settings(args)
    # every setting is checked before a file is read or written; the
    # vocabulary size is a placeholder until the corpus is read
    model_cfg, train_cfg = train_configs(settings, vocab_size=1)
    corpus = load_corpus(settings["corpus"])
    model_cfg = replace(model_cfg, vocab_size=len(corpus.vocabulary))
    embedding = None
    if settings["embeddings"]:
        embedding, coverage = D.load_embeddings(settings["embeddings"], corpus.vocabulary,
                                                model_cfg.dim, seed=train_cfg.seed)
        print(f"embedding coverage: {coverage:.3f}")
    configs = {ModelConfig: model_cfg, adv.TrainConfig: train_cfg}
    archive = {name: settings[name] for name in PATHS}
    archive.update((public_name(f), getattr(configs[cls], f.name))
                   for cls, f, _ in _config_fields())
    out = Path(settings["out"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(
        json.dumps(archive, sort_keys=True, indent=2, default=lambda mode: mode.value) + "\n")
    metrics_path = out / "metrics.jsonl"
    with open(metrics_path, "w", encoding="utf-8") as sink:
        def emit(row):
            sink.write(json.dumps(row) + "\n")
            dev = "-" if row["dev_map"] is None else f"{row['dev_map']:.4f}"
            loss = "-" if row["loss"] is None else f"{row['loss']:.6f}"
            print(f"epoch {row['epoch']:3d} [{row['phase']}] loss={loss} "
                  f"dev_map={dev} lr={row['lr']:g}")

        result = adv.train(corpus, model_cfg, train_cfg,
                           embedding_matrix=embedding, metrics_sink=emit)
    save_checkpoint(out / "discriminator.ckpt", result.discriminator, train_cfg.seed,
                    corpus.vocabulary)
    save_checkpoint(out / "generator.ckpt", result.generator, train_cfg.seed, corpus.vocabulary)
    print(f"checkpoints and metrics written to {out}")
    return 0


def cmd_eval(args) -> int:
    corpus = load_corpus(args.corpus)
    model, _, model_vocab = load_checkpoint(args.checkpoint)
    threads = corpus.split(args.split)
    if not threads:
        raise EvaluationError(f"no threads in split {args.split!r}")
    remapped = [_remap_thread(t, corpus.vocabulary, model_vocab) for t in threads]
    map10, mrr10, ranked = E.evaluate(remapped, model)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pred_path = out / f"predictions_{args.split}.tsv"
    E.write_predictions(pred_path, ranked)
    print(f"MAP@10: {map10 * 100:.12g}")
    print(f"MRR@10: {mrr10 * 100:.12g}")
    print(f"predictions written to {pred_path}")
    return 0


def cmd_rank(args) -> int:
    corpus = load_corpus(args.corpus)
    model, _, model_vocab = load_checkpoint(args.checkpoint)
    ranked = E.rank(_remap_thread(corpus.thread(args.thread), corpus.vocabulary, model_vocab),
                    model)
    for pos, entry in enumerate(ranked.entries, start=1):
        print(f"{pos}\t{entry.answer_id}\t{entry.score!r}")
    return 0


def _gradcheck_report(seed: int) -> list[tuple[str, float]]:
    """Finite-difference checks for every primitive and both training losses."""
    rng = np.random.default_rng(seed)
    checks: list[tuple[str, float]] = []

    def check(name, f, tensors):
        checks.append((name, gradcheck(f, tensors)))

    a = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = T.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(3, 2)))
    check("matmul", lambda: (T.matmul(a, b) * w).sum(), [a, b])

    x = T.Tensor(rng.normal(size=(4, 7)), requires_grad=True)
    cw = T.Tensor(rng.normal(size=(3, 4, 3)), requires_grad=True)
    cb = T.Tensor(rng.normal(size=3), requires_grad=True)
    pw = T.Tensor(rng.normal(size=(3, 7)))
    check("conv1d", lambda: (L.conv1d(x, cw, cb) * pw).sum(), [x, cw, cb])

    bx = T.Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    gamma = T.Tensor(rng.normal(size=3) + 2.0, requires_grad=True)
    beta = T.Tensor(rng.normal(size=3), requires_grad=True)
    bw = T.Tensor(rng.normal(size=(3, 6)))
    check("batchnorm1d(train)",
          lambda: (L.batchnorm_train(bx, gamma, beta)[0] * bw).sum(), [bx, gamma, beta])

    r = T.Tensor(rng.normal(size=9) + np.sign(rng.normal(size=9)) * 0.3, requires_grad=True)
    rw = T.Tensor(rng.normal(size=9))
    check("relu", lambda: (T.relu(r) * rw).sum(), [r])
    check("sigmoid", lambda: (T.sigmoid(r) * rw).sum(), [r])
    check("log_softmax", lambda: (T.log_softmax(r, axis=0) * rw).sum(), [r])
    # a chunk's broadcast (n, 1, h) + (m, h) under a mask, every sum at least
    # 0.3 from relu's kink; drawn from a generator of its own
    rr = np.random.default_rng(seed + 7)
    ra = T.Tensor(rr.uniform(-0.2, 0.2, size=(3, 1, 4)), requires_grad=True)
    rb = T.Tensor(np.sign(rr.normal(size=(2, 4))) * rr.uniform(0.5, 1.5, size=(2, 4)),
                  requires_grad=True)
    rkeep = rr.random((3, 2, 4)) >= 0.3
    rmw = T.Tensor(rr.normal(size=(3, 2, 4)))
    check("add_relu_dropout", lambda: (L.add_relu_dropout(ra, rb, rkeep, 0.3) * rmw).sum(),
          [ra, rb])

    mp = T.Tensor(rng.permutation(np.linspace(1.0, 2.0, 10)).reshape(2, 5),
                  requires_grad=True)
    mw = T.Tensor(rng.normal(size=(2, 3)))
    check("maxpool1d", lambda: (L.maxpool1d(mp) * mw).sum(), [mp])

    red = T.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    check("reduce_mean", lambda: T.reduce_mean(red, axis=1).sum(), [red])
    check("reduce_max", lambda: T.reduce_max(red, axis=0).sum(), [red])
    c1 = T.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    c2 = T.Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    check("concat", lambda: (T.concat([c1, c2], axis=1) * 1.5).sum(), [c1, c2])
    emb = T.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    check("embedding_lookup", lambda: (T.take_rows(emb, [1, 3, 3, 5])).sum(), [emb])

    # segmented layers: sentences of 4, 1 and 3 columns side by side
    sx = T.Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    spw = T.Tensor(rng.normal(size=(3, 8)))
    check("conv1d(segments)", lambda: (L.conv1d(sx, cw, cb, [4, 1, 3]) * spw).sum(),
          [sx, cw, cb])
    smp = T.Tensor(rng.permutation(np.linspace(1.0, 2.0, 16)).reshape(2, 8), requires_grad=True)
    smw = T.Tensor(rng.normal(size=(2, 5)))
    check("maxpool1d(segments)", lambda: (L.maxpool1d(smp, [5, 1, 2]) * smw).sum(), [smp])
    # runs of 3, 1 and 2 rows; the first run repeats its largest row, a tie
    # whose gradient must reach that row once
    seg = T.Tensor(rng.normal(size=(5, 2)) + np.array([0.0, 3.0, 0.0, 0.0, 0.0])[:, None],
                   requires_grad=True)
    sw = T.Tensor(rng.normal(size=(3, 2)))
    check("segment_max",
          lambda: (T.segment_max(T.take_rows(seg, [0, 1, 1, 2, 3, 4]), [3, 1, 2], axis=0)
                   * sw).sum(), [seg])

    # the decomposed comparison of one scale pair of unequal widths over a
    # chunk of two answers of unequal length, with a train-mode dropout mask
    pair_model = MatchingModel(
        ModelConfig(vocab_size=20, dim=4, levels=1, channels=3, h_dim=5, hidden=6,
                    mode=ScoreMode.MULTI, dropout=0.3), np.random.default_rng(seed + 4))
    xq = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    xa = T.Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    keep = np.random.default_rng(seed + 5).random((6, 3, 6)) >= 0.3
    xw = T.Tensor(rng.normal(size=(2, 10)))
    check("match_pair(train)",
          lambda: (pair_model.match_pair(xq, xa, (0, 1), [4, 2], keep=keep) * xw).sum(),
          [xq, xa] + pair_model.pair_nets[(0, 1)].parameters())
    # a whole train-mode call: every evaluation redraws the same masks
    groups = [([1, 2, 3, 4, 5], [[6, 7, 8], [9], [10, 11, 12, 13]])]
    gw = T.Tensor(rng.normal(size=3))
    check("score_groups(train)",
          lambda: (pair_model.score_groups(groups, True, np.random.default_rng(seed + 6))[0]
                   * gw).sum(), pair_model.parameters())

    cfg = ModelConfig(vocab_size=20, dim=8, levels=1, channels=6, h_dim=8, hidden=8,
                      mode=ScoreMode.MULTI, dropout=0.0)
    model = MatchingModel(cfg, np.random.default_rng(seed + 1))
    q = [1, 2, 3, 4, 5]
    ans = [6, 7, 8, 9, 10, 11, 12]
    check("score_multi_scale", lambda: model.score(q, ans), model.parameters())

    disc = MatchingModel(cfg, np.random.default_rng(seed + 2))
    items = [adv.DiscItem(q, [[3, 4, 5], [6, 7]], [[8, 9], [10, 11, 12]])]
    check("discriminator_loss",
          lambda: adv.discriminator_loss(items, disc, l2=1e-4), disc.parameters())

    gen = MatchingModel(cfg, np.random.default_rng(seed + 3))
    pool = adv.CandidatePool("t", [
        adv.PoolAnswer("o", f"a{i}", [2 + i, 3 + i], "other-thread") for i in range(3)
    ])
    gen_items = [adv.GenItem(q, pool, [0, 2], np.array([-1.5, -0.25]))]
    baseline = adv.RewardBaseline(value=-0.8)
    check("generator_surrogate",
          lambda: adv.generator_surrogate(gen_items, gen, baseline), gen.parameters())

    # enumeration identity: baseline shifts leave the exact expected gradient alone
    checks.append(("reinforce_enumeration", _enumeration_deviation(gen, q, pool)))
    return checks


def _enumeration_deviation(model, q_tokens, pool) -> float:
    """Max deviation between the enumerated exact gradient and the
    p-weighted expectation of baseline-shifted per-draw gradients."""
    params = model.parameters()
    answers = [a.token_ids for a in pool.answers]
    raw = model.score_candidates(q_tokens, answers)
    e = np.exp(raw - raw.max())
    p = e / e.sum()
    rewards = np.linspace(-2.0, -0.5, len(pool.answers))
    baseline = float(rewards.mean())

    def grad_log_p(index):
        for t in params:
            t.zero_grad()
        log_p = T.log_softmax(model.score_groups([(q_tokens, answers)])[0], axis=0)
        T.take(log_p, [index]).sum().backward()
        return [t.grad.copy() for t in params]

    per_draw = [grad_log_p(i) for i in range(len(pool.answers))]
    worst = 0.0
    for j in range(len(params)):
        exact = sum(p[i] * rewards[i] * per_draw[i][j] for i in range(len(p)))
        shifted = sum(p[i] * (rewards[i] - baseline) * per_draw[i][j] for i in range(len(p)))
        worst = max(worst, float(np.max(np.abs(exact - shifted))))
    return worst


def cmd_gradcheck(args) -> int:
    checks = _gradcheck_report(args.seed)
    failures = 0
    for name, err in checks:
        status = "PASS" if err <= GRADCHECK_TOLERANCE else "FAIL"
        failures += status == "FAIL"
        print(f"{name:24s} max_rel_err={err:.3e} {status}")
    print(f"{len(checks) - failures}/{len(checks)} checks passed "
          f"(tolerance {GRADCHECK_TOLERANCE:g})")
    return 0 if failures == 0 else 3


# -- argument parsing ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _on_off(text: str) -> bool:
    if text not in ("on", "off"):
        raise argparse.ArgumentTypeError(f"expected on or off, got {text!r}")
    return text == "on"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cqarank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a planted-relevance synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=50)
    p.add_argument("--answers-per-thread", type=int, default=30)
    p.add_argument("--topics", type=int, default=8)
    p.add_argument("--vocab-per-topic", type=int, default=25)
    p.add_argument("--relevant-rate", type=float, default=0.1)
    p.add_argument("--split-sizes", type=int, nargs=3, metavar=("TRAIN", "DEV", "TEST"))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train discriminator and generator")
    p.add_argument("--config", help="JSON file of settings keyed by flag name, with _ for -")
    for name in PATHS:
        p.add_argument(f"--{name}")
    for _, f, kind in _config_fields():
        flag = "--" + public_name(f).replace("_", "-")
        if issubclass(kind, enum.Enum):
            p.add_argument(flag, choices=[m.value for m in kind])
        elif kind is bool:
            p.add_argument(flag, type=_on_off, metavar="{on,off}")
        else:
            p.add_argument(flag, type=kind)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a corpus split")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--out", default="eval_out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("rank", help="rank one thread's candidates")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--thread", required=True)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("gradcheck", help="finite-difference check of every primitive")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ConfigError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, VocabularyError, EvaluationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return 3
    except CqaRankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
