"""Command-line interface: synth, train, eval, rank, gradcheck.

Configuration comes from an optional JSON file plus command-line overrides;
the resolved config is archived into the output directory so a run can be
reproduced exactly. Exit codes: 0 success, 1 usage/config error, 2 data
error, 3 numerical divergence (including a failed gradient check).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, asdict, fields
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
from .model import MatchingModel, ModelConfig, ScoreMode, load_checkpoint, save_checkpoint
from .numerics import gradcheck, layers as L, tensor as T

GRADCHECK_TOLERANCE = 1e-4


@dataclass
class RunConfig:
    """Everything a training run needs; archived next to its outputs."""

    corpus: str = ""
    out: str = "run"
    embeddings: str | None = None
    mode: str = "multi"
    adversarial: bool = True
    seed: int = 0
    epochs: int = 30
    batch_size: int = 8
    pool_size: int = 100
    neg_samples: int = 10
    lr: float = 1e-4
    l2: float = 1e-6
    dropout: float = 0.2
    dim: int = 64
    levels: int = 2
    channels: int = 128
    h_dim: int = 128
    hidden: int = 128
    dev_split: str = "dev"

    @classmethod
    def resolve(cls, args) -> "RunConfig":
        """File values first, explicit command-line flags override."""
        values = {}
        if getattr(args, "config", None):
            with open(args.config, encoding="utf-8") as fh:
                try:
                    loaded = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ConfigError(f"config file {args.config}: {exc}") from exc
            known = {f.name for f in fields(cls)}
            unknown = set(loaded) - known
            if unknown:
                raise ConfigError(f"unknown config keys: {sorted(unknown)}")
            values.update(loaded)
        for f in fields(cls):
            flag = getattr(args, f.name, None)
            if flag is not None:
                values[f.name] = flag
        return cls(**values)

    def model_config(self, vocab_size: int) -> ModelConfig:
        return ModelConfig(
            vocab_size=vocab_size, dim=self.dim, levels=self.levels,
            channels=self.channels, h_dim=self.h_dim, hidden=self.hidden,
            mode=ScoreMode(self.mode), dropout=self.dropout,
        )

    def train_config(self) -> adv.TrainConfig:
        return adv.TrainConfig(
            epochs=self.epochs, batch_size=self.batch_size,
            neg_samples=self.neg_samples, pool_size=self.pool_size,
            base_lr=self.lr, l2=self.l2, adversarial=self.adversarial,
            dev_split=self.dev_split, seed=self.seed,
        )


def load_corpus(path) -> D.Corpus:
    path = Path(path)
    if path.suffix.lower() == ".xml":
        return D.import_semeval_xml(path)
    return D.load_jsonl(path)


def remap_tokens(ids, corpus_vocab, model_vocab):
    """Translate a sentence from the corpus vocabulary into the checkpoint's."""
    return [model_vocab.lookup(corpus_vocab.token(i)) for i in ids]


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
    cfg = RunConfig.resolve(args)
    if not cfg.corpus:
        raise ConfigError("train requires --corpus")
    corpus = load_corpus(cfg.corpus)
    embedding = None
    if cfg.embeddings:
        embedding, coverage = D.load_embeddings(cfg.embeddings, corpus.vocabulary,
                                                cfg.dim, seed=cfg.seed)
        print(f"embedding coverage: {coverage:.3f}")
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(asdict(cfg), sort_keys=True, indent=2) + "\n")
    metrics_path = out / "metrics.jsonl"
    model_cfg = cfg.model_config(len(corpus.vocabulary))
    with open(metrics_path, "w", encoding="utf-8") as sink:
        def emit(row):
            sink.write(json.dumps(row) + "\n")
            dev = "-" if row["dev_map"] is None else f"{row['dev_map']:.4f}"
            loss = "-" if row["loss"] is None else f"{row['loss']:.6f}"
            print(f"epoch {row['epoch']:3d} [{row['phase']}] loss={loss} "
                  f"dev_map={dev} lr={row['lr']:g}")

        result = adv.train(corpus, model_cfg, cfg.train_config(),
                           embedding_matrix=embedding, metrics_sink=emit)
    save_checkpoint(out / "discriminator.ckpt", result.discriminator, cfg.seed,
                    corpus.vocabulary)
    save_checkpoint(out / "generator.ckpt", result.generator, cfg.seed, corpus.vocabulary)
    print(f"checkpoints and metrics written to {out}")
    return 0


def cmd_eval(args) -> int:
    corpus = load_corpus(args.corpus)
    model, _, model_vocab = load_checkpoint(args.checkpoint)
    threads = corpus.split(args.split)
    if not threads:
        raise EvaluationError(f"no threads in split {args.split!r}")
    remapped = []
    for t in threads:
        q = remap_tokens(t.question_ids, corpus.vocabulary, model_vocab)
        cands = [
            D.Candidate(c.answer_id, c.text, c.relevant,
                        remap_tokens(c.token_ids, corpus.vocabulary, model_vocab))
            for c in t.candidates
        ]
        remapped.append(D.QuestionThread(t.thread_id, t.question_text, cands, t.split, q))
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
    thread = corpus.thread(args.thread)
    q = remap_tokens(thread.question_ids, corpus.vocabulary, model_vocab)
    cands = [
        D.Candidate(c.answer_id, c.text, c.relevant,
                    remap_tokens(c.token_ids, corpus.vocabulary, model_vocab))
        for c in thread.candidates
    ]
    ranked = E.rank(D.QuestionThread(thread.thread_id, thread.question_text, cands,
                                     thread.split, q), model)
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
    check("softmax", lambda: (T.softmax(r, axis=0) * rw).sum(), [r])
    check("log_softmax", lambda: (T.log_softmax(r, axis=0) * rw).sum(), [r])

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

    # the decomposed comparison of one scale pair of unequal widths, in train
    # mode: every evaluation redraws the same dropout masks from a fresh rng
    pair_model = MatchingModel(
        ModelConfig(vocab_size=20, dim=4, levels=1, channels=3, h_dim=5, hidden=6,
                    mode=ScoreMode.MULTI, dropout=0.3), np.random.default_rng(seed + 4))
    xq = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    xa = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    xw = T.Tensor(rng.normal(size=10))
    check("match_pair(train)",
          lambda: (pair_model.match_pair(xq, xa, (0, 1), train=True,
                                         rng=np.random.default_rng(seed + 5)) * xw).sum(),
          [xq, xa] + pair_model.pair_nets[(0, 1)].parameters())

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
    with T.no_grad():
        raw = [s.item() for s in
               model.score_candidates(q_tokens, [a.token_ids for a in pool.answers])]
    e = np.exp(np.array(raw) - max(raw))
    p = e / e.sum()
    rewards = np.linspace(-2.0, -0.5, len(pool.answers))
    baseline = float(rewards.mean())

    def grad_log_p(index):
        for t in params:
            t.zero_grad()
        scores = model.score_candidates(q_tokens, [a.token_ids for a in pool.answers])
        log_p = T.log_softmax(T.concat([s.reshape((1,)) for s in scores], axis=0), axis=0)
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
    p.add_argument("--config", help="JSON file with RunConfig defaults")
    p.add_argument("--corpus")
    p.add_argument("--out")
    p.add_argument("--embeddings")
    p.add_argument("--mode", choices=["word", "multi", "full"])
    p.add_argument("--adversarial", choices=["on", "off"])
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--pool-size", type=int)
    p.add_argument("--neg-samples", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--l2", type=float)
    p.add_argument("--dropout", type=float)
    p.add_argument("--dim", type=int)
    p.add_argument("--levels", type=int)
    p.add_argument("--channels", type=int)
    p.add_argument("--h-dim", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--dev-split")
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
    if getattr(args, "adversarial", None) is not None:
        args.adversarial = args.adversarial == "on"
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
