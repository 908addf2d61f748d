"""Acceptance gate.

One test per criterion; each prints a `[ACCEPTANCE] <name>: PASS` line with
the measured figure (visible with `pytest tests/test_acceptance.py -v -s`).
The end-to-end and ablation tests train twelve small models and dominate the
runtime of this module.
"""

import json
import re
import shlex
import time
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import cqarank.numerics as N
from cqarank import cli
from cqarank import evaluation as E
from cqarank.adversarial import TrainConfig, build_pool, generator_distribution, train
from cqarank.data import synth_generate, synth_topic_of
from cqarank.evaluation import evaluate
from cqarank.model import MatchingModel, ModelConfig, ScoreMode, scale_pairs

from test_evaluation import as_ranked, oracle_ap10, oracle_rr10


def report(capsys, name, detail):
    with capsys.disabled():
        print(f"\n[ACCEPTANCE] {name}: PASS ({detail})")


# -- gradient integrity --------------------------------------------------------


def test_gradient_integrity(capsys):
    start = time.monotonic()
    rc = cli.main(["gradcheck", "--seed", "0"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "FAIL" not in out
    errors = [float(m) for m in re.findall(r"max_rel_err=([\d.eE+-]+)", out)]
    assert len(errors) >= 15  # every primitive plus score and both losses
    assert max(errors) <= 1e-4
    assert elapsed < 60
    report(capsys, "gradient-integrity",
           f"{len(errors)} checks, max rel err {max(errors):.2e}, {elapsed:.1f}s")


# -- REINFORCE estimator -------------------------------------------------------


def _toy_policy():
    """10-parameter scorer over a pool of 3: score_i = w . x_i."""
    rng = np.random.default_rng(42)
    features = rng.normal(size=(3, 10))
    w = N.Tensor(rng.normal(size=10) * 0.5, requires_grad=True)

    def log_p():
        scores = N.matmul(N.Tensor(features), w.reshape((10, 1))).reshape((3,))
        return N.log_softmax(scores, axis=0)

    return w, log_p


def test_reinforce_estimator(capsys):
    w, log_p = _toy_policy()
    rewards = np.array([-2.0, -0.4, -1.1])
    with N.no_grad():
        p = np.exp(log_p().data)
    grad_log = []
    for i in range(3):
        w.zero_grad()
        N.take(log_p(), [i]).sum().backward()
        grad_log.append(w.grad.copy())
    grad_log = np.array(grad_log)

    exact = (p[:, None] * rewards[:, None] * grad_log).sum(axis=0)

    draws = 100_000
    counts = np.bincount(np.random.default_rng(7).choice(3, size=draws, p=p), minlength=3)
    per_draw = grad_log * rewards[:, None]
    mc = (counts[:, None] * per_draw).sum(axis=0) / draws
    second = (counts[:, None] * per_draw ** 2).sum(axis=0) / draws
    se = np.sqrt(np.maximum(second - mc ** 2, 0.0) / draws)
    deviation = np.abs(mc - exact)
    assert np.all(deviation <= 3 * se), (deviation, se)

    shifted = (p[:, None] * (rewards + 5.0)[:, None] * grad_log).sum(axis=0)
    baseline_gap = np.max(np.abs(exact - shifted))
    assert baseline_gap <= 1e-10
    report(capsys, "reinforce-estimator",
           f"max |mc-exact|/se {np.max(deviation / se):.2f}, "
           f"baseline shift {baseline_gap:.1e}")


# -- metric oracle equivalence ---------------------------------------------------


def test_metric_oracle_equivalence(capsys):
    rng = np.random.default_rng(515)
    lists, aps, rrs = [], [], []
    for _ in range(50):
        n = int(rng.integers(5, 101))
        n_rel = int(rng.integers(0, min(12, n) + 1))
        labels = np.zeros(n, dtype=bool)
        labels[rng.choice(n, size=n_rel, replace=False)] = True
        scores = np.round(rng.normal(size=n), 2)
        items = [(f"a{i:03d}", float(s), bool(l))
                 for i, (s, l) in enumerate(zip(scores, labels))]
        lists.append(as_ranked(items))
        aps.append(oracle_ap10(items))
        rrs.append(oracle_rr10(items))
    worst = 0.0
    for lst, ap, rr in zip(lists, aps, rrs):
        got_ap = E.average_precision_at10(lst)
        got_rr = E.reciprocal_rank_at10(lst)
        assert (got_ap is None) == (ap is None)
        if ap is not None:
            worst = max(worst, abs(got_ap - ap), abs(got_rr - rr))
    included_ap = [v for v in aps if v is not None]
    included_rr = [v for v in rrs if v is not None]
    worst = max(worst, abs(E.map_at10(lists) - np.mean(included_ap)))
    worst = max(worst, abs(E.mrr_at10(lists) - np.mean(included_rr)))
    assert worst <= 1e-12
    report(capsys, "metric-oracle", f"50 instances, max |diff| {worst:.1e}")


# -- score-function structure ----------------------------------------------------


def test_score_function_structure(capsys):
    for k in (1, 2, 3):
        assert len(scale_pairs(ScoreMode.WORD, k)) == 1
        assert len(scale_pairs(ScoreMode.MULTI, k)) == 2 * k + 1
        assert len(scale_pairs(ScoreMode.FULL, k)) == (k + 1) ** 2

    cfg = ModelConfig(vocab_size=40, dim=6, levels=2, channels=5, h_dim=4, hidden=7,
                      mode=ScoreMode.WORD, dropout=0.0)
    word_model = MatchingModel(cfg, np.random.default_rng(3))
    rng = np.random.default_rng(0)
    q, a = [1, 2, 3, 4, 5, 6], [7, 8, 9, 10]
    base = word_model.score(q, a).item()
    worst = 0.0
    for _ in range(5):
        qp = [int(x) for x in rng.permutation(q)]
        ap = [int(x) for x in rng.permutation(a)]
        worst = max(worst, abs(word_model.score(qp, ap).item() - base))
    assert worst <= 1e-10

    cfg2 = ModelConfig(vocab_size=40, dim=6, levels=2, channels=5, h_dim=4, hidden=7,
                       mode=ScoreMode.MULTI, dropout=0.0)
    probe = MatchingModel(cfg2, np.random.default_rng(4))
    tokens = list(range(1, 21))
    base_l1 = probe.encode(tokens)[1].data
    perturbed = list(tokens)
    perturbed[7] = 30
    after_l1 = probe.encode(perturbed)[1].data
    changed = {i for i in range(base_l1.shape[1])
               if np.max(np.abs(base_l1[:, i] - after_l1[:, i])) > 1e-12}
    expected = {i for i in range(base_l1.shape[1]) if 2 * i - 2 <= 7 <= 2 * i + 2}
    assert changed == expected
    report(capsys, "score-structure",
           f"pair counts ok; permutation drift {worst:.1e}; "
           f"receptive field positions {sorted(changed)}")


# -- end-to-end synthetic learning + ablation -------------------------------------

E2E_SEEDS = (1, 2, 3)
E2E_TOPICS = 5


@lru_cache(maxsize=1)
def e2e_corpus():
    return synth_generate(50, 30, topics=E2E_TOPICS, vocab_per_topic=12, seed=101,
                          split_sizes=(40, 0, 10))


def arm_configs(mode_value: str, adversarial: bool, seed: int, vocab_size: int):
    """The acceptance model and training configuration of one arm."""
    model_cfg = ModelConfig(vocab_size=vocab_size, dim=32, levels=2,
                            channels=24, h_dim=32, hidden=64,
                            mode=ScoreMode(mode_value), dropout=0.2)
    train_cfg = TrainConfig(epochs=30, batch_size=1, neg_samples=10, pool_size=20,
                            base_lr=5e-3, lr_decay_every=15, l2=1e-6,
                            adversarial=adversarial, dev_split="test", seed=seed)
    return model_cfg, train_cfg


@lru_cache(maxsize=None)
def run_arm(mode_value: str, adversarial: bool, seed: int):
    corpus = e2e_corpus()
    model_cfg, train_cfg = arm_configs(mode_value, adversarial, seed, len(corpus.vocabulary))
    start = time.monotonic()
    result = train(corpus, model_cfg, train_cfg)
    elapsed = time.monotonic() - start
    test_map, _, _ = evaluate(corpus.split("test"), result.discriminator)
    return result, test_map, elapsed


def _topic(corpus, token_ids):
    return synth_topic_of([corpus.vocabulary.token(i) for i in token_ids])


def _confusable_preference(generator, corpus):
    """Mean generator probability on partner-topic pool members vs uniform."""
    train_threads = corpus.split("train")
    rng = np.random.default_rng(999)
    confusable, uniform = [], []
    for t in train_threads:
        pool = build_pool(t, train_threads, 20, rng)
        probs = generator_distribution(t.question_ids, pool, generator)
        partner = (_topic(corpus, t.question_ids) + 1) % E2E_TOPICS
        for ans, prob in zip(pool.answers, probs):
            if _topic(corpus, ans.token_ids) == partner:
                confusable.append(prob)
        uniform.append(1.0 / len(pool))
    return float(np.mean(confusable)), float(np.mean(uniform))


def test_end_to_end_synthetic_learning(capsys):
    corpus = e2e_corpus()
    maps, prefs = [], []
    for seed in E2E_SEEDS:
        result, test_map, elapsed = run_arm("multi", True, seed)
        assert elapsed < 300, f"seed {seed} took {elapsed:.0f}s"
        assert test_map >= 0.85, f"seed {seed} reached only MAP {test_map:.3f}"
        conf, unif = _confusable_preference(result.generator, corpus)
        assert conf > unif, f"seed {seed}: confusable mean {conf:.4f} <= uniform {unif:.4f}"
        maps.append(test_map)
        prefs.append(conf / unif)
    report(capsys, "end-to-end-learning",
           f"MAP {['%.3f' % m for m in maps]}, "
           f"generator confusable preference x{min(prefs):.2f}..x{max(prefs):.2f}")


def test_ablation_direction(capsys):
    means = {}
    for name, mode, adv in [("single", "word", False), ("multi", "multi", False),
                            ("single+adv", "word", True), ("multi+adv", "multi", True)]:
        means[name] = float(np.mean([run_arm(mode, adv, s)[1] for s in E2E_SEEDS]))
    assert means["multi+adv"] >= means["single+adv"], means
    assert means["multi"] >= means["single"], means
    report(capsys, "ablation-direction",
           ", ".join(f"{k}={v:.3f}" for k, v in means.items()))


def test_readme_walkthrough_trains_the_acceptance_configuration(capsys):
    """The README's `cqarank train` command, parsed and resolved by the CLI,
    is the multi+adv arm's configuration, apart from the corpus and seed."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    command = re.search(r"^cqarank train .*?[^\\]$", readme, re.M | re.S).group(0)
    argv = shlex.split(command.replace("\\\n", " "))[1:]
    settings = cli.resolve_train_settings(cli.build_parser().parse_args(argv))
    vocab_size = len(e2e_corpus().vocabulary)
    model_cfg, train_cfg = cli.train_configs(settings, vocab_size)
    assert (model_cfg, train_cfg) == arm_configs("multi", True, train_cfg.seed, vocab_size)
    report(capsys, "readme-walkthrough", f"`cqarank {' '.join(argv)}`")


# -- learning-rate schedule ------------------------------------------------------


def test_lr_schedule_exact(tmp_path, capsys):
    corpus_path = tmp_path / "micro.jsonl"
    rc = cli.main(["synth", "--out", str(corpus_path), "--threads", "6",
                   "--answers-per-thread", "4", "--topics", "3",
                   "--vocab-per-topic", "6", "--split-sizes", "5", "1", "0",
                   "--seed", "2"])
    assert rc == 0
    out = tmp_path / "run"
    rc = cli.main(["train", "--corpus", str(corpus_path), "--out", str(out),
                   "--dim", "4", "--levels", "1", "--channels", "3", "--h-dim", "3",
                   "--hidden", "4", "--epochs", "21", "--batch-size", "3",
                   "--pool-size", "4", "--neg-samples", "2", "--seed", "0"])
    assert rc == 0
    capsys.readouterr()
    rows = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
    lrs = {row["epoch"]: row["lr"] for row in rows}
    assert lrs[0] == 1e-4
    assert lrs[10] == 2e-5
    assert lrs[20] == 4e-6
    report(capsys, "lr-schedule", f"epochs 0/10/20 -> {lrs[0]:g}/{lrs[10]:g}/{lrs[20]:g}")


# -- determinism -----------------------------------------------------------------


def test_training_determinism(tmp_path, capsys):
    corpus_path = tmp_path / "c.jsonl"
    rc = cli.main(["synth", "--out", str(corpus_path), "--threads", "10",
                   "--answers-per-thread", "8", "--topics", "3",
                   "--vocab-per-topic", "8", "--split-sizes", "7", "1", "2",
                   "--seed", "9"])
    assert rc == 0
    outputs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        rc = cli.main(["train", "--corpus", str(corpus_path), "--out", str(out),
                       "--dim", "6", "--levels", "1", "--channels", "4", "--h-dim", "4",
                       "--hidden", "6", "--epochs", "4", "--batch-size", "4",
                       "--pool-size", "5", "--neg-samples", "2", "--lr", "1e-3",
                       "--seed", "33"])
        assert rc == 0
        outputs.append(out)
    capsys.readouterr()
    for fname in ("discriminator.ckpt", "generator.ckpt", "metrics.jsonl"):
        a = (outputs[0] / fname).read_bytes()
        b = (outputs[1] / fname).read_bytes()
        assert a == b, f"{fname} differs between identical runs"
    report(capsys, "determinism", "checkpoints and metric logs byte-identical")
