"""Each output check of the benchmark passes on the program's outputs and
reports a deliberately wrong output as incorrect.

    python -m pytest benchmarks -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cqarank import adversarial as A
from cqarank import data as D
from cqarank import evaluation as E
from cqarank import model as M
from cqarank.numerics import Tensor

import checks as C

BENCH_DIR = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def corpus():
    return D.synth_generate(12, 6, topics=3, vocab_per_topic=5, seed=0, split_sizes=(8, 0, 4))


@pytest.fixture(scope="module")
def models(corpus):
    cfg = M.ModelConfig(vocab_size=len(corpus.vocabulary), dim=6, levels=2, channels=5,
                        h_dim=4, hidden=7, dropout=0.1)
    return (M.MatchingModel(cfg, np.random.default_rng(1)),
            M.MatchingModel(cfg, np.random.default_rng(2)))


def pools_for(corpus, size=5):
    threads = corpus.split("train")
    rng = np.random.default_rng(3)
    return threads, [(t, A.build_pool(t, threads, size, rng), size) for t in threads]


def flipped(loss):
    """Same value as `loss`, gradient of the opposite sign."""
    return 2.0 * Tensor(loss.data.copy()) - loss


# -- training checks ---------------------------------------------------------------


def test_pools(corpus):
    threads, records = pools_for(corpus)
    assert C.check_pools(records, threads) == []
    # a pool holding one of its own thread's positives
    thread = next(t for t in threads if t.positives)
    pool = next(p for t, p, _ in records if t is thread)
    pos = thread.positives[0]
    bad = A.CandidatePool(thread.thread_id, [A.PoolAnswer(
        thread.thread_id, pos.answer_id, pos.token_ids, "labeled-negative")] + pool.answers[1:])
    assert C.check_pools([(thread, bad, 5)], threads)
    # a repeated answer, and a pool of the wrong size
    assert C.check_pools([(thread, A.CandidatePool(
        thread.thread_id, [pool.answers[0]] + pool.answers[:-1]), 5)], threads)
    assert C.check_pools([(thread, A.CandidatePool(thread.thread_id, pool.answers[1:]), 5)],
                         threads)


def test_eligible_counts_bound_the_pool(corpus):
    threads, records = pools_for(corpus, size=1000)
    assert C.check_pools(records, threads) == []
    eligible = C.eligible_counts(threads)
    assert all(len(p) == eligible[t.thread_id] for t, p, _ in records)


def test_distributions_and_samples(corpus, models):
    _, gen = models
    threads, records = pools_for(corpus)
    thread, pool, _ = records[0]
    p = A.generator_distribution(thread.question_ids, pool, gen)
    picked = A.sample_negatives(p, 3, np.random.default_rng(0))
    assert C.check_distributions([p]) == []
    assert C.check_samples([(p, 3, picked)]) == []
    assert C.check_distributions([p * (1 + 1e-9)])
    zero = p.copy()
    zero[0] = 0.0
    assert C.check_distributions([zero / zero.sum()])
    assert C.check_samples([(p, 3, [picked[0], picked[0], picked[1]])])
    assert C.check_samples([(p, 3, picked[:2] + [len(p)])])
    assert C.check_samples([(p, 3, picked[:2])])


def test_finite(models):
    disc, gen = models
    assert C.check_finite([0.5, -1.0], [("d", disc), ("g", gen)]) == []
    assert C.check_finite([float("nan")], [("d", disc)])
    saved = disc.agg2.bias.data.copy()
    disc.agg2.bias.data[0] = np.inf
    try:
        assert C.check_finite([0.5], [("d", disc)])
    finally:
        disc.agg2.bias.data[...] = saved


def _batch(corpus, models):
    disc, gen = models
    threads, records = pools_for(corpus)
    rng = np.random.default_rng(5)
    disc_items, gen_items = [], []
    for t, pool, _ in [r for r in records if r[0].positives][:2]:
        picked = A.sample_negatives(A.generator_distribution(t.question_ids, pool, gen), 3, rng)
        negatives = [pool.answers[i].token_ids for i in picked]
        disc_items.append(A.DiscItem(t.question_ids, [c.token_ids for c in t.positives],
                                     negatives))
        gen_items.append(A.GenItem(t.question_ids, pool, picked,
                                   A.negative_rewards(disc, t.question_ids, negatives)))
    return disc_items, gen_items


def test_gradients(corpus, models):
    disc, gen = models
    disc_items, gen_items = _batch(corpus, models)

    def disc_loss():
        return A.discriminator_loss(disc_items, disc, 1e-6, rng=np.random.default_rng(8))

    def gen_surrogate():
        return A.generator_surrogate(gen_items, gen, A.RewardBaseline(),
                                     rng=np.random.default_rng(9))

    for name, fn, model in (("disc", disc_loss, disc), ("gen", gen_surrogate, gen)):
        assert C.check_gradient(name, *C.directional_derivative(fn, model.parameters(), 0)) == []
        wrong = C.directional_derivative(lambda: flipped(fn()), model.parameters(), 0)
        assert C.check_gradient(name, *wrong)


def test_checkpoint(tmp_path, corpus, models):
    disc, _ = models
    path = tmp_path / "d.ckpt"
    M.save_checkpoint(path, disc, 0, corpus.vocabulary)
    loaded, _, _ = M.load_checkpoint(path)
    pairs = [(t.question_ids, c.token_ids) for t in corpus.threads[:3] for c in t.candidates]
    assert C.check_checkpoint(disc, loaded, pairs) == []
    loaded.agg2.bias.data[0] += 1e-12
    assert C.check_checkpoint(disc, loaded, pairs)


# -- ranking checks -------------------------------------------------------------------


def _evaluated(tmp_path, corpus, model):
    threads = corpus.split("test")
    map10, mrr10, ranked = E.evaluate(threads, model)
    path = tmp_path / "predictions.tsv"
    E.write_predictions(path, ranked)
    return threads, map10, mrr10, ranked, path


def test_evaluation(tmp_path, corpus, models):
    threads, map10, mrr10, ranked, path = _evaluated(tmp_path, corpus, models[0])
    predictions = C.read_predictions(path)
    assert C.check_evaluation(threads, map10, mrr10, ranked, predictions) == []
    # metrics that disagree with the scores
    assert C.check_evaluation(threads, map10 + 1e-9, mrr10, ranked, predictions)
    assert C.check_evaluation(threads, map10, mrr10 - 1e-9, ranked, predictions)
    # a dropped candidate
    short = [E.RankedList(r.thread_id, r.entries[:-1]) if i == 0 else r
             for i, r in enumerate(ranked)]
    assert C.check_evaluation(threads, map10, mrr10, short, predictions)
    dropped = dict(predictions)
    first = threads[0].thread_id
    dropped[first] = predictions[first][1:]
    assert C.check_evaluation(threads, map10, mrr10, ranked, dropped)
    # a perturbed score: the last answer now outscores the first
    perturbed = dict(predictions)
    rows = list(predictions[first])
    rows[-1] = (rows[-1][0], rows[0][1] + 1.0)
    perturbed[first] = rows
    assert C.check_evaluation(threads, map10, mrr10, ranked, perturbed)


def test_predictions_rank_column(tmp_path):
    path = tmp_path / "p.tsv"
    path.write_text("t\ta\t2.0\t1\nt\tb\t1.0\t3\n")
    with pytest.raises(ValueError):
        C.read_predictions(path)


def test_ranking_ties_go_by_answer_id():
    assert C.check_ranking("t", ["a", "b"], [("a", 1.0), ("b", 1.0)]) == []
    assert C.check_ranking("t", ["a", "b"], [("b", 1.0), ("a", 1.0)])
    assert C.check_ranking("t", ["a", "b"], [("a", 1.0), ("a", 1.0)])


def test_own_metrics_match_the_definitions(corpus):
    rng = np.random.default_rng(0)
    threads = corpus.threads
    scores = {t.thread_id: {c.answer_id: float(rng.integers(4)) for c in t.candidates}
              for t in threads}
    ranked = []
    for t in threads:
        entries = [E.RankedEntry(c.answer_id, scores[t.thread_id][c.answer_id], c.relevant)
                   for c in t.candidates]
        entries.sort(key=lambda e: (-e.score, e.answer_id))
        ranked.append(E.RankedList(t.thread_id, entries))
    own_map, own_mrr = C.own_map_mrr(threads, scores)
    assert own_map == pytest.approx(E.map_at10(ranked), abs=1e-12)
    assert own_mrr == pytest.approx(E.mrr_at10(ranked), abs=1e-12)


def test_single_vs_batch_and_permutation(tmp_path, corpus, models):
    disc = models[0]
    threads, _, _, ranked, _ = _evaluated(tmp_path, corpus, disc)
    scores = {r.thread_id: {e.answer_id: e.score for e in r.entries} for r in ranked}
    sample = [(i, j) for i in range(len(threads)) for j in range(len(threads[i].candidates))]
    perm = np.random.default_rng(0).permutation(len(threads[0].candidates))
    assert C.check_single_vs_batch(disc, threads, scores, sample) == []
    assert C.check_permutation(disc, threads[0], scores, perm) == []
    t, c = threads[0], threads[0].candidates[0]
    scores[t.thread_id][c.answer_id] *= 1 + 1e-6
    assert C.check_single_vs_batch(disc, threads, scores, sample)
    assert C.check_permutation(disc, threads[0], scores, perm)


# -- the command ---------------------------------------------------------------------


def test_without_sources_the_command_fails(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and prints
    no result."""
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "rank", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
