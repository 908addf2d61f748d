"""The benchmark's workloads: inputs made from the seed, timed rounds, checks.

A training round is one `adversarial.train` call of one disc and one gen
epoch, followed by the `cqarank eval` path (evaluate, write predictions) on
the test split. A ranking round is that eval path alone, on a corpus and a
checkpoint loaded from disk. Rounds repeat, unchanged, until the run's
seconds are spent; each round does the same operations, so per-round counts
repeat exactly.
"""

from __future__ import annotations

import json
import resource
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from cqarank import adversarial as A
from cqarank import cli
from cqarank import data as D
from cqarank import evaluation as E
from cqarank import model as M

import checks as C
from tracing import replace_everywhere

# The acceptance model and training configuration (tests/test_acceptance.py).
MODEL = dict(dim=32, levels=2, channels=24, h_dim=32, hidden=64, mode="multi", dropout=0.2)
TRAIN = dict(epochs=2, neg_samples=10, pool_size=20, base_lr=5e-3, lr_decay_every=15,
             l2=1e-6, adversarial=True, dev_split="dev")

# SemEval-shaped text: words drawn from a Zipf(0.9) law over a 100k lexicon.
LEXICON = 100_000
ZIPF = 0.9
RELEVANT = 6  # relevant answers per thread, out of `answers`

WORKLOADS = {
    # planted-relevance synthetic corpus, 61-word vocabulary, 5-12 tokens
    "train-short": dict(train_threads=40, test_threads=40, answers=30, batch_size=1),
    # SemEval-shaped text: 55-token questions, 30-80-token answers, about 10k words
    "train-long": dict(train_threads=4, test_threads=8, answers=30, questions=(55, 55),
                       lengths=(30, 80), batch_size=2),
    # a checkpoint trained for three rounds on short text, then the eval path
    # over 60 threads of 5-60 tokens
    "rank": dict(train_threads=8, train_rounds=3, test_threads=60, answers=30,
                 train_lengths=(5, 20), lengths=(5, 60), batch_size=1),
}


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- inputs ---------------------------------------------------------------------


def write_text_corpus(path, seed: int, splits: dict, answers: int):
    """JSONL corpus of Zipf text. splits maps a split name to its thread count
    and the (shortest, longest) length of its questions and of its answers.
    Lengths are an even grid over each range, shuffled, so the seed changes
    the words, the labels and which lengths meet, not the amount of text.
    Every thread has RELEVANT relevant answers."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBE7C]))
    cdf = np.cumsum(1.0 / np.arange(1, LEXICON + 1) ** ZIPF)
    cdf /= cdf[-1]

    def grid(n, lengths):
        g = np.round(np.linspace(lengths[0], lengths[1], n)).astype(int)
        rng.shuffle(g)
        return g

    def sentence(length):
        return " ".join(f"w{i}" for i in np.searchsorted(cdf, rng.random(length)))

    with open(path, "w", encoding="utf-8") as fh:
        for split, (count, q_range, a_range) in splits.items():
            q_len = grid(count, q_range)
            a_len = grid(count * answers, a_range).reshape(count, answers)
            for i in range(count):
                labels = np.zeros(answers, dtype=bool)
                labels[rng.choice(answers, size=RELEVANT, replace=False)] = True
                fh.write(json.dumps({
                    "thread_id": f"{split}{i:03d}",
                    "question": sentence(q_len[i]),
                    "split": split,
                    "candidates": [
                        {"answer_id": f"a{j:03d}", "text": sentence(a_len[i, j]),
                         "relevant": bool(labels[j])}
                        for j in range(answers)
                    ],
                }) + "\n")


# -- timed phases --------------------------------------------------------------------
#
# Rounds repeat the same work, so each batch (training) or thread (ranking)
# is timed once per round. A phase's time is the sum over its batches or
# threads of their median time over the rounds, plus the median over the
# rounds of the phase's remaining time (pool building, MAP/MRR, writing
# predictions). A burst of load from elsewhere on the machine then moves one
# round's timings and not the figure.


class Probes:
    """Wraps program functions to observe their calls; undone on exit.
    hook(args, result, seconds) runs after each call, before() ahead of it."""

    def __init__(self):
        self._undo = []

    def watch(self, owner, attr, hook, before=None):
        original = getattr(owner, attr)

        def probed(*args, **kwargs):
            if before is not None:
                before()
            start = perf_counter()
            result = original(*args, **kwargs)
            hook(args, result, perf_counter() - start)
            return result

        if isinstance(owner, type):
            setattr(owner, attr, probed)
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            replace_everywhere(original, probed)
            self._undo.append(lambda: replace_everywhere(probed, original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._undo:
            self._undo.pop()()


def _phase_seconds(rounds) -> float:
    """rounds: (interval seconds, remaining seconds) of one phase per round."""
    per_interval = zip(*(intervals for intervals, _ in rounds), strict=True)
    return sum(median(ts) for ts in per_interval) + median(rest for _, rest in rounds)


class TrainingRun(Probes):
    """Rounds of `adversarial.train`, with epoch and batch boundaries and the
    outputs the checks need, seen through probes on `build_pool`,
    `generator_distribution`, `sample_negatives` (one call per question in
    both phases) and `Adam.step` (one call per batch).

    An epoch starts at its first `build_pool` call and ends when train()
    reports its metrics row. Its intervals start after the last `build_pool`
    call and end at each optimizer step; a batch without a step (no positive
    answer) joins the next interval."""

    def __init__(self, corpus, batch_size: int, seed: int, tracer=None):
        super().__init__()
        self.corpus = corpus
        self.model_config = M.ModelConfig(vocab_size=len(corpus.vocabulary), **MODEL)
        self.train_config = A.TrainConfig(batch_size=batch_size, seed=seed, **TRAIN)
        self.tracer = tracer
        self.questions = len(corpus.split("train"))
        self.epochs: list[tuple] = []  # (phase, interval seconds, remaining seconds)
        self.rows: list[dict] = []
        self.pools, self.distributions, self.samples = [], [], []
        self.model_build_s = None
        self._round_start = self._epoch_start = self._mark = None
        self._intervals = []

        self.watch(A, "build_pool", self._pool_built, before=self._maybe_begin_epoch)
        self.watch(A, "generator_distribution",
                   lambda args, p, sec: self.distributions.append(p))
        self.watch(A, "sample_negatives",
                   lambda args, picked, sec: self.samples.append((args[0], args[1], picked)))
        self.watch(A.Adam, "step", lambda args, result, sec: self._close_interval())

    def _maybe_begin_epoch(self):
        if self._epoch_start is not None:
            return
        now = perf_counter()
        if self.model_build_s is None:
            self.model_build_s = now - self._round_start
        self._epoch_start = now
        self._intervals = []
        if self.tracer is not None:
            self.tracer.begin(self.train_config.phase(len(self.epochs) % TRAIN["epochs"]))

    def _pool_built(self, args, pool, sec):
        self.pools.append((args[0], pool, args[2]))
        self._mark = perf_counter()

    def _close_interval(self):
        now = perf_counter()
        self._intervals.append(now - self._mark)
        self._mark = now

    def _end_epoch(self, row):
        seconds = perf_counter() - self._epoch_start
        self.epochs.append((row["phase"], self._intervals, seconds - sum(self._intervals)))
        self.rows.append(row)
        self._epoch_start = None
        if self.tracer is not None:
            self.tracer.finish()

    def round(self):
        """One disc and one gen epoch from freshly built models."""
        self._round_start = perf_counter()
        return A.train(self.corpus, self.model_config, self.train_config,
                       metrics_sink=self._end_epoch)

    def rate(self, phase: str) -> float:
        """Training questions per second in this phase's epochs."""
        return self.questions / _phase_seconds(
            [(intervals, rest) for p, intervals, rest in self.epochs if p == phase])


class EvalRun(Probes):
    """Rounds of the `cqarank eval` path: rank every thread, score MAP/MRR,
    write the predictions file; each thread's `rank` call is one interval."""

    def __init__(self, threads, model, predictions_path, tracer=None):
        super().__init__()
        self.threads, self.model, self.path, self.tracer = threads, model, predictions_path, tracer
        self.candidates = sum(len(t.candidates) for t in threads)
        self.rounds = []  # (per-thread `rank` seconds, remaining seconds)
        self.evaluation = None
        self._intervals = []
        self.watch(E, "rank", lambda args, ranked, sec: self._intervals.append(sec))

    def round(self):
        if self.tracer is not None:
            self.tracer.begin("eval")
        self._intervals = []
        start = perf_counter()
        map10, mrr10, ranked = E.evaluate(self.threads, self.model)
        E.write_predictions(self.path, ranked)
        seconds = perf_counter() - start
        if self.tracer is not None:
            self.tracer.finish()
        self.rounds.append((self._intervals, seconds - sum(self._intervals)))
        self.evaluation = (map10, mrr10, ranked)

    def rate(self) -> float:
        """Candidates scored, ranked and written per second."""
        return self.candidates / _phase_seconds(self.rounds)


# -- checks ---------------------------------------------------------------------


def training_checks(run: TrainingRun, result) -> list[str]:
    """Finite losses and parameters, and the pools, distributions and samples
    of every round."""
    threads = run.corpus.split("train")
    values = [row[k] for row in run.rows for k in ("loss", "mean_reward", "baseline")]
    if any(v is None for v in values):
        return ["an epoch recorded no loss or no reward"]
    return (C.check_finite(values, [("discriminator", result.discriminator),
                                    ("generator", result.generator)])
            + C.check_pools(run.pools, threads)
            + C.check_distributions(run.distributions)
            + C.check_samples(run.samples))


def final_parameter_checks(run: TrainingRun, result, out_dir: Path, seed: int) -> list[str]:
    """Checkpoint round trip, then the directional finite difference of both
    training losses on one batch at the final parameters."""
    corpus, cfg = run.corpus, run.train_config
    disc, gen = result.discriminator, result.generator
    rng = np.random.default_rng([seed, 7])
    test = corpus.split("test")
    pairs = []
    for _ in range(20):
        t = test[int(rng.integers(len(test)))]
        pairs.append((t.question_ids, t.candidates[int(rng.integers(len(t.candidates)))].token_ids))
    path = out_dir / "discriminator.ckpt"
    M.save_checkpoint(path, disc, seed, corpus.vocabulary)
    loaded, _, _ = M.load_checkpoint(path)
    errors = C.check_checkpoint(disc, loaded, pairs)

    threads = corpus.split("train")
    batch = [t for t in threads if t.positives][:cfg.batch_size]
    disc_items, gen_items = [], []
    for t in batch:
        pool = A.build_pool(t, threads, cfg.pool_size, rng)
        probs = A.generator_distribution(t.question_ids, pool, gen)
        picked = A.sample_negatives(probs, min(cfg.neg_samples, len(pool)), rng)
        negatives = [pool.answers[i].token_ids for i in picked]
        disc_items.append(A.DiscItem(t.question_ids, [c.token_ids for c in t.positives],
                                     negatives))
        gen_items.append(A.GenItem(t.question_ids, pool, picked,
                                   A.negative_rewards(disc, t.question_ids, negatives)))
    # A zero baseline, as before the first epoch ends: advantages near zero
    # would leave a gradient too small to tell from rounding.
    baseline = A.RewardBaseline()

    def disc_loss():
        return A.discriminator_loss(disc_items, disc, cfg.l2, rng=np.random.default_rng([seed, 8]))

    def gen_surrogate():
        return A.generator_surrogate(gen_items, gen, baseline,
                                     rng=np.random.default_rng([seed, 9]))

    errors += C.check_gradient("discriminator_loss",
                               *C.directional_derivative(disc_loss, disc.parameters(), seed))
    errors += C.check_gradient("generator_surrogate",
                               *C.directional_derivative(gen_surrogate, gen.parameters(), seed))
    return errors


def evaluation_checks(threads, evaluation, predictions_path) -> list[str]:
    map10, mrr10, ranked = evaluation
    try:
        predictions = C.read_predictions(predictions_path)
    except ValueError as exc:
        return [f"predictions file: {exc}"]
    return C.check_evaluation(threads, map10, mrr10, ranked, predictions)


def ranking_checks(model, threads, ranked, seed: int) -> list[str]:
    """Scores one at a time against batched, and under permuted candidates."""
    rng = np.random.default_rng([seed, 11])
    batch_scores = {r.thread_id: {e.answer_id: e.score for e in r.entries} for r in ranked}
    sample = [(int(rng.integers(len(threads))), int(rng.integers(len(threads[0].candidates))))
              for _ in range(30)]
    errors = C.check_single_vs_batch(model, threads, batch_scores, sample)
    for ti in rng.choice(len(threads), size=3, replace=False):
        t = threads[ti]
        errors += C.check_permutation(model, t, batch_scores, rng.permutation(len(t.candidates)))
    return errors


# -- workloads ------------------------------------------------------------------


def _until(seconds, start, body):
    """Run body() whole, at least once, until `seconds` have passed since start;
    returns the number of rounds and the last round's result."""
    rounds = 0
    while True:
        result = body()
        rounds += 1
        if perf_counter() - start >= seconds:
            return rounds, result


def run_training(name: str, seed: int, seconds: float, out_dir: Path, tracer, import_s: float):
    spec = WORKLOADS[name]
    n_test = spec["test_threads"]
    if tracer is not None:
        tracer.begin("setup")
    if name == "train-short":
        start = perf_counter()
        corpus = D.synth_generate(spec["train_threads"] + n_test, spec["answers"], topics=5,
                                  vocab_per_topic=12, seed=seed,
                                  split_sizes=(spec["train_threads"], 0, n_test))
    else:
        corpus_path = out_dir / "corpus.jsonl"
        lengths = (spec["questions"], spec["lengths"])
        write_text_corpus(corpus_path, seed, {"train": (spec["train_threads"], *lengths),
                                              "test": (n_test, *lengths)}, spec["answers"])
        start = perf_counter()
        corpus = D.load_jsonl(corpus_path)
    corpus_s = perf_counter() - start
    if tracer is not None:
        tracer.finish()
    test = corpus.split("test")
    predictions = out_dir / "predictions.tsv"

    with TrainingRun(corpus, spec["batch_size"], seed, tracer) as train, \
            EvalRun(test, None, predictions, tracer) as evaluation:
        def body():
            result = train.round()
            evaluation.model = result.discriminator
            evaluation.round()
            return result

        measure_start = perf_counter()
        rounds, result = _until(seconds, measure_start, body)
        wall = perf_counter() - measure_start
        peak = rss_mb()
    if tracer is not None:
        tracer.enabled = False
    metrics = {
        "setup_s": import_s + corpus_s + train.model_build_s,
        "disc_questions_per_s": train.rate("disc"),
        "gen_questions_per_s": train.rate("gen"),
        "eval_candidates_per_s": evaluation.rate(),
        "peak_rss_mb": peak,
    }
    errors = (training_checks(train, result)
              + evaluation_checks(test, evaluation.evaluation, predictions)
              + final_parameter_checks(train, result, out_dir, seed))
    attempted = rounds * (2 * train.questions + evaluation.candidates)
    return metrics, errors, attempted, rounds, wall


def run_rank(seed: int, seconds: float, out_dir: Path, tracer, import_s: float):
    spec = WORKLOADS["rank"]
    corpus_path = out_dir / "corpus.jsonl"
    checkpoint = out_dir / "discriminator.ckpt"
    write_text_corpus(corpus_path, seed,
                      {"train": (spec["train_threads"], spec["train_lengths"],
                                 spec["train_lengths"]),
                       "test": (spec["test_threads"], spec["lengths"], spec["lengths"])},
                      spec["answers"])
    # The checkpoint comes from untraced training rounds, on short text so
    # that their memory stays below the eval path's; their epochs give this
    # workload's training rates.
    train_corpus = D.load_jsonl(corpus_path)
    if tracer is not None:
        tracer.enabled = False
    with TrainingRun(train_corpus, spec["batch_size"], seed) as train:
        for _ in range(spec["train_rounds"]):
            result = train.round()
    errors = training_checks(train, result)
    M.save_checkpoint(checkpoint, result.discriminator, seed, train_corpus.vocabulary)
    del train_corpus, result

    # set-up: what `cqarank eval` does before it ranks
    if tracer is not None:
        tracer.enabled = True
        tracer.begin("setup")
    start = perf_counter()
    corpus = cli.load_corpus(corpus_path)
    model, _, model_vocab = M.load_checkpoint(checkpoint)
    threads = []
    for t in corpus.split("test"):
        cands = [D.Candidate(c.answer_id, c.text, c.relevant,
                             cli.remap_tokens(c.token_ids, corpus.vocabulary, model_vocab))
                 for c in t.candidates]
        threads.append(D.QuestionThread(
            t.thread_id, t.question_text, cands, t.split,
            cli.remap_tokens(t.question_ids, corpus.vocabulary, model_vocab)))
    load_s = perf_counter() - start
    if tracer is not None:
        tracer.finish()

    predictions = out_dir / "predictions.tsv"
    with EvalRun(threads, model, predictions, tracer) as evaluation:
        measure_start = perf_counter()
        rounds, _ = _until(seconds, measure_start, evaluation.round)
        wall = perf_counter() - measure_start
        peak = rss_mb()
    if tracer is not None:
        tracer.enabled = False
    metrics = {
        "setup_s": import_s + load_s,
        "disc_questions_per_s": train.rate("disc"),
        "gen_questions_per_s": train.rate("gen"),
        "eval_candidates_per_s": evaluation.rate(),
        "peak_rss_mb": peak,
    }
    errors += evaluation_checks(threads, evaluation.evaluation, predictions)
    errors += ranking_checks(model, threads, evaluation.evaluation[2], seed)
    attempted = spec["train_rounds"] * 2 * train.questions + rounds * evaluation.candidates
    return metrics, errors, attempted, rounds, wall


def run(name: str, seed: int, seconds: float, out_dir: Path, tracer, import_s: float):
    """(end-to-end metrics, check errors, operations attempted, rounds, measured wall s)."""
    if name == "rank":
        return run_rank(seed, seconds, out_dir, tracer, import_s)
    return run_training(name, seed, seconds, out_dir, tracer, import_s)
