"""Adversarial hard-negative training.

Each epoch rebuilds a per-question candidate pool (the question's labeled
negatives plus answers from every other thread). The generator scores the
pool, defines a softmax sampling distribution over it, and hard negatives
drawn from that distribution feed the discriminator's logistic loss. The
generator itself is updated through the discrete sampling step with the
likelihood-ratio estimator, rewarding answers the discriminator currently
believes in; last epoch's mean reward serves as the variance-reducing
baseline. Discriminator and generator epochs alternate.

The two phases sample from different forwards of the generator. The disc
phase draws negatives from its eval-mode softmax (`generator_distribution`:
no dropout, running batchnorm statistics). The gen phase runs one train-mode
forward per batch (dropout, batch statistics), samples from that forward's
detached softmax and backpropagates the surrogate through the same graph, so
the likelihood-ratio gradient is taken under the distribution that drew the
samples.

Every score here comes from `MatchingModel.score_groups`, one vector per
question: the discriminator's loss and the generator's pool softmax read it
in train mode; the disc phase's sampling distribution and the rewards read
it in eval mode through `score_candidates`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics as N
from .data import SPLITS, Corpus, QuestionThread
from .errors import ConfigError, ContractError, CorpusError, DivergenceError, EvaluationError
from .evaluation import evaluate
from .model import MatchingModel, ModelConfig, check_field_types
from .numerics import Adam, Tensor, learning_rate

LOG_CLAMP = 1e-12


@dataclass
class PoolAnswer:
    thread_id: str
    answer_id: str
    token_ids: list[int]
    source: str  # "labeled-negative" | "other-thread"


@dataclass
class CandidatePool:
    thread_id: str
    answers: list[PoolAnswer]

    def __len__(self):
        return len(self.answers)


@dataclass
class RewardBaseline:
    """Mean reward of the previous epoch; zero before any epoch finishes."""

    value: float = 0.0

    def refresh(self, rewards):
        rewards = list(rewards)
        if rewards:
            self.value = float(np.mean(rewards))


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 8
    neg_samples: int = 10
    pool_size: int = 100
    base_lr: float = field(default=1e-4, metadata={"name": "lr"})
    lr_decay_every: int = 10
    l2: float = 1e-6
    adversarial: bool = True
    dev_split: str = "dev"
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch_size >= 1")
        if not 1 <= self.neg_samples <= self.pool_size:
            raise ConfigError(
                f"need 1 <= neg_samples <= pool_size, got {self.neg_samples}/{self.pool_size}"
            )
        if self.base_lr <= 0 or self.lr_decay_every < 1:
            raise ConfigError("learning-rate schedule constants out of range")
        if self.l2 < 0:
            raise ConfigError("l2 coefficient must be non-negative")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.dev_split not in SPLITS:
            raise ConfigError(f"dev_split must be one of {list(SPLITS)}, got {self.dev_split!r}")

    def phase(self, epoch: int) -> str:
        """Disc and gen epochs alternate one to one; without the adversarial
        generator every epoch trains the discriminator."""
        return "gen" if self.adversarial and epoch % 2 else "disc"


@dataclass
class DiscItem:
    question: list[int]
    positives: list[list[int]]
    negatives: list[list[int]]


@dataclass
class GenItem:
    question: list[int]
    pool: CandidatePool
    sampled: list[int]
    rewards: np.ndarray


@dataclass
class TrainResult:
    discriminator: MatchingModel
    generator: MatchingModel
    metrics: list[dict] = field(default_factory=list)


def build_pool(thread: QuestionThread, threads, pool_size: int,
               rng: np.random.Generator) -> CandidatePool:
    """Uniform sample, without replacement, over this question's labeled
    negatives plus every answer of other threads; positives are excluded by
    construction."""
    eligible = [
        PoolAnswer(thread.thread_id, c.answer_id, c.token_ids, "labeled-negative")
        for c in thread.negatives
    ]
    for other in threads:
        if other.thread_id == thread.thread_id:
            continue
        eligible.extend(
            PoolAnswer(other.thread_id, c.answer_id, c.token_ids, "other-thread")
            for c in other.candidates
        )
    if not eligible:
        raise CorpusError(
            f"no eligible negatives for thread {thread.thread_id!r} anywhere in the corpus"
        )
    take = min(pool_size, len(eligible))
    idx = rng.choice(len(eligible), size=take, replace=False)
    return CandidatePool(thread.thread_id, [eligible[i] for i in idx])


def generator_distribution(q_tokens, pool: CandidatePool, generator: MatchingModel) -> np.ndarray:
    """Softmax over the generator's eval-mode pool scores (no dropout, running
    batchnorm statistics). The disc phase samples its negatives from this;
    the gen phase samples from its own train-mode forward instead."""
    if len(pool) == 0:
        raise ContractError("generator distribution over an empty pool")
    scores = generator.score_candidates(q_tokens, [a.token_ids for a in pool.answers])
    shifted = scores - scores.max()
    e = np.exp(shifted)
    return e / e.sum()


def sample_negatives(distribution, s: int, rng: np.random.Generator) -> list[int]:
    """s distinct pool indices: sequential draws with renormalization."""
    probs = np.asarray(distribution, dtype=float)
    n = probs.size
    if s > n:
        raise ContractError(f"cannot sample {s} negatives from a pool of {n}")
    chosen = []
    available = np.ones(n, dtype=bool)
    for _ in range(s):
        weights = np.where(available, probs, 0.0)
        total = weights.sum()
        if total > 0:
            p = weights / total
        else:  # remaining mass all zero: fall back to uniform over the rest
            p = available / available.sum()
        pick = int(rng.choice(n, p=p))
        chosen.append(pick)
        available[pick] = False
    return chosen


def _l2_term(model: MatchingModel, coeff: float):
    if coeff == 0.0:
        return None
    total = None
    for w in model.weight_parameters():
        term = (w * w).sum()
        total = term if total is None else total + term
    return coeff * total


def discriminator_loss(items, model: MatchingModel, l2: float = 0.0,
                       rng: np.random.Generator | None = None,
                       train: bool = True) -> Tensor:
    """mean(-log D) over positives plus mean(-log(1-D)) over sampled negatives,
    plus the L2 penalty on weight matrices; log arguments clamped at 1e-12."""
    positives = sum(len(it.positives) for it in items)
    negatives = sum(len(it.negatives) for it in items)
    if positives == 0 or negatives == 0:
        raise ContractError("discriminator batch needs at least one positive and one negative")
    scores = model.score_groups([(it.question, it.positives + it.negatives) for it in items],
                                train, rng)
    pos, neg = [], []
    for s, it in zip(scores, items):
        n_pos, n_neg = len(it.positives), len(it.negatives)
        if n_pos:
            pos.append(N.narrow(s, 0, 0, n_pos))
        if n_neg:
            neg.append(N.narrow(s, 0, n_pos, n_neg))
    d_pos = N.sigmoid(N.concat(pos, axis=0))
    d_neg = N.sigmoid(N.concat(neg, axis=0))
    loss = (-1.0) * N.log(N.clamp_min(d_pos, LOG_CLAMP)).mean() \
        + (-1.0) * N.log(N.clamp_min(1.0 - d_neg, LOG_CLAMP)).mean()
    penalty = _l2_term(model, l2)
    if penalty is not None:
        loss = loss + penalty
    return loss


def _descend(loss: Tensor, optimizer: Adam, what: str) -> float:
    """One optimizer step down `loss`; returns its pre-update value."""
    value = loss.item()
    if not math.isfinite(value):
        raise DivergenceError(f"{what} is non-finite: {value}")
    optimizer.zero_grad()
    loss.backward()
    optimizer.step()
    return value


def discriminator_step(items, model: MatchingModel, optimizer: Adam, l2: float = 0.0,
                       rng: np.random.Generator | None = None) -> float:
    """One logistic-loss update; returns the pre-update loss."""
    return _descend(discriminator_loss(items, model, l2, rng), optimizer, "discriminator loss")


def _pool_log_probs(pairs, model: MatchingModel, rng: np.random.Generator | None = None,
                    train: bool = True) -> list[Tensor]:
    """log-softmax of the model's scores over each (question tokens, pool)
    pair, from one joint forward: in train mode every sentence of the call
    shares the batchnorm statistics, and the dropout masks are this call's."""
    groups = [(q_tokens, [a.token_ids for a in pool.answers]) for q_tokens, pool in pairs]
    return [N.log_softmax(s, axis=0) for s in model.score_groups(groups, train, rng)]


def _reinforce_surrogate(log_probs, items, baseline: RewardBaseline) -> Tensor:
    """mean((r - b) * log p(A'|Q)) over all sampled draws of `items`, with
    log p read from each item's entry of `log_probs`."""
    draws = sum(len(it.sampled) for it in items)
    if draws == 0:
        raise ContractError("generator batch contains no sampled negatives")
    total = None
    for log_p, it in zip(log_probs, items):
        if not math.isfinite(float(np.sum(it.rewards))):
            raise DivergenceError(f"non-finite reward for thread {it.pool.thread_id!r}")
        advantage = np.asarray(it.rewards, dtype=float) - baseline.value
        contribution = (N.take(log_p, it.sampled) * Tensor(advantage)).sum()
        total = contribution if total is None else total + contribution
    return (1.0 / draws) * total


def generator_surrogate(items, model: MatchingModel, baseline: RewardBaseline,
                        rng: np.random.Generator | None = None,
                        train: bool = True) -> Tensor:
    """Surrogate whose gradient is the likelihood-ratio estimator:
    mean((r - b) * log p(A'|Q)) over all sampled draws, with log p under the
    full softmax over each question's pool.

    Each without-replacement draw is scored by its full-softmax log p; the
    renormalization terms -log(1 - sum_{j<k} p_j) of `sample_negatives`'
    sequential sampler are left out, so this is not its exact score function.

    The log-probs come from a fresh forward of `model` (train mode by
    default: dropout, batch statistics), so the estimator is unbiased only
    for draws sampled from that same forward. The gen phase therefore samples
    from the log-probs of its own forward and hands those same tensors to
    the surrogate arithmetic, rather than calling this function."""
    pairs = [(it.question, it.pool) for it in items]
    return _reinforce_surrogate(_pool_log_probs(pairs, model, rng, train), items, baseline)


def generator_step(items, model: MatchingModel, optimizer: Adam, baseline: RewardBaseline,
                   rng: np.random.Generator | None = None) -> float:
    """One REINFORCE update of the generator; returns the surrogate value."""
    return _descend(generator_surrogate(items, model, baseline, rng), optimizer,
                    "generator surrogate")


def negative_rewards(discriminator: MatchingModel, q_tokens, negatives) -> np.ndarray:
    """log(1 - D) of each negative under the current discriminator, eval mode."""
    scores = discriminator.score_candidates(q_tokens, negatives)
    rewards = np.array([math.log(max(1.0 - _sigmoid_value(s), LOG_CLAMP)) for s in scores])
    if not np.all(np.isfinite(rewards)):
        raise DivergenceError("non-finite generator reward")
    return rewards


def _sigmoid_value(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _rng_for(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *path]))


def train(corpus: Corpus, model_config: ModelConfig, config: TrainConfig,
          embedding_matrix: np.ndarray | None = None, metrics_sink=None) -> TrainResult:
    """Alternating optimization over the train split.

    Per epoch: rebuild pools, (disc) sample hard negatives and update the
    discriminator, or (gen) update the generator with REINFORCE; refresh the
    reward baseline from the epoch's observed rewards; log the held-out
    MAP/MRR of the discriminator. Fully deterministic under config.seed.
    """
    train_threads = corpus.split("train")
    if not any(t.positives for t in train_threads):
        raise CorpusError("training split has no thread with a positive answer")
    dev_threads = corpus.split(config.dev_split)

    discriminator = MatchingModel(model_config, _rng_for(config.seed, 1), embedding_matrix)
    generator = MatchingModel(model_config, _rng_for(config.seed, 2), embedding_matrix)
    opt_d = Adam(discriminator.parameters(), lr=config.base_lr)
    opt_g = Adam(generator.parameters(), lr=config.base_lr)
    baseline = RewardBaseline()
    metrics: list[dict] = []

    for epoch in range(config.epochs):
        lr = learning_rate(epoch, config.base_lr, config.lr_decay_every)
        opt_d.lr = lr
        opt_g.lr = lr
        phase = config.phase(epoch)
        rng = _rng_for(config.seed, 3, epoch)
        pools = {
            t.thread_id: build_pool(t, train_threads, config.pool_size, rng)
            for t in train_threads
        }
        order = rng.permutation(len(train_threads))
        losses: list[float] = []
        rewards_seen: list[float] = []
        for start in range(0, len(order), config.batch_size):
            batch = [train_threads[i] for i in order[start:start + config.batch_size]]
            try:
                if phase == "disc":
                    loss = _disc_batch(batch, pools, discriminator, generator, opt_d,
                                       config, rng, rewards_seen)
                else:
                    loss = _gen_batch(batch, pools, discriminator, generator, opt_g,
                                      baseline, config, rng, rewards_seen)
            except DivergenceError as exc:
                raise DivergenceError(
                    f"epoch {epoch}, batch {start // config.batch_size}: {exc}"
                ) from exc
            if loss is not None:
                losses.append(loss)
        _check_finite_params(discriminator, generator, epoch)
        dev_map = dev_mrr = None
        if dev_threads:
            try:
                dev_map, dev_mrr, _ = evaluate(dev_threads, discriminator)
            except EvaluationError:
                pass  # held-out split has no thread with a relevant answer
        row = {
            "epoch": epoch,
            "phase": phase,
            "loss": float(np.mean(losses)) if losses else None,
            "mean_reward": float(np.mean(rewards_seen)) if rewards_seen else None,
            "baseline": baseline.value,
            "dev_map": dev_map,
            "dev_mrr": dev_mrr,
            "lr": lr,
        }
        metrics.append(row)
        if metrics_sink is not None:
            metrics_sink(row)
        baseline.refresh(rewards_seen)
    return TrainResult(discriminator, generator, metrics)


def _select_negatives(thread, pool, generator, config, rng):
    take = min(config.neg_samples, len(pool))
    if config.adversarial:
        probs = generator_distribution(thread.question_ids, pool, generator)
        return sample_negatives(probs, take, rng)
    return [int(i) for i in rng.choice(len(pool), size=take, replace=False)]


def _disc_batch(batch, pools, discriminator, generator, opt_d, config, rng, rewards_seen):
    items = []
    for t in batch:
        pool = pools[t.thread_id]
        picked = _select_negatives(t, pool, generator, config, rng)
        negatives = [pool.answers[i].token_ids for i in picked]
        items.append(DiscItem(t.question_ids, [c.token_ids for c in t.positives], negatives))
        if config.adversarial:
            rewards_seen.extend(negative_rewards(discriminator, t.question_ids, negatives))
    if not any(it.positives for it in items):
        return None  # cannot form the two-sided loss from this batch
    return discriminator_step(items, discriminator, opt_d, config.l2, rng)


def _gen_batch(batch, pools, discriminator, generator, opt_g, baseline, config, rng,
               rewards_seen):
    """Sample from one train-mode generator forward and backpropagate the
    surrogate through that same forward."""
    pairs = [(t.question_ids, pools[t.thread_id]) for t in batch]
    log_probs = _pool_log_probs(pairs, generator, rng, train=True)
    items = []
    for (q_tokens, pool), log_p in zip(pairs, log_probs):
        picked = sample_negatives(np.exp(log_p.data), min(config.neg_samples, len(pool)), rng)
        rewards = negative_rewards(
            discriminator, q_tokens, [pool.answers[i].token_ids for i in picked]
        )
        rewards_seen.extend(rewards)
        items.append(GenItem(q_tokens, pool, picked, rewards))
    return _descend(_reinforce_surrogate(log_probs, items, baseline), opt_g,
                    "generator surrogate")


def _check_finite_params(discriminator, generator, epoch):
    for model, tag in ((discriminator, "discriminator"), (generator, "generator")):
        for name, p in model.named_parameters():
            if not np.all(np.isfinite(p.data)):
                raise DivergenceError(f"epoch {epoch}: {tag} parameter {name} is non-finite")
