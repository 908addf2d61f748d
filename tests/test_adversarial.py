import math

import numpy as np
import pytest

import cqarank.numerics as N
from cqarank import adversarial as A
from cqarank.data import Candidate, QuestionThread, synth_generate
from cqarank.errors import ConfigError, ContractError, CorpusError, DivergenceError
from cqarank.model import MatchingModel, ModelConfig, ScoreMode

from test_tensor import finite_diff, rel_err


def make_thread(tid, positive_ids, negative_ids):
    cands = [Candidate(f"{tid}p{i}", "pos", True, toks) for i, toks in enumerate(positive_ids)]
    cands += [Candidate(f"{tid}n{i}", "neg", False, toks) for i, toks in enumerate(negative_ids)]
    return QuestionThread(tid, "q", cands, "train", [1, 2, 3])


class TestBuildPool:
    def test_exhausts_small_candidate_set(self):
        t = make_thread("t0", [[4]], [[5], [6], [7]])
        pool = A.build_pool(t, [t], pool_size=100, rng=np.random.default_rng(0))
        assert len(pool) == 3
        assert all(a.source == "labeled-negative" for a in pool.answers)

    def test_uniform_selection_frequencies(self):
        t = make_thread("t0", [[4]], [[10 + i] for i in range(10)])
        counts = {}
        for trial in range(10_000):
            pool = A.build_pool(t, [t], pool_size=1, rng=np.random.default_rng(trial))
            counts[pool.answers[0].answer_id] = counts.get(pool.answers[0].answer_id, 0) + 1
        assert len(counts) == 10
        for c in counts.values():
            assert abs(c / 10_000 - 0.1) <= 0.02

    def test_never_contains_own_positives(self):
        threads = [
            make_thread("t0", [[4], [5]], [[6]]),
            make_thread("t1", [[7]], [[8], [9]]),
        ]
        positives = {("t0", "t0p0"), ("t0", "t0p1")}
        for trial in range(1000):
            pool = A.build_pool(threads[0], threads, 3, np.random.default_rng(trial))
            for ans in pool.answers:
                assert (threads[0].thread_id, ans.answer_id) not in positives or \
                    ans.thread_id != "t0"

    def test_other_thread_answers_are_eligible(self):
        threads = [
            make_thread("t0", [[4]], []),
            make_thread("t1", [[7]], [[8]]),
        ]
        pool = A.build_pool(threads[0], threads, 10, np.random.default_rng(1))
        assert {a.source for a in pool.answers} == {"other-thread"}
        assert len(pool) == 2  # t1's positive and negative both count as negatives here

    def test_no_eligible_negatives(self):
        t = make_thread("t0", [[4]], [])
        with pytest.raises(CorpusError):
            A.build_pool(t, [t], 10, np.random.default_rng(0))


class StubScorer:
    """Duck-typed stand-in with hand-set pool scores."""

    def __init__(self, scores):
        self.scores = scores

    def score_candidates(self, q_tokens, cands):
        assert len(cands) == len(self.scores)
        return np.array(self.scores, dtype=float)


def make_pool(n):
    answers = [A.PoolAnswer("other", f"a{i}", [i + 2], "other-thread") for i in range(n)]
    return A.CandidatePool("t0", answers)


class TestGeneratorDistribution:
    def test_equal_scores_give_uniform(self):
        probs = A.generator_distribution([1], make_pool(4), StubScorer([2.0] * 4))
        assert np.allclose(probs, 0.25, atol=1e-15)

    def test_constant_shift_invariance(self):
        scores = [0.3, -1.0, 2.2]
        p1 = A.generator_distribution([1], make_pool(3), StubScorer(scores))
        p2 = A.generator_distribution([1], make_pool(3), StubScorer([s + 7.5 for s in scores]))
        assert np.max(np.abs(p1 - p2)) <= 1e-12
        assert abs(p1.sum() - 1.0) <= 1e-12

    def test_hand_computed_two_answer_case(self):
        probs = A.generator_distribution([1], make_pool(2), StubScorer([0.0, math.log(2.0)]))
        assert np.allclose(probs, [1 / 3, 2 / 3], atol=1e-12)

    def test_empty_pool(self):
        with pytest.raises(ContractError):
            A.generator_distribution([1], make_pool(0), StubScorer([]))


class TestSampleNegatives:
    def test_whole_pool(self):
        picked = A.sample_negatives([0.2, 0.5, 0.3], 3, np.random.default_rng(0))
        assert sorted(picked) == [0, 1, 2]

    def test_degenerate_distribution(self):
        for trial in range(50):
            picked = A.sample_negatives([1.0, 0.0, 0.0], 1, np.random.default_rng(trial))
            assert picked == [0]

    def test_oversampling_rejected(self):
        with pytest.raises(ContractError):
            A.sample_negatives([0.5, 0.5], 3, np.random.default_rng(0))

    def test_single_draw_frequencies(self):
        dist = [0.5, 0.3, 0.2]
        rng = np.random.default_rng(123)
        counts = np.zeros(3)
        n = 100_000
        for _ in range(n):
            counts[A.sample_negatives(dist, 1, rng)[0]] += 1
        assert np.max(np.abs(counts / n - dist)) <= 0.01

    def test_first_draw_marginal_chi_square(self):
        from scipy.stats import chisquare

        dist = np.array([0.4, 0.25, 0.2, 0.1, 0.05])
        rng = np.random.default_rng(7)
        n = 20_000
        counts = np.zeros(5)
        for _ in range(n):
            counts[A.sample_negatives(dist, 2, rng)[0]] += 1
        _, p_value = chisquare(counts, dist * n)
        assert p_value > 0.01

    def test_draws_are_distinct_pool_members(self):
        rng = np.random.default_rng(5)
        dist = np.full(6, 1 / 6)
        for _ in range(200):
            picked = A.sample_negatives(dist, 4, rng)
            assert len(set(picked)) == 4
            assert all(0 <= i < 6 for i in picked)


def word_model(seed=0, **kw):
    cfg = dict(vocab_size=12, dim=3, levels=0, channels=4, h_dim=3, hidden=4,
               mode=ScoreMode.WORD, dropout=0.0)
    cfg.update(kw)
    return MatchingModel(ModelConfig(**cfg), np.random.default_rng(seed))


def handset_extreme_model():
    """WORD-mode net whose score is +25 for token 1 and -25 for token 2."""
    model = word_model(vocab_size=4, dim=1, h_dim=1, hidden=1)
    model.embedding.matrix.data[:] = [[0.0], [50.0], [-50.0], [0.0]]
    net = model.pair_nets[(0, 0)]
    net.fc1.weight.data[:] = [[0.0], [1.0]]
    net.fc1.bias.data[:] = 0.0
    net.fc2.weight.data[:] = [[1.0]]
    net.fc2.bias.data[:] = 0.0
    model.agg1.weight.data[:] = [[1.0], [0.0]]
    model.agg1.bias.data[:] = 0.0
    model.agg2.weight.data[:] = [[1.0]]
    model.agg2.bias.data[:] = -25.0
    return model


class TestDiscriminatorStep:
    def test_half_probabilities_give_two_ln2(self):
        model = word_model(seed=1)
        model.agg2.weight.data[...] = 0.0
        model.agg2.bias.data[...] = 0.0
        items = [A.DiscItem([1, 2], [[3]], [[4]])]
        loss = A.discriminator_loss(items, model, l2=0.0)
        assert loss.item() == pytest.approx(2 * math.log(2.0), abs=1e-12)

    def test_step_increases_positive_probability(self):
        model = word_model(seed=2)
        opt = N.Adam(model.parameters(), lr=1e-3)
        q, pos, neg = [1, 2, 3], [4, 5], [6, 7]
        before = N.sigmoid(model.score(q, pos)).item()
        A.discriminator_step([A.DiscItem(q, [pos], [neg])], model, opt, l2=0.0)
        after = N.sigmoid(model.score(q, pos)).item()
        assert after > before

    def test_loss_gradient_matches_finite_differences(self):
        model = word_model(seed=3, vocab_size=10, dim=2, h_dim=2, hidden=3)
        items = [A.DiscItem([1, 2], [[3], [4, 5]], [[6, 7], [8]])]
        params = model.parameters()
        err = N.gradcheck(lambda: A.discriminator_loss(items, model, l2=1e-3), params)
        assert err <= 1e-5

    def test_extremes_give_tiny_loss_and_gradient(self):
        model = handset_extreme_model()
        items = [A.DiscItem([3], [[1]], [[2]])]
        loss = A.discriminator_loss(items, model, l2=0.0)
        assert loss.item() <= 1e-8
        for p in model.parameters():
            p.zero_grad()
        loss.backward()
        n_params = sum(p.size for p in model.parameters())
        norm = math.sqrt(sum(float((p.grad ** 2).sum()) for p in model.parameters()))
        assert norm <= 1e-6 * n_params

    def test_non_finite_loss_raises(self):
        model = word_model(seed=4)
        model.agg2.bias.data[:] = np.nan
        opt = N.Adam(model.parameters(), lr=1e-3)
        with pytest.raises(DivergenceError):
            A.discriminator_step([A.DiscItem([1], [[2]], [[3]])], model, opt)


def enumerated_reinforce_gradient(model, q_tokens, pool, rewards):
    """Exact expectation sum_i p_i * grad(log p_i) * r_i via the model's own
    autodiff, eval mode."""
    params = model.parameters()
    answers = [a.token_ids for a in pool.answers]
    raw = model.score_candidates(q_tokens, answers)
    shifted = np.exp(raw - raw.max())
    p = shifted / shifted.sum()
    grand = [np.zeros_like(t.data) for t in params]
    for i, r in enumerate(rewards):
        for t in params:
            t.zero_grad()
        log_p = N.log_softmax(model.score_groups([(q_tokens, answers)])[0], axis=0)
        N.take(log_p, [i]).sum().backward()
        for g, t in zip(grand, params):
            g += p[i] * r * t.grad
    return grand


class TestGeneratorStep:
    def test_zero_advantage_means_zero_update(self):
        model = word_model(seed=5)
        opt = N.Adam(model.parameters(), lr=0.1)
        pool = make_pool(3)
        baseline = A.RewardBaseline(value=-0.5)
        items = [A.GenItem([1], pool, [0, 2], np.array([-0.5, -0.5]))]
        before = [p.data.copy() for p in model.parameters()]
        A.generator_step(items, model, opt, baseline)
        for prev, p in zip(before, model.parameters()):
            assert np.max(np.abs(p.data - prev)) <= 1e-10

    def test_enumerated_gradient_reward_shift_invariance(self):
        model = word_model(seed=6, vocab_size=10, dim=2, h_dim=2, hidden=3)
        pool = make_pool(3)
        rewards = np.array([-1.0, -3.0, -0.2])
        g1 = enumerated_reinforce_gradient(model, [1], pool, rewards)
        g2 = enumerated_reinforce_gradient(model, [1], pool, rewards - 4.2)
        for a, b in zip(g1, g2):
            assert np.max(np.abs(a - b)) <= 1e-10

    def test_surrogate_gradient_matches_finite_differences(self):
        model = word_model(seed=7, vocab_size=10, dim=2, h_dim=2, hidden=3)
        pool = make_pool(4)
        items = [A.GenItem([1], pool, [1, 3], np.array([-2.0, -0.3]))]
        baseline = A.RewardBaseline(value=-1.0)
        params = model.parameters()
        err = N.gradcheck(lambda: A.generator_surrogate(items, model, baseline), params)
        assert err <= 1e-5

    def test_non_finite_reward_raises(self):
        model = word_model(seed=8)
        opt = N.Adam(model.parameters(), lr=0.1)
        items = [A.GenItem([1], make_pool(2), [0], np.array([np.inf]))]
        with pytest.raises(DivergenceError):
            A.generator_step(items, model, opt, A.RewardBaseline())


class TestGenPhaseSampling:
    def test_samples_from_the_differentiated_forward(self, monkeypatch):
        # dropout and a conv level make train- and eval-mode forwards differ
        corpus = small_corpus()
        mc, tc = small_configs(corpus)
        generator = MatchingModel(mc, np.random.default_rng(1))
        discriminator = MatchingModel(mc, np.random.default_rng(2))
        threads = corpus.split("train")[:2]
        rng = np.random.default_rng(3)
        pools = {t.thread_id: A.build_pool(t, threads, tc.pool_size, rng) for t in threads}

        sampled_from, differentiated = [], []

        def spy_sample(distribution, *args, **kw):
            sampled_from.append(np.array(distribution, dtype=float))
            return real_sample(distribution, *args, **kw)

        def spy_log_softmax(*args, **kw):
            out = real_log_softmax(*args, **kw)
            differentiated.append(out.data.copy())
            return out

        real_sample, real_log_softmax = A.sample_negatives, N.log_softmax
        monkeypatch.setattr(A, "sample_negatives", spy_sample)
        monkeypatch.setattr(N, "log_softmax", spy_log_softmax)
        A._gen_batch(threads, pools, discriminator, generator,
                     N.Adam(generator.parameters(), lr=1e-3), A.RewardBaseline(),
                     tc, rng, [])

        assert len(sampled_from) == len(differentiated) == len(threads)
        for probs, log_p in zip(sampled_from, differentiated):
            assert np.max(np.abs(probs - np.exp(log_p))) <= 1e-12


def small_corpus(seed=0):
    return synth_generate(10, 6, topics=3, vocab_per_topic=8, seed=seed,
                          split_sizes=(8, 2, 0))


def small_configs(corpus, **kw):
    mc = ModelConfig(vocab_size=len(corpus.vocabulary), dim=6, levels=1, channels=5,
                     h_dim=4, hidden=6, mode=ScoreMode.MULTI, dropout=0.1)
    tc = dict(epochs=4, batch_size=4, neg_samples=2, pool_size=6, base_lr=1e-3,
              l2=1e-6, adversarial=True, dev_split="dev", seed=11)
    tc.update(kw)
    return mc, A.TrainConfig(**tc)


class TestTrain:
    def test_smoke_run_finite(self):
        corpus = small_corpus()
        mc, tc = small_configs(corpus)
        result = A.train(corpus, mc, tc)
        assert len(result.metrics) == 4
        phases = [m["phase"] for m in result.metrics]
        assert phases == ["disc", "gen", "disc", "gen"]
        for m in result.metrics:
            if m["loss"] is not None:
                assert math.isfinite(m["loss"])
            assert math.isfinite(m["baseline"])
            assert m["dev_map"] is None or 0.0 <= m["dev_map"] <= 1.0

    def test_epochs_zero(self):
        corpus = small_corpus()
        mc, tc = small_configs(corpus, epochs=0)
        result = A.train(corpus, mc, tc)
        assert result.metrics == []
        assert result.discriminator is not None
        assert result.generator is not None

    def test_seeded_determinism(self):
        corpus = small_corpus()
        mc1, tc1 = small_configs(corpus, epochs=3)
        r1 = A.train(corpus, mc1, tc1)
        mc2, tc2 = small_configs(corpus, epochs=3)
        r2 = A.train(corpus, mc2, tc2)
        assert r1.metrics == r2.metrics
        for (n1, p1), (n2, p2) in zip(r1.discriminator.named_parameters(),
                                      r2.discriminator.named_parameters()):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data)

    def test_baseline_refreshes_from_rewards(self):
        corpus = small_corpus()
        mc, tc = small_configs(corpus, epochs=2)
        result = A.train(corpus, mc, tc)
        # epoch 0 runs with the initial zero baseline; epoch 1 uses epoch 0's mean
        assert result.metrics[0]["baseline"] == 0.0
        assert result.metrics[1]["baseline"] == pytest.approx(result.metrics[0]["mean_reward"])

    def test_non_adversarial_mode_trains_every_epoch(self):
        corpus = small_corpus()
        mc, tc = small_configs(corpus, adversarial=False, epochs=3)
        result = A.train(corpus, mc, tc)
        assert all(m["phase"] == "disc" for m in result.metrics)
        assert all(m["mean_reward"] is None for m in result.metrics)

    def test_requires_a_positive_somewhere(self):
        corpus = small_corpus()
        for t in corpus.threads:
            for c in t.candidates:
                c.relevant = False
        mc, tc = small_configs(corpus)
        with pytest.raises(CorpusError):
            A.train(corpus, mc, tc)

    def test_lr_schedule_recorded(self):
        corpus = small_corpus()
        mc, tc = small_configs(corpus, epochs=1, base_lr=1e-4)
        result = A.train(corpus, mc, tc)
        assert result.metrics[0]["lr"] == 1e-4


class TestConfigValidation:
    def test_neg_samples_within_pool(self):
        with pytest.raises(ConfigError):
            A.TrainConfig(neg_samples=20, pool_size=10)

    def test_negative_l2(self):
        with pytest.raises(ConfigError):
            A.TrainConfig(l2=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("epochs", True), ("epochs", 2.0), ("seed", None), ("base_lr", "1e-3"),
        ("base_lr", float("nan")), ("l2", float("inf")), ("adversarial", "off"),
        ("adversarial", 1), ("dev_split", 0),
    ])
    def test_wrongly_typed_field(self, field, value):
        with pytest.raises(ConfigError, match="lr" if field == "base_lr" else field):
            A.TrainConfig(**{field: value})

    def test_an_int_is_a_float(self):
        tc = A.TrainConfig(base_lr=1, l2=0)
        assert (tc.base_lr, tc.l2) == (1.0, 0.0)
        assert type(tc.base_lr) is float and type(tc.l2) is float

    def test_phase_cycle(self):
        assert [A.TrainConfig().phase(e) for e in range(5)] == \
               ["disc", "gen", "disc", "gen", "disc"]
        assert [A.TrainConfig(adversarial=False).phase(e) for e in range(3)] == ["disc"] * 3
