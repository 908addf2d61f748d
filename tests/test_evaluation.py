import numpy as np
import pytest

from cqarank import evaluation as E
from cqarank.data import Candidate, QuestionThread
from cqarank.errors import DivergenceError, EvaluationError

from test_model import tiny_model


# -- independent direct-definition oracle (kept deliberately naive) ----------

def oracle_rank(items):
    """items: (answer_id, score, relevant); descending score, id breaks ties."""
    return sorted(items, key=lambda it: (-it[1], it[0]))


def oracle_ap10(items):
    ordered = oracle_rank(items)
    total_relevant = len([it for it in ordered if it[2]])
    if total_relevant == 0:
        return None
    acc = 0.0
    for k in range(1, min(10, len(ordered)) + 1):
        if ordered[k - 1][2]:
            rel_in_prefix = len([it for it in ordered[:k] if it[2]])
            acc += rel_in_prefix / k
    return acc / min(total_relevant, 10)


def oracle_rr10(items):
    ordered = oracle_rank(items)
    if not any(it[2] for it in ordered):
        return None
    for k in range(1, min(10, len(ordered)) + 1):
        if ordered[k - 1][2]:
            return 1.0 / k
    return 0.0


def as_ranked(items):
    ordered = oracle_rank(items)
    return E.RankedList("t", [E.RankedEntry(i, s, r) for i, s, r in ordered])


def ranked_from_labels(labels):
    """Descending synthetic scores so list order == rank order."""
    n = len(labels)
    return E.RankedList("t", [E.RankedEntry(f"a{k}", float(n - k), bool(l))
                              for k, l in enumerate(labels)])


class TestAveragePrecision:
    def test_perfect_three(self):
        assert E.average_precision_at10(ranked_from_labels([1, 1, 1, 0, 0])) == 1.0

    def test_single_relevant_at_rank_two(self):
        labels = [0, 1] + [0] * 8
        assert E.average_precision_at10(ranked_from_labels(labels)) == 0.5

    def test_single_relevant_outside_top10(self):
        labels = [0] * 10 + [1]
        assert E.average_precision_at10(ranked_from_labels(labels)) == 0.0

    def test_zero_relevant_is_excluded_not_error(self):
        assert E.average_precision_at10(ranked_from_labels([0, 0, 0])) is None

    def test_normalizer_caps_at_ten(self):
        # 12 relevant, 10 perfect top ranks -> 1.0
        labels = [1] * 12 + [0] * 5
        assert E.average_precision_at10(ranked_from_labels(labels)) == 1.0


class TestMapMrr:
    def test_perfect_corpus(self):
        lists = [ranked_from_labels([1, 0]), ranked_from_labels([1, 1, 0])]
        assert E.map_at10(lists) == 1.0
        assert E.mrr_at10(lists) == 1.0

    def test_map_is_mean(self):
        lists = [ranked_from_labels([1, 1]), ranked_from_labels([0, 1])]
        assert E.map_at10(lists) == pytest.approx(0.75)

    def test_no_includable_thread(self):
        with pytest.raises(EvaluationError):
            E.map_at10([ranked_from_labels([0, 0])])

    def test_mrr_counts_outside_top10_as_zero(self):
        lists = [ranked_from_labels([0] * 10 + [1]), ranked_from_labels([1])]
        assert E.mrr_at10(lists) == pytest.approx(0.5)

    def test_fifty_randomized_instances_match_oracle(self):
        rng = np.random.default_rng(2024)
        lists, oracle_aps, oracle_rrs = [], [], []
        for _ in range(50):
            n = int(rng.integers(5, 101))
            n_rel = int(rng.integers(0, min(12, n) + 1))
            labels = np.zeros(n, dtype=bool)
            labels[rng.choice(n, size=n_rel, replace=False)] = True
            scores = np.round(rng.normal(size=n), 2)  # coarse -> plenty of ties
            items = [(f"a{idx:03d}", float(s), bool(l))
                     for idx, (s, l) in enumerate(zip(scores, labels))]
            lists.append(as_ranked(items))
            oracle_aps.append(oracle_ap10(items))
            oracle_rrs.append(oracle_rr10(items))
        included_ap = [v for v in oracle_aps if v is not None]
        included_rr = [v for v in oracle_rrs if v is not None]
        assert included_ap, "fixture should produce includable threads"
        assert abs(E.map_at10(lists) - sum(included_ap) / len(included_ap)) <= 1e-12
        assert abs(E.mrr_at10(lists) - sum(included_rr) / len(included_rr)) <= 1e-12
        for lst, ap in zip(lists, oracle_aps):
            got = E.average_precision_at10(lst)
            assert (got is None) == (ap is None)
            if ap is not None:
                assert abs(got - ap) <= 1e-12

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(7)
        items = [(f"a{i}", float(s), bool(i % 3 == 0))
                 for i, s in enumerate(rng.normal(size=30))]
        base = as_ranked(items)
        for f in (lambda s: 3.0 * s + 2.0, np.exp, lambda s: s ** 3):
            transformed = as_ranked([(i, float(f(s)), r) for i, s, r in items])
            assert E.average_precision_at10(transformed) == E.average_precision_at10(base)
            assert E.reciprocal_rank_at10(transformed) == E.reciprocal_rank_at10(base)


def make_thread(tid, n_candidates, relevant_idx, seed=0):
    rng = np.random.default_rng(seed)
    cands = [Candidate(f"a{j}", f"text {j}", j in relevant_idx,
                       [int(x) for x in rng.integers(1, 29, size=4)])
             for j in range(n_candidates)]
    return QuestionThread(tid, "question", cands, "test",
                          [int(x) for x in rng.integers(1, 29, size=5)])


class TestRank:
    def test_single_candidate(self):
        model = tiny_model()
        ranked = E.rank(make_thread("t0", 1, {0}), model)
        assert len(ranked.entries) == 1
        assert ranked.entries[0].answer_id == "a0"

    def test_equal_scores_tie_break_by_id(self):
        model = tiny_model(seed=30)
        thread = make_thread("t1", 3, set())
        # identical token sequences -> identical scores
        for c in thread.candidates:
            c.token_ids = [1, 2, 3]
        ranked = E.rank(thread, model)
        assert [e.answer_id for e in ranked.entries] == ["a0", "a1", "a2"]
        assert ranked.entries[0].score == ranked.entries[1].score

    def test_rank_deterministic(self):
        model = tiny_model(seed=31)
        thread = make_thread("t2", 6, {1, 4}, seed=3)
        r1 = E.rank(thread, model)
        r2 = E.rank(thread, model)
        assert [(e.answer_id, e.score) for e in r1.entries] == \
               [(e.answer_id, e.score) for e in r2.entries]

    def test_scores_non_increasing(self):
        model = tiny_model(seed=32)
        ranked = E.rank(make_thread("t3", 8, {0}, seed=4), model)
        scores = [e.score for e in ranked.entries]
        assert all(a >= b for a, b in zip(scores, scores[1:]))


    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_score_is_divergence(self, bad):
        class FakeModel:
            def score_candidates(self, q_tokens, candidates):
                return np.array([0.5, bad, -1.0][:len(candidates)])

        with pytest.raises(DivergenceError, match="a1"):
            E.rank(make_thread("t4", 3, {0}), FakeModel())


class TestPredictionFile:
    def test_write_and_recompute(self, tmp_path):
        rng = np.random.default_rng(5)
        items = [(f"a{i}", float(s), bool(i % 4 == 0)) for i, s in enumerate(rng.normal(size=12))]
        ranked = as_ranked(items)
        path = tmp_path / "pred.tsv"
        E.write_predictions(path, [ranked])
        loaded = E.read_predictions(path)
        assert list(loaded) == ["t"]
        relevance = {i: r for i, _, r in items}
        rebuilt = E.RankedList("t", [E.RankedEntry(a, s, relevance[a]) for a, s in loaded["t"]])
        assert E.average_precision_at10(rebuilt) == E.average_precision_at10(ranked)
        # scores round-trip exactly through repr
        assert [e.score for e in rebuilt.entries] == [e.score for e in ranked.entries]
