import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cqarank.numerics as N
from cqarank.data import Vocabulary
from cqarank.errors import ConfigError, EmptyInputError, ParseError, VocabularyError
from cqarank.model import (
    MatchingModel,
    ModelConfig,
    ScoreMode,
    CHECKPOINT_MAGIC,
    load_checkpoint,
    save_checkpoint,
    scale_pairs,
)


def tiny_config(**kw):
    base = dict(vocab_size=30, dim=6, levels=2, channels=5, h_dim=4, hidden=7,
                mode=ScoreMode.MULTI, dropout=0.0)
    base.update(kw)
    return ModelConfig(**base)


def tiny_model(seed=0, **kw):
    return MatchingModel(tiny_config(**kw), np.random.default_rng(seed))


class TestScalePairs:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_counts_per_mode(self, k):
        assert len(scale_pairs(ScoreMode.WORD, k)) == 1
        assert len(scale_pairs(ScoreMode.MULTI, k)) == 2 * k + 1
        assert len(scale_pairs(ScoreMode.FULL, k)) == (k + 1) ** 2

    def test_multi_order(self):
        assert scale_pairs(ScoreMode.MULTI, 2) == [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)]

    def test_full_lexicographic(self):
        assert scale_pairs(ScoreMode.FULL, 1) == [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestConfig:
    @pytest.mark.parametrize("field", ["vocab_size", "dim", "channels", "h_dim", "hidden"])
    def test_sizes_must_be_positive(self, field):
        with pytest.raises(ConfigError, match=field):
            tiny_config(**{field: 0})


    @pytest.mark.parametrize("field, value", [
        ("dim", 2.5), ("levels", True), ("dropout", "0.1"), ("mode", "bogus"), ("mode", 1),
        ("dtype", None), ("emb_trainable", 1),
    ])
    def test_wrongly_typed_field(self, field, value):
        with pytest.raises(ConfigError, match=field):
            tiny_config(**{field: value})

    def test_mode_by_value(self):
        assert tiny_config(mode="word").mode is ScoreMode.WORD


class TestEncode:
    def test_hierarchy_lengths(self):
        model = tiny_model()
        levels = model.encode(list(range(1, 6)))  # 5 tokens
        assert [x.shape for x in levels] == [(6, 5), (5, 3), (5, 2)]

    def test_zero_levels_is_embedding_only(self):
        model = tiny_model(levels=0, mode=ScoreMode.WORD)
        levels = model.encode([1, 2, 3])
        assert len(levels) == 1
        assert levels[0].shape == (6, 3)

    def test_empty_sentence(self):
        with pytest.raises(EmptyInputError):
            tiny_model().encode([])

    def test_out_of_vocabulary_token(self):
        with pytest.raises(VocabularyError):
            tiny_model().encode([1, 99])

    def test_level1_receptive_field_is_five_tokens(self):
        model = tiny_model(seed=3)
        tokens = list(range(1, 21))  # 20 tokens
        base = model.encode(tokens)[1].data
        perturbed = list(tokens)
        perturbed[7] = 25  # different embedding at position 7
        after = model.encode(perturbed)[1].data
        changed = {i for i in range(base.shape[1])
                   if not np.allclose(base[:, i], after[:, i], atol=1e-12)}
        # position i pools conv outputs 2i-1..2i+1, each spanning one extra token
        expected = {i for i in range(base.shape[1]) if 2 * i - 2 <= 7 <= 2 * i + 2}
        assert changed == expected == {3, 4}


class TestMatchPair:
    def brute_force(self, xq, xa, net, mask=None):
        """mask: (m*n, hidden) inverted-dropout multipliers, row i*n+j for pair (i, j)."""
        w1, b1 = net.fc1.weight.data, net.fc1.bias.data
        w2, b2 = net.fc2.weight.data, net.fc2.bias.data
        m, n = xq.shape[1], xa.shape[1]
        h = np.zeros((m, n, w2.shape[1]))
        for i in range(m):
            for j in range(n):
                inp = np.concatenate([xq[:, i], xa[:, j]])
                hidden = np.maximum(inp @ w1 + b1, 0.0)
                if mask is not None:
                    hidden = hidden * mask[i * n + j]
                h[i, j] = hidden @ w2 + b2
        return np.concatenate([h.max(axis=1).mean(axis=0), h.max(axis=0).mean(axis=0)])

    def test_unequal_widths_with_shared_question_side(self):
        # a word-to-ngram pair: dim 6 question rows, 5-channel answer rows,
        # with the question side projected once and reused for two answers
        model = tiny_model(seed=4)
        for b in (model.pair_nets[(0, 1)].fc1.bias, model.pair_nets[(0, 1)].fc2.bias):
            b.data[...] = np.random.default_rng(1).normal(size=b.shape)
        rng = np.random.default_rng(2)
        hq = model.encode([1, 2, 3, 4])
        xq = hq[0]
        side = model.question_sides(hq)[(0, 1)]
        for n in (3, 1):
            xa = N.Tensor(rng.normal(size=(5, n)))
            out = model.match_pair(xq, xa, (0, 1), q_side=side)
            expected = self.brute_force(xq.data, xa.data, model.pair_nets[(0, 1)])
            assert np.max(np.abs(out.data - expected)) <= 1e-12

    def test_train_mode_draws_one_pair_mask_in_row_order(self):
        rate = 0.4
        model = tiny_model(seed=3, levels=0, mode=ScoreMode.WORD, dropout=rate)
        rng = np.random.default_rng(6)
        xq = N.Tensor(rng.normal(size=(6, 3)))
        xa = N.Tensor(rng.normal(size=(6, 4)))
        out = model.match_pair(xq, xa, (0, 0), train=True, rng=np.random.default_rng(12))
        mask = (np.random.default_rng(12).random((12, 7)) >= rate) / (1.0 - rate)
        expected = self.brute_force(xq.data, xa.data, model.pair_nets[(0, 0)], mask)
        assert np.max(np.abs(out.data - expected)) <= 1e-12

    def test_width_mismatch_is_config_error(self):
        model = tiny_model(seed=4)
        with pytest.raises(ConfigError):
            model.match_pair(N.Tensor(np.ones((6, 2))), N.Tensor(np.ones((6, 2))), (0, 1))

    def test_matches_direct_formula(self):
        model = tiny_model(seed=5, levels=0, mode=ScoreMode.WORD)
        rng = np.random.default_rng(8)
        xq = N.Tensor(rng.normal(size=(6, 3)))
        xa = N.Tensor(rng.normal(size=(6, 2)))
        out = model.match_pair(xq, xa, (0, 0))
        expected = self.brute_force(xq.data, xa.data, model.pair_nets[(0, 0)])
        assert np.max(np.abs(out.data - expected)) <= 1e-12

    def test_single_answer_position_is_plain_network_output(self):
        model = tiny_model(seed=6, levels=0, mode=ScoreMode.WORD)
        rng = np.random.default_rng(9)
        xq = N.Tensor(rng.normal(size=(6, 4)))
        xa = N.Tensor(rng.normal(size=(6, 1)))
        out = model.match_pair(xq, xa, (0, 0))
        expected = self.brute_force(xq.data, xa.data, model.pair_nets[(0, 0)])
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_duplicate_answer_column_leaves_question_summary(self):
        model = tiny_model(seed=7, levels=0, mode=ScoreMode.WORD)
        rng = np.random.default_rng(10)
        xq = N.Tensor(rng.normal(size=(6, 3)))
        xa = np.array(rng.normal(size=(6, 2)))
        out1 = model.match_pair(xq, N.Tensor(xa), (0, 0))
        dup = np.concatenate([xa, xa[:, :1]], axis=1)
        out2 = model.match_pair(xq, N.Tensor(dup), (0, 0))
        h = model.config.h_dim
        assert np.allclose(out1.data[:h], out2.data[:h], atol=1e-12)


class TestScore:
    def test_word_mode_ignores_encoder(self):
        big = tiny_model(seed=11, mode=ScoreMode.WORD, levels=2)
        small = tiny_model(seed=12, mode=ScoreMode.WORD, levels=0)
        small.embedding.matrix.data[...] = big.embedding.matrix.data
        for src, dst in zip(big.pair_nets[(0, 0)].parameters(),
                            small.pair_nets[(0, 0)].parameters()):
            dst.data[...] = src.data
        for src, dst in zip(big.agg1.parameters() + big.agg2.parameters(),
                            small.agg1.parameters() + small.agg2.parameters()):
            dst.data[...] = src.data
        q, a = [1, 2, 3, 4], [5, 6, 7]
        assert big.score(q, a).item() == pytest.approx(small.score(q, a).item(), abs=1e-12)

    def test_match_vector_counts(self):
        for mode, expected in [(ScoreMode.WORD, 1), (ScoreMode.MULTI, 5), (ScoreMode.FULL, 9)]:
            model = tiny_model(mode=mode, levels=2)
            assert len(model.pairs) == expected

    def test_full_score_gradcheck(self):
        cfg = ModelConfig(vocab_size=20, dim=8, levels=1, channels=6, h_dim=8, hidden=8,
                          mode=ScoreMode.MULTI, dropout=0.0)
        model = MatchingModel(cfg, np.random.default_rng(13))
        q = [1, 2, 3, 4, 5]
        a = [6, 7, 8, 9, 10, 11, 12]
        params = model.parameters()
        err = N.gradcheck(lambda: model.score(q, a), params, h=1e-5)
        assert err <= 1e-5

    def test_eval_determinism(self):
        model = tiny_model(seed=14)
        q, a = [1, 2, 3], [4, 5]
        s1 = model.score(q, a).item()
        s2 = model.score(q, a).item()
        assert s1 == s2

    def test_train_mode_determinism_under_seed(self):
        model = tiny_model(seed=15, dropout=0.3)
        q, a = [1, 2, 3], [4, 5]
        s1 = model.score(q, a, train=True, rng=np.random.default_rng(4)).item()
        s2 = model.score(q, a, train=True, rng=np.random.default_rng(4)).item()
        s3 = model.score(q, a, train=True, rng=np.random.default_rng(5)).item()
        assert s1 == s2
        assert s1 != s3

    def test_entry_points_agree_bit_for_bit(self):
        model = tiny_model(seed=21)
        q1, q2 = [1, 2, 3, 4], [5, 6]
        answers = [[7, 8, 9], [10], [11, 12, 13, 14, 15]]
        with N.no_grad():
            groups = model.score_groups([(q2, [[16, 17]]), (q1, answers), (q2, [])])
        batched = model.score_candidates(q1, answers)
        assert [g.shape for g in groups] == [(1,), (3,), (0,)]
        for i, a in enumerate(answers):
            single = model.score(q1, a)
            assert single.shape == ()
            assert single.item() == batched[i] == groups[1].data[i]

    def test_candidate_scores_are_float64_for_a_float32_model(self):
        model = tiny_model(seed=22, dtype="float32")
        scores = model.score_candidates([1, 2, 3], [[4, 5], [6]])
        assert scores.dtype == np.float64
        assert scores.tolist() == [model.score([1, 2, 3], a).item() for a in ([4, 5], [6])]


class TestInvariances:
    def test_word_mode_permutation_invariance(self):
        model = tiny_model(seed=16, mode=ScoreMode.WORD)
        rng = np.random.default_rng(0)
        q = [1, 2, 3, 4, 5, 6]
        a = [7, 8, 9, 10]
        base = model.score(q, a).item()
        for _ in range(5):
            qp = list(rng.permutation(q))
            ap = list(rng.permutation(a))
            assert abs(model.score(qp, ap).item() - base) <= 1e-10

    def test_multi_mode_word_pair_unchanged_by_answer_permutation(self):
        model = tiny_model(seed=17, mode=ScoreMode.MULTI)
        q = [1, 2, 3, 4]
        a = [5, 6, 7, 8, 9]
        ap = [9, 5, 8, 6, 7]
        hq1, ha1 = model.encode(q), model.encode(a)
        _, ha2 = model.encode(q), model.encode(ap)
        v1 = model.match_pair(hq1[0], ha1[0], (0, 0)).data
        v2 = model.match_pair(hq1[0], ha2[0], (0, 0)).data
        assert np.max(np.abs(v1 - v2)) <= 1e-10


class TestDiscriminatorProb:
    def test_zero_score_gives_half(self):
        model = tiny_model(seed=18)
        model.agg2.weight.data[...] = 0.0
        model.agg2.bias.data[...] = 0.0
        assert N.sigmoid(model.score([1, 2], [3])).item() == 0.5

    def test_monotone_in_score(self):
        model = tiny_model(seed=19)
        pairs = [([1, 2, 3], [4, 5]), ([6, 7], [8, 9, 10]), ([11], [12])]
        scores = [model.score(q, a).item() for q, a in pairs]
        probs = [N.sigmoid(model.score(q, a)).item() for q, a in pairs]
        assert np.argsort(scores).tolist() == np.argsort(probs).tolist()

    def test_log3_gives_three_quarters(self):
        model = tiny_model(seed=20)
        model.agg2.weight.data[...] = 0.0
        model.agg2.bias.data[...] = np.log(3.0)
        assert N.sigmoid(model.score([1, 2], [3])).item() == pytest.approx(0.75, abs=1e-12)


class TestCheckpoint:
    def _vocab(self):
        return Vocabulary([f"tok{i}" for i in range(29)])

    def test_round_trip_bit_exact(self, tmp_path):
        model = tiny_model(seed=21)
        # make running stats non-trivial
        model.encode_batch([[1, 2, 3, 4], [5, 6]], train=True)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(p1, model, seed=77, vocabulary=self._vocab())
        loaded, seed, vocab = load_checkpoint(p1)
        assert seed == 77
        assert vocab.tokens() == self._vocab().tokens()
        save_checkpoint(p2, loaded, seed=77, vocabulary=vocab)
        assert p1.read_bytes() == p2.read_bytes()

    def test_same_model_same_bytes(self, tmp_path):
        model = tiny_model(seed=22)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(p1, model, seed=1, vocabulary=self._vocab())
        save_checkpoint(p2, model, seed=1, vocabulary=self._vocab())
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_model_scores_identically(self, tmp_path):
        model = tiny_model(seed=23)
        model.encode_batch([[1, 2, 3]], train=True)
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, model, seed=0, vocabulary=self._vocab())
        loaded, _, _ = load_checkpoint(p)
        q, a = [1, 2, 3, 4], [5, 6]
        assert model.score(q, a).item() == loaded.score(q, a).item()

    def test_frozen_embeddings_round_trip(self, tmp_path):
        cfg = tiny_config()
        rng = np.random.default_rng(3)
        emb = rng.normal(size=(cfg.vocab_size, cfg.dim))
        model = MatchingModel(cfg, rng, embedding_matrix=emb)
        assert not model.embedding.trainable
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, model, seed=0, vocabulary=self._vocab())
        loaded, _, _ = load_checkpoint(p)
        assert not loaded.embedding.trainable
        assert np.array_equal(loaded.embedding.matrix.data, model.embedding.matrix.data)

    def test_float32_model_round_trip(self, tmp_path):
        model = tiny_model(seed=24, dtype="float32")
        score = model.score([1, 2, 3], [4, 5])
        assert score.dtype == np.float32
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, model, seed=0, vocabulary=self._vocab())
        loaded, _, _ = load_checkpoint(p)
        assert loaded.config.dtype == "float32"
        assert loaded.score([1, 2, 3], [4, 5]).item() == score.item()

    def test_layout_is_unchanged(self, tmp_path):
        # the header of a tiny MULTI model's checkpoint: names, shapes, order
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, tiny_model(seed=25), seed=0, vocabulary=self._vocab())
        header = json.loads(p.read_bytes()[len(CHECKPOINT_MAGIC):].split(b"\n", 1)[0])
        listed = [(a["name"], tuple(a["shape"])) for a in header["arrays"]]
        assert {a["dtype"] for a in header["arrays"]} == {"<f8"}
        expected = [("embedding.matrix", (30, 6))]
        for k, c_in in enumerate((6, 5)):
            expected += [(f"block{k}.conv.weight", (5, c_in, 3)), (f"block{k}.conv.bias", (5,)),
                         (f"block{k}.bn.gamma", (5,)), (f"block{k}.bn.beta", (5,))]
        for pair, width in (("0_0", 12), ("0_1", 11), ("0_2", 11), ("1_0", 11), ("2_0", 11)):
            expected += [(f"pair{pair}.fc1.weight", (width, 7)), (f"pair{pair}.fc1.bias", (7,)),
                         (f"pair{pair}.fc2.weight", (7, 4)), (f"pair{pair}.fc2.bias", (4,))]
        expected += [("agg.fc1.weight", (40, 7)), ("agg.fc1.bias", (7,)),
                     ("agg.fc2.weight", (7, 1)), ("agg.fc2.bias", (1,))]
        for k in range(2):
            expected += [(f"block{k}.bn.running_mean", (5,)), (f"block{k}.bn.running_var", (5,))]
        assert listed == expected


def _saved(tmp_path, model=None):
    model = model or tiny_model(seed=26)
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, model, seed=3, vocabulary=Vocabulary([f"tok{i}" for i in range(29)]))
    return p


def _rewrite(path, edit):
    """Rewrite a checkpoint after edit(header, arrays), arrays being
    [(name, bytes)] in file order."""
    raw = path.read_bytes()[len(CHECKPOINT_MAGIC):]
    line, body = raw.split(b"\n", 1)
    header = json.loads(line)
    arrays, offset = [], 0
    for spec in header["arrays"]:
        size = int(np.prod(spec["shape"])) * np.dtype(spec["dtype"]).itemsize
        arrays.append((spec["name"], body[offset:offset + size]))
        offset += size
    edit(header, arrays)
    header["arrays"] = [s for s in header["arrays"] if s["name"] in dict(arrays)]
    path.write_bytes(CHECKPOINT_MAGIC + json.dumps(header, sort_keys=True).encode()
                     + b"\n" + b"".join(b for _, b in arrays))


def _drop(name):
    def edit(header, arrays):
        arrays[:] = [(n, b) for n, b in arrays if n != name]
    return edit


class TestCheckpointErrors:
    def test_unedited_rewrite_loads(self, tmp_path):
        p = _saved(tmp_path)
        before = p.read_bytes()
        _rewrite(p, lambda header, arrays: None)
        assert p.read_bytes() == before
        load_checkpoint(p)

    @pytest.mark.parametrize("name", ["pair0_1.fc1.weight", "agg.fc2.bias",
                                      "block1.bn.running_var", "embedding.matrix"])
    def test_missing_array(self, tmp_path, name):
        p = _saved(tmp_path)
        _rewrite(p, _drop(name))
        with pytest.raises(ParseError, match=name):
            load_checkpoint(p)

    def test_extra_array(self, tmp_path):
        p = _saved(tmp_path)

        def edit(header, arrays):
            header["arrays"].append({"name": "extra", "dtype": "<f8", "shape": [2]})
            arrays.append(("extra", np.zeros(2).tobytes()))

        _rewrite(p, edit)
        with pytest.raises(ParseError, match="lists 38 arrays"):
            load_checkpoint(p)

    def test_reordered_arrays(self, tmp_path):
        p = _saved(tmp_path)

        def edit(header, arrays):
            header["arrays"][1], header["arrays"][2] = header["arrays"][2], header["arrays"][1]
            arrays[1], arrays[2] = arrays[2], arrays[1]

        _rewrite(p, edit)
        with pytest.raises(ParseError, match="block0.conv.bias"):
            load_checkpoint(p)

    def test_wrong_shape(self, tmp_path):
        p = _saved(tmp_path)

        def edit(header, arrays):
            header["arrays"][-1]["shape"] = [4]
            arrays[-1] = (arrays[-1][0], arrays[-1][1][:32])

        _rewrite(p, edit)
        with pytest.raises(ParseError, match="running_var"):
            load_checkpoint(p)

    @pytest.mark.parametrize("line", [b"{not json", b"\xff\xfe", b"[1, 2]", b"{}",
                                      b'{"config": {"vocab_size": 30, "bogus": 1}}'])
    def test_malformed_header(self, tmp_path, line):
        p = tmp_path / "m.ckpt"
        p.write_bytes(CHECKPOINT_MAGIC + line + b"\n")
        with pytest.raises(ParseError, match="malformed checkpoint header"):
            load_checkpoint(p)

    @pytest.mark.parametrize("field, value", [("levels", True), ("emb_trainable", 1),
                                              ("dropout", "0.0")])
    def test_wrongly_typed_config_field(self, tmp_path, field, value):
        p = _saved(tmp_path)
        _rewrite(p, lambda header, arrays: header["config"].update({field: value}))
        with pytest.raises(ParseError, match=f"malformed checkpoint header \\({field} must be"):
            load_checkpoint(p)

    def test_trailing_bytes(self, tmp_path):
        p = _saved(tmp_path)
        p.write_bytes(p.read_bytes() + b"\0")
        with pytest.raises(ParseError, match="after the last"):
            load_checkpoint(p)

    def test_truncated(self, tmp_path):
        p = _saved(tmp_path)
        p.write_bytes(p.read_bytes()[:-1])
        with pytest.raises(ParseError, match="truncated"):
            load_checkpoint(p)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_byte_flips_and_truncations_round_trip_or_fail(self, tmp_path_factory, data):
        # any damaged file either raises ParseError or loads into a model
        # that saves back to the same header values and array bytes
        p = _saved(tmp_path_factory.mktemp("ckpt"))
        raw = bytearray(p.read_bytes())
        if data.draw(st.booleans()):
            del raw[data.draw(st.integers(0, len(raw) - 1)):]
        else:
            raw[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
        p.write_bytes(bytes(raw))
        try:
            model, seed, vocab = load_checkpoint(p)
        except ParseError:
            return
        again = p.with_suffix(".again")
        save_checkpoint(again, model, seed=seed, vocabulary=vocab)
        header, body = bytes(raw)[len(CHECKPOINT_MAGIC):].split(b"\n", 1)
        header_again, body_again = again.read_bytes()[len(CHECKPOINT_MAGIC):].split(b"\n", 1)
        assert json.loads(header_again) == json.loads(header)
        assert body_again == body
