import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from cqarank import cli
from cqarank import data as D
from cqarank import evaluation as E
from cqarank.model import load_checkpoint


def run(*argv):
    return cli.main(list(argv))


def synth_corpus(path, threads=10, seed=9):
    rc = run("synth", "--out", str(path), "--threads", str(threads),
             "--answers-per-thread", "8", "--topics", "3", "--vocab-per-topic", "8",
             "--split-sizes", str(threads - 3), "1", "2", "--seed", str(seed))
    assert rc == 0
    return path


TINY_TRAIN = ["--dim", "6", "--levels", "1", "--channels", "4", "--h-dim", "4",
              "--hidden", "6", "--epochs", "2", "--batch-size", "4",
              "--pool-size", "5", "--neg-samples", "2", "--lr", "1e-3"]


class TestSynthCommand:
    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        synth_corpus(a, seed=3)
        synth_corpus(b, seed=3)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        synth_corpus(a, seed=3)
        synth_corpus(b, seed=4)
        assert a.read_bytes() != b.read_bytes()

    def test_thread_count(self, tmp_path):
        p = synth_corpus(tmp_path / "c.jsonl", threads=8)
        assert len(p.read_text().splitlines()) == 8


class TestTrainCommand:
    def test_epochs_zero_writes_initialized_checkpoints(self, tmp_path):
        corpus = synth_corpus(tmp_path / "c.jsonl")
        out = tmp_path / "run"
        rc = run("train", "--corpus", str(corpus), "--out", str(out),
                 "--seed", "1", *TINY_TRAIN[:-2], "--epochs", "0")
        assert rc == 0
        assert (out / "discriminator.ckpt").exists()
        assert (out / "generator.ckpt").exists()
        assert (out / "metrics.jsonl").read_text() == ""
        archived = json.loads((out / "config.json").read_text())
        assert archived["seed"] == 1

    def test_fixed_seed_reproducibility(self, tmp_path):
        corpus = synth_corpus(tmp_path / "c.jsonl")
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            rc = run("train", "--corpus", str(corpus), "--out", str(out),
                     "--seed", "9", *TINY_TRAIN)
            assert rc == 0
            outs.append(out)
        for fname in ("discriminator.ckpt", "generator.ckpt", "metrics.jsonl"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_metrics_log_schema(self, tmp_path):
        corpus = synth_corpus(tmp_path / "c.jsonl")
        out = tmp_path / "run"
        rc = run("train", "--corpus", str(corpus), "--out", str(out),
                 "--seed", "2", *TINY_TRAIN)
        assert rc == 0
        rows = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
        assert len(rows) == 2
        for row in rows:
            assert list(row) == ["epoch", "phase", "loss", "mean_reward", "baseline",
                                 "dev_map", "dev_mrr", "lr"]

    def test_config_file_with_cli_override(self, tmp_path):
        corpus = synth_corpus(tmp_path / "c.jsonl")
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "corpus": str(corpus), "out": str(tmp_path / "ignored"), "dim": 6,
            "levels": 1, "channels": 4, "h_dim": 4, "hidden": 6, "epochs": 0,
            "batch_size": 4, "pool_size": 5, "neg_samples": 2,
        }))
        out = tmp_path / "actual"
        rc = run("train", "--config", str(cfg_file), "--out", str(out), "--seed", "3")
        assert rc == 0
        assert (out / "discriminator.ckpt").exists()
        archived = json.loads((out / "config.json").read_text())
        assert archived["out"] == str(out)  # flag beats file
        assert archived["epochs"] == 0

    def test_unknown_config_key_rejected(self, tmp_path):
        corpus = synth_corpus(tmp_path / "c.jsonl")
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"corpus": str(corpus), "learning": 1}))
        assert run("train", "--config", str(cfg_file)) == 1

    def test_missing_corpus_is_data_error(self, tmp_path):
        assert run("train", "--corpus", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "o")) == 2

    def test_non_finite_embedding_is_data_error(self, tmp_path, capsys):
        corpus_path = synth_corpus(tmp_path / "c.jsonl")
        token = D.load_jsonl(corpus_path).vocabulary.tokens()[1]
        vec_path = tmp_path / "vectors.txt"
        vec_path.write_text(f"{token} nan inf 1 2 3 4\n")
        out = tmp_path / "run"
        capsys.readouterr()
        assert run("train", "--corpus", str(corpus_path), "--out", str(out),
                   "--embeddings", str(vec_path), *TINY_TRAIN) == 2
        assert capsys.readouterr().err == \
            f"error: line 1: non-finite value for token {token!r}\n"
        assert not out.exists()

    def test_pretrained_embeddings_are_frozen(self, tmp_path):
        corpus_path = synth_corpus(tmp_path / "c.jsonl")
        corpus = D.load_jsonl(corpus_path)
        vec_path = tmp_path / "vectors.txt"
        rng = np.random.default_rng(0)
        with open(vec_path, "w") as fh:
            for tok in corpus.vocabulary.tokens():
                vals = " ".join(f"{v:.4f}" for v in rng.normal(size=6))
                fh.write(f"{tok} {vals}\n")
        out = tmp_path / "run"
        rc = run("train", "--corpus", str(corpus_path), "--out", str(out),
                 "--embeddings", str(vec_path), "--seed", "1",
                 *TINY_TRAIN[:-2], "--epochs", "0")
        assert rc == 0
        model, _, _ = load_checkpoint(out / "discriminator.ckpt")
        assert not model.embedding.trainable
        row = model.embedding.matrix.data[1]
        assert np.all(np.abs(row) <= 4.0)  # came from the file, not the +-0.1 init


# every config-file key and the JSON type it takes; "mode" takes one of its names
CONFIG_KEYS = {
    "corpus": str, "out": str, "embeddings": str, "dim": int, "levels": int,
    "channels": int, "h_dim": int, "hidden": int, "mode": str, "dropout": float,
    "dtype": str, "epochs": int, "batch_size": int, "neg_samples": int, "pool_size": int,
    "lr": float, "lr_decay_every": int, "l2": float, "adversarial": bool,
    "dev_split": str, "seed": int,
}
TINY_CONFIG = {"dim": 6, "levels": 1, "channels": 4, "h_dim": 4, "hidden": 6, "epochs": 0,
               "batch_size": 4, "pool_size": 5, "neg_samples": 2}
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=6),
    st.lists(st.integers(0, 9), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 9), max_size=1),
)


def well_typed(key, value):
    kind = CONFIG_KEYS[key]
    if key == "embeddings" and value is None:
        return True
    if kind is float:
        return type(value) in (int, float)
    return type(value) is kind


WRONGLY_TYPED = st.sampled_from(sorted(CONFIG_KEYS)).flatmap(
    lambda key: st.tuples(st.just(key), JSON_VALUES.filter(lambda v: not well_typed(key, v))))


def train_with_config(tmp_path, capsys, text):
    """(exit code, stderr) of `cqarank train --config` on a file holding `text`."""
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(text)
    capsys.readouterr()
    rc = run("train", "--config", str(cfg_file))
    return rc, capsys.readouterr().err


class TestTrainConfigFile:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(WRONGLY_TYPED)
    @example(("adversarial", "off"))
    @example(("epochs", "2"))
    @example(("epochs", True))
    @example(("dim", 2.5))
    @example(("lr", "1e-3"))
    @example(("lr", float("nan")))
    @example(("pool_size", None))
    @example(("mode", "bogus"))
    @example(("out", None))
    def test_wrongly_typed_value_is_one_line_exit_1(self, tmp_path, capsys, case):
        key, value = case
        corpus = tmp_path / "c.jsonl"
        if not corpus.exists():
            synth_corpus(corpus)
        out = tmp_path / "out"
        config = {"corpus": str(corpus), "out": str(out), **TINY_CONFIG, key: value}
        rc, err = train_with_config(tmp_path, capsys, json.dumps(config))
        assert rc == 1, (case, err)
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_unknown_dev_split_is_one_line_exit_1(self, tmp_path, capsys):
        corpus = synth_corpus(tmp_path / "c.jsonl")
        out = tmp_path / "out"
        capsys.readouterr()
        assert run("train", "--corpus", str(corpus), "--out", str(out),
                   "--dev-split", "tset", *TINY_TRAIN) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dev_split") and err.count("\n") == 1, err
        assert not out.exists()
        config = {"corpus": str(corpus), "out": str(out), **TINY_CONFIG, "dev_split": "tset"}
        rc, err = train_with_config(tmp_path, capsys, json.dumps(config))
        assert rc == 1
        assert err.startswith("error: dev_split") and err.count("\n") == 1, err
        assert not out.exists()

    def test_empty_dev_split_trains_without_held_out_map(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        # the acceptance corpus's shape: no dev threads at all
        assert run("synth", "--out", str(corpus), "--threads", "8", "--answers-per-thread",
                   "6", "--topics", "3", "--vocab-per-topic", "8", "--split-sizes", "6",
                   "0", "2", "--seed", "4") == 0
        capsys.readouterr()
        assert run("train", "--corpus", str(corpus), "--out", str(tmp_path / "run"),
                   "--dev-split", "dev", *TINY_TRAIN) == 0
        lines = capsys.readouterr().out.splitlines()
        epochs = [line for line in lines if "dev_map=" in line]
        assert len(epochs) == 2 and all("dev_map=- " in line for line in epochs), lines

    @pytest.mark.parametrize("text", ["[1, 2]", "null", "{not json", '"corpus.jsonl"'])
    def test_not_an_object_is_one_line_exit_1(self, tmp_path, capsys, text):
        rc, err = train_with_config(tmp_path, capsys, text)
        assert rc == 1
        assert err.startswith("error: config file") and err.count("\n") == 1, err

    def test_earlier_config_format_still_trains(self, tmp_path, capsys):
        corpus = synth_corpus(tmp_path / "c.jsonl")
        out = tmp_path / "run"
        # the 19 keys that config.json held before lr_decay_every and dtype
        config = {"adversarial": True, "batch_size": 4, "channels": 4, "corpus": str(corpus),
                  "dev_split": "dev", "dim": 6, "dropout": 0.2, "embeddings": None,
                  "epochs": 2, "h_dim": 4, "hidden": 6, "l2": 1e-06, "levels": 1, "lr": 0.001,
                  "mode": "multi", "neg_samples": 2, "out": str(out), "pool_size": 5,
                  "seed": 9}
        rc, err = train_with_config(tmp_path, capsys, json.dumps(config))
        assert rc == 0, err
        archived = json.loads((out / "config.json").read_text())
        assert archived == {**config, "lr_decay_every": 10, "dtype": "float64"}

    def test_archived_config_reproduces_the_run(self, tmp_path):
        corpus = synth_corpus(tmp_path / "c.jsonl")
        first, second = tmp_path / "r1", tmp_path / "r2"
        assert run("train", "--corpus", str(corpus), "--out", str(first), "--seed", "9",
                   "--lr-decay-every", "1", "--adversarial", "on", *TINY_TRAIN) == 0
        assert run("train", "--config", str(first / "config.json"), "--out", str(second)) == 0
        for fname in ("discriminator.ckpt", "generator.ckpt", "metrics.jsonl"):
            assert (first / fname).read_bytes() == (second / fname).read_bytes()
        archived = [json.loads((d / "config.json").read_text()) for d in (first, second)]
        assert archived[0] == {**archived[1], "out": str(first)}
        assert [json.loads(r)["lr"] for r in
                (first / "metrics.jsonl").read_text().splitlines()] == [1e-3, 2e-4]

    def test_float32_run_is_reproducible(self, tmp_path):
        corpus = synth_corpus(tmp_path / "c.jsonl")
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            assert run("train", "--corpus", str(corpus), "--out", str(out), "--seed", "9",
                       "--dtype", "float32", *TINY_TRAIN) == 0
        for fname in ("discriminator.ckpt", "generator.ckpt", "metrics.jsonl"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
        model, _, _ = load_checkpoint(outs[0] / "discriminator.ckpt")
        assert {arr.dtype for _, arr in model.named_arrays()} == {np.dtype(np.float32)}


def perfect_fixture(path):
    """Single relevant candidate per thread: any scorer ranks it perfectly."""
    records = []
    for i in range(3):
        records.append({
            "thread_id": f"t{i}",
            "question": f"question words {i}",
            "candidates": [{"answer_id": "a0", "text": f"answer text {i}", "relevant": True}],
            "split": "test",
        })
    records.append({
        "thread_id": "train0",
        "question": "training question",
        "candidates": [
            {"answer_id": "a0", "text": "good answer", "relevant": True},
            {"answer_id": "a1", "text": "bad answer", "relevant": False},
        ],
        "split": "train",
    })
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return path


class TestEvalCommand:
    def _train_tiny(self, tmp_path, corpus):
        out = tmp_path / "run"
        rc = run("train", "--corpus", str(corpus), "--out", str(out),
                 "--seed", "4", *TINY_TRAIN[:-2], "--epochs", "0")
        assert rc == 0
        return out / "discriminator.ckpt"

    def test_perfect_fixture_gives_map_100(self, tmp_path, capsys):
        corpus = perfect_fixture(tmp_path / "c.jsonl")
        ckpt = self._train_tiny(tmp_path, corpus)
        rc = run("eval", "--corpus", str(corpus), "--checkpoint", str(ckpt),
                 "--split", "test", "--out", str(tmp_path / "eval"))
        assert rc == 0
        out = capsys.readouterr().out
        assert re.search(r"MAP@10: 100\b", out)
        assert re.search(r"MRR@10: 100\b", out)

    def test_predictions_recompute_to_printed_values(self, tmp_path, capsys):
        corpus_path = synth_corpus(tmp_path / "c.jsonl", threads=10, seed=9)
        ckpt = self._train_tiny(tmp_path, corpus_path)
        rc = run("eval", "--corpus", str(corpus_path), "--checkpoint", str(ckpt),
                 "--split", "test", "--out", str(tmp_path / "eval"))
        assert rc == 0
        out = capsys.readouterr().out
        printed_map = float(re.search(r"MAP@10: ([\d.eE+-]+)", out).group(1))
        printed_mrr = float(re.search(r"MRR@10: ([\d.eE+-]+)", out).group(1))
        corpus = D.load_jsonl(corpus_path)
        labels = {t.thread_id: {c.answer_id: c.relevant for c in t.candidates}
                  for t in corpus.threads}
        preds = E.read_predictions(tmp_path / "eval" / "predictions_test.tsv")
        lists = [
            E.RankedList(tid, [E.RankedEntry(a, s, labels[tid][a]) for a, s in entries])
            for tid, entries in preds.items()
        ]
        assert abs(E.map_at10(lists) * 100 - printed_map) <= 1e-9
        assert abs(E.mrr_at10(lists) * 100 - printed_mrr) <= 1e-9

    def test_dev_and_test_evaluated_independently(self, tmp_path, capsys):
        corpus = synth_corpus(tmp_path / "c.jsonl", threads=10, seed=9)
        ckpt = self._train_tiny(tmp_path, corpus)
        values = {}
        for split in ("dev", "test"):
            rc = run("eval", "--corpus", str(corpus), "--checkpoint", str(ckpt),
                     "--split", split, "--out", str(tmp_path / "eval"))
            assert rc == 0
            values[split] = capsys.readouterr().out
            assert (tmp_path / "eval" / f"predictions_{split}.tsv").exists()
        assert values["dev"] != values["test"]

    def test_missing_checkpoint_is_data_error(self, tmp_path):
        corpus = perfect_fixture(tmp_path / "c.jsonl")
        assert run("eval", "--corpus", str(corpus),
                   "--checkpoint", str(tmp_path / "nope.ckpt"),
                   "--out", str(tmp_path / "eval")) == 2

    def test_damaged_checkpoint_is_data_error(self, tmp_path, capsys):
        corpus = perfect_fixture(tmp_path / "c.jsonl")
        out = tmp_path / "run"
        assert run("train", "--corpus", str(corpus), "--out", str(out),
                   "--seed", "4", *TINY_TRAIN[:-2], "--epochs", "0") == 0
        ckpt = out / "discriminator.ckpt"
        ckpt.write_bytes(ckpt.read_bytes() + b"x")
        assert run("eval", "--corpus", str(corpus), "--checkpoint", str(ckpt),
                   "--out", str(tmp_path / "eval")) == 2
        assert "after the last checkpoint array" in capsys.readouterr().err


class TestRankCommand:
    def test_single_candidate_single_line(self, tmp_path, capsys):
        corpus = perfect_fixture(tmp_path / "c.jsonl")
        out = tmp_path / "run"
        run("train", "--corpus", str(corpus), "--out", str(out),
            "--seed", "4", *TINY_TRAIN[:-2], "--epochs", "0")
        capsys.readouterr()
        rc = run("rank", "--corpus", str(corpus),
                 "--checkpoint", str(out / "discriminator.ckpt"), "--thread", "t0")
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("1\ta0\t")

    def test_matches_prediction_file_order_and_repeats(self, tmp_path, capsys):
        corpus = synth_corpus(tmp_path / "c.jsonl", threads=10, seed=5)
        out = tmp_path / "run"
        run("train", "--corpus", str(corpus), "--out", str(out),
            "--seed", "4", *TINY_TRAIN[:-2], "--epochs", "0")
        ckpt = out / "discriminator.ckpt"
        loaded = D.load_jsonl(corpus)
        tid = loaded.split("test")[0].thread_id
        capsys.readouterr()
        rc = run("rank", "--corpus", str(corpus), "--checkpoint", str(ckpt),
                 "--thread", tid)
        assert rc == 0
        first = capsys.readouterr().out
        rc = run("rank", "--corpus", str(corpus), "--checkpoint", str(ckpt),
                 "--thread", tid)
        assert rc == 0
        assert capsys.readouterr().out == first
        run("eval", "--corpus", str(corpus), "--checkpoint", str(ckpt),
            "--split", "test", "--out", str(tmp_path / "eval"))
        capsys.readouterr()
        preds = E.read_predictions(tmp_path / "eval" / "predictions_test.tsv")
        ranked_ids = [line.split("\t")[1] for line in first.strip().splitlines()]
        assert ranked_ids == [a for a, _ in preds[tid]]

    def test_unknown_thread_is_data_error(self, tmp_path):
        corpus = perfect_fixture(tmp_path / "c.jsonl")
        out = tmp_path / "run"
        run("train", "--corpus", str(corpus), "--out", str(out),
            "--seed", "4", *TINY_TRAIN[:-2], "--epochs", "0")
        assert run("rank", "--corpus", str(corpus),
                   "--checkpoint", str(out / "discriminator.ckpt"),
                   "--thread", "missing") == 2


class TestGradcheckCommand:
    def test_all_primitives_pass_and_are_listed(self, capsys):
        assert run("gradcheck", "--seed", "0") == 0
        out = capsys.readouterr().out
        for name in ("matmul", "conv1d", "batchnorm1d(train)", "relu", "sigmoid",
                     "log_softmax", "maxpool1d", "reduce_mean", "reduce_max", "concat",
                     "embedding_lookup", "match_pair(train)", "score_multi_scale",
                     "discriminator_loss", "generator_surrogate"):
            assert name in out
        assert "FAIL" not in out

    def test_corrupted_backward_reported(self, capsys, monkeypatch):
        from cqarank.numerics import layers
        from cqarank.numerics.tensor import _make

        real = layers.conv1d

        def corrupted(x, w, b):
            out = real(x, w, b)
            real_backward = out._backward
            if real_backward is not None:
                out._backward = lambda g: tuple(
                    None if pg is None else pg * 1.01 for pg in real_backward(g)
                )
            return out

        monkeypatch.setattr(layers, "conv1d", corrupted)
        assert run("gradcheck", "--seed", "0") == 3
        out = capsys.readouterr().out
        assert "FAIL" in out


class TestExitCodes:
    def test_usage_error(self):
        assert run("train", "--bogus-flag") == 1

    def test_unknown_command(self):
        assert run("frobnicate") == 1
