import json
import re
from pathlib import Path

import numpy as np
import pytest

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
                     "softmax", "maxpool1d", "reduce_mean", "reduce_max", "concat",
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
