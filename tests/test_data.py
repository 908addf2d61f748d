import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cqarank import data
from cqarank.errors import ConfigError, CorpusError, ParseError


class TestTokenize:
    def test_punctuation_split(self):
        assert data.tokenize("Does anyone know?") == ["does", "anyone", "know", "?"]

    def test_empty(self):
        assert data.tokenize("") == []

    @given(st.text(max_size=80))
    def test_idempotent_under_rejoin(self, text):
        once = data.tokenize(text)
        again = data.tokenize(" ".join(once))
        assert once == again


def write_jsonl(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def simple_records():
    return [{
        "thread_id": "t1",
        "question": "where can I buy coffee?",
        "candidates": [
            {"answer_id": "a1", "text": "At the corner shop.", "relevant": True},
            {"answer_id": "a2", "text": "I like cats", "relevant": False},
        ],
        "split": "train",
    }]


class TestJsonl:
    def test_basic_load(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, simple_records())
        corpus = data.load_jsonl(p)
        assert len(corpus.threads) == 1
        t = corpus.threads[0]
        assert len(t.candidates) == 2
        assert [c.relevant for c in t.candidates] == [True, False]
        assert t.question_ids[0] >= 1

    def test_round_trip_identity(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(p1, simple_records())
        corpus = data.load_jsonl(p1)
        data.save_jsonl(corpus, p2)
        again = data.load_jsonl(p2)
        assert [t.thread_id for t in again.threads] == [t.thread_id for t in corpus.threads]
        for ta, tb in zip(corpus.threads, again.threads):
            assert ta.question_ids == tb.question_ids
            assert ta.split == tb.split
            assert [(c.answer_id, c.text, c.relevant, c.token_ids) for c in ta.candidates] == \
                   [(c.answer_id, c.text, c.relevant, c.token_ids) for c in tb.candidates]

    def test_missing_relevant_field(self, tmp_path):
        rec = simple_records()
        del rec[0]["candidates"][0]["relevant"]
        p = tmp_path / "c.jsonl"
        write_jsonl(p, rec)
        with pytest.raises(ParseError, match="relevant"):
            data.load_jsonl(p)

    @pytest.mark.parametrize("where,key,value", [
        ("candidate", "relevant", "false"),
        ("candidate", "relevant", 0),
        ("candidate", "relevant", None),
        ("candidate", "text", None),
        ("candidate", "text", 7),
        ("record", "question", None),
        ("record", "question", ["where"]),
        ("record", "candidates", {"a1": "x"}),
    ])
    def test_field_of_wrong_type(self, tmp_path, where, key, value):
        good, bad = simple_records()[0], simple_records()[0]
        bad["thread_id"] = "t2"
        (bad["candidates"][1] if where == "candidate" else bad)[key] = value
        p = tmp_path / "c.jsonl"
        write_jsonl(p, [good, bad])
        with pytest.raises(ParseError, match=f"line 2: {where} field {key!r}"):
            data.load_jsonl(p)

    @settings(max_examples=60, deadline=None)
    @given(field=st.sampled_from(["question", "candidates", "text", "relevant"]),
           value=st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                           st.text(), st.lists(st.integers(), max_size=2),
                           st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)))
    def test_type_substitution_is_parse_error(self, tmp_path_factory, field, value):
        expected = {"question": str, "candidates": list, "text": str, "relevant": bool}[field]
        assume(not isinstance(value, expected))
        rec = simple_records()[0]
        (rec if field in ("question", "candidates") else rec["candidates"][0])[field] = value
        p = tmp_path_factory.mktemp("jsonl") / "c.jsonl"
        write_jsonl(p, [rec])
        with pytest.raises(ParseError, match="line 1"):
            data.load_jsonl(p)

    @pytest.mark.parametrize("line", ["[1, 2]", '{"thread_id": "t", "question": "q", '
                                      '"candidates": ["a1"]}'])
    def test_record_or_candidate_not_an_object(self, tmp_path, line):
        p = tmp_path / "c.jsonl"
        p.write_text(line + "\n")
        with pytest.raises(ParseError, match="line 1: .* not a JSON object"):
            data.load_jsonl(p)

    def test_malformed_line_number(self, tmp_path):
        p = tmp_path / "c.jsonl"
        with open(p, "w") as fh:
            fh.write(json.dumps(simple_records()[0]) + "\n")
            fh.write("{oops\n")
        with pytest.raises(ParseError, match="line 2"):
            data.load_jsonl(p)

    def test_duplicate_thread_ids(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl(p, simple_records() + simple_records())
        with pytest.raises(CorpusError, match="duplicate thread"):
            data.load_jsonl(p)

    def test_empty_candidate_dropped(self, tmp_path):
        rec = simple_records()
        rec[0]["candidates"].append({"answer_id": "a3", "text": "   ", "relevant": False})
        p = tmp_path / "c.jsonl"
        write_jsonl(p, rec)
        corpus = data.load_jsonl(p)
        assert len(corpus.threads[0].candidates) == 2


SEMEVAL_FIXTURE = """<?xml version="1.0"?>
<xml>
  <OrgQuestion ORGQ_ID="Q1">
    <OrgQSubject>dog kennel</OrgQSubject>
    <OrgQBody>Anyone know a dog kennel?</OrgQBody>
    <Thread THREAD_SEQUENCE="Q1_R1">
      <RelQuestion RELQ_ID="Q1_R1"><RelQSubject>pets</RelQSubject></RelQuestion>
      <RelComment RELC_ID="Q1_R1_C1" RELC_RELEVANCE2ORGQ="Good">
        <RelCBody>Pampered Pets boards dogs.</RelCBody>
      </RelComment>
      <RelComment RELC_ID="Q1_R1_C2" RELC_RELEVANCE2ORGQ="Bad">
        <RelCBody>I prefer cats honestly.</RelCBody>
      </RelComment>
    </Thread>
  </OrgQuestion>
  <OrgQuestion ORGQ_ID="Q1">
    <OrgQSubject>dog kennel</OrgQSubject>
    <OrgQBody>Anyone know a dog kennel?</OrgQBody>
    <Thread THREAD_SEQUENCE="Q1_R2">
      <RelQuestion RELQ_ID="Q1_R2"><RelQSubject>travel</RelQSubject></RelQuestion>
      <RelComment RELC_ID="Q1_R2_C1" RELC_RELEVANCE2ORGQ="PotentiallyUseful">
        <RelCBody>Hotels sometimes allow pets.</RelCBody>
      </RelComment>
      <RelComment RELC_ID="Q1_R2_C2" RELC_RELEVANCE2ORGQ="Good">
        <RelCBody>There is a boarding service near the airport.</RelCBody>
      </RelComment>
    </Thread>
  </OrgQuestion>
</xml>
"""


class TestSemevalImport:
    def test_threads_grouped_by_original_question(self, tmp_path):
        p = tmp_path / "sem.xml"
        p.write_text(SEMEVAL_FIXTURE)
        corpus = data.import_semeval_xml(p)
        assert len(corpus.threads) == 1
        assert len(corpus.threads[0].candidates) == 4

    def test_good_maps_to_relevant_hand_count(self, tmp_path):
        p = tmp_path / "sem.xml"
        p.write_text(SEMEVAL_FIXTURE)
        corpus = data.import_semeval_xml(p)
        labels = {c.answer_id: c.relevant for c in corpus.threads[0].candidates}
        assert labels == {"Q1_R1_C1": True, "Q1_R1_C2": False,
                          "Q1_R2_C1": False, "Q1_R2_C2": True}

    def test_all_bad_thread_retained(self, tmp_path):
        fixture = SEMEVAL_FIXTURE.replace('RELC_RELEVANCE2ORGQ="Good"',
                                          'RELC_RELEVANCE2ORGQ="Bad"')
        p = tmp_path / "sem.xml"
        p.write_text(fixture)
        corpus = data.import_semeval_xml(p)
        assert len(corpus.threads) == 1
        assert len(corpus.threads[0].positives) == 0

    def test_missing_relevance_attribute(self, tmp_path):
        fixture = SEMEVAL_FIXTURE.replace(' RELC_RELEVANCE2ORGQ="Good"', "", 1)
        p = tmp_path / "sem.xml"
        p.write_text(fixture)
        with pytest.raises(ParseError, match="Q1_R1_C1"):
            data.import_semeval_xml(p)


class TestEmbeddings:
    def _vocab(self):
        return data.Vocabulary(["alpha", "beta", "gamma"])

    def test_full_coverage(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("alpha 1 2\nbeta 3 4\ngamma 5 6\n")
        matrix, coverage = data.load_embeddings(p, self._vocab(), 2, seed=1)
        assert coverage == 1.0
        assert np.array_equal(matrix[1], [1.0, 2.0])

    def test_empty_file(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("")
        matrix, coverage = data.load_embeddings(p, self._vocab(), 2, seed=1)
        assert coverage == 0.0
        assert np.all(np.abs(matrix[1:]) <= 0.1)
        assert np.all(matrix[1:] != 0)

    def test_fixture_rows_exact(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("beta 0.25 -0.5 1.0\nunseen 1 1 1\n")
        vocab = self._vocab()
        matrix, coverage = data.load_embeddings(p, vocab, 3, seed=2)
        assert matrix[vocab.lookup("beta")].tolist() == [0.25, -0.5, 1.0]
        assert coverage == pytest.approx(1 / 3)

    def test_dimension_mismatch(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("alpha 1 2\nbeta 3\n")
        with pytest.raises(ParseError, match="line 2"):
            data.load_embeddings(p, self._vocab(), 2, seed=1)

    @pytest.mark.parametrize("row", ["nan 1", "1 inf", "-inf 2", "1e999 0"])
    def test_non_finite_value(self, tmp_path, row):
        p = tmp_path / "vec.txt"
        p.write_text(f"alpha 1 2\nbeta {row}\n")
        with pytest.raises(ParseError, match="line 2: non-finite value for token 'beta'"):
            data.load_embeddings(p, self._vocab(), 2, seed=1)


class TestSynth:
    def test_two_topic_degenerate_partner(self):
        corpus = data.synth_generate(6, 10, topics=2, vocab_per_topic=10, seed=3)
        for t in corpus.threads:
            q_topic = data.synth_topic_of([corpus.vocabulary.token(i) for i in t.question_ids])
            for c in t.positives:
                a_topic = data.synth_topic_of([corpus.vocabulary.token(i) for i in c.token_ids])
                assert a_topic == (q_topic + 1) % 2

    def test_positive_shares_no_tokens_with_question(self):
        corpus = data.synth_generate(20, 10, topics=5, vocab_per_topic=15, seed=4)
        for t in corpus.threads:
            q = set(t.question_ids)
            for c in t.positives:
                assert q.isdisjoint(c.token_ids)

    def test_relevant_fraction(self):
        corpus = data.synth_generate(40, 25, topics=5, vocab_per_topic=15, seed=5)
        n = sum(len(t.candidates) for t in corpus.threads)
        rel = sum(len(t.positives) for t in corpus.threads)
        assert n == 1000
        assert abs(rel / n - 0.10) <= 0.02

    def test_seed_reproducibility(self):
        a = data.synth_generate(8, 6, topics=3, vocab_per_topic=8, seed=9)
        b = data.synth_generate(8, 6, topics=3, vocab_per_topic=8, seed=9)
        c = data.synth_generate(8, 6, topics=3, vocab_per_topic=8, seed=10)
        texts = lambda corpus: [(t.question_text, [x.text for x in t.candidates])
                                for t in corpus.threads]
        assert texts(a) == texts(b)
        assert texts(a) != texts(c)

    def test_split_sizes(self):
        corpus = data.synth_generate(10, 4, topics=3, vocab_per_topic=6, seed=1,
                                     split_sizes=(7, 1, 2))
        counts = {s: len(corpus.split(s)) for s in ("train", "dev", "test")}
        assert counts == {"train": 7, "dev": 1, "test": 2}

    def test_too_few_topics(self):
        with pytest.raises(ConfigError):
            data.synth_generate(4, 4, topics=1, vocab_per_topic=5, seed=0)

    def test_loader_output_validates(self):
        corpus = data.synth_generate(12, 8, topics=4, vocab_per_topic=10, seed=2)
        corpus.validate()
