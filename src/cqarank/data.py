"""Corpus representation: loading, tokenization, embeddings, synthetic data.

The canonical on-disk format is JSONL, one question thread per line:

    {"thread_id": ..., "question": ..., "split": "train",
     "candidates": [{"answer_id": ..., "text": ..., "relevant": true}, ...]}

A SemEval Task 3 Subtask C XML importer adapts the competition format onto
the same structures.
"""

from __future__ import annotations

import json
import logging
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, CorpusError, ParseError

log = logging.getLogger(__name__)

UNK_ID = 0
MAX_TOKENS = 200  # truncate longer sentences to bound matching cost

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")

SPLITS = ("train", "dev", "test")


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, punctuation as standalone tokens."""
    return _TOKEN_RE.findall(text.lower())


class Vocabulary:
    """token -> id map; id 0 is the reserved unknown/padding token."""

    def __init__(self, tokens=()):
        self._token_to_id: dict[str, int] = {}
        self._id_to_token: list[str] = ["<unk>"]
        for t in tokens:
            self.add(t)

    def add(self, token: str) -> int:
        tid = self._token_to_id.get(token)
        if tid is None:
            tid = len(self._id_to_token)
            self._token_to_id[token] = tid
            self._id_to_token.append(token)
        return tid

    def lookup(self, token: str) -> int:
        return self._token_to_id.get(token, UNK_ID)

    def token(self, tid: int) -> str:
        return self._id_to_token[tid]

    def __len__(self):
        return len(self._id_to_token)

    def __contains__(self, token):
        return token in self._token_to_id

    def tokens(self) -> list[str]:
        """All tokens in id order, excluding the reserved id 0."""
        return self._id_to_token[1:]


@dataclass
class Candidate:
    answer_id: str
    text: str
    relevant: bool
    token_ids: list[int] = field(default_factory=list)


@dataclass
class QuestionThread:
    thread_id: str
    question_text: str
    candidates: list[Candidate]
    split: str = "train"
    question_ids: list[int] = field(default_factory=list)

    @property
    def positives(self) -> list[Candidate]:
        return [c for c in self.candidates if c.relevant]

    @property
    def negatives(self) -> list[Candidate]:
        return [c for c in self.candidates if not c.relevant]


@dataclass
class Corpus:
    threads: list[QuestionThread]
    vocabulary: Vocabulary

    def split(self, name: str) -> list[QuestionThread]:
        return [t for t in self.threads if t.split == name]

    def thread(self, thread_id: str) -> QuestionThread:
        for t in self.threads:
            if t.thread_id == thread_id:
                return t
        raise CorpusError(f"unknown thread id {thread_id!r}")

    def validate(self):
        """Check corpus invariants; raises CorpusError on violation."""
        seen_threads = set()
        seen_answers = set()
        v = len(self.vocabulary)
        for t in self.threads:
            if t.thread_id in seen_threads:
                raise CorpusError(f"duplicate thread id {t.thread_id!r}")
            seen_threads.add(t.thread_id)
            if t.split not in SPLITS:
                raise CorpusError(f"thread {t.thread_id!r} has unknown split {t.split!r}")
            if not t.question_ids:
                raise CorpusError(f"thread {t.thread_id!r} has an empty question")
            for tid in t.question_ids:
                if not 0 <= tid < v:
                    raise CorpusError(f"token id {tid} out of range in thread {t.thread_id!r}")
            for c in t.candidates:
                key = (t.thread_id, c.answer_id)
                if key in seen_answers:
                    raise CorpusError(
                        f"duplicate answer id {c.answer_id!r} in thread {t.thread_id!r}"
                    )
                seen_answers.add(key)
                if not c.token_ids:
                    raise CorpusError(f"answer {c.answer_id!r} has an empty text")
                for tid in c.token_ids:
                    if not 0 <= tid < v:
                        raise CorpusError(f"token id {tid} out of range in answer {c.answer_id!r}")


def _build_corpus(records) -> Corpus:
    """Tokenize record dicts into a Corpus; ids assigned in encounter order."""
    vocab = Vocabulary()
    threads = []

    def encode(text):
        tokens = tokenize(text)[:MAX_TOKENS]
        return [vocab.add(tok) for tok in tokens]

    for rec in records:
        q_ids = encode(rec["question"])
        if not q_ids:
            log.warning("dropping thread %r: question empty after tokenization",
                        rec["thread_id"])
            continue
        cands = []
        for c in rec["candidates"]:
            ids = encode(c["text"])
            if not ids:
                log.warning("dropping answer %r in thread %r: empty after tokenization",
                            c["answer_id"], rec["thread_id"])
                continue
            cands.append(Candidate(str(c["answer_id"]), c["text"], bool(c["relevant"]), ids))
        threads.append(QuestionThread(str(rec["thread_id"]), rec["question"], cands,
                                      rec.get("split", "train"), q_ids))
    corpus = Corpus(threads, vocab)
    corpus.validate()
    return corpus


_JSON_NAMES = {str: "string", bool: "boolean", list: "array"}
# the fields `_build_corpus` reads, with the JSON type each must have (None: any)
_RECORD_FIELDS = {"thread_id": None, "question": str, "candidates": list}
_CANDIDATE_FIELDS = {"answer_id": None, "text": str, "relevant": bool}


def _check_fields(obj, what: str, types: dict, lineno: int):
    if not isinstance(obj, dict):
        raise ParseError(f"{what} is not a JSON object", line=lineno)
    for key, typ in types.items():
        if key not in obj:
            raise ParseError(f"{what} missing field {key!r}", line=lineno)
        if typ is not None and not isinstance(obj[key], typ):
            raise ParseError(f"{what} field {key!r} must be a JSON {_JSON_NAMES[typ]}, "
                             f"got {obj[key]!r}", line=lineno)


def _check_record(rec, lineno: int):
    """ParseError unless the record's fields are present and of their JSON
    type: bool("false") is True, so a string label would load as relevant."""
    _check_fields(rec, "record", _RECORD_FIELDS, lineno)
    for c in rec["candidates"]:
        _check_fields(c, "candidate", _CANDIDATE_FIELDS, lineno)


def load_jsonl(path) -> Corpus:
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON ({exc.msg})", line=lineno) from exc
            _check_record(rec, lineno)
            records.append(rec)
    return _build_corpus(records)


def save_jsonl(corpus: Corpus, path):
    with open(path, "w", encoding="utf-8") as fh:
        for t in corpus.threads:
            rec = {
                "thread_id": t.thread_id,
                "question": t.question_text,
                "candidates": [
                    {"answer_id": c.answer_id, "text": c.text, "relevant": c.relevant}
                    for c in t.candidates
                ],
                "split": t.split,
            }
            fh.write(json.dumps(rec) + "\n")


def import_semeval_xml(path, split: str = "train") -> Corpus:
    """SemEval Task 3 Subtask C: one thread per original question, candidates
    are every comment of its related-question threads; only the "Good"
    relevance label maps to relevant."""
    try:
        tree = ET.parse(path)
    except ET.ParseError as exc:
        raise ParseError(f"malformed XML: {exc}") from exc
    by_org: dict[str, dict] = {}
    for org in tree.getroot().iter("OrgQuestion"):
        org_id = org.get("ORGQ_ID")
        if org_id is None:
            raise ParseError("OrgQuestion without ORGQ_ID attribute")
        subject = (org.findtext("OrgQSubject") or "").strip()
        body = (org.findtext("OrgQBody") or "").strip()
        entry = by_org.setdefault(org_id, {
            "thread_id": org_id,
            "question": (subject + " " + body).strip(),
            "candidates": [],
            "split": split,
        })
        for comment in org.iter("RelComment"):
            cid = comment.get("RELC_ID")
            relevance = comment.get("RELC_RELEVANCE2ORGQ")
            if relevance is None:
                raise ParseError(f"comment {cid!r} missing RELC_RELEVANCE2ORGQ attribute")
            entry["candidates"].append({
                "answer_id": cid,
                "text": (comment.findtext("RelCBody") or "").strip(),
                "relevant": relevance == "Good",
            })
    return _build_corpus(by_org.values())


def load_embeddings(path, vocabulary: Vocabulary, dim: int, seed: int = 0):
    """Read GloVe-style text vectors for in-vocabulary tokens.

    Returns (matrix, coverage): matrix is (V, dim) with file rows copied,
    missing tokens initialized uniform +-0.1 from the seed, and row 0 zero;
    coverage is the covered fraction of the vocabulary (id 0 excluded).
    """
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(-0.1, 0.1, size=(len(vocabulary), dim))
    matrix[UNK_ID] = 0.0
    covered = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split(" ")
            if len(parts) < 2 and not line.strip():
                continue
            token, values = parts[0], parts[1:]
            if len(values) != dim:
                raise ParseError(
                    f"expected {dim} values for token {token!r}, got {len(values)}",
                    line=lineno,
                )
            if token in vocabulary:
                try:
                    matrix[vocabulary.lookup(token)] = [float(v) for v in values]
                except ValueError as exc:
                    raise ParseError(f"non-numeric value for token {token!r}", line=lineno) from exc
                covered += 1
    denom = max(len(vocabulary) - 1, 1)
    return matrix, covered / denom


def synth_generate(num_threads: int, answers_per_thread: int, topics: int,
                   vocab_per_topic: int, seed: int, relevant_rate: float = 0.1,
                   length_range: tuple[int, int] = (5, 12),
                   split_sizes: tuple[int, int, int] | None = None) -> Corpus:
    """Planted-relevance synthetic corpus.

    Topics own disjoint token sets (token "t3w7" is word 7 of topic 3). A
    question draws from its topic; relevant answers draw from the partner
    topic (topic+1 mod T), so a positive shares no tokens with its question;
    irrelevant answers draw from some other topic. Deterministic per seed.
    """
    if topics < 2:
        raise ConfigError("need at least 2 topics for partner-topic relevance")
    if vocab_per_topic < 1:
        raise ConfigError("vocab_per_topic must be positive")
    if not 0.0 < relevant_rate < 1.0:
        raise ConfigError(f"relevant_rate must be in (0, 1), got {relevant_rate}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
    if split_sizes is None:
        n_test = max(num_threads // 10, 1) if num_threads > 2 else 0
        n_dev = n_test
        split_sizes = (num_threads - n_dev - n_test, n_dev, n_test)
    if sum(split_sizes) != num_threads:
        raise ConfigError(f"split sizes {split_sizes} do not sum to {num_threads}")

    def sentence(topic: int) -> str:
        length = int(rng.integers(length_range[0], length_range[1] + 1))
        words = rng.integers(0, vocab_per_topic, size=length)
        return " ".join(f"t{topic}w{w}" for w in words)

    records = []
    split_of = []
    for name, count in zip(SPLITS, split_sizes):
        split_of.extend([name] * count)
    for i in range(num_threads):
        topic = int(rng.integers(0, topics))
        partner = (topic + 1) % topics
        unrelated = [t for t in range(topics) if t not in (topic, partner)] or [topic]
        candidates = []
        for j in range(answers_per_thread):
            relevant = bool(rng.random() < relevant_rate)
            if relevant:
                text = sentence(partner)
            else:
                text = sentence(int(rng.choice(unrelated)))
            candidates.append({"answer_id": f"q{i:04d}_a{j:03d}", "text": text,
                               "relevant": relevant})
        records.append({
            "thread_id": f"q{i:04d}",
            "question": sentence(topic),
            "candidates": candidates,
            "split": split_of[i],
        })
    return _build_corpus(records)


def synth_topic_of(tokens: list[str]) -> int:
    """Majority topic of a synthetic sentence (tokens look like 't3w7')."""
    counts: dict[int, int] = {}
    for tok in tokens:
        m = re.fullmatch(r"t(\d+)w\d+", tok)
        if m:
            t = int(m.group(1))
            counts[t] = counts.get(t, 0) + 1
    if not counts:
        raise ValueError("not a synthetic sentence")
    return max(counts.items(), key=lambda kv: kv[1])[0]
