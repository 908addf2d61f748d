"""Ranking and the top-10 MAP / MRR measures.

Threads without any relevant candidate are excluded from both averages.
AP@10 normalizes by min(R, 10) so a perfect top-10 page scores 1.0 even
when more than 10 relevant answers exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .data import QuestionThread
from .errors import DivergenceError, EvaluationError

CUTOFF = 10


@dataclass
class RankedEntry:
    answer_id: str
    score: float
    relevant: bool


@dataclass
class RankedList:
    thread_id: str
    entries: list[RankedEntry]  # sorted by descending score, then answer id


def rank(thread: QuestionThread, model) -> RankedList:
    """Score every candidate in eval mode and sort deterministically; a
    non-finite score raises DivergenceError, since no order holds for NaN."""
    scores = model.score_candidates(thread.question_ids, [c.token_ids for c in thread.candidates])
    entries = [
        RankedEntry(c.answer_id, s, c.relevant)
        for c, s in zip(thread.candidates, scores.tolist())
    ]
    for e in entries:
        if not math.isfinite(e.score):
            raise DivergenceError(
                f"non-finite score {e.score} for answer {e.answer_id!r} "
                f"in thread {thread.thread_id!r}")
    entries.sort(key=lambda e: (-e.score, e.answer_id))
    return RankedList(thread.thread_id, entries)


def average_precision_at10(ranked: RankedList):
    """AP over the top 10; None when the thread has no relevant candidate."""
    total_relevant = sum(e.relevant for e in ranked.entries)
    if total_relevant == 0:
        return None
    hits = 0
    ap = 0.0
    for k, entry in enumerate(ranked.entries[:CUTOFF], start=1):
        if entry.relevant:
            hits += 1
            ap += hits / k
    return ap / min(total_relevant, CUTOFF)


def reciprocal_rank_at10(ranked: RankedList):
    """1/rank of the first relevant inside the top 10; 0 if it falls outside;
    None when the thread has no relevant candidate at all."""
    if not any(e.relevant for e in ranked.entries):
        return None
    for k, entry in enumerate(ranked.entries[:CUTOFF], start=1):
        if entry.relevant:
            return 1.0 / k
    return 0.0


def map_at10(ranked_lists) -> float:
    values = [ap for ap in (average_precision_at10(r) for r in ranked_lists) if ap is not None]
    if not values:
        raise EvaluationError("no thread with a relevant candidate to evaluate")
    return sum(values) / len(values)


def mrr_at10(ranked_lists) -> float:
    values = [rr for rr in (reciprocal_rank_at10(r) for r in ranked_lists) if rr is not None]
    if not values:
        raise EvaluationError("no thread with a relevant candidate to evaluate")
    return sum(values) / len(values)


def evaluate(threads, model) -> tuple[float, float, list[RankedList]]:
    ranked = [rank(t, model) for t in threads]
    return map_at10(ranked), mrr_at10(ranked), ranked


def write_predictions(path, ranked_lists):
    """TSV: thread id, answer id, score, rank — enough to re-rank externally."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in ranked_lists:
            for pos, e in enumerate(r.entries, start=1):
                fh.write(f"{r.thread_id}\t{e.answer_id}\t{e.score!r}\t{pos}\n")


def read_predictions(path) -> dict[str, list[tuple[str, float]]]:
    """thread id -> [(answer id, score)] in file (rank) order."""
    out: dict[str, list[tuple[str, float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            thread_id, answer_id, score, _ = line.rstrip("\n").split("\t")
            out.setdefault(thread_id, []).append((answer_id, float(score)))
    return out
