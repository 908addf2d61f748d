"""Output checks for the benchmark's workloads.

Each check is computed apart from the program, or follows from a property
the method must have for any seed and any number of epochs; none depends on
how well a short run learned. Every check returns a list of error messages,
empty when the outputs are correct.
"""

from __future__ import annotations

import math

import numpy as np

from cqarank import numerics as N

CUTOFF = 10
METRIC_TOL = 1e-12  # own MAP/MRR against `evaluate`
SUM_TOL = 1e-12  # sampling distributions sum to 1
SCORE_RTOL = 1e-9  # one-at-a-time against batched scoring, permuted candidates
# Directional finite difference against the analytic derivative. On long text
# millions of relu and max kinks lie near the parameters, and a step that
# crosses some of them moves the central difference by up to about 5e-4
# relative (seen on train-long after training); a flipped sign or a missing
# backward term moves it by far more than 1e-2.
GRAD_RTOL = 1e-2
FD_STEPS = (1e-6, 2e-7)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


# -- training ------------------------------------------------------------------


def check_finite(losses, models) -> list[str]:
    """Every recorded loss and every parameter is finite."""
    errors = [f"non-finite loss {v!r}" for v in losses if not math.isfinite(v)]
    for tag, model in models:
        for name, p in model.named_parameters():
            if not np.all(np.isfinite(p.data)):
                errors.append(f"{tag} parameter {name} is non-finite")
    return errors


def eligible_counts(threads) -> dict[str, int]:
    """Answers `build_pool` may draw for each thread: its own labeled
    negatives plus every candidate of every other thread."""
    total = sum(len(t.candidates) for t in threads)
    return {t.thread_id: total - len(t.candidates) + len(t.negatives) for t in threads}


def check_pools(records, threads) -> list[str]:
    """records: (thread, pool, pool_size) for every `build_pool` call. Each pool
    excludes its thread's positives, holds distinct answers and has size
    min(pool_size, eligible)."""
    eligible = eligible_counts(threads)
    errors = []
    for thread, pool, pool_size in records:
        own_pos = {c.answer_id for c in thread.positives}
        keys = [(a.thread_id, a.answer_id) for a in pool.answers]
        if any(tid == thread.thread_id and aid in own_pos for tid, aid in keys):
            errors.append(f"pool for {thread.thread_id!r} holds one of its own positives")
        if len(set(keys)) != len(keys):
            errors.append(f"pool for {thread.thread_id!r} repeats an answer")
        want = min(pool_size, eligible[thread.thread_id])
        if len(keys) != want:
            errors.append(f"pool for {thread.thread_id!r} has {len(keys)} answers, want {want}")
    return errors


def check_distributions(distributions) -> list[str]:
    """Each disc-phase sampling distribution is positive and sums to 1."""
    errors = []
    for p in distributions:
        p = np.asarray(p, dtype=float)
        if p.ndim != 1 or p.size == 0 or not np.all(p > 0):
            errors.append(f"sampling distribution is not positive: {p!r}")
        elif abs(p.sum() - 1.0) > SUM_TOL:
            errors.append(f"sampling distribution sums to {p.sum()!r}")
    return errors


def check_samples(samples) -> list[str]:
    """samples: (distribution, s, picked) for every `sample_negatives` call;
    picked holds s distinct in-range indices."""
    errors = []
    for p, s, picked in samples:
        n = len(p)
        if len(picked) != s or len(set(picked)) != len(picked):
            errors.append(f"sampled {picked!r}: want {s} distinct indices")
        if any(not 0 <= i < n for i in picked):
            errors.append(f"sampled {picked!r}: index outside a pool of {n}")
    return errors


def _agree(analytic: float, numeric: float) -> bool:
    return abs(analytic - numeric) <= GRAD_RTOL * max(abs(analytic), abs(numeric))


def directional_derivative(loss_fn, params, seed: int, steps=FD_STEPS):
    """(analytic, numeric) derivative of loss_fn() along a seeded random unit
    direction over `params`. numeric is the central difference at the first
    step in `steps` that agrees with analytic, else at the last one: a relu or
    max kink inside one step's interval spoils that step alone."""
    rng = np.random.default_rng(seed)
    # every parameter tensor gets an equal share of the step, so the large,
    # sparsely used embedding table does not swamp the derivative
    dirs = [rng.standard_normal(p.data.shape) for p in params]
    dirs = [d / (np.linalg.norm(d) * math.sqrt(len(dirs))) for d in dirs]
    for p in params:
        p.zero_grad()
    loss_fn().backward()
    analytic = sum(float((p.grad * d).sum()) for p, d in zip(params, dirs))
    saved = [p.data.copy() for p in params]

    def at(step):
        for p, s, d in zip(params, saved, dirs):
            p.data[...] = s + step * d
        try:
            with N.no_grad():
                return loss_fn().item()
        finally:
            for p, s in zip(params, saved):
                p.data[...] = s

    for h in steps:
        numeric = (at(h) - at(-h)) / (2.0 * h)
        if _agree(analytic, numeric):
            break
    return analytic, numeric


def check_gradient(name: str, analytic: float, numeric: float) -> list[str]:
    if not (math.isfinite(analytic) and math.isfinite(numeric)) \
            or max(abs(analytic), abs(numeric)) < 1e-9:
        return [f"{name}: directional derivative unusable ({analytic!r}, {numeric!r})"]
    if not _agree(analytic, numeric):
        return [f"{name}: analytic {analytic!r} against finite difference {numeric!r}"]
    return []


def check_checkpoint(original, loaded, pairs) -> list[str]:
    """A saved and reloaded model scores every (question, answer) pair
    bit-identically."""
    errors = []
    with N.no_grad():
        for q, a in pairs:
            before = original.score(q, a).item()
            after = loaded.score(q, a).item()
            if before != after:
                errors.append(f"reloaded checkpoint scores {after!r}, saved model {before!r}")
    return errors


# -- ranking ------------------------------------------------------------------


def ap_rr_at10(relevant_in_rank_order, total_relevant: int):
    """AP@10 normalized by min(R, 10) and 1/rank of the first relevant answer in
    the top 10 (0 if none there)."""
    hits, ap, rr = 0, 0.0, 0.0
    for k, rel in enumerate(relevant_in_rank_order[:CUTOFF], start=1):
        if rel:
            hits += 1
            ap += hits / k
            if rr == 0.0:
                rr = 1.0 / k
    return ap / min(total_relevant, CUTOFF), rr


def own_map_mrr(threads, scores: dict[str, dict[str, float]]):
    """MAP@10 and MRR@10 from per-answer scores, ranked by (-score, answer id)
    and judged by the corpus labels; threads without a relevant answer are
    left out of both means."""
    aps, rrs = [], []
    for t in threads:
        relevant = {c.answer_id: c.relevant for c in t.candidates}
        total = sum(relevant.values())
        if total == 0:
            continue
        by_answer = scores[t.thread_id]
        order = sorted(by_answer, key=lambda aid: (-by_answer[aid], aid))
        ap, rr = ap_rr_at10([relevant[aid] for aid in order], total)
        aps.append(ap)
        rrs.append(rr)
    return sum(aps) / len(aps), sum(rrs) / len(rrs)


def check_ranking(thread_id, candidate_ids, ranked) -> list[str]:
    """ranked: [(answer id, score)] in rank order. Scores never increase, ties
    go by answer id, and every candidate appears exactly once."""
    errors = []
    ids = [aid for aid, _ in ranked]
    if sorted(ids) != sorted(candidate_ids):
        errors.append(f"thread {thread_id!r}: ranked answers differ from its candidates")
    for (a1, s1), (a2, s2) in zip(ranked, ranked[1:]):
        if s2 > s1 or (s2 == s1 and a2 < a1):
            errors.append(f"thread {thread_id!r}: {a2!r} ({s2!r}) ranked after {a1!r} ({s1!r})")
            break
    return errors


def read_predictions(path) -> dict[str, list[tuple[str, float]]]:
    """thread id -> [(answer id, score)] in rank order, with the rank column
    checked to count 1, 2, ... per thread."""
    out: dict[str, list[tuple[str, float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            thread_id, answer_id, score, pos = line.rstrip("\n").split("\t")
            rows = out.setdefault(thread_id, [])
            if int(pos) != len(rows) + 1:
                raise ValueError(f"thread {thread_id!r}: rank {pos} out of sequence")
            rows.append((answer_id, float(score)))
    return out


def check_evaluation(threads, map10, mrr10, ranked_lists, predictions) -> list[str]:
    """`evaluate`'s ranked lists and the predictions file read back are ordered
    correctly, hold every candidate once, and give MAP@10/MRR@10 that agree
    with `evaluate` when recomputed from their scores."""
    errors = []
    by_id = {r.thread_id: r for r in ranked_lists}
    if set(by_id) != {t.thread_id for t in threads} or set(predictions) != set(by_id):
        return ["ranked threads differ from the evaluated threads"]
    sources = {
        "ranked list": {tid: [(e.answer_id, e.score) for e in r.entries]
                        for tid, r in by_id.items()},
        "predictions file": predictions,
    }
    for source, lists in sources.items():
        order_errors = [e for t in threads for e in
                        check_ranking(t.thread_id, [c.answer_id for c in t.candidates],
                                      lists[t.thread_id])]
        errors += [f"{source}: {e}" for e in order_errors]
        if order_errors:
            continue
        own_map, own_mrr = own_map_mrr(threads, {tid: dict(rows) for tid, rows in lists.items()})
        if abs(own_map - map10) > METRIC_TOL or abs(own_mrr - mrr10) > METRIC_TOL:
            errors.append(f"{source}: MAP/MRR {own_map!r}/{own_mrr!r} against "
                          f"evaluate's {map10!r}/{mrr10!r}")
    return errors


def check_single_vs_batch(model, threads, batch_scores, sample) -> list[str]:
    """sample: (thread index, candidate index) pairs. Scoring one candidate at a
    time agrees with the batched score of the same candidate."""
    errors = []
    with N.no_grad():
        for ti, ci in sample:
            t = threads[ti]
            c = t.candidates[ci]
            single = model.score(t.question_ids, c.token_ids).item()
            batched = batch_scores[t.thread_id][c.answer_id]
            if not _close(single, batched, SCORE_RTOL):
                errors.append(f"{t.thread_id}/{c.answer_id}: score {single!r}, "
                              f"batched {batched!r}")
    return errors


def check_permutation(model, thread, batch_scores, perm) -> list[str]:
    """Scoring a thread's candidates in permuted order leaves each answer's
    score unchanged."""
    cands = [thread.candidates[i] for i in perm]
    with N.no_grad():
        scores = model.score_candidates(thread.question_ids, [c.token_ids for c in cands])
    errors = []
    for c, s in zip(cands, scores):
        want = batch_scores[thread.thread_id][c.answer_id]
        if not _close(s.item(), want, SCORE_RTOL):
            errors.append(f"{thread.thread_id}/{c.answer_id}: permuted score {s.item()!r}, "
                          f"in order {want!r}")
    return errors
