"""Filtered-rank evaluation and query interpretation.

Ranks are optimistic under ties (an answer tied with k others ranks above all
of them) and filtered against every known answer from any split, so easy
answers never crowd out the one being scored. Union queries are scored per DNF
branch: each branch gets its own optimistic rank vector, the element-wise
minimum combines them, and the negated combined rank re-enters the standard
filtered-rank routine as a score. Branch probabilities are never averaged.

``evaluate`` scores each query shape in chunks of ``EVAL_CHUNK`` queries with
one forward per chunk. Queries of one shape flatten to Levi graphs of the same
width (so do the branches of union shapes), so a chunk's batch has no padding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import Model, encode_queries, forward
from .queries import QueryGraph, QueryInstance, QueryType, dnf_decompose


def filtered_rank(scores: np.ndarray, answer: int, filter_out: Iterable[int]) -> int:
    """1 + how many non-filtered entities strictly outscore the answer.

    ``filter_out`` entities (other known answers) never count against the
    answer; the answer itself is implicitly excluded.
    """
    scores = np.asarray(scores)
    allowed = np.ones(scores.shape[0], dtype=bool)
    filter_ids = np.fromiter(filter_out, dtype=np.int64) if not isinstance(filter_out, np.ndarray) else filter_out
    if filter_ids.size:
        allowed[filter_ids] = False
    allowed[answer] = False
    return 1 + int(np.count_nonzero(scores[allowed] > scores[answer]))


def optimistic_ranks(scores: np.ndarray) -> np.ndarray:
    """Unfiltered rank of every entity: 1 + count of strictly greater scores.

    One ascending argsort: the entities of a tied group all rank
    ``n - (index of the group's last member)``. NaN sorts last, and NaNs tie
    with one another.
    """
    scores = np.asarray(scores)
    n = scores.shape[0]
    order = np.argsort(scores)
    ordered = scores[order]
    last = np.ones(n, dtype=bool)  # last member of its tied group
    last[:-1] = ordered[1:] != ordered[:-1]
    if n and np.isnan(ordered[-1]):
        nan = np.isnan(ordered)
        last[:-1] &= ~(nan[1:] & nan[:-1])
    # each sorted slot takes the index of the first group end at or after it
    ends = np.flatnonzero(last)
    group_end = np.repeat(ends, np.diff(ends, prepend=-1))
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = n - group_end
    return ranks


def union_combine(branch_scores: Sequence[np.ndarray]) -> np.ndarray:
    """Element-wise minimum of per-branch optimistic ranks."""
    if not branch_scores:
        raise ValueError("no branches to combine")
    combined = optimistic_ranks(branch_scores[0])
    for scores in branch_scores[1:]:
        combined = np.minimum(combined, optimistic_ranks(scores))
    return combined


EVAL_CHUNK = 128  # queries per forward in evaluate


def score_chunk(model: Model, queries: Sequence[QueryGraph]) -> list[list[np.ndarray]]:
    """Entity score vectors for each DNF branch of each query, from one forward (eval mode).

    Every branch of every query goes into one batch; ``owner`` maps each
    branch row back to its query.
    """
    branches = [dnf_decompose(q) for q in queries]
    owner = np.repeat(np.arange(len(queries)), [len(b) for b in branches])
    batch = encode_queries([b for bs in branches for b in bs], model.config)
    logits = forward(model, batch, training=False).data
    return [list(logits[owner == i]) for i in range(len(queries))]


def score_query(model: Model, query: QueryGraph) -> list[np.ndarray]:
    """Entity score vectors for each DNF branch of one query (eval mode)."""
    return score_chunk(model, [query])[0]


def _ranking_scores(branch_scores: Sequence[np.ndarray]) -> np.ndarray:
    """One branch's scores as they are; the negated min-of-branch ranks for unions."""
    if len(branch_scores) == 1:
        return branch_scores[0]
    return -union_combine(branch_scores).astype(np.float64)


def hits_at_k(rank_lists: Sequence[Sequence[int]], k: int) -> float:
    """Macro average over queries of the per-query mean of rank <= k."""
    per_query = [float(np.mean([1.0 if r <= k else 0.0 for r in ranks])) for ranks in rank_lists]
    return float(np.mean(per_query))


def mean_reciprocal_rank(rank_lists: Sequence[Sequence[int]]) -> float:
    per_query = [float(np.mean([1.0 / r for r in ranks])) for ranks in rank_lists]
    return float(np.mean(per_query))


@dataclass
class MetricsTable:
    split: str
    ks: tuple[int, ...]
    rows: dict[str, dict[str, float]]  # query type value -> metric name -> value

    def to_dict(self) -> dict:
        return {"split": self.split, "ks": list(self.ks), "rows": self.rows}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        metric_names = [f"hits@{k}" for k in self.ks] + ["mrr", "queries"]
        types = [t for t in self.rows if t != "mean"] + (["mean"] if "mean" in self.rows else [])
        head = ["type"] + metric_names
        lines = [head]
        for t in types:
            row = self.rows[t]
            cells = [t]
            for m in metric_names:
                value = row.get(m, float("nan"))
                cells.append(f"{int(value)}" if m == "queries" else f"{value:.4f}")
            lines.append(cells)
        widths = [max(len(line[i]) for line in lines) for i in range(len(head))]
        rendered = []
        for line in lines:
            rendered.append("  ".join(cell.rjust(w) if i else cell.ljust(w) for i, (cell, w) in enumerate(zip(line, widths))))
        return "\n".join(rendered) + "\n"


def _with_mean(rows: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
    """Per-type rows sorted by type, then their macro mean (query counts summed)."""
    if not rows:
        return rows
    mean = {
        metric: float(sum(r[metric] for r in rows.values()))
        if metric == "queries"
        else float(np.mean([r[metric] for r in rows.values()]))
        for metric in next(iter(rows.values()))
    }
    return {**{k: rows[k] for k in sorted(rows)}, "mean": mean}


def evaluate(
    model: Model,
    datasets: dict[QueryType, list[QueryInstance]],
    split: str,
    ks: tuple[int, ...] = (1, 3, 10),
    rank_dump: list | None = None,
) -> MetricsTable:
    """Filtered Hits@k and MRR per query type plus their macro mean.

    ``split`` picks which hard answers are scored ("valid" or "test" for held
    out evaluation, "train" for overfit checks); the filter always removes
    every known answer across all splits. Queries without hard answers are
    neither scored nor counted.
    """
    if split not in ("train", "valid", "test"):
        raise ValueError(f"unknown split {split!r}")
    rows: dict[str, dict[str, float]] = {}
    for qtype in sorted(datasets.keys(), key=lambda t: t.value):
        kept = [(inst, sorted(inst.hard_answers(split))) for inst in datasets[qtype]]
        kept = [(inst, hard) for inst, hard in kept if hard]
        lists = []
        for start in range(0, len(kept), EVAL_CHUNK):
            chunk = kept[start : start + EVAL_CHUNK]
            scored = score_chunk(model, [inst.query for inst, _ in chunk])
            for (inst, hard), branch_scores in zip(chunk, scored):
                bad = next((s for s in branch_scores if not np.isfinite(s).all()), None)
                if bad is not None:
                    index = next(i for i, q in enumerate(datasets[qtype]) if q is inst)
                    raise FloatingPointError(f"{qtype.value} query {index}: non-finite scores of shape {bad.shape}")
                scores = _ranking_scores(branch_scores)
                filter_ids = np.asarray(sorted(inst.filter_set), dtype=np.int64)
                lists.append([filtered_rank(scores, answer, filter_ids) for answer in hard])
        if rank_dump is not None:
            for (inst, hard), ranks in zip(kept, lists):
                for answer, rank in zip(hard, ranks):
                    rank_dump.append({**inst.query.record(), "answer": int(answer), "rank": int(rank)})
        if not kept:
            continue
        row = {f"hits@{k}": hits_at_k(lists, k) for k in ks}
        row["mrr"] = mean_reciprocal_rank(lists)
        row["queries"] = float(len(lists))
        rows[qtype.value] = row
    return MetricsTable(split=split, ks=tuple(ks), rows=_with_mean(rows))


def merge_metrics(tables: Sequence[MetricsTable]) -> MetricsTable:
    """Combine per-type tables (same split and ks) and recompute the macro mean."""
    if not tables:
        raise ValueError("nothing to merge")
    split = tables[0].split
    ks = tables[0].ks
    rows: dict[str, dict[str, float]] = {}
    for table in tables:
        if table.split != split or table.ks != ks:
            raise ValueError("cannot merge metrics across splits or k lists")
        for qtype, row in table.rows.items():
            if qtype != "mean":
                rows[qtype] = row
    return MetricsTable(split=split, ks=ks, rows=_with_mean(rows))


def interpret(
    model: Model,
    query: QueryGraph,
    fill: int | None = None,
    top: int = 10,
) -> list[list[tuple[int, float]]]:
    """Top entity assignments for each intermediate node of a conjunctive query.

    With ``fill`` the target slot is clamped to a concrete entity, showing
    which intermediates the model considers consistent with that answer. Ties
    order by entity id.
    """
    if query.query_type.is_union:
        raise ValueError("interpret supports conjunctive queries only")
    if not query.intermediate_indexes:
        raise ValueError(f"{query.query_type.value} query has no intermediate nodes to interpret")
    if top < 1:
        raise ValueError("top must be at least 1")
    batch = encode_queries([query], model.config, predict="intermediates", fill=fill)
    logits = forward(model, batch, training=False).data
    out = []
    for i in range(logits.shape[0]):
        row = logits[i]
        # sort by score descending, then id ascending
        order = np.lexsort((np.arange(row.shape[0]), -row))[:top]
        out.append([(int(e), float(row[e])) for e in order])
    return out
