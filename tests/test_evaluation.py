import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgt.checkpoint import save_checkpoint
from kgt.cli import main
from kgt.evaluation import (
    MetricsTable,
    evaluate,
    filtered_rank,
    hits_at_k,
    interpret,
    mean_reciprocal_rank,
    merge_metrics,
    optimistic_ranks,
    score_query,
    union_combine,
)
import kgt.evaluation as ev
from kgt.model import Model, ModelConfig, encode_queries, forward
from kgt.queries import QueryType, build_query, generate_queries, write_queries

from helpers import toy_split


def rank_by_sort(scores: np.ndarray, answer: int, filter_out) -> int:
    """Oracle: drop filtered entities, sort descending, find the answer,
    counting the answer above every tied score."""
    drop = set(int(i) for i in filter_out)
    drop.discard(answer)
    kept = [(s, e) for e, s in enumerate(scores) if e not in drop]
    better = sum(1 for s, e in kept if s > scores[answer] and e != answer)
    return 1 + better


class TestFilteredRank:
    @given(st.integers(0, 100_000), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_sort_oracle(self, seed, quantize):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 60))
        scores = rng.normal(size=n)
        if quantize:
            scores = np.round(scores * 2) / 2  # force plenty of exact ties
        answer = int(rng.integers(n))
        k = int(rng.integers(0, n // 2 + 1))
        filter_out = rng.choice(n, size=k, replace=False)
        got = filtered_rank(scores, answer, filter_out)
        assert got == rank_by_sort(scores, answer, filter_out)

    def test_hand_example(self):
        scores = np.array([0.9, 0.5, 0.7, 0.3, 0.7])
        assert filtered_rank(scores, 1, []) == 4
        # filtering the two 0.7s lifts the answer past them
        assert filtered_rank(scores, 1, [2, 4]) == 2
        assert filtered_rank(scores, 0, []) == 1

    def test_ties_are_optimistic(self):
        scores = np.array([0.5, 0.5, 0.5])
        for e in range(3):
            assert filtered_rank(scores, e, []) == 1

    def test_answer_never_filters_itself(self):
        scores = np.array([0.1, 0.9])
        assert filtered_rank(scores, 1, [1]) == 1


class TestOptimisticRanks:
    @given(st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_matches_per_entity_count(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        scores = np.round(rng.normal(size=n) * 3) / 3
        ranks = optimistic_ranks(scores)
        for e in range(n):
            assert ranks[e] == 1 + int((scores > scores[e]).sum())

    def test_strictly_monotone_scores(self):
        ranks = optimistic_ranks(np.array([0.1, 0.4, 0.2, 0.9]))
        assert ranks.tolist() == [4, 2, 3, 1]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tie_heavy_scores_match_per_entity_count(self, dtype):
        inf = np.inf
        rng = np.random.default_rng(7)
        cases = [
            np.zeros(9),
            np.full(4, inf),
            np.array([inf, -inf, inf, 0.0, -inf, -0.0]),
            np.array([3.0]),
            rng.integers(0, 3, size=200).astype(np.float64),
            np.where(rng.random(300) < 0.5, inf, -inf),
        ]
        for scores in cases:
            scores = scores.astype(dtype)
            ranks = optimistic_ranks(scores)
            want = [1 + int((scores > s).sum()) for s in scores]
            assert ranks.dtype == np.int64 and ranks.tolist() == want

    def test_nan_sorts_last_and_ties_with_nan(self):
        ranks = optimistic_ranks(np.array([np.nan, 1.0, np.nan, 2.0, np.inf]))
        assert ranks.tolist() == [1, 5, 1, 4, 3]


class TestUnionCombine:
    def test_takes_elementwise_min(self):
        a = np.array([0.9, 0.1, 0.5])  # ranks [1, 3, 2]
        b = np.array([0.2, 0.8, 0.4])  # ranks [3, 1, 2]
        assert union_combine([a, b]).tolist() == [1, 1, 2]

    @given(st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_invariant_to_positive_rescaling(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        base = union_combine([a, b])
        scale_a = float(rng.uniform(0.1, 10.0))
        scale_b = float(rng.uniform(0.1, 10.0))
        shift_a = float(rng.normal())
        shift_b = float(rng.normal())
        rescaled = union_combine([a * scale_a + shift_a, b * scale_b + shift_b])
        assert np.array_equal(base, rescaled)

    def test_branches_are_not_averaged(self):
        # averaging scores would favor entity 1; min-rank favors entity 0,
        # which tops one branch outright
        a = np.array([10.0, 0.5, 0.0])
        b = np.array([-10.0, 0.6, 0.0])
        combined = union_combine([a, b])
        assert combined[0] == 1
        averaged = (a + b) / 2
        assert averaged.argmax() == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            union_combine([])


class TestAggregates:
    def test_hits_hand_example(self):
        # query 1: ranks 1 and 4 -> hits@3 = 0.5; query 2: rank 2 -> 1.0
        lists = [[1, 4], [2]]
        assert hits_at_k(lists, 3) == pytest.approx(0.75)
        assert hits_at_k(lists, 1) == pytest.approx(0.25)
        assert mean_reciprocal_rank(lists) == pytest.approx(((1 / 1 + 1 / 4) / 2 + 1 / 2) / 2)

    def test_per_query_then_macro(self):
        # many answers in one query must not outweigh a single-answer query
        lists = [[1] * 99 + [100], [100]]
        assert hits_at_k(lists, 1) == pytest.approx((0.99 + 0.0) / 2)


def tiny_model(split, seed=0):
    cfg = ModelConfig(
        entity_count=split.entity_count,
        relation_count=split.relation_count,
        layers=1,
        hidden=16,
        heads=2,
        experts=2,
        top_k=2,
        dropout=0.0,
    )
    return Model.init(cfg, seed=seed)


def sample_datasets(split, types, count, seed, split_for="valid"):
    rng = np.random.default_rng(seed)
    return {t: generate_queries(split, t, count, rng, split_for=split_for) for t in types}


class TestEvaluate:
    def test_table_shape_and_mean_row(self):
        split = toy_split(seed=20)
        model = tiny_model(split)
        data = sample_datasets(split, [QueryType.P1, QueryType.P2, QueryType.U2], 6, 1)
        table = evaluate(model, data, "valid")
        assert set(table.rows) == {"1p", "2p", "2u", "mean"}
        for row in table.rows.values():
            assert set(row) == {"hits@1", "hits@3", "hits@10", "mrr", "queries"}
            assert 0.0 <= row["mrr"] <= 1.0
            assert row["hits@1"] <= row["hits@3"] <= row["hits@10"]
        mean = table.rows["mean"]
        for metric in ("hits@1", "hits@3", "hits@10", "mrr"):
            want = np.mean([table.rows[t][metric] for t in ("1p", "2p", "2u")])
            assert mean[metric] == pytest.approx(want)
        assert mean["queries"] == sum(table.rows[t]["queries"] for t in ("1p", "2p", "2u"))

    def test_union_scoring_uses_min_rank(self):
        split = toy_split(seed=22)
        model = tiny_model(split)
        data = sample_datasets(split, [QueryType.U2], 5, 3)
        inst = data[QueryType.U2][0]
        branch_scores = score_query(model, inst.query)
        assert len(branch_scores) == 2
        combined = -union_combine(branch_scores).astype(np.float64)
        filter_ids = np.asarray(sorted(inst.filter_set), dtype=np.int64)
        hard = sorted(inst.hard_answers("valid"))
        want = [filtered_rank(combined, a, filter_ids) for a in hard]
        dump = []
        evaluate(model, {QueryType.U2: [inst]}, "valid", rank_dump=dump)
        assert [rec["rank"] for rec in dump] == want

    def test_rank_dump_records(self):
        # each hard answer with its rank among the entities that answer in no split
        split = toy_split(seed=23)
        model = tiny_model(split)
        data = sample_datasets(split, [QueryType.P2], 8, 4)  # two queries with two hard answers each
        dump = []
        evaluate(model, data, "valid", rank_dump=dump)
        want = []
        for inst in data[QueryType.P2]:
            (scores,) = score_query(model, inst.query)
            known = inst.answers_train | inst.answers_valid | inst.answers_test
            head = {"type": "2p", "anchors": list(inst.query.anchors), "relations": list(inst.query.relations)}
            want += [{**head, "answer": a, "rank": filtered_rank(scores, a, known)} for a in sorted(inst.hard_answers("valid"))]
        assert dump == want

    def test_train_split_supported(self):
        split = toy_split(seed=24)
        model = tiny_model(split)
        data = sample_datasets(split, [QueryType.P1], 4, 5, split_for="train")
        table = evaluate(model, data, "train")
        assert "1p" in table.rows
        with pytest.raises(ValueError):
            evaluate(model, data, "dev")

    def test_non_finite_scores_raise_naming_the_query(self):
        # an all-NaN decoder ties every entity, which would rank each answer first
        split = toy_split(seed=25)
        data = sample_datasets(split, [QueryType.P1], 10, 6)
        model = tiny_model(split)
        model.params["decoder"].data[:] = np.nan
        with pytest.raises(FloatingPointError, match=rf"1p query \d+: non-finite scores of shape \({split.entity_count},\)"):
            evaluate(model, data, "valid")

    def test_perfect_model_scores_perfectly(self):
        # oracle model: logits one-hot on the true answers via a rigged decoder
        split = toy_split(seed=25)
        data = sample_datasets(split, [QueryType.P1], 3, 6)

        class Rigged:
            config = tiny_model(split).config

        model = tiny_model(split)
        original = ev.score_chunk

        def oracle(model_arg, queries):
            from kgt.queries import ground_answers

            out = []
            for query in queries:
                scores = np.zeros(split.entity_count)
                for e in ground_answers(split.test, query):
                    scores[e] = 1.0
                out.append([scores])
            return out

        ev.score_chunk = oracle
        try:
            table = evaluate(model, data, "valid")
        finally:
            ev.score_chunk = original
        assert table.rows["1p"]["hits@1"] == pytest.approx(1.0)
        assert table.rows["1p"]["mrr"] == pytest.approx(1.0)


def chunk_model(split, hidden, seed=0):
    cfg = ModelConfig(
        entity_count=split.entity_count,
        relation_count=split.relation_count,
        layers=2,
        hidden=hidden,
        heads=2,
        experts=4,
        top_k=2,
        dropout=0.0,
    )
    return Model.init(cfg, seed=seed)


def all_shapes(split):
    """Every shape: valid queries, plus train queries that mostly lack hard valid answers."""
    valid = sample_datasets(split, list(QueryType), 5, 40)
    train = sample_datasets(split, list(QueryType), 3, 41, split_for="train")
    data = {t: valid[t] + train[t] for t in QueryType}
    assert any(not inst.hard_answers("valid") for insts in data.values() for inst in insts)
    return data


def dump_bytes(table, dump) -> bytes:
    lines = [json.dumps(row, sort_keys=True) for row in dump]
    return (table.to_json() + table.to_text() + "\n".join(lines)).encode()


class TestChunkedEvaluation:
    """Chunked ``evaluate`` against one forward per query (``EVAL_CHUNK`` 1, ``score_query``).

    Scores are bit-exact only while every product row is independent of the
    row count. With OpenBLAS 0.3.31 that holds at width 16 over 50 entities,
    but not at the toy pipeline's width 64, where the [M, 64] x [64, 50]
    decoder product takes a small-matrix kernel whose rows depend on M (and
    at fb15k sizes, 14,505 x 128, only M = 1 differs).
    """

    def test_toy_width_scores_within_bound(self):
        # measured at most 8 ulps of each row's largest magnitude (width 64, 4 layers, 3 seeds)
        split = toy_split(seed=41)
        model = chunk_model(split, hidden=64)
        data = all_shapes(split)
        for insts in data.values():
            scored = ev.score_chunk(model, [inst.query for inst in insts])
            for inst, branch_scores in zip(insts, scored):
                alone = score_query(model, inst.query)
                assert len(branch_scores) == len(alone)
                for got, exp in zip(branch_scores, alone):
                    bound = 64 * np.spacing(np.abs(exp).max())
                    assert np.abs(got.astype(np.float64) - exp).max() <= bound

    @pytest.mark.parametrize("chunk", [3, 128])
    def test_chunk_size_does_not_change_outputs(self, chunk, monkeypatch):
        # bit-exact at width 16: the table, the text and the rank dump
        split = toy_split(seed=42)
        model = chunk_model(split, hidden=16)
        data = all_shapes(split)
        outputs = []
        for size in (1, chunk):
            monkeypatch.setattr(ev, "EVAL_CHUNK", size)
            dump = []
            outputs.append(dump_bytes(evaluate(model, data, "valid", rank_dump=dump), dump))
        assert outputs[1] == outputs[0]

    def test_one_forward_per_chunk_per_shape(self, monkeypatch):
        split = toy_split(seed=43)
        model = chunk_model(split, hidden=16)
        data = all_shapes(split)
        calls = []

        def counting_forward(*args, **kwargs):
            calls.append(args[1].graph_count)
            return forward(*args, **kwargs)

        monkeypatch.setattr(ev, "EVAL_CHUNK", 3)
        monkeypatch.setattr(ev, "forward", counting_forward)
        evaluate(model, data, "valid")
        want = []
        for qtype in sorted(data, key=lambda t: t.value):
            kept = sum(1 for inst in data[qtype] if inst.hard_answers("valid"))
            branches = 2 if qtype.is_union else 1
            want += [min(3, kept - start) * branches for start in range(0, kept, 3)]
        assert calls == want

    def test_one_position_row_matches_two_position_batch(self):
        # numpy sends a one-row product to gemv, which rounds differently from gemm
        split = toy_split(seed=44)
        model = chunk_model(split, hidden=64)
        query = build_query(QueryType.P2, (3,), (0, 1))
        one = encode_queries([query], model.config)
        other = one.positions[0] - 1
        two = dataclasses.replace(one, positions=np.array([one.positions[0], other]), targets=np.zeros(2, dtype=np.int64))
        row = forward(model, one).data
        assert row.shape == (1, split.entity_count)
        assert np.array_equal(row[0], forward(model, two).data[0])


class TestMergeAndFormat:
    def make_table(self, qtype, hits):
        rows = {
            qtype: {"hits@1": hits, "hits@3": hits, "hits@10": hits, "mrr": hits, "queries": 2.0},
            "mean": {"hits@1": hits, "hits@3": hits, "hits@10": hits, "mrr": hits, "queries": 2.0},
        }
        return MetricsTable(split="valid", ks=(1, 3, 10), rows=rows)

    def test_merge_recomputes_mean(self):
        merged = merge_metrics([self.make_table("1p", 1.0), self.make_table("2p", 0.5)])
        assert merged.rows["mean"]["hits@1"] == pytest.approx(0.75)
        assert merged.rows["mean"]["queries"] == 4.0
        assert list(merged.rows) == ["1p", "2p", "mean"]

    def test_merge_rejects_mixed_splits(self):
        a = self.make_table("1p", 1.0)
        b = self.make_table("2p", 0.5)
        b.split = "test"
        with pytest.raises(ValueError):
            merge_metrics([a, b])
        with pytest.raises(ValueError):
            merge_metrics([])

    def test_text_rendering(self):
        text = self.make_table("1p", 0.5).to_text()
        lines = text.strip().splitlines()
        assert lines[0].split() == ["type", "hits@1", "hits@3", "hits@10", "mrr", "queries"]
        assert lines[1].split() == ["1p", "0.5000", "0.5000", "0.5000", "0.5000", "2"]
        assert lines[-1].startswith("mean")

    def test_json_round_trip(self):
        import json

        table = self.make_table("1p", 0.25)
        data = json.loads(table.to_json())
        assert data["split"] == "valid"
        assert data["ks"] == [1, 3, 10]
        assert data["rows"]["1p"]["mrr"] == 0.25


class TestInterpret:
    def test_rejects_unions_and_no_intermediates(self):
        split = toy_split(seed=26)
        model = tiny_model(split)
        with pytest.raises(ValueError):
            interpret(model, build_query(QueryType.U2, (0, 1), (0, 1)))
        with pytest.raises(ValueError):
            interpret(model, build_query(QueryType.P1, (0,), (0,)))
        with pytest.raises(ValueError):
            interpret(model, build_query(QueryType.P2, (0,), (0, 1)), top=0)

    def test_shapes_and_ordering(self):
        split = toy_split(seed=27)
        model = tiny_model(split)
        q = build_query(QueryType.P3, (2,), (0, 1, 2))
        out = interpret(model, q, top=5)
        assert len(out) == 2  # two intermediate slots
        for slot in out:
            assert len(slot) == 5
            scores = [s for _, s in slot]
            assert scores == sorted(scores, reverse=True)
            entities = [e for e, _ in slot]
            assert len(set(entities)) == 5

    def test_ties_order_by_entity_id(self):
        split = toy_split(seed=28)
        model = tiny_model(split)
        # zero decoder makes every logit identical: ids must come out ascending
        model.params["decoder"].data[:] = 0.0
        q = build_query(QueryType.P2, (1,), (0, 1))
        out = interpret(model, q, top=6)
        assert [e for e, _ in out[0]] == [0, 1, 2, 3, 4, 5]

    def test_fill_changes_intermediate_scores(self):
        split = toy_split(seed=29)
        # the target sits two Levi hops from the intermediate, so the filled
        # id needs two attention rounds to reach it
        cfg = ModelConfig(
            entity_count=split.entity_count,
            relation_count=split.relation_count,
            layers=2,
            hidden=16,
            heads=2,
            experts=2,
            top_k=2,
            dropout=0.0,
        )
        model = Model.init(cfg, seed=0)
        q = build_query(QueryType.P2, (1,), (0, 1))
        free = interpret(model, q, top=3)
        filled = interpret(model, q, fill=7, top=3)
        assert free != filled


class TestQueryRecord:
    def test_heads_query_file_rank_dump_and_interpret_lines(self, tmp_path, capsys):
        # one valid query of each shape; interpret reads only shapes with intermediate slots
        split = toy_split(seed=30)
        model = tiny_model(split)
        data = sample_datasets(split, list(QueryType), 1, 31)
        assert any(list(inst.query.relations) != sorted(inst.query.relations) for (inst,) in data.values())
        checkpoint = tmp_path / "model.kgtc"
        save_checkpoint(model, checkpoint)
        dump = []
        evaluate(model, data, "valid", rank_dump=dump)

        def head(line: dict) -> dict:
            return {key: line[key] for key in ("type", "anchors", "relations")}

        for qtype, (inst,) in data.items():
            query = inst.query
            record = query.record()
            assert record == {"type": qtype.value, "anchors": list(query.anchors), "relations": list(query.relations)}
            path = tmp_path / f"{qtype.value}.jsonl"
            write_queries(path, [inst])
            assert head(json.loads(path.read_text())) == record
            rows = [row for row in dump if row["type"] == qtype.value]
            assert len(rows) == len(inst.hard_answers("valid")) and all(head(row) == record for row in rows)
            if query.intermediate_indexes and not qtype.is_union:
                assert main(["--out", str(tmp_path), "interpret", "--query-file", str(path), "--checkpoint", str(checkpoint)]) == 0
                assert head(json.loads(capsys.readouterr().out)) == record
