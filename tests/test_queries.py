import functools
import json

import numpy as np
import pytest

from kgt.errors import ArityError, ParseError, SamplingExhausted
from kgt.graph import KnowledgeGraph
from kgt.queries import (
    FREE_SLOT,
    TRAINABLE_TYPES,
    QueryInstance,
    QueryType,
    build_query,
    dnf_decompose,
    generate_queries,
    ground_answers,
    read_queries,
    walk_back,
    write_queries,
)

from helpers import has_triple, small_graph, toy_split


def brute_force_answers(g: KnowledgeGraph, qtype: QueryType, anchors, rels) -> set[int]:
    """Independent oracle: evaluate the first-order definition by quantifier scan."""
    has = functools.partial(has_triple, g)
    V = range(g.entity_count)
    if qtype is QueryType.P1:
        return {x for x in V if has(anchors[0], rels[0], x)}
    if qtype is QueryType.P2:
        return {x for x in V if any(has(anchors[0], rels[0], m) and has(m, rels[1], x) for m in V)}
    if qtype is QueryType.P3:
        return {
            x
            for x in V
            if any(
                has(anchors[0], rels[0], m1) and has(m1, rels[1], m2) and has(m2, rels[2], x)
                for m1 in V
                for m2 in V
            )
        }
    if qtype is QueryType.I2:
        return {x for x in V if has(anchors[0], rels[0], x) and has(anchors[1], rels[1], x)}
    if qtype is QueryType.I3:
        return {
            x
            for x in V
            if has(anchors[0], rels[0], x) and has(anchors[1], rels[1], x) and has(anchors[2], rels[2], x)
        }
    if qtype is QueryType.IP:
        return {
            x
            for x in V
            if any(
                has(anchors[0], rels[0], m) and has(anchors[1], rels[1], m) and has(m, rels[2], x)
                for m in V
            )
        }
    if qtype is QueryType.PI:
        return {
            x
            for x in V
            if any(has(anchors[0], rels[0], m) and has(m, rels[1], x) for m in V)
            and has(anchors[1], rels[2], x)
        }
    if qtype is QueryType.U2:
        return {x for x in V if has(anchors[0], rels[0], x) or has(anchors[1], rels[1], x)}
    if qtype is QueryType.UP:
        return {
            x
            for x in V
            if any(
                (has(anchors[0], rels[0], m) or has(anchors[1], rels[1], m)) and has(m, rels[2], x)
                for m in V
            )
        }
    raise AssertionError(qtype)


class TestQueryShapes:
    def test_arities(self):
        expected = {
            "1p": (1, 1),
            "2p": (1, 2),
            "3p": (1, 3),
            "2i": (2, 2),
            "3i": (3, 3),
            "ip": (2, 3),
            "pi": (2, 3),
            "2u": (2, 2),
            "up": (2, 3),
        }
        for qtype in QueryType:
            assert (qtype.anchor_count, qtype.relation_count) == expected[qtype.value]

    def test_trainable_partition(self):
        assert set(TRAINABLE_TYPES) == {QueryType.P1, QueryType.P2, QueryType.P3, QueryType.I2, QueryType.I3}
        assert set(QueryType) - set(TRAINABLE_TYPES) == {QueryType.IP, QueryType.PI, QueryType.U2, QueryType.UP}

    def test_arity_mismatch_raises(self):
        with pytest.raises(ArityError):
            build_query(QueryType.P2, (0, 1), (2, 3))
        with pytest.raises(ArityError):
            build_query(QueryType.I3, (0, 1, 2), (0, 1))

    def test_2p_graph_layout(self):
        q = build_query(QueryType.P2, (4,), (1, 2))
        assert q.levi.entity_node_count == 3
        assert q.levi.node_count == 5
        assert q.levi.entities.tolist() == [4, FREE_SLOT, FREE_SLOT]
        assert q.target_index == 2
        assert q.intermediate_indexes == (1,)
        # node 0 -> relation node 3 -> node 1 -> relation node 4 -> node 2
        assert q.levi.triples.tolist() == [[0, 1, 1], [1, 2, 2]]

    def test_pi_wiring(self):
        q = build_query(QueryType.PI, (7, 8), (0, 1, 2))
        # a0 -r0-> M, M -r1-> T, a1 -r2-> T
        assert q.levi.triples.tolist() == [[0, 0, 2], [2, 1, 3], [1, 2, 3]]

    def test_equal_queries_compare_and_hash_equal(self):
        a = build_query(QueryType.P2, (5,), (1, 2))
        b = build_query(QueryType.P2, (5,), (1, 2))
        assert a.levi is not b.levi
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != build_query(QueryType.P2, (5,), (1, 3))
        answers = (frozenset({1}), frozenset({1, 2}), frozenset({1, 2, 3}))
        assert QueryInstance(a, *answers) == QueryInstance(b, *answers)
        assert hash(QueryInstance(a, *answers)) == hash(QueryInstance(b, *answers))


class TestGrounding:
    @pytest.mark.parametrize("qtype", list(QueryType), ids=lambda t: t.value)
    def test_matches_quantifier_oracle(self, qtype):
        g = small_graph(seed=11, entities=10, relations=3, total=35)
        rng = np.random.default_rng(17)
        for _ in range(25):
            anchors = tuple(int(rng.integers(g.entity_count)) for _ in range(qtype.anchor_count))
            rels = tuple(int(rng.integers(g.relation_count)) for _ in range(qtype.relation_count))
            q = build_query(qtype, anchors, rels)
            assert ground_answers(g, q) == brute_force_answers(g, qtype, anchors, rels), (anchors, rels)

    def test_monotone_under_graph_growth(self):
        split = toy_split(seed=2)
        rng = np.random.default_rng(3)
        for qtype in QueryType:
            for _ in range(10):
                anchors = tuple(int(rng.integers(split.entity_count)) for _ in range(qtype.anchor_count))
                rels = tuple(int(rng.integers(split.relation_count)) for _ in range(qtype.relation_count))
                q = build_query(qtype, anchors, rels)
                a_train = ground_answers(split.train, q)
                a_valid = ground_answers(split.valid, q)
                a_test = ground_answers(split.test, q)
                assert a_train <= a_valid <= a_test


class TestDnf:
    def test_conjunctive_is_single_branch(self):
        q = build_query(QueryType.I2, (0, 1), (0, 1))
        assert dnf_decompose(q) == [q]

    def test_2u_branches(self):
        q = build_query(QueryType.U2, (3, 4), (0, 1))
        branches = dnf_decompose(q)
        assert [b.query_type for b in branches] == [QueryType.P1, QueryType.P1]
        assert branches[0].anchors == (3,) and branches[0].relations == (0,)
        assert branches[1].anchors == (4,) and branches[1].relations == (1,)

    def test_up_branches_share_final_relation(self):
        q = build_query(QueryType.UP, (3, 4), (0, 1, 2))
        branches = dnf_decompose(q)
        assert [b.query_type for b in branches] == [QueryType.P2, QueryType.P2]
        assert branches[0].relations == (0, 2)
        assert branches[1].relations == (1, 2)

    def test_union_answers_equal_branch_union(self):
        g = small_graph(seed=21, entities=12, relations=3, total=40)
        rng = np.random.default_rng(5)
        for qtype in (QueryType.U2, QueryType.UP):
            for _ in range(20):
                anchors = tuple(int(rng.integers(g.entity_count)) for _ in range(2))
                rels = tuple(int(rng.integers(g.relation_count)) for _ in range(qtype.relation_count))
                q = build_query(qtype, anchors, rels)
                union = set()
                for branch in dnf_decompose(q):
                    union |= ground_answers(g, branch)
                assert ground_answers(g, q) == union


class TestQueryIO:
    def test_round_trip(self, tmp_path):
        split = toy_split(seed=4)
        rng = np.random.default_rng(0)
        instances = generate_queries(split, QueryType.P2, 20, rng, split_for="valid")
        path = tmp_path / "q.jsonl"
        write_queries(path, instances)
        loaded = read_queries(path)
        assert loaded == instances

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text('{"type": "1p", "anchors": [0], "relations": [0], "answers_train": [], "answers_valid": [], "answers_test": []}\nnot json\n')
        with pytest.raises(ParseError) as excinfo:
            read_queries(path)
        assert excinfo.value.line == 2

    def test_non_utf8_reports_line(self, tmp_path):
        good = b'{"type": "1p", "anchors": [0], "relations": [0], "answers_train": [], "answers_valid": [], "answers_test": []}'
        path = tmp_path / "q.jsonl"
        path.write_bytes(good + b"\r\n\r\n" + good.replace(b"1p", b"1p\xff") + b"\r\n")
        with pytest.raises(ParseError) as excinfo:
            read_queries(path)
        assert (excinfo.value.path, excinfo.value.line) == (str(path), 3)

    def test_missing_field_reports_line(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text('{"type": "1p", "anchors": [0]}\n')
        with pytest.raises(ParseError):
            read_queries(path)

    @pytest.mark.parametrize(
        "record",
        [
            '{"type": "1p", "anchors": [null], "relations": [0], "answers_train": [], "answers_valid": [], "answers_test": []}',
            '["1p", [0], [0]]',
            '{"type": "1p", "anchors": [0, 1], "relations": [0], "answers_train": [], "answers_valid": [], "answers_test": []}',
            '{"type": "1p", "anchors": [0], "relations": [0], "answers_train": ["x"], "answers_valid": [], "answers_test": []}',
            '{"type": "1p", "anchors": [99999999999999999999], "relations": [0], "answers_train": [], "answers_valid": [], '
            '"answers_test": []}',
        ],
        ids=["null_anchor", "list_record", "arity", "string_answer", "anchor_past_int64"],
    )
    def test_malformed_record_reports_line(self, tmp_path, record):
        good = '{"type": "1p", "anchors": [0], "relations": [0], "answers_train": [], "answers_valid": [], "answers_test": []}'
        path = tmp_path / "q.jsonl"
        path.write_text(good + "\n" + record + "\n")
        with pytest.raises(ParseError) as excinfo:
            read_queries(path)
        assert (excinfo.value.path, excinfo.value.line) == (str(path), 2)

    @pytest.mark.parametrize(
        "record",
        [
            '{"type": "1p", "anchors": [50], "relations": [0], "answers_train": [], "answers_valid": [], "answers_test": []}',
            '{"type": "1p", "anchors": [20], "relations": [0], "answers_train": [], "answers_valid": [], "answers_test": []}',
            '{"type": "1p", "anchors": [0], "relations": [-1], "answers_train": [], "answers_valid": [], "answers_test": []}',
            '{"type": "1p", "anchors": [0], "relations": [0], "answers_train": [], "answers_valid": [-2], "answers_test": []}',
        ],
        ids=["anchor_past_vocabulary", "anchor_is_mask_id", "negative_relation", "negative_answer"],
    )
    def test_out_of_range_id_reports_line(self, tmp_path, record):
        good = '{"type": "1p", "anchors": [19], "relations": [2], "answers_train": [0], "answers_valid": [], "answers_test": []}'
        path = tmp_path / "q.jsonl"
        path.write_text(good + "\n" + record + "\n")
        with pytest.raises(ParseError) as excinfo:
            read_queries(path, entity_count=20, relation_count=3)
        assert (excinfo.value.path, excinfo.value.line) == (str(path), 2)

    def test_ids_unbounded_without_vocabulary(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text('{"type": "1p", "anchors": [50], "relations": [7], "answers_train": [90], "answers_valid": [], "answers_test": []}\n')
        assert read_queries(path)[0].query.anchors == (50,)

    def test_answers_stored_sorted(self, tmp_path):
        q = build_query(QueryType.P1, (0,), (0,))
        inst = QueryInstance(q, frozenset({5, 1}), frozenset({5, 1, 3}), frozenset({5, 1, 3}))
        path = tmp_path / "q.jsonl"
        write_queries(path, [inst])
        record = json.loads(path.read_text().splitlines()[0])
        assert record["answers_train"] == [1, 5]
        assert record["answers_valid"] == [1, 3, 5]


class TestGeneration:
    @pytest.mark.parametrize("qtype", list(QueryType), ids=lambda t: t.value)
    def test_train_queries_have_train_answers(self, qtype):
        split = toy_split(seed=6)
        rng = np.random.default_rng(1)
        instances = generate_queries(split, qtype, 15, rng, split_for="train")
        assert len(instances) == 15
        keys = {(i.query.query_type, i.query.anchors, i.query.relations) for i in instances}
        assert len(keys) == 15  # deduplicated
        for inst in instances:
            assert inst.answers_train
            assert inst.answers_train <= inst.answers_valid <= inst.answers_test
            assert inst.answers_train == ground_answers(split.train, inst.query)

    @pytest.mark.parametrize("split_for", ["valid", "test"])
    def test_eval_queries_have_hard_answers(self, split_for):
        split = toy_split(seed=7)
        rng = np.random.default_rng(2)
        for qtype in (QueryType.P1, QueryType.I2, QueryType.U2, QueryType.UP):
            instances = generate_queries(split, qtype, 10, rng, split_for=split_for)
            for inst in instances:
                assert inst.hard_answers(split_for)

    def test_multi_anchor_queries_use_distinct_anchors(self):
        split = toy_split(seed=8)
        rng = np.random.default_rng(3)
        for qtype in (QueryType.I2, QueryType.I3, QueryType.IP, QueryType.PI, QueryType.U2, QueryType.UP):
            for inst in generate_queries(split, qtype, 10, rng, split_for="train"):
                anchors = inst.query.anchors
                assert len(set(anchors)) == len(anchors)
        # every triple starts at entity 0, so every walk that gets through draws anchor 0 twice
        hub = KnowledgeGraph(4, 2, [(0, r, t) for r in range(2) for t in range(4)])
        for qtype in (QueryType.PI, QueryType.U2, QueryType.UP):
            assert all(walk_back(hub, qtype, rng) is None for _ in range(50)), qtype

    def test_intersections_skip_repeated_heads(self):
        # each entity t has in-edges from t+1 by two relations, from t+2 and from t+3: three distinct
        # in-neighbors, so no 2i or 3i walk dead-ends, and each anchor is an in-neighbor of the target
        n = 6
        g = KnowledgeGraph(n, 2, [((t + d) % n, r, t) for t in range(n) for d, r in ((1, 0), (1, 1), (2, 0), (3, 0))])
        rng = np.random.default_rng(5)
        for qtype in (QueryType.I2, QueryType.I3):
            for _ in range(50):
                walked = walk_back(g, qtype, rng)
                assert walked is not None, qtype
                slots, relations = walked
                assert all(slots[-1] in g.successors(a, r) for a, r in zip(slots[:-1], relations))

    def test_union_second_branch_starts_anywhere(self):
        # a union's first in-edge ends at the target; its second comes from a random entity, so its
        # successors may miss the target, which distinct in-neighbors of the target never do
        g = toy_split(seed=8).train
        rng = np.random.default_rng(4)
        misses = 0
        for _ in range(200):
            walked = walk_back(g, QueryType.U2, rng)
            if walked is None:
                continue
            (a0, a1, target), (r0, r1) = walked
            assert target in g.successors(a0, r0)
            misses += target not in g.successors(a1, r1)
        assert misses

    def test_answer_cap_respected(self):
        split = toy_split(seed=9)
        rng = np.random.default_rng(4)
        instances = generate_queries(split, QueryType.P2, 10, rng, split_for="train", max_answers=5)
        for inst in instances:
            assert len(inst.answers_test) <= 5

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            generate_queries(toy_split(seed=1), QueryType.P1, -1, np.random.default_rng(0))

    def test_exhaustion_raises(self):
        # a graph with a single edge cannot yield 50 distinct 1p queries
        split = toy_split(seed=10)
        tiny = KnowledgeGraph(3, 1, [(0, 0, 1)])
        from kgt.graph import SplitDataset

        degenerate = SplitDataset(train=tiny, valid=tiny, test=tiny)
        rng = np.random.default_rng(5)
        with pytest.raises(SamplingExhausted):
            generate_queries(degenerate, QueryType.P1, 50, rng, split_for="train")
