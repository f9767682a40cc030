import json

import numpy as np
import pytest

from kgt.errors import ArityError, ParseError, SamplingExhausted
from kgt.graph import EntityNode, KnowledgeGraph
from kgt.queries import (
    EVAL_ONLY_TYPES,
    FREE_SLOT,
    TRAINABLE_TYPES,
    NodeRole,
    QueryInstance,
    QueryType,
    build_query,
    dnf_decompose,
    generate_queries,
    ground_answers,
    read_queries,
    write_queries,
)

from helpers import small_graph, toy_split


def brute_force_answers(g: KnowledgeGraph, qtype: QueryType, anchors, rels) -> set[int]:
    """Independent oracle: evaluate the first-order definition by quantifier scan."""
    has = g.has_triple
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
        assert set(EVAL_ONLY_TYPES) == {QueryType.IP, QueryType.PI, QueryType.U2, QueryType.UP}
        assert set(TRAINABLE_TYPES) | set(EVAL_ONLY_TYPES) == set(QueryType)

    def test_arity_mismatch_raises(self):
        with pytest.raises(ArityError):
            build_query(QueryType.P2, (0, 1), (2, 3))
        with pytest.raises(ArityError):
            build_query(QueryType.I3, (0, 1, 2), (0, 1))

    def test_2p_graph_layout(self):
        q = build_query(QueryType.P2, (4,), (1, 2))
        assert q.levi.entity_node_count == 3
        assert q.levi.node_count == 5
        assert q.roles == (
            NodeRole.SOURCE,
            NodeRole.INTERMEDIATE,
            NodeRole.TARGET,
            NodeRole.RELATION,
            NodeRole.RELATION,
        )
        assert q.levi.nodes[0] == EntityNode(4)
        assert q.levi.nodes[1].entity == FREE_SLOT
        assert q.target_index == 2
        assert q.intermediate_indexes == (1,)
        assert q.levi.edges == [(0, 3), (3, 1), (1, 4), (4, 2)]

    def test_pi_wiring(self):
        q = build_query(QueryType.PI, (7, 8), (0, 1, 2))
        # a0 -r0-> M, M -r1-> T, a1 -r2-> T
        assert q.levi.edges == [(0, 4), (4, 2), (2, 5), (5, 3), (1, 6), (6, 3)]
        assert [n.relation for n in q.levi.nodes[4:]] == [0, 1, 2]


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
        ],
        ids=["null_anchor", "list_record", "arity", "string_answer"],
    )
    def test_malformed_record_reports_line(self, tmp_path, record):
        good = '{"type": "1p", "anchors": [0], "relations": [0], "answers_train": [], "answers_valid": [], "answers_test": []}'
        path = tmp_path / "q.jsonl"
        path.write_text(good + "\n" + record + "\n")
        with pytest.raises(ParseError) as excinfo:
            read_queries(path)
        assert (excinfo.value.path, excinfo.value.line) == (str(path), 2)

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
        for qtype in (QueryType.I2, QueryType.I3, QueryType.IP, QueryType.PI, QueryType.U2):
            for inst in generate_queries(split, qtype, 10, rng, split_for="train"):
                anchors = inst.query.anchors
                assert len(set(anchors)) == len(anchors)

    def test_answer_cap_respected(self):
        split = toy_split(seed=9)
        rng = np.random.default_rng(4)
        instances = generate_queries(split, QueryType.P2, 10, rng, split_for="train", max_answers=5)
        for inst in instances:
            assert len(inst.answers_test) <= 5

    def test_exhaustion_raises(self):
        # a graph with a single edge cannot yield 50 distinct 1p queries
        split = toy_split(seed=10)
        tiny = KnowledgeGraph(3, 1, [(0, 0, 1)])
        from kgt.graph import SplitDataset

        degenerate = SplitDataset(train=tiny, valid=tiny, test=tiny)
        rng = np.random.default_rng(5)
        with pytest.raises(SamplingExhausted):
            generate_queries(degenerate, QueryType.P1, 50, rng, split_for="train", max_attempts=500)
