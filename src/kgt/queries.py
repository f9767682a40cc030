"""Query shapes, grounding, DNF decomposition, and query-set generation.

Nine first-order query shapes over a knowledge graph: projection chains
(1p/2p/3p), intersections (2i/3i), compositions (ip/pi), and unions (2u/up).
A query is a small Levi graph whose anchor slots carry concrete entities and
whose intermediate/target slots are free variables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ArityError, ParseError, SamplingExhausted
from .graph import EntityNode, KnowledgeGraph, LeviGraph, RelationNode, SplitDataset


class QueryType(Enum):
    P1 = "1p"
    P2 = "2p"
    P3 = "3p"
    I2 = "2i"
    I3 = "3i"
    IP = "ip"
    PI = "pi"
    U2 = "2u"
    UP = "up"

    @property
    def is_union(self) -> bool:
        return self in (QueryType.U2, QueryType.UP)

    @property
    def trainable(self) -> bool:
        return self in TRAINABLE_TYPES

    @property
    def anchor_count(self) -> int:
        return _TEMPLATES[self].anchor_count

    @property
    def relation_count(self) -> int:
        return _TEMPLATES[self].relation_count

    @property
    def intermediate_count(self) -> int:
        return _TEMPLATES[self].intermediate_count


TRAINABLE_TYPES = (QueryType.P1, QueryType.P2, QueryType.P3, QueryType.I2, QueryType.I3)
EVAL_ONLY_TYPES = (QueryType.IP, QueryType.PI, QueryType.U2, QueryType.UP)


class NodeRole(Enum):
    SOURCE = "source"
    INTERMEDIATE = "intermediate"
    TARGET = "target"
    RELATION = "relation"


@dataclass(frozen=True)
class _Template:
    """Slot layout of one query shape.

    Entity slots are numbered anchors first, then intermediates, target last.
    ``triples`` are (head_slot, relation_index, tail_slot) with relation_index
    pointing into the instance's relation tuple.
    """

    anchor_count: int
    relation_count: int
    intermediate_count: int
    triples: tuple[tuple[int, int, int], ...]


_TEMPLATES: dict[QueryType, _Template] = {
    QueryType.P1: _Template(1, 1, 0, ((0, 0, 1),)),
    QueryType.P2: _Template(1, 2, 1, ((0, 0, 1), (1, 1, 2))),
    QueryType.P3: _Template(1, 3, 2, ((0, 0, 1), (1, 1, 2), (2, 2, 3))),
    QueryType.I2: _Template(2, 2, 0, ((0, 0, 2), (1, 1, 2))),
    QueryType.I3: _Template(3, 3, 0, ((0, 0, 3), (1, 1, 3), (2, 2, 3))),
    QueryType.IP: _Template(2, 3, 1, ((0, 0, 2), (1, 1, 2), (2, 2, 3))),
    QueryType.PI: _Template(2, 3, 1, ((0, 0, 2), (2, 1, 3), (1, 2, 3))),
    QueryType.U2: _Template(2, 2, 0, ((0, 0, 2), (1, 1, 2))),
    QueryType.UP: _Template(2, 3, 1, ((0, 0, 2), (1, 1, 2), (2, 2, 3))),
}

FREE_SLOT = -1  # entity id placeholder for variable slots


@dataclass(frozen=True)
class QueryGraph:
    """One instantiated query: concrete anchors/relations over a shape template.

    ``levi`` lists entity slots in template order (anchors, intermediates,
    target) followed by one relation node per template triple; ``roles`` is
    aligned with ``levi.nodes``.
    """

    query_type: QueryType
    anchors: tuple[int, ...]
    relations: tuple[int, ...]
    levi: LeviGraph
    roles: tuple[NodeRole, ...]

    @property
    def target_index(self) -> int:
        tpl = _TEMPLATES[self.query_type]
        return tpl.anchor_count + tpl.intermediate_count

    @property
    def intermediate_indexes(self) -> tuple[int, ...]:
        tpl = _TEMPLATES[self.query_type]
        return tuple(range(tpl.anchor_count, tpl.anchor_count + tpl.intermediate_count))


def build_query(query_type: QueryType, anchors: Sequence[int], relations: Sequence[int]) -> QueryGraph:
    tpl = _TEMPLATES[query_type]
    anchors = tuple(int(a) for a in anchors)
    relations = tuple(int(r) for r in relations)
    if len(anchors) != tpl.anchor_count:
        raise ArityError(f"{query_type.value} takes {tpl.anchor_count} anchors, got {len(anchors)}")
    if len(relations) != tpl.relation_count:
        raise ArityError(f"{query_type.value} takes {tpl.relation_count} relations, got {len(relations)}")

    slot_count = tpl.anchor_count + tpl.intermediate_count + 1
    nodes: list = [
        EntityNode(anchors[i] if i < tpl.anchor_count else FREE_SLOT) for i in range(slot_count)
    ]
    roles = [NodeRole.SOURCE] * tpl.anchor_count
    roles += [NodeRole.INTERMEDIATE] * tpl.intermediate_count
    roles.append(NodeRole.TARGET)
    edges = []
    for head_slot, rel_index, tail_slot in tpl.triples:
        j = len(nodes)
        nodes.append(RelationNode(relations[rel_index]))
        roles.append(NodeRole.RELATION)
        edges.append((head_slot, j))
        edges.append((j, tail_slot))
    levi = LeviGraph(nodes=nodes, edges=edges, entity_node_count=slot_count)
    return QueryGraph(query_type, anchors, relations, levi, tuple(roles))


def dnf_decompose(query: QueryGraph) -> list[QueryGraph]:
    """Rewrite a query as a disjunction of conjunctive branches.

    Conjunctive queries are their own single branch. Branches are ordered by
    anchor order. The up shape pushes the union inward, yielding two 2p chains
    that share the final relation.
    """
    if query.query_type is QueryType.U2:
        r0, r1 = query.relations
        a0, a1 = query.anchors
        return [build_query(QueryType.P1, (a0,), (r0,)), build_query(QueryType.P1, (a1,), (r1,))]
    if query.query_type is QueryType.UP:
        r0, r1, r2 = query.relations
        a0, a1 = query.anchors
        return [build_query(QueryType.P2, (a0,), (r0, r2)), build_query(QueryType.P2, (a1,), (r1, r2))]
    return [query]


def _project(graph: KnowledgeGraph, sources: set[int], relation: int) -> set[int]:
    out = set()
    for e in sources:
        out |= graph.successors(e, relation)
    return out


def ground_answers(graph: KnowledgeGraph, query: QueryGraph) -> frozenset[int]:
    """Exact answer set of a query on a graph, by set chaining."""
    qt = query.query_type
    a = query.anchors
    r = query.relations
    if qt is QueryType.P1:
        return frozenset(graph.successors(a[0], r[0]))
    if qt is QueryType.P2:
        return frozenset(_project(graph, graph.successors(a[0], r[0]), r[1]))
    if qt is QueryType.P3:
        frontier = graph.successors(a[0], r[0])
        frontier = _project(graph, frontier, r[1])
        return frozenset(_project(graph, frontier, r[2]))
    if qt is QueryType.I2:
        return frozenset(graph.successors(a[0], r[0]) & graph.successors(a[1], r[1]))
    if qt is QueryType.I3:
        return frozenset(
            graph.successors(a[0], r[0]) & graph.successors(a[1], r[1]) & graph.successors(a[2], r[2])
        )
    if qt is QueryType.IP:
        middle = graph.successors(a[0], r[0]) & graph.successors(a[1], r[1])
        return frozenset(_project(graph, middle, r[2]))
    if qt is QueryType.PI:
        middle = graph.successors(a[0], r[0])
        return frozenset(_project(graph, middle, r[1]) & graph.successors(a[1], r[2]))
    # unions: answer set is the union over DNF branches
    answers: set[int] = set()
    for branch in dnf_decompose(query):
        answers |= ground_answers(graph, branch)
    return frozenset(answers)


@dataclass(frozen=True)
class QueryInstance:
    """A query plus its answer sets on each cumulative graph."""

    query: QueryGraph
    answers_train: frozenset[int]
    answers_valid: frozenset[int]
    answers_test: frozenset[int]

    def hard_answers(self, split: str) -> frozenset[int]:
        """Answers first entailed by the given split's graph."""
        if split == "train":
            return self.answers_train
        if split == "valid":
            return self.answers_valid - self.answers_train
        if split == "test":
            return self.answers_test - self.answers_valid
        raise ValueError(f"unknown split {split!r}")

    @property
    def filter_set(self) -> frozenset[int]:
        return self.answers_test | self.answers_valid | self.answers_train


def write_queries(path: str | Path, instances: Iterable[QueryInstance]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            record = {
                "type": inst.query.query_type.value,
                "anchors": list(inst.query.anchors),
                "relations": list(inst.query.relations),
                "answers_train": sorted(inst.answers_train),
                "answers_valid": sorted(inst.answers_valid),
                "answers_test": sorted(inst.answers_test),
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _int_list(record: dict, key: str) -> list[int]:
    values = record[key]
    if not isinstance(values, list) or not all(type(v) is int for v in values):
        raise ValueError(f"{key} must be a list of integers")
    return values


def read_queries(path: str | Path) -> list[QueryInstance]:
    instances = []
    by_value = {qt.value: qt for qt in QueryType}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(path, lineno, f"bad JSON: {exc}") from None
            if not isinstance(record, dict):
                raise ParseError(path, lineno, "record must be a JSON object")
            try:
                kind = record["type"]
                if not isinstance(kind, str) or kind not in by_value:
                    raise ValueError(f"unknown query type {kind!r}")
                query = build_query(by_value[kind], _int_list(record, "anchors"), _int_list(record, "relations"))
                instances.append(
                    QueryInstance(
                        query=query,
                        answers_train=frozenset(_int_list(record, "answers_train")),
                        answers_valid=frozenset(_int_list(record, "answers_valid")),
                        answers_test=frozenset(_int_list(record, "answers_test")),
                    )
                )
            except KeyError as exc:
                raise ParseError(path, lineno, f"missing field {exc}") from None
            except (ArityError, ValueError) as exc:
                raise ParseError(path, lineno, str(exc)) from None
    return instances


def _pick_in_edge(graph: KnowledgeGraph, node: int, rng: np.random.Generator) -> tuple[int, int] | None:
    """Uniform incoming (head, relation) of ``node``, or None if it has none."""
    heads, rels = graph.in_edges(node)
    if not len(heads):
        return None
    j = int(rng.integers(len(heads)))
    return int(heads[j]), int(rels[j])


def _instantiate(graph: KnowledgeGraph, qtype: QueryType, rng: np.random.Generator) -> QueryGraph | None:
    """Draw one query of the given shape backward from a random target.

    Returns None when the draw hits a dead end (no incoming edges, or not
    enough distinct anchors); callers retry.
    """
    n = graph.entity_count
    target = int(rng.integers(n))

    if qtype in (QueryType.P1, QueryType.P2, QueryType.P3):
        length = {QueryType.P1: 1, QueryType.P2: 2, QueryType.P3: 3}[qtype]
        rels: list[int] = []
        cur = target
        for _ in range(length):
            picked = _pick_in_edge(graph, cur, rng)
            if picked is None:
                return None
            cur, r = picked
            rels.append(r)
        return build_query(qtype, (cur,), tuple(reversed(rels)))

    if qtype in (QueryType.I2, QueryType.I3):
        width = 2 if qtype is QueryType.I2 else 3
        pairs = _distinct_in_edges(graph, target, width, rng)
        if pairs is None:
            return None
        anchors, rels = zip(*pairs)
        return build_query(qtype, anchors, rels)

    if qtype is QueryType.IP:
        picked = _pick_in_edge(graph, target, rng)
        if picked is None:
            return None
        middle, r2 = picked
        pairs = _distinct_in_edges(graph, middle, 2, rng)
        if pairs is None:
            return None
        (a0, r0), (a1, r1) = pairs
        return build_query(qtype, (a0, a1), (r0, r1, r2))

    if qtype is QueryType.PI:
        pairs = _distinct_in_edges(graph, target, 2, rng)
        if pairs is None:
            return None
        (middle, r1), (a1, r2) = pairs
        picked = _pick_in_edge(graph, middle, rng)
        if picked is None:
            return None
        a0, r0 = picked
        if a0 == a1:
            return None
        return build_query(qtype, (a0, a1), (r0, r1, r2))

    if qtype is QueryType.U2:
        first = _pick_in_edge(graph, target, rng)
        if first is None:
            return None
        a0, r0 = first
        other = int(rng.integers(n))
        second = _pick_in_edge(graph, other, rng)
        if second is None:
            return None
        a1, r1 = second
        if a1 == a0:
            return None
        return build_query(qtype, (a0, a1), (r0, r1))

    if qtype is QueryType.UP:
        picked = _pick_in_edge(graph, target, rng)
        if picked is None:
            return None
        m0, r2 = picked
        first = _pick_in_edge(graph, m0, rng)
        if first is None:
            return None
        a0, r0 = first
        other = int(rng.integers(n))
        second = _pick_in_edge(graph, other, rng)
        if second is None:
            return None
        a1, r1 = second
        if a1 == a0:
            return None
        return build_query(qtype, (a0, a1), (r0, r1, r2))

    raise ValueError(f"unknown query type {qtype}")


def _distinct_in_edges(
    graph: KnowledgeGraph, node: int, width: int, rng: np.random.Generator, least: int | None = None
) -> list[tuple[int, int]] | None:
    """Up to ``width`` incoming (head, relation) pairs with pairwise-distinct heads,
    first in a random order; None when fewer than ``least`` (default ``width``)."""
    least = width if least is None else least
    heads, rels = graph.in_edges(node)
    if len(heads) < least:
        return None
    order = rng.permutation(len(heads))
    picked: list[tuple[int, int]] = []
    seen: set[int] = set()
    for h, r in zip(heads[order].tolist(), rels[order].tolist()):
        if h in seen:
            continue
        seen.add(h)
        picked.append((h, r))
        if len(picked) == width:
            break
    return picked if len(picked) >= least else None


def generate_queries(
    split: SplitDataset,
    qtype: QueryType,
    count: int,
    rng: np.random.Generator,
    split_for: str = "train",
    max_answers: int = 100,
    max_attempts: int | None = None,
) -> list[QueryInstance]:
    """Sample ``count`` distinct queries whose ``split_for`` answers are usable.

    Queries are instantiated backward from the graph of the requested split, so
    a train query always has train answers and a valid/test query always has at
    least one hard answer. Queries whose full (test-graph) answer set exceeds
    ``max_answers`` are discarded; the cap bounds every stored answer list
    because the cumulative graphs make answer sets monotone.
    """
    if split_for not in ("train", "valid", "test"):
        raise ValueError(f"unknown split {split_for!r}")
    graph = {"train": split.train, "valid": split.valid, "test": split.test}[split_for]
    budget = max_attempts if max_attempts is not None else max(2000, count * 400)
    out: list[QueryInstance] = []
    seen: set[tuple] = set()
    for _ in range(budget):
        if len(out) == count:
            break
        query = _instantiate(graph, qtype, rng)
        if query is None:
            continue
        key = (query.query_type.value, query.anchors, query.relations)
        if key in seen:
            continue
        seen.add(key)
        inst = QueryInstance(
            query=query,
            answers_train=ground_answers(split.train, query),
            answers_valid=ground_answers(split.valid, query),
            answers_test=ground_answers(split.test, query),
        )
        if len(inst.answers_test) > max_answers:
            continue
        if not inst.hard_answers(split_for):
            continue
        out.append(inst)
    if len(out) < count:
        raise SamplingExhausted(
            f"generated {len(out)}/{count} {qtype.value} queries for split {split_for!r} "
            f"within {budget} attempts"
        )
    return out
