"""Query shapes, grounding, DNF decomposition, and query-set generation.

Nine first-order query shapes over a knowledge graph: projection chains
(1p/2p/3p), intersections (2i/3i), compositions (ip/pi), and unions (2u/up).
A query is a small Levi graph whose anchor slots carry concrete entities and
whose intermediate/target slots are free variables.

Each shape is one row of ``_TEMPLATES`` (its slots and triples), and the code
reads that row rather than naming shapes: ``template_levi`` builds the Levi
graph, ``walk_back`` draws slot entities backward from a random target, and
``ground_answers`` chains answer sets forward along the triples.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ArityError, ParseError, SamplingExhausted
from .graph import KnowledgeGraph, LeviGraph, SplitDataset, read_lines, write_jsonl


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
        return _TEMPLATES[self].union

    @property
    def anchor_count(self) -> int:
        return _TEMPLATES[self].anchor_count

    @property
    def relation_count(self) -> int:
        return _TEMPLATES[self].relation_count


TRAINABLE_TYPES = (QueryType.P1, QueryType.P2, QueryType.P3, QueryType.I2, QueryType.I3)


@dataclass(frozen=True)
class _Template:
    """Slot layout of one query shape.

    Entity slots are numbered anchors first, then intermediates, target last.
    ``triples`` are (head_slot, relation_index, tail_slot) with relation_index
    pointing into the instance's relation tuple. A slot with several in-edges
    is their intersection, or their union when ``union`` is set.
    """

    anchor_count: int
    relation_count: int
    intermediate_count: int
    triples: tuple[tuple[int, int, int], ...]
    union: bool = False

    @property
    def slot_count(self) -> int:
        return self.anchor_count + self.intermediate_count + 1

    @cached_property
    def in_edges(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """(head_slot, relation_index) pairs into each non-anchor slot, in triple order."""
        return tuple(
            tuple((head, rel) for head, rel, tail in self.triples if tail == slot)
            for slot in range(self.anchor_count, self.slot_count)
        )


_TEMPLATES: dict[QueryType, _Template] = {
    QueryType.P1: _Template(1, 1, 0, ((0, 0, 1),)),
    QueryType.P2: _Template(1, 2, 1, ((0, 0, 1), (1, 1, 2))),
    QueryType.P3: _Template(1, 3, 2, ((0, 0, 1), (1, 1, 2), (2, 2, 3))),
    QueryType.I2: _Template(2, 2, 0, ((0, 0, 2), (1, 1, 2))),
    QueryType.I3: _Template(3, 3, 0, ((0, 0, 3), (1, 1, 3), (2, 2, 3))),
    QueryType.IP: _Template(2, 3, 1, ((0, 0, 2), (1, 1, 2), (2, 2, 3))),
    QueryType.PI: _Template(2, 3, 1, ((0, 0, 2), (2, 1, 3), (1, 2, 3))),
    QueryType.U2: _Template(2, 2, 0, ((0, 0, 2), (1, 1, 2)), union=True),
    QueryType.UP: _Template(2, 3, 1, ((0, 0, 2), (1, 1, 2), (2, 2, 3)), union=True),
}

FREE_SLOT = -1  # entity id placeholder for variable slots


def template_levi(qtype: QueryType, slot_entities: Sequence[int], relations: Sequence[int]) -> LeviGraph:
    """Levi graph of one shape: the entity slots in template order, then one
    relation node per template triple."""
    triples = np.array(_TEMPLATES[qtype].triples, dtype=np.int64)
    triples[:, 1] = np.asarray(relations, dtype=np.int64)[triples[:, 1]]
    return LeviGraph(np.asarray(slot_entities, dtype=np.int64), triples)


@dataclass(frozen=True)
class QueryGraph:
    """One instantiated query: concrete anchors/relations over a shape template.

    ``levi`` comes from ``template_levi`` with the anchors in place and
    ``FREE_SLOT`` at the intermediate and target slots. It follows from the
    other three fields, so queries compare and hash by those alone.
    """

    query_type: QueryType
    anchors: tuple[int, ...]
    relations: tuple[int, ...]
    levi: LeviGraph = field(compare=False)

    @property
    def target_index(self) -> int:
        return _TEMPLATES[self.query_type].slot_count - 1

    @property
    def intermediate_indexes(self) -> tuple[int, ...]:
        return tuple(range(self.query_type.anchor_count, self.target_index))

    def record(self) -> dict:
        """The fields that name this query on every JSON line about it: query
        files, rank dumps and ``kgt interpret`` output."""
        return {"type": self.query_type.value, "anchors": list(self.anchors), "relations": list(self.relations)}


def build_query(query_type: QueryType, anchors: Sequence[int], relations: Sequence[int]) -> QueryGraph:
    tpl = _TEMPLATES[query_type]
    anchors = tuple(int(a) for a in anchors)
    relations = tuple(int(r) for r in relations)
    if len(anchors) != tpl.anchor_count:
        raise ArityError(f"{query_type.value} takes {tpl.anchor_count} anchors, got {len(anchors)}")
    if len(relations) != tpl.relation_count:
        raise ArityError(f"{query_type.value} takes {tpl.relation_count} relations, got {len(relations)}")
    slots = anchors + (FREE_SLOT,) * (tpl.slot_count - tpl.anchor_count)
    return QueryGraph(query_type, anchors, relations, template_levi(query_type, slots, relations))


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
    """Exact answer set of a query on a graph, by forward set chaining over its template.

    Each slot holds an entity set, an anchor slot its one entity. Each
    non-anchor slot is the intersection (for unions: the union) of the
    projections along its in-edges. Projection distributes over union, so the
    up shape grounds to the union of its two 2p branches.
    """
    tpl = _TEMPLATES[query.query_type]
    rels = query.relations
    join = set.union if tpl.union else set.intersection
    values = [{a} for a in query.anchors]
    for in_edges in tpl.in_edges:
        values.append(join(*(_project(graph, values[h], rels[k]) for h, k in in_edges)))
    return frozenset(values[-1])


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
    answers = ("answers_train", "answers_valid", "answers_test")
    write_jsonl(path, ({**inst.query.record(), **{key: sorted(getattr(inst, key)) for key in answers}} for inst in instances))


def _int_list(record: dict, key: str, bound: int | None) -> list[int]:
    values = record[key]
    if not isinstance(values, list) or not all(type(v) is int for v in values):
        raise ValueError(f"{key} must be a list of integers")
    for v in values:
        if not 0 <= v < (1 << 63 if bound is None else bound):
            raise ValueError(f"{key}: id {v} is out of range")
    return values


def read_queries(
    path: str | Path, entity_count: int | None = None, relation_count: int | None = None
) -> list[QueryInstance]:
    """Query instances from a jsonl file; ids are checked against the given
    vocabulary sizes, and must be non-negative either way."""
    instances = []
    by_value = {qt.value: qt for qt in QueryType}
    for lineno, raw in enumerate(read_lines(path), start=1):
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
            anchors = _int_list(record, "anchors", entity_count)
            relations = _int_list(record, "relations", relation_count)
            answers = [frozenset(_int_list(record, f"answers_{s}", entity_count)) for s in ("train", "valid", "test")]
            instances.append(QueryInstance(build_query(by_value[kind], anchors, relations), *answers))
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


def _distinct_in_edges(
    graph: KnowledgeGraph, node: int, width: int, rng: np.random.Generator
) -> list[tuple[int, int]] | None:
    """``width`` incoming (head, relation) pairs with pairwise-distinct heads,
    first in a random order; None when ``node`` has fewer distinct in-neighbors."""
    heads, rels = graph.in_edges(node)
    if len(heads) < width:
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
    return picked if len(picked) == width else None


def walk_back(graph: KnowledgeGraph, qtype: QueryType, rng: np.random.Generator) -> tuple[list[int], list[int]] | None:
    """Fill a shape's slots backward from a uniformly drawn target.

    Each slot's in-edges are drawn from the slot's entity: one in-edge by a
    uniform pick, several by distinct in-neighbors; a union's first in-edge is
    picked from the slot's entity and each other one from a fresh random
    entity. Returns the slot entities and the relations, or None on a dead
    end (no incoming edge, too few distinct in-neighbors, or two equal
    anchors); callers retry.
    """
    tpl = _TEMPLATES[qtype]
    slots = [FREE_SLOT] * tpl.slot_count
    relations = [0] * tpl.relation_count
    slots[-1] = int(rng.integers(graph.entity_count))
    for slot, in_edges in zip(reversed(range(tpl.anchor_count, tpl.slot_count)), reversed(tpl.in_edges)):
        if len(in_edges) > 1 and not tpl.union:
            picked = _distinct_in_edges(graph, slots[slot], len(in_edges), rng)
            if picked is None:
                return None
        else:
            picked = []
            for _ in in_edges:
                node = int(rng.integers(graph.entity_count)) if picked else slots[slot]
                pick = _pick_in_edge(graph, node, rng)
                if pick is None:
                    return None
                picked.append(pick)
        for (head, k), (entity, relation) in zip(in_edges, picked):
            slots[head] = entity
            relations[k] = relation
    if len(set(slots[: tpl.anchor_count])) < tpl.anchor_count:
        return None
    return slots, relations


def generate_queries(
    split: SplitDataset,
    qtype: QueryType,
    count: int,
    rng: np.random.Generator,
    split_for: str = "train",
    max_answers: int = 100,
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
    if count < 0:
        raise ValueError(f"query count must be non-negative, got {count}")
    graph = {"train": split.train, "valid": split.valid, "test": split.test}[split_for]
    budget = max(2000, count * 400)
    out: list[QueryInstance] = []
    seen: set[QueryGraph] = set()  # a query hashes by its shape, anchors and relations
    for _ in range(budget):
        if len(out) == count:
            break
        walked = walk_back(graph, qtype, rng)
        if walked is None:
            continue
        slots, relations = walked
        query = build_query(qtype, slots[: qtype.anchor_count], relations)
        if query in seen:
            continue
        seen.add(query)
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
