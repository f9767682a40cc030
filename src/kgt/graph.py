"""Knowledge-graph storage, split loading, and the Levi transform."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import IntegrityError, ParseError, SplitFileError

Triple = tuple[int, int, int]


@dataclass(eq=False)
class LeviGraph:
    """Rewrite of a triple set where every triple becomes its own relation node.

    ``entities[i]`` is the entity id of entity node ``i``, or
    ``queries.FREE_SLOT`` (-1) at a query's variable slots; the same value
    marks the mask token in a sampled example's input ids. ``triples`` holds
    one ``(head node, relation id, tail node)`` row per triple, the form of
    ``KnowledgeGraph.hrt`` with entity nodes in place of entity ids; relation
    node ``j`` is node ``entity_node_count + j``, with the two directed edges
    head -> relation node -> tail. So ``node_count`` is the number of entity
    nodes plus the number of triples.
    """

    entities: np.ndarray  # [k] int64
    triples: np.ndarray  # [T, 3] int64

    @property
    def entity_node_count(self) -> int:
        return len(self.entities)

    @property
    def node_count(self) -> int:
        return len(self.entities) + len(self.triples)


def triple_transform(triples: Sequence[Triple] | np.ndarray, extra_entities: Iterable[int] = ()) -> LeviGraph:
    """Build the Levi graph of a triple set.

    Entity nodes are ordered by ascending entity id; relation nodes follow in
    the order the triples were given. ``extra_entities`` adds isolated entity
    nodes (sampled nodes whose induced edges were dropped must stay present).
    """
    hrt = _triple_array(triples)
    extra = np.fromiter(extra_entities, dtype=np.int64)
    entities = np.unique(np.concatenate([hrt[:, 0], hrt[:, 2], extra]))
    nodes = hrt.copy()
    nodes[:, 0::2] = np.searchsorted(entities, hrt[:, 0::2])
    return LeviGraph(entities, nodes)


class KnowledgeGraph:
    """A directed multigraph of (head, relation, tail) triples in one int64 array.

    ``hrt`` is a read-only ``[T, 3]`` array, one row per triple in the order
    given; it may be a view that shares memory with a larger store. Lookups go
    through CSR indexes derived from it on first use. ``validate=False`` skips
    the id-range and duplicate checks, for arrays already checked.
    """

    def __init__(
        self,
        entity_count: int,
        relation_count: int,
        triples: Iterable[Triple] | np.ndarray,
        *,
        validate: bool = True,
    ):
        self.entity_count = int(entity_count)
        self.relation_count = int(relation_count)
        self.hrt = _triple_array(triples).view()
        self.hrt.flags.writeable = False
        if validate:
            fault = _first_fault(self.hrt, self.entity_count, self.relation_count)
            if fault is not None:
                raise IntegrityError(f"triple {fault[0]}: {fault[1]}")
        self._csr: dict[str, tuple[np.ndarray, ...]] = {}

    def __len__(self) -> int:
        return len(self.hrt)

    @property
    def triples(self) -> list[Triple]:
        """The triples as ``(h, r, t)`` int tuples, built on each call."""
        return [tuple(row) for row in self.hrt.tolist()]

    def successors(self, head: int, relation: int) -> set[int]:
        indptr, tails, rels = self.csr_out()
        lo, hi = indptr[head], indptr[head + 1]
        return set(tails[lo:hi][rels[lo:hi] == relation].tolist())

    def in_edges(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """Heads and relations of the triples ending at ``node``, in triple order."""
        indptr, heads, rels = self.csr_in()
        lo, hi = indptr[node], indptr[node + 1]
        return heads[lo:hi], rels[lo:hi]

    def _group(self, sources: np.ndarray, *columns: np.ndarray) -> tuple[np.ndarray, ...]:
        """CSR: ``columns`` grouped by source entity, in the given order within a group."""
        # a stable argsort is one permutation for any key type; ids below 2**16 then sort by radix
        order = np.argsort(sources.astype(np.min_scalar_type(self.entity_count)), kind="stable")
        indptr = np.zeros(self.entity_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(sources, minlength=self.entity_count), out=indptr[1:])
        return (indptr, *(c[order] for c in columns))

    def _cached(self, key: str, build) -> tuple[np.ndarray, ...]:
        if key not in self._csr:
            self._csr[key] = build()
        return self._csr[key]

    def _both_directions(self) -> tuple[np.ndarray, np.ndarray]:
        heads, tails = self.hrt[:, 0], self.hrt[:, 2]
        return np.concatenate([heads, tails]), np.concatenate([tails, heads])

    def _unique_pairs(self) -> tuple[np.ndarray, ...]:
        src, dst = self._both_directions()
        keys = np.sort(src * self.entity_count + dst)
        pairs = keys[np.diff(keys, prepend=-1) != 0]  # keys are non-negative, so the first stays
        return self._group(pairs // self.entity_count, pairs % self.entity_count)

    def csr_undirected(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR over unique undirected neighbors (for uniform-neighbor walks)."""
        return self._cached("und_unique", self._unique_pairs)

    def csr_undirected_multi(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR over undirected incidences with multiplicity (for edge counting)."""
        return self._cached("und_multi", lambda: self._group(*self._both_directions()))

    def csr_in(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR over incoming triples grouped by tail: (indptr, heads, relations)."""
        return self._cached("in", lambda: self._group(self.hrt[:, 2], self.hrt[:, 0], self.hrt[:, 1]))

    def csr_out(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR over outgoing triples grouped by head: (indptr, tails, relations)."""
        return self._cached("out", lambda: self._group(self.hrt[:, 0], self.hrt[:, 2], self.hrt[:, 1]))


def _triple_array(triples: Iterable[Triple] | np.ndarray) -> np.ndarray:
    rows = triples if isinstance(triples, np.ndarray) else list(triples)
    return np.asarray(rows, dtype=np.int64).reshape(-1, 3)


def _triple_keys(hrt: np.ndarray, entity_count: int, relation_count: int) -> np.ndarray:
    """One int64 per in-range triple, ``(h * R + r) * E + t``; equal keys mean equal triples."""
    return (hrt[:, 0] * relation_count + hrt[:, 1]) * entity_count + hrt[:, 2]


def _bad_id(hrt: np.ndarray, entity_count: int, relation_count: int) -> tuple[int, str] | None:
    """Row and description of the first out-of-range id."""
    h, r, t = hrt[:, 0], hrt[:, 1], hrt[:, 2]
    bad_entity = (h < 0) | (h >= entity_count) | (t < 0) | (t >= entity_count)
    bad = np.flatnonzero(bad_entity | (r < 0) | (r >= relation_count))
    if bad.size:
        i = int(bad[0])
        kind = "entity" if bad_entity[i] else "relation"
        return i, f"{kind} id out of range in {tuple(hrt[i].tolist())}"


def _repeats(keys: np.ndarray) -> bool:
    """Whether any key occurs twice: one sort and one neighbour compare."""
    ordered = np.sort(keys)
    return bool((ordered[1:] == ordered[:-1]).any())


def _first_fault(
    hrt: np.ndarray,
    entity_count: int,
    relation_count: int,
    entities: Sequence[str] | None = None,
    relations: Sequence[str] | None = None,
) -> tuple[int, str] | None:
    """Row and description of the first out-of-range id, else of the first
    repeated triple, named by its tokens where a vocabulary is given."""
    fault = _bad_id(hrt, entity_count, relation_count)
    if fault is None and _repeats(keys := _triple_keys(hrt, entity_count, relation_count)):
        _, first = np.unique(keys, return_index=True)
        repeated = np.ones(len(hrt), dtype=bool)
        repeated[first] = False
        i = int(np.flatnonzero(repeated)[0])
        names = [v if vocab is None else vocab[v] for v, vocab in zip(hrt[i].tolist(), (entities, relations, entities))]
        fault = i, f"duplicate triple ({', '.join(map(str, names))})"
    return fault


SPLITS = ("train", "valid", "test")


@dataclass
class SplitDataset:
    """Cumulative train/valid/test graphs over one vocabulary.

    ``valid`` contains every train triple plus the validation increment;
    ``test`` contains everything. The three graphs are prefix views of one
    triple store ordered train, new valid, new test. Vocabularies are
    optional (id-only datasets).
    """

    train: KnowledgeGraph
    valid: KnowledgeGraph
    test: KnowledgeGraph
    entities: list[str] | None = None
    relations: list[str] | None = None

    @property
    def entity_count(self) -> int:
        return self.train.entity_count

    @property
    def relation_count(self) -> int:
        return self.train.relation_count

    def increments(self) -> tuple[list[Triple], list[Triple], list[Triple]]:
        """Train triples, then the triples valid adds, then those test adds."""
        triples = self.test.triples
        n_train, n_valid = len(self.train), len(self.valid)
        return triples[:n_train], triples[n_train:n_valid], triples[n_valid:]


def split_lines(text: str) -> list[str]:
    r"""``text`` split as universal newlines split it: at ``\n``, ``\r\n`` or a
    lone ``\r``, and nowhere else (``str.splitlines`` also splits at form
    feeds and other separators). A final line end leaves an empty last line."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def read_lines(path: str | Path) -> list[str]:
    """The lines of a UTF-8 text file without their line ends, split and
    numbered by :func:`split_lines`. Bytes that are not UTF-8 raise
    ``ParseError`` at their line."""
    data = Path(path).read_bytes()
    try:
        text, bad = data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        text, bad = data[: exc.start].decode("utf-8"), exc.start
    lines = split_lines(text)
    if bad is not None:
        raise ParseError(path, len(lines), f"not UTF-8: byte 0x{data[bad]:02x}")
    if lines[-1] == "":
        lines.pop()
    return lines


def write_atomic(path: str | Path, *chunks: str | bytes) -> None:
    """Write ``chunks`` (``str`` as UTF-8, bytes-like as they are) to ``path``,
    making its directory: through ``.<name>.<pid>.tmp`` beside it, synced and
    then ``os.replace``d over ``path``. A run killed midway leaves the former
    file or the new one; a write that fails removes its temp file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunk.encode("utf-8") if isinstance(chunk, str) else chunk for chunk in chunks)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """One JSON object a line, keys sorted: query files, training logs and rank dumps."""
    write_atomic(path, *(json.dumps(record, sort_keys=True) + "\n" for record in records))


def read_vocab(path: Path) -> list[str]:
    tokens = []
    seen = set()
    for lineno, token in enumerate(read_lines(path), start=1):
        if not token:
            raise ParseError(path, lineno, "empty vocabulary token")
        if token in seen:
            raise ParseError(path, lineno, f"duplicate vocabulary token {token!r}")
        seen.add(token)
        tokens.append(token)
    return tokens


def _read_id_triples(path: Path) -> tuple[np.ndarray, np.ndarray] | None:
    """Parse a file of integer ids straight into int64 arrays, or None if it cannot.

    Any file this rejects (a bad line, a carriage return, no triples) goes to
    the line-by-line parser, which finds the failing line or gives the same
    arrays.
    """
    raw = path.read_bytes()
    if b"\r" in raw:  # universal newlines would number the lines differently
        return None
    breaks = np.flatnonzero(np.frombuffer(raw, dtype=np.uint8) == ord("\n"))
    # line i runs from breaks[i - 1] + 1 to breaks[i]; empty lines are skipped
    lengths = np.diff(breaks, prepend=-1, append=len(raw)) - 1
    lines = np.flatnonzero(lengths > 0) + 1
    if not lines.size:
        return None
    try:
        hrt = np.loadtxt(path, dtype=np.int64, delimiter="\t", comments=None, ndmin=2, encoding="utf-8")
    except ValueError:
        return None
    if hrt.shape != (lines.size, 3):
        return None
    return hrt, lines


def read_triples(
    path: Path,
    entity_ids: dict[str, int] | None = None,
    relation_ids: dict[str, int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Parse a head<TAB>relation<TAB>tail file.

    Tokens are looked up in the vocabularies when given, otherwise they must be
    integer literals. Returns the int64 ``[n, 3]`` triples and the line number
    of each. A file without vocabularies is parsed by ``np.loadtxt`` first.
    """
    if entity_ids is None and relation_ids is None:
        parsed = _read_id_triples(path)
        if parsed is not None:
            return parsed
    return _parse_lines(path, entity_ids, relation_ids)


def triple_fields(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """The line number and the three tab-separated fields of each non-empty
    line of a triple file; any other field count raises ``ParseError``."""
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(path, lineno, f"expected 3 tab-separated fields, got {len(fields)}")
        yield lineno, fields


def _parse_lines(
    path: Path,
    entity_ids: dict[str, int] | None,
    relation_ids: dict[str, int] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """``read_triples`` one line at a time; raises ``ParseError`` at the first bad line."""

    def resolve(token: str, table: dict[str, int] | None, kind: str, lineno: int) -> int:
        if table is not None:
            if token not in table:
                raise ParseError(path, lineno, f"unknown {kind} token {token!r}")
            return table[token]
        try:
            value = int(token)
        except ValueError:
            raise ParseError(path, lineno, f"{kind} token {token!r} is not an integer and no vocabulary was given") from None
        if not -(1 << 63) <= value < 1 << 63:
            raise SplitFileError(path, lineno, f"{kind} id {value} out of range: past int64")
        return value

    triples = []
    lines = []
    for lineno, fields in triple_fields(path):
        h = resolve(fields[0], entity_ids, "entity", lineno)
        r = resolve(fields[1], relation_ids, "relation", lineno)
        t = resolve(fields[2], entity_ids, "entity", lineno)
        triples.append((h, r, t))
        lines.append(lineno)
    return _triple_array(triples), np.array(lines, dtype=np.int64)


def build_split(
    parts: dict[str, Sequence[Triple] | np.ndarray],
    entity_count: int,
    relation_count: int,
    entities: list[str] | None = None,
    relations: list[str] | None = None,
    sources: dict[str, tuple[Path, np.ndarray]] | None = None,
) -> SplitDataset:
    """Assemble cumulative graphs from train/valid/test triple lists.

    Accepts either disjoint increments (each split adds new triples) or
    already-cumulative lists (train subset of valid subset of test). Anything
    else raises :class:`IntegrityError` at the split and row of the first bad
    triple, or of the first that repeats an earlier split's in the split that
    breaks the layout; ``sources``, each split's file and per-triple line
    numbers, make it a :class:`SplitFileError`.
    """

    def fail(name: str, row: int, message: str):
        if sources is not None:
            path, lines = sources[name]
            raise SplitFileError(path, int(lines[row]), message)
        raise IntegrityError(f"{name} triple {row}: {message}")

    arrays = {name: _triple_array(parts[name]) for name in SPLITS}
    store = np.concatenate(list(arrays.values()))
    ends = np.cumsum([len(hrt) for hrt in arrays.values()]).tolist()
    # in-range ids and no repeated triple mean sound parts that are disjoint increments; else check part by part
    if _bad_id(store, entity_count, relation_count) is not None or _repeats(_triple_keys(store, entity_count, relation_count)):
        for name, hrt in arrays.items():
            if (fault := _first_fault(hrt, entity_count, relation_count, entities, relations)) is not None:
                fail(name, *fault)
        train, valid, test = (_triple_keys(arrays[name], entity_count, relation_count) for name in SPLITS)
        valid_new = ~np.isin(valid, train)
        test_new = ~np.isin(test, valid)
        cumulative = np.isin(train, valid).all() and np.isin(valid, test).all()
        disjoint = valid_new.all() and test_new.all() and not np.isin(test, train).any()
        if not (cumulative or disjoint):
            # valid breaks the layout if it repeats some train triples but not all; else test does
            valid_whole = np.isin(train, valid).all()
            if valid_whole or valid_new.all():
                name, repeats = "test", ~test_new | np.isin(test, train)
            else:
                name, repeats = "valid", ~valid_new
            lacking = "test lacks valid" if valid_whole else "valid lacks train"
            message = f"{lacking} triples: the splits are neither cumulative nor disjoint increments"
            if not repeats.any():  # valid holds train's triples, test only new ones
                raise IntegrityError(f"{sources[name][0] if sources else name}: {message}")
            fail(name, int(np.flatnonzero(repeats)[0]), f"repeats an earlier split's triple, but {message}")
        # either way the new triples of a split are those its predecessor lacks
        store = np.concatenate([arrays["train"], arrays["valid"][valid_new], arrays["test"][test_new]])
        ends = (len(train), len(train) + int(valid_new.sum()), len(store))
    store.flags.writeable = False
    # the parts were checked above, so the prefixes need no second check
    graphs = (KnowledgeGraph(entity_count, relation_count, store[:n], validate=False) for n in ends)
    return SplitDataset(*graphs, entities=entities, relations=relations)


def load_split(directory: str | Path) -> SplitDataset:
    """Load train/valid/test triple files plus optional vocabularies."""
    d = Path(directory)
    entities = relations = None
    ent_map = rel_map = None
    if (d / "entities.txt").exists():
        entities = read_vocab(d / "entities.txt")
        ent_map = {tok: i for i, tok in enumerate(entities)}
    if (d / "relations.txt").exists():
        relations = read_vocab(d / "relations.txt")
        rel_map = {tok: i for i, tok in enumerate(relations)}

    parts = {}
    sources = {}
    for name in SPLITS:
        path = d / f"{name}.txt"
        if not path.exists():
            raise FileNotFoundError(f"missing split file {path}")
        parts[name], lines = read_triples(path, ent_map, rel_map)
        sources[name] = (path, lines)

    stacked = np.concatenate(list(parts.values()))
    if entities is not None:
        entity_count = len(entities)
    else:
        if not len(stacked):
            raise IntegrityError(f"{d}: dataset has no triples and no entity vocabulary")
        entity_count = int(stacked[:, [0, 2]].max()) + 1
    if relations is not None:
        relation_count = len(relations)
    else:
        relation_count = int(stacked[:, 1].max()) + 1 if len(stacked) else 0

    return build_split(parts, entity_count, relation_count, entities, relations, sources)


def write_vocab(path: Path, tokens: Sequence[str]) -> None:
    write_atomic(path, *(f"{token}\n" for token in tokens))


def write_token_triples(
    path: Path, triples: Sequence[Triple], entities: Sequence[str], relations: Sequence[str]
) -> None:
    """Write triples using vocabulary tokens, the form ``load_split`` resolves
    whenever vocabulary files sit next to the triple files."""
    write_atomic(path, *(f"{entities[h]}\t{relations[r]}\t{entities[t]}\n" for h, r, t in triples))
