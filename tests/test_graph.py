import os
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgt.cli
from kgt.cli import main
from kgt.errors import IntegrityError, ParseError
from kgt.graph import (
    KnowledgeGraph,
    build_split,
    load_split,
    triple_transform,
    write_atomic,
    write_vocab,
)

from helpers import (
    attention_mask,
    hub_multigraphs,
    to_triples,
    toy_split,
    write_toy_dataset,
    write_triples,
)


def triple_sets(max_entities=8, max_relations=4, max_triples=12):
    def build(draw):
        n = draw(st.integers(1, max_entities))
        r = draw(st.integers(1, max_relations))
        triples = draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, r - 1), st.integers(0, n - 1)
                ),
                max_size=max_triples,
                unique=True,
            )
        )
        return n, r, triples

    return st.composite(build)()


class TestLeviTransform:
    def test_single_triple_shape(self):
        levi = triple_transform([(0, 5, 1)])
        assert levi.node_count == 3
        assert levi.entities.tolist() == [0, 1]
        assert levi.triples.tolist() == [[0, 5, 1]]  # node 0 -> relation node 2 -> node 1
        assert levi.entities.dtype == levi.triples.dtype == np.int64

    def test_self_loop_keeps_one_entity_node(self):
        levi = triple_transform([(3, 1, 3)])
        assert levi.entity_node_count == 1
        assert levi.node_count == 2
        assert to_triples(levi) == [(3, 1, 3)]

    def test_entity_nodes_sorted_then_relations_in_triple_order(self):
        levi = triple_transform([(9, 0, 2), (2, 1, 5)])
        assert levi.entities.tolist() == [2, 5, 9]
        assert levi.triples.tolist() == [[2, 0, 0], [0, 1, 1]]

    def test_extra_entities_stay_isolated(self):
        levi = triple_transform([(0, 0, 1)], extra_entities=[7, 1])
        assert levi.entities.tolist() == [0, 1, 7]
        assert levi.triples.tolist() == [[0, 0, 1]]  # entity node 2 (id 7) touches no relation node

    @given(triple_sets())
    @settings(max_examples=100, deadline=None)
    def test_counts_and_round_trip(self, case):
        n, r, triples = case
        levi = triple_transform(triples)
        distinct = {e for h, _, t in triples for e in (h, t)}
        assert levi.node_count == len(distinct) + len(triples)
        assert to_triples(levi) == list(triples)
        # an int64 array gives the same two arrays as the list
        from_array = triple_transform(np.array(triples, dtype=np.int64).reshape(-1, 3))
        assert from_array.entities.dtype == from_array.triples.dtype == np.int64
        assert np.array_equal(from_array.entities, levi.entities)
        assert np.array_equal(from_array.triples, levi.triples)
        assert from_array.triples.shape == levi.triples.shape == (len(triples), 3)

    @given(triple_sets())
    @settings(max_examples=50, deadline=None)
    def test_attention_mask_symmetric_with_diagonal(self, case):
        _, _, triples = case
        levi = triple_transform(triples)
        mask = attention_mask(levi)
        assert mask.shape == (levi.node_count, levi.node_count)
        assert np.array_equal(mask, mask.T)
        assert mask.diagonal().all()
        # off-diagonal truth matches the undirected edge set exactly: relation
        # node k + j joins the head and the tail of triple j
        k = levi.entity_node_count
        expected = np.eye(levi.node_count, dtype=bool)
        for j, (head, _, tail) in enumerate(levi.triples.tolist()):
            for u in (head, tail):
                expected[u, k + j] = expected[k + j, u] = True
        assert np.array_equal(mask, expected)


class TestKnowledgeGraph:
    def test_rejects_out_of_range_ids(self):
        with pytest.raises(IntegrityError):
            KnowledgeGraph(2, 1, [(0, 0, 5)])
        with pytest.raises(IntegrityError):
            KnowledgeGraph(2, 1, [(0, 3, 1)])

    def test_rejects_duplicates(self):
        with pytest.raises(IntegrityError):
            KnowledgeGraph(2, 1, [(0, 0, 1), (0, 0, 1)])

    def test_successor_sets(self):
        g = KnowledgeGraph(3, 2, [(0, 0, 1), (0, 0, 2), (0, 1, 1), (1, 0, 2)])
        assert g.successors(0, 0) == {1, 2}
        assert g.successors(0, 1) == {1}
        assert g.successors(2, 0) == set()

    def test_csr_views_agree_with_indexes(self):
        g = KnowledgeGraph(4, 2, [(0, 0, 1), (1, 1, 2), (2, 0, 0), (0, 1, 1)])
        indptr, nbrs = g.csr_undirected()
        for v in range(4):
            expected = set()
            for h, _, t in g.triples:
                if h == v:
                    expected.add(t)
                if t == v:
                    expected.add(h)
            assert set(nbrs[indptr[v] : indptr[v + 1]].tolist()) == expected
        indptr, heads, rels = g.csr_in()
        for v in range(4):
            got = sorted(zip(heads[indptr[v] : indptr[v + 1]].tolist(), rels[indptr[v] : indptr[v + 1]].tolist()))
            expected = sorted((h, r) for h, r, t in g.triples if t == v)
            assert got == expected

    def test_triples_read_only(self):
        g = KnowledgeGraph(3, 1, [(0, 0, 1), (1, 0, 2)])
        assert g.triples == [(0, 0, 1), (1, 0, 2)]
        assert len(g) == 2
        with pytest.raises(ValueError):
            g.hrt[0, 0] = 2

    @given(hub_multigraphs())
    @settings(max_examples=100, deadline=None)
    def test_unique_pairs_match_np_unique(self, g):
        # bit-exact: the same sorted pair keys, so the same CSR
        src, dst = g._both_directions()
        pairs = np.unique(src * g.entity_count + dst)
        indptr, nbrs = g.csr_undirected()
        want_indptr, want_nbrs = g._group(pairs // g.entity_count, pairs % g.entity_count)
        assert np.array_equal(indptr, want_indptr) and indptr.dtype == want_indptr.dtype
        assert np.array_equal(nbrs, want_nbrs) and nbrs.dtype == want_nbrs.dtype

    @pytest.mark.parametrize("entity_count", [1, 255, 256, 257, 65535, 65536, 65537])
    def test_csr_matches_int64_group_at_every_key_width(self, entity_count):
        # keys of every width: each entity's slice of every CSR against a plain loop over the triples in triple order
        rng = np.random.default_rng(entity_count)
        high = [entity_count - 1, entity_count - 2, entity_count // 2, 0]
        ends = rng.choice([e for e in high if e >= 0], size=(40, 2))
        triples = sorted({(int(h), int(r), int(t)) for (h, t), r in zip(ends, rng.integers(3, size=40))})
        g = KnowledgeGraph(entity_count, 3, triples)
        rows = g.hrt.tolist()
        want = {name: defaultdict(list) for name in ("csr_out", "csr_in", "csr_undirected_multi")}
        for h, r, t in rows:
            want["csr_out"][h].append((t, r))
            want["csr_in"][t].append((h, r))
            want["csr_undirected_multi"][h].append((t,))
        for h, r, t in rows:
            want["csr_undirected_multi"][t].append((h,))
        want["csr_undirected"] = {e: sorted(set(nbrs)) for e, nbrs in want["csr_undirected_multi"].items()}
        for name, slices in want.items():
            indptr, *columns = getattr(g, name)()
            assert all(a.dtype == np.int64 for a in (indptr, *columns)), name
            lengths = np.zeros(entity_count, dtype=np.int64)
            lengths[list(slices)] = [len(pairs) for pairs in slices.values()]
            assert indptr[0] == 0 and np.array_equal(np.diff(indptr), lengths), name
            for e, pairs in slices.items():
                assert list(zip(*(c[indptr[e] : indptr[e + 1]].tolist() for c in columns))) == pairs, (name, e)

    def test_multigraph_multiplicity_kept_in_multi_csr(self):
        g = KnowledgeGraph(2, 2, [(0, 0, 1), (0, 1, 1)])
        indptr, nbrs = g.csr_undirected_multi()
        assert (nbrs[indptr[0] : indptr[1]] == 1).sum() == 2
        indptr, nbrs = g.csr_undirected()
        assert (nbrs[indptr[0] : indptr[1]] == 1).sum() == 1


class TestLoadSplit:
    def test_disjoint_increments_accumulate(self, tmp_path):
        split = toy_split(seed=5)
        write_toy_dataset(tmp_path, split)
        loaded = load_split(tmp_path)
        assert len(loaded.train) == len(split.train)
        assert len(loaded.valid) == len(split.train) + 20
        assert len(loaded.test) == len(split.train) + 40
        assert set(loaded.train.triples) <= set(loaded.valid.triples) <= set(loaded.test.triples)

    def test_split_views_share_one_read_only_store(self):
        split = toy_split(seed=6)
        store = split.test.hrt
        assert not store.flags.writeable
        for graph in (split.train, split.valid):
            assert np.shares_memory(graph.hrt, store)
            assert not graph.hrt.flags.writeable
            assert np.array_equal(graph.hrt, store[: len(graph)])
        train, valid_inc, test_inc = split.increments()
        assert (len(train), len(valid_inc), len(test_inc)) == (200, 20, 20)
        assert train + valid_inc + test_inc == split.test.triples

    def test_ingest_writes_same_increments_for_cumulative_and_disjoint(self, tmp_path):
        train, valid_inc, test_inc = toy_split(seed=7).increments()
        layouts = {
            "disjoint": (train, valid_inc, test_inc),
            # earlier splits' lines may come in any order and at any position
            "cumulative": (train, valid_inc + train[::-1], test_inc[:5] + valid_inc + train + test_inc[5:]),
        }
        written = {}
        for layout, files in layouts.items():
            raw = tmp_path / layout / "raw"
            raw.mkdir(parents=True)
            for name, triples in zip(("train", "valid", "test"), files):
                write_triples(raw / f"{name}.txt", triples)
            out = tmp_path / layout / "out"
            assert main(["--out", str(out), "ingest", "--data", str(raw)]) == 0
            written[layout] = {p.name: p.read_bytes() for p in sorted((out / "dataset").glob("*.txt"))}
        assert len(written["disjoint"]) == 5
        assert written["cumulative"] == written["disjoint"]

    def test_cumulative_files_verified(self, tmp_path):
        write_triples(tmp_path / "train.txt", [(0, 0, 1)])
        write_triples(tmp_path / "valid.txt", [(0, 0, 1), (1, 0, 2)])
        write_triples(tmp_path / "test.txt", [(0, 0, 1), (1, 0, 2), (2, 0, 0)])
        loaded = load_split(tmp_path)
        assert len(loaded.train) == 1 and len(loaded.valid) == 2 and len(loaded.test) == 3

    def test_partial_overlap_rejected(self, tmp_path):
        write_triples(tmp_path / "train.txt", [(0, 0, 1), (1, 0, 2)])
        write_triples(tmp_path / "valid.txt", [(1, 0, 2), (2, 0, 0)])  # overlaps train, not superset
        write_triples(tmp_path / "test.txt", [(0, 0, 2)])
        with pytest.raises(IntegrityError):
            load_split(tmp_path)

    def test_split_nesting_error_names_its_line(self, tmp_path, capsys, monkeypatch):
        raw = tmp_path / "raw"
        raw.mkdir()
        write_triples(raw / "train.txt", [(0, 0, 1), (1, 0, 2), (2, 1, 3)])
        write_triples(raw / "valid.txt", [(0, 0, 1), (3, 1, 4)])  # repeats a train triple, lacks two others
        write_triples(raw / "test.txt", [(4, 0, 0)])
        with pytest.raises(ParseError) as excinfo:
            load_split(raw)
        assert isinstance(excinfo.value, IntegrityError)
        assert (excinfo.value.path, excinfo.value.line) == (str(raw / "valid.txt"), 1)
        # ingest reports it at once, without reading the files again as tokens
        monkeypatch.setattr(kgt.cli, "_read_raw_tokens", lambda path: pytest.fail(f"{path} read again"))
        assert main(["--out", str(tmp_path / "out"), "ingest", "--data", str(raw)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {raw / 'valid.txt'}:1: repeats an earlier split's triple, but valid lacks train triples")
        # valid is a disjoint increment, but test repeats a train triple
        write_triples(raw / "valid.txt", [(3, 1, 4)])
        write_triples(raw / "test.txt", [(4, 0, 0), (0, 0, 1)])
        with pytest.raises(ParseError, match="valid lacks train triples") as excinfo:
            load_split(raw)
        assert (excinfo.value.path, excinfo.value.line) == (str(raw / "test.txt"), 2)
        # cumulative train and valid: test is at fault, at its first line that repeats a valid triple
        write_triples(raw / "valid.txt", [(0, 0, 1), (1, 0, 2), (2, 1, 3), (3, 1, 4)])
        write_triples(raw / "test.txt", [(4, 0, 0), (2, 1, 3), (0, 0, 1)])
        with pytest.raises(ParseError, match="repeats an earlier split's triple, but test lacks valid") as excinfo:
            load_split(raw)
        assert (excinfo.value.path, excinfo.value.line) == (str(raw / "test.txt"), 2)
        # ... or the file alone when test repeats none
        write_triples(raw / "test.txt", [(4, 0, 0)])
        with pytest.raises(IntegrityError) as excinfo:
            load_split(raw)
        assert str(excinfo.value).startswith(f"{raw / 'test.txt'}: test lacks valid triples")
        # without files, the split and row
        parts = {"train": [(0, 0, 1)], "valid": [(0, 0, 1), (1, 0, 2)], "test": [(1, 0, 2)]}
        with pytest.raises(IntegrityError, match=r"^test triple 0: repeats .* but test lacks valid triples"):
            build_split(parts, 3, 1)
        parts["test"] = [(2, 0, 0)]
        with pytest.raises(IntegrityError, match=r"^test: test lacks valid triples"):
            build_split(parts, 3, 1)

    def test_empty_dataset_error_names_its_directory(self, tmp_path, capsys):
        for name in ("train", "valid", "test"):
            (tmp_path / f"{name}.txt").write_text("")
        assert main(["--out", str(tmp_path / "out"), "ingest", "--data", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {tmp_path}: dataset has no triples and no entity vocabulary\n"

    def test_vocab_tokens_resolve(self, tmp_path):
        write_vocab(tmp_path / "entities.txt", ["alice", "bob"])
        write_vocab(tmp_path / "relations.txt", ["knows"])
        (tmp_path / "train.txt").write_text("alice\tknows\tbob\n")
        (tmp_path / "valid.txt").write_text("")
        (tmp_path / "test.txt").write_text("")
        loaded = load_split(tmp_path)
        assert loaded.train.triples == [(0, 0, 1)]
        assert loaded.entities == ["alice", "bob"]

    def test_unknown_token_reports_line(self, tmp_path):
        write_vocab(tmp_path / "entities.txt", ["alice"])
        write_vocab(tmp_path / "relations.txt", ["knows"])
        (tmp_path / "train.txt").write_text("alice\tknows\tmallory\n")
        (tmp_path / "valid.txt").write_text("")
        (tmp_path / "test.txt").write_text("")
        with pytest.raises(ParseError) as excinfo:
            load_split(tmp_path)
        assert excinfo.value.line == 1

    def test_bad_field_count_reports_line(self, tmp_path):
        (tmp_path / "train.txt").write_text("0\t0\t1\n0\t1\n")
        (tmp_path / "valid.txt").write_text("")
        (tmp_path / "test.txt").write_text("")
        with pytest.raises(ParseError) as excinfo:
            load_split(tmp_path)
        assert excinfo.value.line == 2

    def test_duplicate_line_reports_path_and_line(self, tmp_path):
        (tmp_path / "train.txt").write_text("0\t0\t1\n1\t0\t2\n\n0\t0\t1\n")
        (tmp_path / "valid.txt").write_text("")
        (tmp_path / "test.txt").write_text("")
        with pytest.raises(ParseError) as excinfo:
            load_split(tmp_path)
        assert excinfo.value.path == str(tmp_path / "train.txt")
        assert excinfo.value.line == 4

    def test_negative_id_reports_path_and_line(self, tmp_path):
        (tmp_path / "train.txt").write_text("0\t0\t1\n")
        (tmp_path / "valid.txt").write_text("1\t0\t2\n2\t0\t-1\n")
        (tmp_path / "test.txt").write_text("")
        with pytest.raises(ParseError) as excinfo:
            load_split(tmp_path)
        assert excinfo.value.path == str(tmp_path / "valid.txt")
        assert excinfo.value.line == 2

    def test_ingest_rejects_bad_ids_instead_of_reading_tokens(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "valid.txt").write_text("")
        (raw / "test.txt").write_text("")
        for bad in ("-1\t0\t1", "1\t0\t99999999999999999999"):  # the second does not fit int64
            (raw / "train.txt").write_text(f"0\t0\t1\n{bad}\n")
            assert main(["--out", str(tmp_path / "out"), "ingest", "--data", str(raw)]) == 1
            assert "train.txt:2:" in capsys.readouterr().err

    def test_ingest_keeps_existing_vocabulary(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "entities.txt").write_text("alice\nbob\n")
        (raw / "train.txt").write_text("alice\tknows\tmallory\n")
        (raw / "valid.txt").write_text("")
        (raw / "test.txt").write_text("")
        assert main(["--out", str(tmp_path / "out"), "ingest", "--data", str(raw)]) != 0
        assert "train.txt:1:" in capsys.readouterr().err
        for vocab in (raw / "entities.txt", tmp_path / "out" / "dataset" / "entities.txt"):
            assert not vocab.exists() or "mallory" not in vocab.read_text()

    @pytest.mark.parametrize(
        "text",
        [
            "0\t0\t1\n1\t0\t2\n",
            "0\t0\t1\n\n\n1\t0\t2",  # blank lines skipped, no final newline
            "\n0\t0\t1\n",
            "0\t0\t1\r\n1\t0\t2\r\n",
            "0\t0\t1\r1\t0\t2\n",
            " 0\t+0\t1 \n",
            "0\t0\t1\n   \n1\t0\t2\n",
            "0\t0\t1\n1\t0\n",
            "0\t0\t1\t\n",
            "0\t0\t1.0\n",
            "0\t0\t1e3\n",
            "0\t0\t99999999999999999999\n",
            "0\t0\t\u0661\n",
            "",
            "\n\n",
        ],
    )
    def test_id_file_fast_path_matches_line_parser(self, tmp_path, text):
        # the loadtxt path must give the line parser's arrays and line numbers
        # exactly, or fall back to it, so errors still name the line
        from kgt.graph import _parse_lines, read_triples

        path = tmp_path / "train.txt"
        path.write_bytes(text.encode("utf-8"))

        def outcome(parse):
            try:
                hrt, lines = parse()
            except ParseError as err:
                return ("error", err.path, err.line)
            except OverflowError:
                return ("overflow",)
            return (hrt.dtype, hrt.shape, hrt.tolist(), lines.dtype, lines.tolist())

        assert outcome(lambda: read_triples(path)) == outcome(lambda: _parse_lines(path, None, None))

    @pytest.mark.parametrize("vocab", [False, True], ids=["ids", "tokens"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_non_utf8_triple_file_reports_line(self, tmp_path, vocab, newline):
        if vocab:
            write_vocab(tmp_path / "entities.txt", ["0", "1", "2"])
            write_vocab(tmp_path / "relations.txt", ["0"])
        end = newline.encode()
        (tmp_path / "train.txt").write_bytes(b"0\t0\t1" + end + end + b"1\t0\t\xff2" + end)
        (tmp_path / "valid.txt").write_text("")
        (tmp_path / "test.txt").write_text("")
        with pytest.raises(ParseError) as excinfo:
            load_split(tmp_path)
        assert (excinfo.value.path, excinfo.value.line) == (str(tmp_path / "train.txt"), 3)

    def test_non_utf8_vocabulary_reports_line(self, tmp_path):
        (tmp_path / "entities.txt").write_bytes(b"alice\r\nbob\r\ncar\xe9ol\r\n")
        write_vocab(tmp_path / "relations.txt", ["knows"])
        (tmp_path / "train.txt").write_text("alice\tknows\tbob\n")
        (tmp_path / "valid.txt").write_text("")
        (tmp_path / "test.txt").write_text("")
        with pytest.raises(ParseError) as excinfo:
            load_split(tmp_path)
        assert (excinfo.value.path, excinfo.value.line) == (str(tmp_path / "entities.txt"), 3)

    def test_ingest_reports_non_utf8_line(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "train.txt").write_bytes(b"alice\tknows\tbob\r\xffbob\tknows\talice\n")
        (raw / "valid.txt").write_text("")
        (raw / "test.txt").write_text("")
        assert main(["--out", str(tmp_path / "out"), "ingest", "--data", str(raw)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {raw / 'train.txt'}:2: not UTF-8")

    def test_build_split_keeps_integrity_errors(self):
        with pytest.raises(IntegrityError):
            build_split({"train": [(0, 0, 1), (0, 0, 1)], "valid": [], "test": []}, 2, 1)
        with pytest.raises(IntegrityError):
            build_split({"train": [(0, 0, 1)], "valid": [(0, 0, 9)], "test": []}, 2, 1)

    def test_normalized_dataset_loads_without_set_tests(self, tmp_path, monkeypatch):
        # disjoint increments, as ingest writes them, are checked by one sort
        raw = write_toy_dataset(tmp_path / "raw", toy_split(seed=3))
        assert main(["--out", str(tmp_path / "out"), "ingest", "--data", str(raw)]) == 0

        def forbidden(*args, **kwargs):
            raise AssertionError("load_split ran a hash-based set operation")

        monkeypatch.setattr(np, "isin", forbidden)
        monkeypatch.setattr(np, "unique", forbidden)
        loaded = load_split(tmp_path / "out" / "dataset")
        assert (len(loaded.train), len(loaded.valid), len(loaded.test)) == (200, 220, 240)

    def test_missing_file_raises(self, tmp_path):
        write_triples(tmp_path / "train.txt", [(0, 0, 1)])
        with pytest.raises(FileNotFoundError):
            load_split(tmp_path)


class TestWriteAtomic:
    def test_failed_write_keeps_the_former_file_and_no_temp(self, tmp_path):
        path = tmp_path / "entities.txt"
        write_vocab(path, ["alice", "bob"])
        with pytest.raises(UnicodeEncodeError):
            write_vocab(path, ["ok", "\ud800"])  # a lone surrogate fails after the first chunk
        assert path.read_bytes() == b"alice\nbob\n"
        assert [p.name for p in tmp_path.iterdir()] == ["entities.txt"]

    def test_makes_the_directory_and_keeps_a_plain_files_mode(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.bin"
        write_atomic(path, "x\u00e9", b"\x00", np.arange(2, dtype="<u2"))
        assert path.read_bytes() == "x\u00e9".encode() + b"\x00\x00\x00\x01\x00"
        plain = tmp_path / "plain"
        plain.touch()
        assert os.stat(path).st_mode == os.stat(plain).st_mode
        assert sorted(p.name for p in path.parent.iterdir()) == ["out.bin"]
