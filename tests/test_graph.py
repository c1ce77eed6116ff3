import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitroles.clustering import ClusteringError, RoleAssignment, roles_from_csv, roles_to_csv
from orbitroles.embeddings import (
    EmbeddingError,
    EmbeddingMatrix,
    embedding_to_csv,
    import_embedding,
)
from orbitroles.graph import (
    Graph,
    GraphFormatError,
    NodeTable,
    load_edge_list,
    load_node_table,
    read_node_rows,
    write_csv,
    write_edge_list,
    write_node_table,
)
from orbitroles.graphlets import ORBIT_COUNT
from orbitroles.orbits import OrbitMatrix, orbits_from_csv, orbits_to_csv
from orbitroles.planted import (
    barbell_template,
    chain_template,
    clique_template,
    generate_planted_graph,
    star_template,
)

import graph_reference
from util import er_graph, has_edge


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadEdgeList:
    def test_duplicate_edges_collapse(self, tmp_path):
        path = write(tmp_path, "g.txt", "a b\nb c\na b\n")
        graph, table = load_edge_list(path)
        assert graph.node_count == 3
        assert graph.edge_count == 2

    def test_self_loop_dropped_with_warning(self, tmp_path, caplog):
        path = write(tmp_path, "g.txt", "a a\na b\n")
        with caplog.at_level(logging.WARNING):
            graph, _ = load_edge_list(path)
        assert graph.node_count == 2
        assert graph.edge_count == 1
        assert any("1 self-loop" in rec.getMessage() for rec in caplog.records)

    @pytest.mark.parametrize("level, walks", [(logging.WARNING, 0), (logging.INFO, 1)])
    def test_components_counted_only_for_a_shown_log_line(
        self, tmp_path, caplog, monkeypatch, level, walks
    ):
        calls = []
        original = Graph.components
        monkeypatch.setattr(Graph, "components", lambda g: calls.append(1) or original(g))
        path = write(tmp_path, "g.txt", "a b\nb c\nd e\n")
        with caplog.at_level(level, logger="orbitroles.graph"):
            load_edge_list(path)
        assert len(calls) == walks
        shown = [rec.getMessage() for rec in caplog.records if rec.levelno == logging.INFO]
        assert shown == ([f"{path}: 5 nodes, 3 edges, 2 component(s)"] if walks else [])

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = write(tmp_path, "g.txt", "# header\n\na b\n# more\nb c\n")
        graph, _ = load_edge_list(path)
        assert graph.edge_count == 2

    def test_malformed_line_reports_number(self, tmp_path):
        path = write(tmp_path, "g.txt", "a b\na b c\n")
        with pytest.raises(GraphFormatError, match=":2"):
            load_edge_list(path)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("a b\nb c\nc a\nc #d\n#d e\ne f\nf d\n", 4),  # '#d e' would be a comment
            ("a b\n  # x\nb a#c\nb #\n", 4),
        ],
    )
    def test_id_starting_with_hash_rejected(self, tmp_path, text, line):
        path = write(tmp_path, "g.txt", text)
        with pytest.raises(GraphFormatError, match=re.escape(f"{path}:{line}: id '#")):
            load_edge_list(path)

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path, "g.txt", "# nothing\n")
        with pytest.raises(GraphFormatError, match="empty"):
            load_edge_list(path)

    def test_isolated_table_nodes_kept_with_degree_zero(self, tmp_path):
        table = NodeTable(external_ids=["a", "b", "ghost"])
        path = write(tmp_path, "g.txt", "a b\n")
        graph, out = load_edge_list(path, table=table)
        assert graph.node_count == 3
        assert graph.degrees()[out.external_ids.index("ghost")] == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_pairs_and_ids_match_the_set_loop(self, tmp_path, seed):
        # repeated, reversed and self-loop lines; ids in order of first sight
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 90))
        lines = rng.integers(0, n, size=(int(rng.integers(1, 400)), 2)).tolist()
        path = write(tmp_path, "g.txt", "".join(f"v{u} v{v}\n" for u, v in lines))
        graph, table = load_edge_list(path)
        assert table.external_ids == list(dict.fromkeys(f"v{x}" for line in lines for x in line))
        index = {x: i for i, x in enumerate(table.external_ids)}
        pairs = list(dict.fromkeys(
            (index[f"v{u}"], index[f"v{v}"]) for u, v in lines if u != v
        ))
        want = graph_reference.from_edges(len(table), pairs, directed_pairs=pairs)
        assert graph.directed_pairs.tolist() == [list(p) for p in want.directed_pairs]
        assert graph.indices.tolist() == want.indices.tolist()

    def test_memory_per_line(self, tmp_path):
        # a citation file, n=20,000 and m=100,000: the set of seen pairs,
        # the pair tuples and the neighbour sets took 365 bytes a line
        import tracemalloc

        lines = np.random.default_rng(3).integers(0, 20_000, size=(100_000, 2))
        path = write(tmp_path, "g.txt", "".join(f"p{u} p{v}\n" for u, v in lines.tolist()))
        tracemalloc.start()
        try:
            load_edge_list(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200 * len(lines)

    def test_direction_pairs_follow_line_order(self, tmp_path):
        path = write(tmp_path, "g.txt", "a b\nc a\n")
        graph, table = load_edge_list(path)
        a, b, c = (table.external_ids.index(x) for x in "abc")
        assert graph.directed_pairs.tolist() == [[a, b], [c, a]]


class TestNodeTable:
    def test_two_rows_two_categories(self, tmp_path):
        path = write(tmp_path, "n.csv", "id,category\na,Medicine\nb,Chemistry\n")
        table = load_node_table(path)
        assert len(table) == 2
        assert len(set(table.categories)) == 2

    def test_empty_category_is_absent(self, tmp_path):
        path = write(tmp_path, "n.csv", "id,category\na,\nb,Chemistry\n")
        table = load_node_table(path)
        assert table.categories[0] is None

    def test_eight_category_table(self, tmp_path):
        cats = [
            "Computer Science",
            "Mathematics",
            "Medicine",
            "Chemistry",
            "Social Sciences",
            "Neuroscience",
            "Engineering",
            "Biochemistry Genetics and Molecular Biology",
        ]
        rows = "".join(f"p{i},{c}\n" for i, c in enumerate(cats))
        path = write(tmp_path, "n.csv", "id,category\n" + rows)
        table = load_node_table(path)
        assert len({c for c in table.categories if c is not None}) == 8

    def test_duplicate_id_rejected(self, tmp_path):
        path = write(tmp_path, "n.csv", "id,category\na,X\na,Y\n")
        with pytest.raises(GraphFormatError, match="duplicate"):
            load_node_table(path)

    def test_duplicate_ids_found_in_one_pass(self, tmp_path):
        # 20,000 rows and one repeated id: one counting pass, not a count
        # per id (which took seconds)
        import time

        rows = "".join(f"p{i},X\n" for i in range(20000)) + "p123,Y\n"
        path = write(tmp_path, "n.csv", "id,category\n" + rows)
        start = time.perf_counter()
        with pytest.raises(GraphFormatError, match=re.escape("duplicate id(s): ['p123']")):
            load_node_table(path)
        assert time.perf_counter() - start < 1.0

    def test_duplicate_ids_named_sorted_first_five(self, tmp_path):
        ids = ["g", "b", "g", "f", "a", "e", "d", "c", "a", "b", "c", "d", "e", "f", "x"]
        path = write(tmp_path, "n.csv", "id\n" + "".join(f"{i}\n" for i in ids))
        with pytest.raises(GraphFormatError) as err:
            load_node_table(path)
        assert str(err.value).endswith("duplicate id(s): ['a', 'b', 'c', 'd', 'e']")

    def test_extra_columns_ignored(self, tmp_path):
        path = write(tmp_path, "n.csv", "year,id,category\n2017,a,X\n2018,b,\n")
        table = load_node_table(path)
        assert (table.external_ids, table.categories) == (["a", "b"], ["X", None])

    def test_node_table_round_trip(self, tmp_path):
        table = NodeTable(external_ids=["a", "b"], categories=["X", None])
        path = tmp_path / "n.csv"
        write_node_table(table, path)
        back = load_node_table(path)
        assert back.external_ids == table.external_ids
        assert back.categories == table.categories


# Each per-node CSV as (write it for a table and return its values, read
# it back aligned to a table as (values, ids), the reader's error class).
def _write_orbits(table, path):
    counts = np.arange(len(table) * ORBIT_COUNT).reshape(len(table), ORBIT_COUNT)
    orbits_to_csv(OrbitMatrix(counts=counts), table, path)
    return counts


def _read_orbits(path, table):
    matrix, ids = orbits_from_csv(path, table)
    return matrix.counts, ids


def _write_embedding(table, path):
    vectors = np.arange(len(table) * 3).reshape(len(table), 3) / 7.0
    embedding_to_csv(EmbeddingMatrix(vectors=vectors, method_tag="struc2vec"), table, path)
    return vectors


def _read_embedding(path, table):
    emb = import_embedding(path, table)
    assert emb.method_tag == "struc2vec"
    return emb.vectors, list(table.external_ids)


def _write_roles(table, path):
    labels = np.arange(len(table)) % 3
    roles_to_csv(RoleAssignment(labels=labels, k=3, method_tag="rolx", seed=5), table, path)
    return labels[:, None]


def _read_roles(path, table):
    assignment, ids = roles_from_csv(path, table)
    assert (assignment.k, assignment.method_tag, assignment.seed) == (3, "rolx", 5)
    return assignment.labels[:, None], ids


NODE_CSVS = {
    "orbits": (_write_orbits, _read_orbits, ValueError),
    "embedding": (_write_embedding, _read_embedding, EmbeddingError),
    "roles": (_write_roles, _read_roles, ClusteringError),
}
# ids that csv.writer quotes, leaves empty, or that start with the
# comment marker
ODD_IDS = ["v0", "#d", "a,b", 'q"x', "", "v5"]


@pytest.mark.parametrize("kind", sorted(NODE_CSVS))
class TestNodeRows:
    def _file(self, tmp_path, kind):
        """The CSV of ``ODD_IDS``, its lines and the line number of its
        header."""
        write_csv = NODE_CSVS[kind][0]
        path = tmp_path / f"{kind}.csv"
        write_csv(NodeTable(external_ids=ODD_IDS), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        header = next(i for i, line in enumerate(lines, start=1) if line.startswith("id,"))
        return path, lines, header

    def test_round_trip_odd_ids(self, tmp_path, kind):
        write_csv, read_csv, _ = NODE_CSVS[kind]
        path = tmp_path / f"{kind}.csv"
        values = write_csv(NodeTable(external_ids=ODD_IDS), path)
        back, ids = read_csv(path, NodeTable(external_ids=ODD_IDS))
        assert ids == ODD_IDS
        assert np.array_equal(back, values)
        # realigned to another table order
        order = [3, 0, 5, 1, 4, 2]
        back, ids = read_csv(path, NodeTable(external_ids=[ODD_IDS[i] for i in order]))
        assert ids == [ODD_IDS[i] for i in order]
        assert np.array_equal(back, values[order])

    @pytest.mark.parametrize("fault", ["short", "extra", "non-numeric", "repeated"])
    def test_malformed_row_names_path_and_line(self, tmp_path, kind, fault):
        path, lines, header = self._file(tmp_path, kind)
        row = header + 4  # the row of 'q"x', which csv.writer quotes
        if fault == "short":
            lines[row - 1] = lines[row - 1].rsplit(",", 1)[0]
        elif fault == "extra":
            lines[row - 1] += ",7"
        elif fault == "non-numeric":
            lines[row - 1] = lines[row - 1].rsplit(",", 1)[0] + ",x"
        else:
            lines.append(lines[row - 1])
            row = len(lines)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        _, read_csv, error = NODE_CSVS[kind]
        with pytest.raises(error, match=re.escape(f"{path}:{row}: ")):
            read_csv(path, NodeTable(external_ids=ODD_IDS))

    def test_hash_line_after_header_is_a_row(self, tmp_path, kind):
        path, lines, header = self._file(tmp_path, kind)
        # a copy of v0's row under the id '# c'
        lines.insert(header, "# c" + lines[header][len("v0") :])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        write_csv, read_csv, _ = NODE_CSVS[kind]
        back, ids = read_csv(path, NodeTable(external_ids=["# c"] + ODD_IDS))
        assert ids == ["# c"] + ODD_IDS
        values = write_csv(NodeTable(external_ids=ODD_IDS), tmp_path / "again.csv")
        assert np.array_equal(back, np.concatenate([values[:1], values]))


@pytest.mark.parametrize("rows", [np.zeros((3, 2)), [(1,), (2,), (3,)]])
def test_write_csv_needs_a_row_per_node(tmp_path, rows):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=re.escape(f"{path}: 3 rows for a table of 2 nodes")):
        write_csv(path, ["id", "a"], rows, nodes=NodeTable(external_ids=["u", "v"]))
    assert not path.exists()


class _LayoutError(Exception):
    pass


class TestReadNodeRows:
    def test_meta_header_ids_rows(self, tmp_path):
        path = write(
            tmp_path, "n.csv", "# method=x k=3 note\n\n#seed=7\nid,a,b\n\nu,1,2\n #w,3,4\n"
        )
        meta, header, ids, rows = read_node_rows(path, int, ValueError)
        assert meta == {"method": "x", "k": "3", "seed": "7"}
        assert header == ["id", "a", "b"]
        assert ids == ["u", " #w"]
        assert rows == [[1, 2], [3, 4]]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "no header"),
            ("# method=x\n", "no header"),
            ("u,1\n", "n.csv:1: expected a header"),
            ("id\nu\n", "n.csv:1: expected a header"),
            ("id,a\nu,1\n#k=2\n", "n.csv:3: expected 2 cells, got 1"),
        ],
    )
    def test_bad_layout_raised_as_callers_error(self, tmp_path, text, message):
        path = write(tmp_path, "n.csv", text)
        with pytest.raises(_LayoutError, match=message):
            read_node_rows(path, int, _LayoutError)

    def test_first_ten_missing_ids_named(self, tmp_path):
        path = write(tmp_path, "n.csv", "id,a\nv3,1\n")
        table = NodeTable(external_ids=[f"v{i}" for i in range(14)])
        with pytest.raises(ValueError) as info:
            read_node_rows(path, int, ValueError, table)
        named = [f"v{i}" for i in range(14) if i != 3][:10]
        assert str(info.value).endswith(f"missing rows for ids {named}")


class TestGraphInvariants:
    def test_degree_sum_is_twice_edges(self):
        g = er_graph(60, 0.1, 3)
        assert int(g.degrees().sum()) == 2 * g.edge_count

    def test_adjacency_sorted_and_symmetric(self):
        g = er_graph(40, 0.15, 4)
        for v, row in enumerate(g.adjacency):
            assert list(row) == sorted(row)
            assert v not in row
            for w in row:
                assert has_edge(g, w, v)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 25), st.integers(0, 10_000))
    def test_round_trip_preserves_adjacency(self, n, seed):
        import tempfile
        from pathlib import Path

        g = er_graph(n, 0.3, seed)
        if g.edge_count == 0:
            return  # loader rejects empty files by contract
        table = NodeTable(external_ids=[f"v{i}" for i in range(n)])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.txt"
            write_edge_list(g, table, path)
            back, back_table = load_edge_list(path, table=table)
        assert back.adjacency == g.adjacency
        assert back_table.external_ids == table.external_ids

    def test_components(self):
        g = Graph.from_edges(5, [(0, 1), (2, 3)])
        comps = g.components()
        assert comps == [[0, 1], [2, 3], [4]]


@st.composite
def edge_lists(draw):
    """(n, pairs): random pairs over n nodes with repeats, reversed pairs,
    self loops and isolated nodes, for n from 0 to past 63; sometimes with
    one endpoint outside [0, n) somewhere in the list."""
    n = draw(st.sampled_from([0, 1, 2, 63, 64, 100]) | st.integers(0, 40))
    node = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(node, node), max_size=3 * n)) if n else []
    pairs += [p[::-1] for p in draw(st.lists(st.sampled_from(pairs)))] if pairs else []
    pairs = draw(st.permutations(pairs))
    if draw(st.booleans()):
        bad = draw(st.tuples(st.integers(-2, n + 2), st.sampled_from([-1, n, n + 5])))
        pairs.insert(draw(st.integers(0, len(pairs))), bad[:: draw(st.sampled_from([1, -1]))])
    return n, pairs


class TestGraphArraysEqualReference:
    """``from_edges`` and ``components`` against the set loop and the BFS
    they replaced (``tests/graph_reference.py``)."""

    @settings(max_examples=300, deadline=None)
    @given(edge_lists())
    def test_csr_components_and_pairs(self, case):
        n, pairs = case
        try:
            want = graph_reference.from_edges(n, pairs, directed_pairs=pairs)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                Graph.from_edges(n, pairs, directed_pairs=pairs)
            assert str(info.value) == str(exc)
            return
        got = Graph.from_edges(n, pairs, directed_pairs=pairs)
        assert got.indptr.tolist() == want.indptr.tolist()
        assert got.indices.tolist() == want.indices.tolist()
        assert got.edge_count == want.edge_count
        assert got.components() == want.components()
        assert got.directed_pairs.tolist() == [list(p) for p in want.directed_pairs]
        assert got.adjacency == want.adjacency
        assert list(got.edges()) == [(u, v) for u, row in enumerate(want.adjacency) for v in row if v > u]
        for arr in (got.indptr, got.indices, got.directed_pairs):
            assert arr.dtype == np.int64 and not arr.flags.writeable

    @settings(max_examples=200, deadline=None)
    @given(edge_lists(), st.integers(1, 3))
    def test_copies_and_distinct_part(self, case, repeat):
        # ``repeat`` copies of the graph side by side, node i of copy c at
        # repeat * i + c: every component has its copies, keyed alike
        n, pairs = case
        try:
            one = Graph.from_edges(n, pairs)
        except ValueError:
            return
        edges = [(repeat * u + c, repeat * v + c) for u, v in one.edges() for c in range(repeat)]
        g = Graph.from_edges(repeat * n, edges)
        components, first = g.copies
        assert components == g.components()
        keys = [(len(c), g.local_edges(c).tobytes()) for c in components]
        for i, f in enumerate(first):
            assert f <= i and first[f] == f and keys[f] == keys[i]
            assert f == i or keys.index(keys[i]) == f
        sub, source = g.distinct_part()
        kept = [c for i, c in enumerate(components) if first[i] == i]
        if len(kept) == len(components):
            assert sub is g and source is None
            return
        assert sub.node_count == sum(map(len, kept))
        for i, comp in enumerate(components):
            # the j-th node of a component is the j-th of its first copy in sub
            assert source[comp].tolist() == source[components[first[i]]].tolist()
        starts = source[[c[0] for c in kept]].tolist()
        assert starts == sorted(starts)
        for v in range(g.node_count):
            assert list(sub.adjacency[source[v]]) == sorted(source[list(g.adjacency[v])].tolist())
        for arr in (sub.indptr, sub.indices):
            assert arr.dtype == np.int64 and not arr.flags.writeable

    def test_self_loop_outside_range_skipped_as_before(self):
        pairs = [(0, 1), (5, 5), (-1, -1), (2, 7), (9, 0)]
        with pytest.raises(ValueError, match=re.escape("edge (2, 7) outside [0, 4)")):
            Graph.from_edges(4, pairs)

    def test_components_of_long_path_in_shuffled_order(self):
        # labels must flow the whole length of the path
        order = np.random.default_rng(0).permutation(500).tolist()
        g = Graph.from_edges(501, list(zip(order, order[1:])))
        assert g.components() == [list(range(500)), [500]]


class TestPlantedGraphs:
    def test_clique_copies_single_role(self):
        planted = generate_planted_graph([clique_template(5)], copies=10, seed=0)
        assert planted.graph.node_count == 50
        assert len(planted.role_names) == 1

    def test_chain_roles(self):
        planted = generate_planted_graph([chain_template(4)], copies=10, seed=0)
        assert sorted(planted.role_names) == ["chain-end", "chain-interior"]
        counts = np.bincount(planted.true_role)
        assert sorted(counts.tolist()) == [20, 20]

    def test_star_roles(self):
        planted = generate_planted_graph([star_template(3)], copies=2, seed=0)
        assert sorted(planted.role_names) == ["star-center", "star-leaf"]

    def test_barbell_role_counts(self):
        # two 5-cliques joined by a 3-node chain: per copy 8 members,
        # 2 attachments, 1 bridge-center
        planted = generate_planted_graph([barbell_template(5, 3)], copies=20, seed=0)
        counts = {
            name: int((planted.true_role == i).sum())
            for i, name in enumerate(planted.role_names)
        }
        assert counts == {
            "clique-member": 160,
            "clique-attachment": 40,
            "bridge-center": 20,
        }

    def test_seed_determinism_bit_identical(self):
        a = generate_planted_graph([barbell_template(5, 3)], 5, noise_edges=30, seed=9)
        b = generate_planted_graph([barbell_template(5, 3)], 5, noise_edges=30, seed=9)
        assert a.graph.adjacency == b.graph.adjacency
        assert np.array_equal(a.true_role, b.true_role)

    def test_noise_edges_added_exactly(self):
        base = generate_planted_graph([clique_template(4)], 5, noise_edges=0, seed=1)
        noisy = generate_planted_graph([clique_template(4)], 5, noise_edges=12, seed=1)
        assert noisy.graph.edge_count == base.graph.edge_count + 12

    def test_empty_template_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            generate_planted_graph([], copies=1, seed=0)

    def test_long_barbell_has_arm_and_center_roles(self):
        tpl = barbell_template(5, 5)
        assert "bridge-center" in tpl.roles
        assert "bridge-arm-1" in tpl.roles
        planted = generate_planted_graph([tpl], copies=2, seed=0)
        assert planted.graph.node_count == 26


# The bytes of each table CSV, written out in full: floats by repr and NaN
# (an absent value) as an empty cell, bools as true/false, ids and strings
# quoted as csv.writer quotes them, \n line ends.
class TestCsvFormatGolden:
    def _text(self, path):
        return path.read_bytes().decode("utf-8")

    def test_sweep(self, tmp_path):
        from orbitroles.clustering import SilhouetteSweep

        rows = [("graphwave", 2, 0.1 + 0.2, False), ("rolx", 3, np.float64(-0.125), True)]
        SilhouetteSweep(rows=rows).to_csv(tmp_path / "sweep.csv")
        assert self._text(tmp_path / "sweep.csv") == (
            "method,k,silhouette,sampled\n"
            "graphwave,2,0.30000000000000004,false\n"
            "rolx,3,-0.125,true\n"
        )

    def test_importance(self, tmp_path):
        from orbitroles.surrogate import ImportanceReport

        rows = [(27, np.float64(0.022), np.float64(0.0006)), (3, np.float64(0.0), np.float64(0.0))]
        ImportanceReport(rows=rows, baseline_accuracy=0.9, repeats=5).to_csv(
            tmp_path / "importance.csv"
        )
        assert self._text(tmp_path / "importance.csv") == (
            "rank,orbit,mean,std\n1,27,0.022,0.0006\n2,3,0.0,0.0\n"
        )

    def test_effects_with_annotation(self, tmp_path):
        from orbitroles.surrogate import ALECurve, write_effect_curves

        curves = [
            ALECurve(5, c, np.array([0.0, 1.5]), np.array([-0.25, 0.25]) * (c + 1), "ALE", None)
            for c in (0, 1)
        ]
        write_effect_curves(curves, np.log1p(6.0), tmp_path / "effects.csv")
        assert self._text(tmp_path / "effects.csv") == (
            "orbit,class,kind,grid_value,effect\n"
            "5,0,ALE,0.0,-0.25\n"
            "5,0,ALE,1.5,0.25\n"
            "5,1,ALE,0.0,-0.5\n"
            "5,1,ALE,1.5,0.5\n"
            "annotation,,orbit3_threshold,1.9459101490553132,\n"
        )
        write_effect_curves(curves[:1], None, tmp_path / "bare.csv")
        assert self._text(tmp_path / "bare.csv") == (
            "orbit,class,kind,grid_value,effect\n5,0,ALE,0.0,-0.25\n5,0,ALE,1.5,0.25\n"
        )

    def test_diversity(self, tmp_path):
        from orbitroles.diversity import DiversityReport

        report = DiversityReport(
            idr=np.array([0.5, np.nan, 1 / 3]),
            degree=np.array([2, 0, 3]),
            role=np.array([1, 0, 2]),
            neighbors_used=np.array([2, 0, 3]),
            direction="all",
        )
        report.to_csv(tmp_path / "diversity.csv", NodeTable(external_ids=["a,b", 'q"x', ""]))
        assert self._text(tmp_path / "diversity.csv") == (
            "id,idr,degree,role,neighbors_used,direction\n"
            '"a,b",0.5,2,1,2,all\n'
            '"q""x",,0,0,0,all\n'
            ",0.3333333333333333,3,2,3,all\n"
        )

    def _binned(self):
        from orbitroles.diversity import BinnedIDRTable

        hi = np.log(2.0)
        return BinnedIDRTable(
            rows=[
                (0, 0.0, hi, 0, [0.5, 0.25, 1.0, 0.0], True),
                (0, 0.0, hi, 1, [], False),
                (1, hi, 2 * hi, 0, [0.1], False),
            ],
            bin_edges=np.array([0.0, hi, 2 * hi]),
            included_bins=[0],
        )

    def test_idr_bins_with_an_empty_bin(self, tmp_path):
        self._binned().to_csv(tmp_path / "idr_bins.csv")
        assert self._text(tmp_path / "idr_bins.csv") == (
            "bin,lo,hi,role,count,included,median,q1,q3\n"
            "0,0.0,0.6931471805599453,0,4,true,0.375,0.1875,0.625\n"
            "0,0.0,0.6931471805599453,1,0,false,,,\n"
            "1,0.6931471805599453,1.3862943611198906,0,1,false,0.1,0.1,0.1\n"
        )

    def test_idr_values(self, tmp_path):
        self._binned().values_to_csv(tmp_path / "idr_values.csv")
        assert self._text(tmp_path / "idr_values.csv") == (
            "bin,role,idr\n0,0,0.5\n0,0,0.25\n0,0,1.0\n0,0,0.0\n1,0,0.1\n"
        )

    def test_node_table_with_a_missing_category(self, tmp_path):
        table = NodeTable(
            external_ids=["a", "b,c", "", 'say "hi"'],
            categories=["X", None, "Y Z", 'p,"q"'],
        )
        write_node_table(table, tmp_path / "nodes.csv")
        assert self._text(tmp_path / "nodes.csv") == (
            "id,category\n"
            "a,X\n"
            '"b,c",\n'
            ",Y Z\n"
            '"say ""hi""","p,""q"""\n'
        )
