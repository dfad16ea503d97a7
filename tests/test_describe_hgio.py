"""Tests for hypergraph I/O."""

import io

import numpy as np
import pytest

from repro.hypergraph import Hypergraph, read_hyperedges, write_hyperedges


class TestHypergraphIO:
    def test_roundtrip(self):
        hg = Hypergraph(6, [(0, 1, 2), (3, 4), (0, 5)], [1.0, 2.5, 1.0])
        buf = io.StringIO()
        write_hyperedges(hg, buf)
        buf.seek(0)
        back = read_hyperedges(buf)
        assert back.n_nodes == 6
        assert back.edges == hg.edges
        assert np.allclose(back.weights, hg.weights)

    def test_file_roundtrip(self, tmp_path):
        hg = Hypergraph(4, [(0, 1), (2, 3)])
        path = tmp_path / "edges.txt"
        write_hyperedges(hg, path)
        back = read_hyperedges(path)
        assert back.edges == hg.edges

    def test_weights_preserved_exactly(self):
        hg = Hypergraph(3, [(0, 1)], [0.123456789012345])
        buf = io.StringIO()
        write_hyperedges(hg, buf)
        buf.seek(0)
        assert read_hyperedges(buf).weights[0] == hg.weights[0]

    def test_n_nodes_inference(self):
        back = read_hyperedges(io.StringIO("1 2\n3 4 5\n"))
        assert back.n_nodes == 5

    def test_n_nodes_override(self):
        back = read_hyperedges(io.StringIO("1 2\n"), n_nodes=10)
        assert back.n_nodes == 10

    @pytest.mark.parametrize(
        "text, n_nodes, line",
        [
            ("# nodes: 2\n1 5\n", None, 2),
            ("# nodes: 3\n1 2\n\n0 3\n", None, 4),
            ("1 2\n2 4\n", 3, 2),
        ],
        ids=["past-header", "zero-id", "past-override"],
    )
    def test_out_of_range_id_names_line(self, text, n_nodes, line):
        with pytest.raises(ValueError, match=rf"line {line}: node id out of range"):
            read_hyperedges(io.StringIO(text), n_nodes=n_nodes)

    def test_bad_id_rejected(self):
        with pytest.raises(ValueError, match="bad node id"):
            read_hyperedges(io.StringIO("1 x\n"))

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_weight_rejected(self, weight):
        text = f"# nodes: 3\n1 2 # 2.0\n2 3 # {weight}\n"
        with pytest.raises(ValueError, match=r"line 3: weight \S+ is not finite"):
            read_hyperedges(io.StringIO(text))

    def test_bad_weight_names_line(self):
        with pytest.raises(ValueError, match="line 2: bad node id or weight"):
            read_hyperedges(io.StringIO("1 2\n2 3 # heavy\n"))

    def test_bad_node_count_names_line(self):
        with pytest.raises(ValueError, match="line 2: bad node count"):
            read_hyperedges(io.StringIO("# a comment\n# nodes: abc\n1 2\n"))

    def test_comments_skipped(self):
        back = read_hyperedges(io.StringIO("# a comment\n\n1 2\n"))
        assert back.n_edges == 1

    def test_roundtrip_through_adjacency(self):
        """File → hypergraph → adjacency tensor pipeline."""
        from repro.hypergraph import adjacency_tensor

        text = "# nodes: 5\n1 2 3\n4 5\n"
        hg = read_hyperedges(io.StringIO(text))
        t = adjacency_tensor(hg, 3)
        assert t.unnz == 2
