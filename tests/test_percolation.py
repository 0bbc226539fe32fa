"""Percolation of edge-list bases against the per-edge loop of the oracles."""
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import oracles as oc
from covertime import (
    BaseGraphSpec,
    MultiGraph,
    connected_components,
    from_edge_list,
    percolate,
    to_edge_list_text,
)


@st.composite
def multigraph_texts(draw):
    """Edge lists with runs of unit edges broken by multi-edges and loops."""
    n = draw(st.integers(1, 12))
    end = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(end, end, st.sampled_from([1, 1, 1, 2, 3, 7])), max_size=30))
    return to_edge_list_text(MultiGraph(n, edges))


@given(multigraph_texts(), st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_percolation_draws_as_the_edge_loop(text, p, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "base.txt"
        path.write_text(text)
        full, big = percolate(BaseGraphSpec.from_file(str(path), p), seed)
    base = from_edge_list(text)
    kept = oc.percolated_edges(base, p, np.random.default_rng(seed))
    assert full == MultiGraph(base.vertex_count, kept)
    assert big.vertices == connected_components(full)[0].vertices
