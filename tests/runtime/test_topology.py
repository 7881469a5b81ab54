"""Unit tests for the two-level :class:`Topology` abstraction."""

import pickle

import numpy as np
import pytest

from repro.runtime.cluster import ClusterSpec
from repro.runtime.topology import Topology


class TestConstruction:
    def test_flat(self):
        t = Topology.flat(7)
        assert t.nranks == 7
        assert t.ranks_per_node == 1
        assert t.is_flat
        assert t.nnodes == 7

    def test_packed(self):
        t = Topology(nranks=11, ranks_per_node=4)
        assert not t.is_flat
        assert t.nnodes == 3  # ceil(11/4): last node half-filled

    def test_exact_fill(self):
        assert Topology(nranks=12, ranks_per_node=4).nnodes == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            Topology(nranks=0)
        with pytest.raises(ValueError):
            Topology(nranks=4, ranks_per_node=0)

    def test_repr(self):
        assert "ranks_per_node" in repr(Topology(nranks=8, ranks_per_node=2))


class TestMaps:
    def test_rank_nodes(self):
        t = Topology(nranks=7, ranks_per_node=3)
        assert t.rank_nodes.tolist() == [0, 0, 0, 1, 1, 1, 2]
        assert t.rank_nodes.dtype == np.int64

    def test_rank_nodes_readonly(self):
        t = Topology(nranks=7, ranks_per_node=3)
        with pytest.raises(ValueError):
            t.rank_nodes[0] = 5

    def test_node_of_matches_map(self):
        t = Topology(nranks=13, ranks_per_node=4)
        for rank in range(t.nranks):
            assert t.node_of(rank) == t.rank_nodes[rank]

    def test_node_ranks_partition(self):
        t = Topology(nranks=10, ranks_per_node=3)
        seen = []
        for node in range(t.nnodes):
            seen.extend(t.node_ranks(node))
        assert seen == list(range(10))

    def test_flat_identity_map(self):
        t = Topology.flat(9)
        assert t.rank_nodes.tolist() == list(range(9))


class TestIdentitySemantics:
    def test_hashable_and_eq(self):
        a = Topology(nranks=8, ranks_per_node=2)
        b = Topology(nranks=8, ranks_per_node=2)
        assert a == b and hash(a) == hash(b)
        assert a != Topology(nranks=8, ranks_per_node=4)

    def test_cache_key(self):
        t = Topology(nranks=8, ranks_per_node=2)
        assert t.cache_key == (8, 2)

    def test_picklable_after_cached_property(self):
        t = Topology(nranks=8, ranks_per_node=2)
        _ = t.rank_nodes  # populate the instance cache
        u = pickle.loads(pickle.dumps(t))
        assert u == t
        assert u.rank_nodes.tolist() == t.rank_nodes.tolist()


class TestClusterIntegration:
    def test_cluster_topology(self):
        cl = ClusterSpec(nnodes=10, ranks_per_node=4)
        t = cl.topology()
        assert t.nranks == 10
        assert t.ranks_per_node == 4
        assert t.nnodes == 3

    def test_default_is_flat(self):
        assert ClusterSpec(nnodes=5).topology().is_flat

    def test_with_nodes_preserves_packing(self):
        cl = ClusterSpec(nnodes=5, ranks_per_node=2).with_nodes(9)
        assert cl.ranks_per_node == 2
        assert cl.topology().nnodes == 5

    def test_invalid_ranks_per_node(self):
        with pytest.raises(ValueError):
            ClusterSpec(nnodes=4, ranks_per_node=0)
