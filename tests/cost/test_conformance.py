"""Differential conformance: analytic counts vs numeric executor logs.

For every pattern family the repo implements (2DBC, G-2DBC, SBC,
GCR&M), the analytic message counting of :mod:`repro.cost.exact` and
the message log of the distributed numeric executors in
:mod:`repro.dla` must agree **tile-for-tile**: the same multiset of
``(src, dst, i, j)`` transfers, hence the same per-node sent/received
histograms and the same total — not merely equal totals that could
hide compensating errors.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.exact import count_cholesky_messages, count_lu_messages
from repro.distribution import TileDistribution
from repro.dla import (
    cholesky_residual,
    diagonally_dominant,
    execute_cholesky,
    execute_lu,
    lu_residual,
    spd_matrix,
)
from repro.patterns.base import UNDEFINED, Pattern
from repro.patterns.bc2d import bc2d
from repro.patterns.g2dbc import g2dbc
from repro.patterns.gcrm import feasible_sizes, gcrm
from repro.patterns.sbc import sbc

TILE = 8


def _lu_patterns():
    return [
        ("bc2d", bc2d(2, 3)),
        ("bc2d-square", bc2d(3, 3)),
        ("g2dbc-7", g2dbc(7)),
        ("g2dbc-11", g2dbc(11)),
    ]


def _chol_patterns():
    return [
        ("sbc-10", sbc(10)),
        ("sbc-15", sbc(15)),
        ("gcrm-7", gcrm(7, feasible_sizes(7)[0], seed=0).pattern),
        ("gcrm-11", gcrm(11, feasible_sizes(11)[0], seed=3).pattern),
    ]


@pytest.mark.parametrize("label,pattern", _lu_patterns(),
                         ids=[l for l, _ in _lu_patterns()])
@pytest.mark.parametrize("m", [8, 13])
def test_lu_messages_conform(label, pattern, m):
    dist = TileDistribution(pattern, m, symmetric=False)
    exact = count_lu_messages(dist, detailed=True)
    mat = diagonally_dominant(m, TILE, seed=0)
    orig = mat.copy()
    log = execute_lu(mat, dist, log_messages=True)

    assert lu_residual(orig, mat) < 1e-10
    assert log.n_messages == exact.total
    np.testing.assert_array_equal(log.per_node_sent, exact.per_node_sent)
    np.testing.assert_array_equal(log.per_node_recv, exact.per_node_recv)
    assert Counter(log.messages) == Counter(exact.messages)


@pytest.mark.parametrize("label,pattern", _chol_patterns(),
                         ids=[l for l, _ in _chol_patterns()])
@pytest.mark.parametrize("m", [8, 13])
def test_cholesky_messages_conform(label, pattern, m):
    dist = TileDistribution(pattern, m, symmetric=True)
    exact = count_cholesky_messages(dist, detailed=True)
    mat = spd_matrix(m, TILE, seed=0)
    orig = mat.copy()
    log = execute_cholesky(mat, dist, log_messages=True)

    assert cholesky_residual(orig, mat) < 1e-10
    assert log.n_messages == exact.total
    np.testing.assert_array_equal(log.per_node_sent, exact.per_node_sent)
    np.testing.assert_array_equal(log.per_node_recv, exact.per_node_recv)
    assert Counter(log.messages) == Counter(exact.messages)


def test_detailed_list_consistent_with_counts():
    """The detailed list must itself reduce to the summary arrays."""
    dist = TileDistribution(g2dbc(7), 10, symmetric=False)
    exact = count_lu_messages(dist, detailed=True)
    assert len(exact.messages) == exact.total
    sent = np.zeros(dist.nnodes, dtype=np.int64)
    recv = np.zeros(dist.nnodes, dtype=np.int64)
    for src, dst, _, _ in exact.messages:
        assert src != dst
        sent[src] += 1
        recv[dst] += 1
    np.testing.assert_array_equal(sent, exact.per_node_sent)
    np.testing.assert_array_equal(recv, exact.per_node_recv)


def test_default_call_keeps_messages_off():
    """Without ``detailed`` the list stays None (no memory cost)."""
    dist = TileDistribution(g2dbc(5), 8, symmetric=False)
    assert count_lu_messages(dist).messages is None
    mat = diagonally_dominant(8, TILE, seed=0)
    assert execute_lu(mat, dist).messages is None


@st.composite
def _drawn_distributions(draw, symmetric):
    """A random pattern on up to 6 used nodes, sometimes with idle
    nodes past the largest id (and for Cholesky, when larger than 1×1,
    undefined diagonal cells), over 1 to 12 tiles."""
    r = draw(st.integers(1, 4))
    c = r if symmetric else draw(st.integers(1, 4))
    used = draw(st.integers(1, 6))
    grid = np.array(draw(st.lists(st.lists(st.integers(0, used - 1),
                                           min_size=c, max_size=c),
                                  min_size=r, max_size=r)))
    if symmetric and r > 1:
        grid[np.diag_indices(r)] = np.where(
            draw(st.lists(st.booleans(), min_size=r, max_size=r)),
            UNDEFINED, grid[np.diag_indices(r)])
    idle = draw(st.integers(0, 2))
    pattern = Pattern(grid, nnodes=int(grid.max()) + 1 + idle)
    return TileDistribution(pattern, draw(st.integers(1, 12)), symmetric)


def _assert_conforms(exact, log):
    assert exact.panel + exact.trsm == exact.total == exact.per_iteration.sum()
    assert log.n_messages == exact.total
    np.testing.assert_array_equal(log.per_node_sent, exact.per_node_sent)
    np.testing.assert_array_equal(log.per_node_recv, exact.per_node_recv)
    assert Counter(log.messages) == Counter(exact.messages)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_drawn_distributions(symmetric=False))
def test_lu_messages_conform_on_drawn_distributions(dist):
    exact = count_lu_messages(dist, detailed=True)
    mat = diagonally_dominant(dist.n_tiles, 2, seed=0)
    _assert_conforms(exact, execute_lu(mat, dist, log_messages=True))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_drawn_distributions(symmetric=True))
def test_cholesky_messages_conform_on_drawn_distributions(dist):
    exact = count_cholesky_messages(dist, detailed=True)
    mat = spd_matrix(dist.n_tiles, 2, seed=0)
    _assert_conforms(exact, execute_cholesky(mat, dist, log_messages=True))
