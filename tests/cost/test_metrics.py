"""Tests for the closed-form communication models (Eqs. 1–2)."""

import pytest

from repro.cost.metrics import communication_cost, per_node_volume, q_cholesky, q_lu
from repro.patterns.bc2d import bc2d
from repro.patterns.g2dbc import g2dbc
from repro.patterns.sbc import sbc


class TestClosedForms:
    def test_q_lu_2dbc(self):
        # Eq 1: m(m+1)/2 (x̄+ȳ−2); 2x3 grid: x̄=3, ȳ=2
        p = bc2d(2, 3)
        assert q_lu(p, 12) == 12 * 13 / 2 * 3

    def test_q_lu_scales_quadratically(self):
        p = bc2d(4, 4)
        assert q_lu(p, 20) / q_lu(p, 10) == pytest.approx(20 * 21 / (10 * 11))

    def test_q_cholesky_sbc(self):
        p = sbc(21)  # z̄ = 6
        assert q_cholesky(p, 10) == 10 * 11 / 2 * 5

    def test_q_cholesky_square_2dbc(self):
        p = bc2d(3, 3)  # z̄ = 5
        assert q_cholesky(p, 6) == 6 * 7 / 2 * 4

    def test_communication_cost_dispatch(self):
        p = bc2d(3, 3)
        assert communication_cost(p, "lu") == 6
        assert communication_cost(p, "cholesky") == 5

    def test_per_node_volume(self):
        p = bc2d(2, 3)
        assert per_node_volume(p, 12, "lu") == q_lu(p, 12) / 6

    def test_g2dbc_volume_beats_bad_2dbc(self):
        m = 50
        assert q_lu(g2dbc(23), m) < q_lu(bc2d(23, 1), m)
