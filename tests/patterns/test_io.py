"""Tests for pattern serialization."""

import json

import pytest

from repro.patterns.bc2d import bc2d
from repro.patterns.g2dbc import g2dbc
from repro.patterns.io import (
    load_pattern,
    pattern_from_dict,
    pattern_to_dict,
    save_pattern,
)
from repro.patterns.base import PatternError
from repro.patterns.sbc import sbc


class TestRoundTrip:
    def test_dict_round_trip(self):
        p = g2dbc(10)
        assert pattern_from_dict(pattern_to_dict(p)) == p

    def test_undefined_cells_preserved(self):
        p = sbc(21)  # extended diagonal: undefined cells
        q = pattern_from_dict(pattern_to_dict(p))
        assert q == p
        assert q.has_undefined

    def test_name_preserved(self):
        p = bc2d(3, 4)
        assert pattern_from_dict(pattern_to_dict(p)).name == p.name

    def test_file_round_trip(self, tmp_path):
        p = g2dbc(23)
        path = tmp_path / "p23.json"
        save_pattern(p, path)
        assert load_pattern(path) == p

    def test_file_is_json(self, tmp_path):
        path = tmp_path / "p.json"
        save_pattern(bc2d(2, 2), path)
        data = json.loads(path.read_text())
        assert data["nnodes"] == 4


class TestMalformedInput:
    """Every malformed shape raises ``PatternError`` naming the file."""

    def _write(self, tmp_path, payload) -> str:
        path = tmp_path / "bad.json"
        path.write_text(payload if isinstance(payload, str)
                        else json.dumps(payload))
        return str(path)

    def test_invalid_json(self, tmp_path):
        path = self._write(tmp_path, "{not json")
        with pytest.raises(PatternError, match="invalid JSON") as exc:
            load_pattern(path)
        assert path in str(exc.value)

    def test_not_an_object(self, tmp_path):
        path = self._write(tmp_path, [1, 2, 3])
        with pytest.raises(PatternError, match="JSON object") as exc:
            load_pattern(path)
        assert path in str(exc.value)

    @pytest.mark.parametrize("missing", ["grid", "nnodes"])
    def test_missing_required_key(self, tmp_path, missing):
        data = {"grid": [[0]], "nnodes": 1}
        del data[missing]
        path = self._write(tmp_path, data)
        with pytest.raises(PatternError, match=missing) as exc:
            load_pattern(path)
        assert path in str(exc.value)

    def test_ragged_grid(self, tmp_path):
        path = self._write(tmp_path, {"grid": [[0, 1], [2]], "nnodes": 3})
        with pytest.raises(PatternError, match="ragged") as exc:
            load_pattern(path)
        assert path in str(exc.value)

    def test_empty_grid(self, tmp_path):
        path = self._write(tmp_path, {"grid": [], "nnodes": 1})
        with pytest.raises(PatternError, match="non-empty"):
            load_pattern(path)

    def test_non_integer_cell(self, tmp_path):
        path = self._write(tmp_path, {"grid": [[0, "x"]], "nnodes": 2})
        with pytest.raises(PatternError, match=r"grid\[0\]\[1\]") as exc:
            load_pattern(path)
        assert path in str(exc.value)

    def test_bool_cell_rejected(self, tmp_path):
        path = self._write(tmp_path, {"grid": [[0, True]], "nnodes": 2})
        with pytest.raises(PatternError, match=r"grid\[0\]\[1\]"):
            load_pattern(path)

    def test_bad_nnodes(self, tmp_path):
        path = self._write(tmp_path, {"grid": [[0]], "nnodes": "many"})
        with pytest.raises(PatternError, match="positive integer"):
            load_pattern(path)

    def test_nnodes_grid_mismatch(self, tmp_path):
        path = self._write(tmp_path, {"grid": [[0, 5]], "nnodes": 3})
        with pytest.raises(PatternError, match="references node 5") as exc:
            load_pattern(path)
        assert path in str(exc.value)

    def test_pattern_from_dict_without_context(self):
        with pytest.raises(PatternError, match="missing required key"):
            pattern_from_dict({"grid": [[0]]})
