"""Provenance headers, float round-trips, and atomicity of the file writers."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from torusflow.flow import DiffeoMap
from torusflow.reports import (
    config_digest,
    write_csv,
    write_curvature_csv,
    write_diffeo_csv,
    write_field_csv,
    write_json,
    write_trajectory_csv,
)
from torusflow.spectral import make_grid, random_bandlimited


class TestConfigDigest:
    def test_key_order_does_not_matter(self):
        a = config_digest({"x": 1, "y": [2, 3]})
        b = config_digest({"y": [2, 3], "x": 1})
        assert a == b
        assert len(a) == 64

    def test_value_changes_change_the_digest(self):
        assert config_digest({"x": 1}) != config_digest({"x": 2})


class TestWriteCsv:
    def test_layout_and_float_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        values = [0.1 + 0.2, 1e-17, -3.5, np.pi]
        write_csv(path, ("a", "b", "c", "d"), [values], digest="f" * 64)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# tool: torusflow ")
        assert lines[1] == "# config_sha256: " + "f" * 64
        assert lines[2] == "a,b,c,d"
        parsed = [float(cell) for cell in lines[3].split(",")]
        assert parsed == values

    def test_integer_cells_stay_integers(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("i", "x"), [[3, 0.5]], digest="0" * 64)
        assert path.read_text().splitlines()[3] == "3,0.5"

    def test_float_table_matches_cell_formatting(self, tmp_path):
        table = np.array([[0.1 + 0.2, -0.0, 1e-300, -np.pi],
                          [np.inf, -np.inf, np.nan, 2.0**60],
                          [1.0, 5e-324, -1.5e308, 1 / 3]])
        by_table, by_rows = tmp_path / "table.csv", tmp_path / "rows.csv"
        write_csv(by_table, ("a", "b", "c", "d"), table, digest="0" * 64)
        write_csv(by_rows, ("a", "b", "c", "d"), table.tolist(), digest="0" * 64)
        assert by_table.read_bytes() == by_rows.read_bytes()
        assert by_table.read_text().splitlines()[3] == "0.30000000000000004,-0,1e-300,-3.1415926535897931"

    @pytest.mark.parametrize("table", [np.zeros((2, 3)), [[1.0, 2.0], [3.0, 4.0, 5.0]], [[1.0, 2.0, 3.0]],
                                       np.zeros(2), np.zeros((0, 3))])
    def test_table_of_another_width_writes_nothing(self, tmp_path, table):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ("a", "b"), table, digest="0" * 64)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("table", [[[1.0, "2"]], [[1.0, None]], [[True, False]], [[1.0, 2j]]])
    def test_non_numeric_cell_writes_nothing(self, tmp_path, table):
        with pytest.raises(ValueError, match="numeric"):
            write_csv(tmp_path / "t.csv", ("a", "b"), table, digest="0" * 64)
        assert list(tmp_path.iterdir()) == []

    def test_creates_missing_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "t.csv"
        write_csv(path, ("x",), [[1.0]], digest="0" * 64)
        assert path.exists()

    def test_no_temp_files_left_behind(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("x",), [[1.0]], digest="0" * 64)
        write_csv(path, ("x",), [[2.0]], digest="0" * 64)
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


class TestWriteJson:
    def test_meta_injected_and_bytes_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        payload = {"z": 1.5, "a": [1, 2]}
        write_json(p1, payload, digest="a" * 64)
        write_json(p2, payload, digest="a" * 64)
        assert p1.read_bytes() == p2.read_bytes()
        body = json.loads(p1.read_text())
        assert body["meta"]["config_sha256"] == "a" * 64
        assert body["meta"]["tool"].startswith("torusflow ")
        assert body["a"] == [1, 2]

    def test_payload_not_mutated(self, tmp_path):
        payload = {"x": 1}
        write_json(tmp_path / "a.json", payload, digest="b" * 64)
        assert payload == {"x": 1}


class TestFieldWriters:
    def test_field_csv_covers_the_grid(self, tmp_path):
        grid = make_grid(8, 6)
        u = random_bandlimited(grid, seed=0, kmax=2, amplitude=0.1)
        path = tmp_path / "f.csv"
        write_field_csv(path, u, digest="0" * 64)
        lines = path.read_text().splitlines()
        assert lines[2] == "x,y,u1,u2"
        assert len(lines) == 3 + 8 * 6
        x0, y0, u1, _ = (float(v) for v in lines[3].split(","))
        assert (x0, y0) == (0.0, 0.0)
        assert u1 == u[0].values[0, 0]

    def test_diffeo_csv_header(self, tmp_path):
        grid = make_grid(8, 8)
        phi = DiffeoMap.translation(grid, 0.25, 0.5)
        path = tmp_path / "d.csv"
        write_diffeo_csv(path, phi, digest="0" * 64)
        lines = path.read_text().splitlines()
        assert lines[2] == "x,y,d1,d2"
        assert len(lines) == 3 + 64

    def test_trajectory_csv_columns(self, tmp_path):
        report = SimpleNamespace(
            times=[0.0, 0.1],
            hamiltonian=[1.0, 1.0 + 1e-12],
            sup_u=[0.5, 0.5],
        )
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, report, digest="0" * 64)
        lines = path.read_text().splitlines()
        assert lines[2] == "t,hamiltonian,sup_u"
        assert float(lines[4].split(",")[1]) == 1.0 + 1e-12

    def test_curvature_csv_preserves_row_order(self, tmp_path):
        rows = [
            {"k1": 6.0, "k2": 6.0, "i": 2, "S_formula": 0.3, "S_direct": 0.3,
             "S_closed_form": 0.3, "gamma_terms": 0.3, "r_term": 0.0},
            {"k1": 1.0, "k2": 2.0, "i": 1, "S_formula": 0.1, "S_direct": 0.1,
             "S_closed_form": 0.1, "gamma_terms": 0.1, "r_term": 0.0},
        ]
        path = tmp_path / "c.csv"
        write_curvature_csv(path, rows, digest="0" * 64)
        lines = path.read_text().splitlines()
        assert lines[3].startswith("6,6,2,")
        assert lines[4].startswith("1,2,1,")
