"""Tests for the JSON experiment export."""

import json

import pytest

from repro.experiments import export
from repro.experiments.export import (
    export_all,
    fig2_data,
    mpqc_data,
    scaling_data,
    table1_data,
)


@pytest.fixture(scope="module")
def quick_fig2():
    """``fig2_data`` memoized for this module.

    The quick Fig. 2 sweep takes ~10 s and three tests need it: directly,
    through ``export_all`` and through the ``export`` CLI.  The memo is
    patched into the export module, so the last two still run their full
    code paths and only the sweep itself is computed once.
    """
    results = {}

    def memo(scale="quick", seed=0, with_dbcsr=True):
        key = (scale, seed, with_dbcsr)
        if key not in results:
            results[key] = fig2_data(scale=scale, seed=seed, with_dbcsr=with_dbcsr)
        return results[key]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(export, "fig2_data", memo)
        yield memo


class TestExport:
    def test_table1_structure(self):
        d = table1_data()
        assert set(d) == {"v1", "v2", "v3"}
        for v in d.values():
            assert v["tasks"] >= v["tasks_opt"] > 0
            assert 0 < v["density_v"] < 1

    def test_fig2_points(self, quick_fig2):
        pts = quick_fig2(scale="quick")
        assert len(pts) == 15  # 3 sizes x 5 densities
        for p in pts:
            assert p["parsec_tflops"] > 0
            assert p["dbcsr_feasible"] in (True, False)
            if p["dbcsr_feasible"]:
                assert p["dbcsr_tflops"] > 0
            else:
                assert p["dbcsr_tflops"] is None

    def test_scaling_points(self):
        d = scaling_data(gpu_counts=(3, 12))
        for v, series in d.items():
            assert [p["gpus"] for p in series] == [3, 12]
            assert series[0]["time"] > series[1]["time"]

    def test_mpqc_rows(self):
        rows = mpqc_data()
        assert [r["nodes"] for r in rows] == [8, 16]
        assert all(r["speedup"] > 1 for r in rows)

    def test_export_all_roundtrip(self, tmp_path, quick_fig2):
        path = str(tmp_path / "out.json")
        data = export_all(path, gpu_counts=(3, 12))
        with open(path) as f:
            back = json.load(f)
        assert back["meta"]["paper"].startswith("Herault")
        assert back["table1"].keys() == data["table1"].keys()
        assert len(back["fig2"]) == len(data["fig2"])

    def test_export_cli(self, tmp_path, capsys, quick_fig2):
        from repro.cli import main

        out = str(tmp_path / "r.json")
        assert main(["export", "-o", out, "--gpus", "3", "12"]) == 0
        assert "wrote" in capsys.readouterr().out
        json.load(open(out))
