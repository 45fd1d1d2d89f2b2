import runpy
from pathlib import Path

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_every_demo_runs_to_completion(tmp_path, monkeypatch, capsys):
    # the demos use only the public API, so a dropped export breaks one here
    monkeypatch.chdir(tmp_path)  # demos write figures/ and regime_atlas.csv
    assert len(DEMOS) == 4
    for demo in DEMOS:
        runpy.run_path(str(demo), run_name="__main__")
        assert capsys.readouterr().out, demo.name
    assert (tmp_path / "regime_atlas.csv").read_text().startswith("tau,")
    assert len(list((tmp_path / "figures").glob("*.svg"))) == 6
