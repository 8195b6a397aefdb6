import json
import runpy
from pathlib import Path

import pytest

SWEEP = Path(__file__).resolve().parents[1] / "tools" / "field_sweep.py"


def test_field_sweep_prints_one_line_per_solve(capsys):
    # the sweep's flat_rect nx16 mesh alone: five 50-atom and two 6-atom
    # molecules, each one certified JSON line with its pinned step count
    sweep = runpy.run_path(str(SWEEP))
    sweep["main"](["--mesh", "nx16"])
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["atoms"] for row in rows] == [50] * 5 + [6] * 2
    assert [row["steps"] for row in rows] == [9, 11, 10, 9, 8, 12, 9]
    assert all(row["mesh"] == "nx16" and row["certified"] is True for row in rows)
    assert set(rows[0]) == {"mesh", "atoms", "steps", "correctors", "certified",
                            "value", "seconds"}
    assert rows[0]["value"] == pytest.approx(15.7365, rel=1e-5)


def test_field_sweep_rejects_an_unknown_mesh(capsys):
    sweep = runpy.run_path(str(SWEEP))
    with pytest.raises(SystemExit):
        sweep["main"](["--mesh", "nx256"])
    assert "invalid choice" in capsys.readouterr().err
