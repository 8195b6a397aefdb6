import hashlib
import json
import runpy
from pathlib import Path

import pytest

from freeflow import generate_primitive
from freeflow import io as ffio

TOOLS = Path(__file__).resolve().parents[1] / "tools"
SWEEP = TOOLS / "field_sweep.py"


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


def _ladder_nx16(capsys):
    # the smallest rung, flat_rect nx16, timed once: one JSON line with its
    # sizes, the mesh file's MB and digest, and each layer's seconds and MB
    tool = runpy.run_path(str(TOOLS / "ladder.py"))
    tool["main"](["--rung", "nx16", "--repeat", "1"])
    (row,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    seconds = {f"{name}_s" for name in ("build", "setup", "write", "read", "load", "hash")}
    traced = {f"{name}_{key}" for name in ("build", "setup") for key in ("peak_mb", "kept_mb")}
    assert set(row) == {"rung", "vertices", "faces", "mb", "sha256"} | seconds | traced
    assert (row["rung"], row["vertices"], row["faces"]) == ("nx16", 289, 512)
    return row


def test_mesh_build_prints_one_line_per_rung(capsys):
    # the ladder's mesh-build columns: the build and field set-up seconds
    # and traced MB
    row = _ladder_nx16(capsys)
    for name in ("build", "setup"):
        assert row[f"{name}_s"] > 0.0
        assert 0.0 < row[f"{name}_kept_mb"] <= row[f"{name}_peak_mb"]


def test_json_io_prints_one_line_per_rung(capsys):
    # the ladder's JSON-I/O columns: the mesh file's MB and digest, and the
    # write, read, load and hash seconds
    row = _ladder_nx16(capsys)
    mesh = generate_primitive("flat_rect", nx=16)
    text = json.dumps(ffio.mesh_to_dict(mesh), indent=2, ensure_ascii=False) + "\n"
    assert row["sha256"] == hashlib.sha256(text.encode()).hexdigest()
    assert row["mb"] == round(len(text.encode()) / 2**20, 6)
    assert all(row[f"{name}_s"] > 0.0 for name in ("write", "read", "load", "hash"))


def test_ladder_rejects_an_unknown_rung(capsys):
    tool = runpy.run_path(str(TOOLS / "ladder.py"))
    with pytest.raises(SystemExit):
        tool["main"](["--rung", "nx512"])
    assert "invalid choice" in capsys.readouterr().err
