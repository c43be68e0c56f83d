"""CLI tests, ending with the acceptance sweep of the real tree."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.lint.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


@pytest.fixture
def mini_tree(tmp_path):
    """A tiny package shaped like the real one: one dirty determinism
    module, one clean module, one waived line."""
    pkg = tmp_path / "repro"
    (pkg / "runtime").mkdir(parents=True)
    (pkg / "runtime" / "chaos.py").write_text(
        "import time\n"
        "DEADLINE = time.time()\n",
        encoding="utf-8",
    )
    (pkg / "runtime" / "clean.py").write_text(
        "def double(x):\n    return 2 * x\n",
        encoding="utf-8",
    )
    (pkg / "obs").mkdir()
    (pkg / "obs" / "waived.py").write_text(
        "import time\n"
        "TS = time.time()  # repro-lint: disable=DET003  # test metadata\n",
        encoding="utf-8",
    )
    return tmp_path


def test_findings_exit_1_and_render(mini_tree, capsys):
    code = main([str(mini_tree)])
    out, err = capsys.readouterr()
    assert code == 1
    assert "DET003" in out
    assert "chaos.py" in out
    assert "clean.py" not in out
    assert "1 finding (1 waived) in 3 files" in err


def test_clean_tree_exits_0(mini_tree, capsys):
    code = main([str(mini_tree / "repro" / "runtime" / "clean.py")])
    out, err = capsys.readouterr()
    assert code == 0
    assert out == ""
    assert "0 findings" in err


def test_json_output(mini_tree, capsys):
    code = main([str(mini_tree), "--json"])
    out, _ = capsys.readouterr()
    assert code == 1
    payload = json.loads(out)
    assert payload["version"] == 1
    assert payload["files"] == 3
    assert [f["rule"] for f in payload["findings"]] == ["DET003"]
    assert [f["rule"] for f in payload["waived"]] == ["DET003"]
    finding = payload["findings"][0]
    assert finding["path"].endswith("chaos.py")
    assert finding["line"] == 2


def test_select_narrows_rules(mini_tree, capsys):
    code = main([str(mini_tree), "--select", "DET004"])
    capsys.readouterr()
    assert code == 0
    code = main([str(mini_tree), "--select", "DET"])
    capsys.readouterr()
    assert code == 1


def test_ignore_drops_family(mini_tree, capsys):
    code = main([str(mini_tree), "--ignore", "DET"])
    capsys.readouterr()
    assert code == 0


def test_unknown_rule_exits_2(mini_tree, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([str(mini_tree), "--select", "ZZZ999"])
    assert excinfo.value.code == 2
    assert "ZZZ999" in capsys.readouterr().err


def test_missing_path_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([str(tmp_path / "nope")])
    assert excinfo.value.code == 2
    assert "no such path" in capsys.readouterr().err


def test_list_rules(capsys):
    code = main(["--list-rules"])
    out, _ = capsys.readouterr()
    assert code == 0
    for rule_id in ("DET001", "FPR001", "PKL001", "LCK001", "EXC001",
                    "LNT001"):
        assert rule_id in out


def test_live_sweep_of_real_tree_is_clean(capsys):
    """Acceptance criterion: ``repro-lint src/`` exits 0 on this repo."""
    assert SRC.is_dir()
    code = main([str(SRC)])
    out, err = capsys.readouterr()
    assert code == 0, f"doctrine sweep found violations:\n{out}"
    assert "0 findings" in err


def test_live_sweep_json_shape(capsys):
    code = main([str(SRC), "--json"])
    out, _ = capsys.readouterr()
    assert code == 0
    payload = json.loads(out)
    assert payload["findings"] == []
    # The deliberate waivers in trace.py are visible to CI rather than
    # silently absorbed.
    waived_rules = {f["rule"] for f in payload["waived"]}
    assert "DET003" in waived_rules
    assert payload["files"] > 50
