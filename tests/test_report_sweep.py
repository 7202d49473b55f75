import importlib.util
import json
from pathlib import Path

from prodsurf import cli
from prodsurf.catalog import catalog_list

_PATH = Path(__file__).resolve().parents[1] / "tools" / "report_sweep.py"
_SPEC = importlib.util.spec_from_file_location("report_sweep", _PATH)
sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sweep)

CYLINDER = ["verify", "--surface", "circle_cylinder", "--param", "kappa=1",
            "--param", "r=0.5", "--grid", "5x5"]


def test_commands_are_distinct_and_cover_the_catalog():
    argvs = [" ".join(argv) for argv in sweep.commands()]
    assert len(argvs) >= 300 and len(set(argvs)) == len(argvs)
    surfaces = {a.split("--surface ")[1].split()[0] for a in argvs if "--surface" in a}
    assert {e.id for e in catalog_list()} <= surfaces


def test_run_one_records_exit_hashes_and_rows():
    code, out, err, digest = sweep.run_one(CYLINDER)
    assert code == 0 and len(out) == len(err) == 64
    assert digest["pmc"][1] is True and digest["pmc"][0] < 1e-9
    assert sweep.run_one(CYLINDER)[:3] == [code, out, err]


def test_uncaught_exception_is_recorded(monkeypatch):
    def boom(argv):
        raise KeyError("r")

    monkeypatch.setattr(cli, "main", boom)
    assert sweep.run_one(CYLINDER)[0] == "uncaught KeyError: 'r'"


def test_compare_reports_moves_and_flags(tmp_path, capsys):
    same = [0, "a", "b", {"pmc": [1e-16, True]}]
    a = {"same": same, "moved": [0, "a", "b", {"pmc": [1e-16, True]}],
         "failed": [0, "a", "b", {"pmc": [1e-16, True]}]}
    b = {"same": same, "moved": [0, "c", "b", {"pmc": [3e-16, True]}],
         "failed": [1, "c", "b", {"pmc": [1.0, False]}]}
    for name, doc in (("a", a), ("b", b)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    assert sweep.compare(str(tmp_path / "a.json"), str(tmp_path / "b.json")) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("failed: pmc") and "EXIT 0 -> 1" in lines[0]
    assert "FLAGS ['pmc']" in lines[0]
    assert lines[1] == "moved: pmc 1e-16 -> 3e-16 (|change| 2e-16)"
    assert lines[2].startswith("1 of 3 common commands identical; 1 changed")
