import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_time_configs_records_a_commit_only_for_a_checkout_top(tmp_path):
    def git(*args):
        return subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t",
                               "-c", "user.email=t@t", *args],
                              check=True, capture_output=True, text=True).stdout.strip()
    git("init", "-q")
    git("commit", "-q", "--allow-empty", "-m", "empty")
    export = tmp_path / "export"
    export.mkdir()
    commit = load_script("time_configs")._commit
    assert commit(tmp_path) == git("rev-parse", "HEAD")
    # an untracked export inside the checkout is not that commit
    assert commit(export) is None


def test_code_lines_file_rows_add_up_to_their_tree(capsys):
    load_script("code_lines").main([str(SCRIPTS.parent / "src")])
    tables = capsys.readouterr().out.split("\n\n")
    (total,) = [line.split("|")[2:4] for line in tables[0].splitlines()[2:]]
    files = [line.split("|")[1:4] for line in tables[1].splitlines()[2:]]
    assert {name.strip() for name, _, _ in files} >= {"src/dcelab/gate.py", "src/dcelab/cli.py"}
    for column in (0, 1):
        assert sum(int(row[column + 1]) for row in files) == int(total[column]) > 0


def test_time_configs_reports_minor_page_faults(tmp_path, capsys):
    # a tree of one small config on this checkout's src/
    tree = tmp_path / "tree"
    (tree / "configs").mkdir(parents=True)
    (tree / "src").symlink_to(SCRIPTS.parent / "src")
    (tree / "configs" / "tiny.yaml").write_text(
        "#   dcelab spectrum --config configs/tiny.yaml\n"
        "squid: {chi0: 0.0, b0L: 1.0e6, b0R: 1.0e6, n_max: 2}\n")
    out = tmp_path / "times.json"
    assert load_script("time_configs").main(["--after", str(tree), "--runs", "2",
                                             "--out", str(out)]) == 0
    entry = json.loads(out.read_text())["configs"]["tiny"]["after"]
    # a fresh Python process that imports numpy touches thousands of pages
    assert len(entry["minflt_runs"]) == 2 and min(entry["minflt_runs"]) > 1000
    assert entry["minflt_median"] == sum(entry["minflt_runs"]) / 2
    assert f"{entry['minflt_median']:.0f} faults" in capsys.readouterr().out
