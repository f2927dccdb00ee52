import importlib.util
import json
import shutil
import subprocess
import sys
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


def tiny_tree(tmp_path, name="tree"):
    """A tree of one small config on this checkout's src/."""
    tree = tmp_path / name
    (tree / "configs").mkdir(parents=True)
    (tree / "src").symlink_to(SCRIPTS.parent / "src")
    (tree / "configs" / "tiny.yaml").write_text(
        "#   dcelab spectrum --config configs/tiny.yaml\n"
        "squid: {chi0: 0.0, b0L: 1.0e6, b0R: 1.0e6, n_max: 2}\n")
    return tree


def test_time_configs_reports_minor_page_faults(tmp_path, capsys):
    out = tmp_path / "times.json"
    assert load_script("time_configs").main(["--after", str(tiny_tree(tmp_path)), "--runs", "2",
                                             "--out", str(out)]) == 0
    entry = json.loads(out.read_text())["configs"]["tiny"]["after"]
    # a fresh Python process that imports numpy touches thousands of pages
    assert len(entry["minflt_runs"]) == 2 and min(entry["minflt_runs"]) > 1000
    assert entry["minflt_median"] == sum(entry["minflt_runs"]) / 2
    assert f"{entry['minflt_median']:.0f} faults" in capsys.readouterr().out


def test_time_configs_reads_each_runs_own_peak_rss(tmp_path):
    out = tmp_path / "times.json"
    # Run as a script runs, in a small fresh interpreter: a child's ru_maxrss never reads
    # below the resident set of the process that started it, and this test process holds
    # more than a tiny run. An earlier child that touches 96 MB raises the peak over all
    # children, so a figure from getrusage(RUSAGE_CHILDREN) would read at least that much.
    code = f"""
import resource, subprocess, sys
subprocess.run([sys.executable, "-c", "b = b'x' * (96 << 20)"], check=True)
assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss > 96 << 10
sys.path.insert(0, {str(SCRIPTS)!r})
import time_configs
sys.exit(time_configs.main(["--after", {str(tiny_tree(tmp_path))!r}, "--runs", "2",
                            "--out", {str(out)!r}]))"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    entry = json.loads(out.read_text())["configs"]["tiny"]["after"]
    # a fresh process that imports numpy holds some MB, far below the 96 MB child
    assert len(entry["maxrss_mb_runs"]) == 2
    assert all(10.0 < mb < 96.0 for mb in entry["maxrss_mb_runs"])
    assert entry["maxrss_mb_median"] == sum(entry["maxrss_mb_runs"]) / 2
    assert f"{entry['maxrss_mb_median']:.1f} MB" in proc.stdout


def test_time_configs_compares_the_tables_of_both_trees(tmp_path, capsys):
    time_configs = load_script("time_configs")
    after = tiny_tree(tmp_path)

    def compare(before):
        out = tmp_path / f"{before.name}.json"
        assert time_configs.main(["--before", str(before), "--after", str(after),
                                  "--runs", "1", "--out", str(out)]) == 0
        return json.loads(out.read_text())["configs"]["tiny"], capsys.readouterr().out

    entry, stdout = compare(tiny_tree(tmp_path, "same"))  # the same src/
    assert entry["tables_identical"] is True and entry["table_changes"] == {}
    assert "tables identical" in stdout
    # a copied src/ that writes 15 significant digits instead of 17
    other = tiny_tree(tmp_path, "other")
    (other / "src").unlink()
    shutil.copytree(SCRIPTS.parent / "src", other / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    output = other / "src" / "dcelab" / "output.py"
    text = output.read_text()
    assert 'FLOAT_FMT = ".17g"' in text
    output.write_text(text.replace('FLOAT_FMT = ".17g"', 'FLOAT_FMT = ".15g"'))
    entry, stdout = compare(other)
    assert entry["tables_identical"] is False
    assert "tables differ: spectrum.csv (" in stdout
    # rounding to 15 significant digits moves a cell by at most 5e-15 of it
    changes = entry["table_changes"]["spectrum.csv"]
    assert changes and all(0.0 < c["max_abs"] and 0.0 < c["max_rel"] <= 5e-15
                           for c in changes.values())
    for column, c in changes.items():
        assert f"{column} max abs {c['max_abs']:.2g} rel {c['max_rel']:.2g}" in stdout
