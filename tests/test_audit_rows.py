import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("audit_rows", ROOT / "tools" / "audit_rows.py")
audit_rows = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(audit_rows)


def _row(scheme, ee, status, iters="3"):
    return {"scheme": scheme, "ee_bits_per_joule": ee, "sum_se": "1.5", "iters": iters, "status": status}


def _keyed(*rows):
    return {(1, row["scheme"], "8", "2", "0.2", "1.0", "7"): row for row in rows}


def test_compare_flags_rows_that_newly_fail():
    parent = _keyed(_row("ipce", "100.0", "converged"), _row("pce", "90.0", "converged"))
    change = _keyed(_row("ipce", "nan", "error:NonConcaveObjectiveError"), _row("pce", "90.0", "converged"))
    lines, failed = audit_rows.compare(parent, change)
    assert failed
    assert "status transitions: converged -> error:NonConcaveObjectiveError: 1" in lines
    assert "rows newly NaN, error:* or infeasible: 1" in lines


def test_compare_reports_status_changes_and_largest_changes():
    parent = _keyed(_row("ipce", "100.0", "ascent-flag", iters="5"))
    change = _keyed(_row("ipce", "100.001", "converged", iters="4"))
    lines, failed = audit_rows.compare(parent, change)
    assert not failed
    assert "status transitions: ascent-flag -> converged: 1" in lines
    assert any(line.startswith("largest relative EE change, ipce: 1.000e-05 (unchanged status 0.000e+00")
               for line in lines)
    assert "iteration changes: 1 rows, net -1, from -1 to -1" in lines


def test_ee_bound_fails_only_rows_past_it_with_unchanged_status():
    # ipce moves 2e-6 with its status unchanged; pce moves 1e-2 but changes
    # status, which the transition lines report instead.
    parent = _keyed(_row("ipce", "100.0", "converged"), _row("pce", "90.0", "max-iter"))
    change = _keyed(_row("ipce", "100.0002", "converged"), _row("pce", "90.9", "converged"))
    assert not audit_rows.compare(parent, change, ee_bound=1e-5)[1]
    lines, failed = audit_rows.compare(parent, change, ee_bound=1e-6)
    assert failed
    assert "rows with unchanged status past the EE bound 1.000e-06: 1" in lines
    assert any(line.startswith("  (1, 'ipce',") and line.endswith("+2.000e-06") for line in lines)


@pytest.mark.parametrize("bound", ["-1e-6", "nan", "inf"])
def test_bad_ee_bound_is_a_usage_error(bound):
    with pytest.raises(SystemExit) as exc:
        audit_rows.main([str(ROOT), str(ROOT), "--command", "sweep-m", "--config", "x.cfg", "--seeds", "1",
                         "--ee-bound", bound])
    assert exc.value.code == audit_rows.EXIT_USAGE


def test_row_missing_on_one_side_fails():
    parent = _keyed(_row("ipce", "100.0", "converged"))
    _, failed = audit_rows.compare(parent, {})
    assert failed


def test_a_tree_against_itself_is_identical(tmp_path, capsys):
    config = tmp_path / "tiny.cfg"
    config.write_text("m_list = 8\nk = 2\nrho_f_w_list = 0.2\nn_mc = 200\nn_topologies = 1\n")
    code = audit_rows.main([str(ROOT), str(ROOT), "--command", "sweep-m", "--config", str(config),
                            "--seeds", "5-6", "--ee-bound", "0"])
    out = capsys.readouterr().out
    assert code == audit_rows.EXIT_OK
    assert "rows compared: 6, differing: 0" in out
    assert "rows with unchanged status past the EE bound 0.000e+00: 0" in out
    assert "byte-identical CSV and _agg.csv: 2 of 2 seeds" in out


def test_a_rejected_config_fails_the_run(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("m_list = 8\nk = 2\nn_mc = 200\nn_topologies = 1\narea_side_km = 0\n")
    code = audit_rows.main([str(ROOT), str(ROOT), "--command", "sweep-m", "--config", str(config),
                            "--seeds", "1-2"])
    assert code == audit_rows.EXIT_USAGE
    assert "a tree's run failed" in capsys.readouterr().err


def test_identical_fails_on_an_altered_row(tmp_path, capsys):
    # The altered tree writes wall_ms as 1: the row comparison ignores that
    # field, so only --identical sees that the files differ.
    config = tmp_path / "tiny.cfg"
    config.write_text("m_list = 8\nk = 2\nrho_f_w_list = 0.2\nn_mc = 200\nn_topologies = 1\n")
    altered = tmp_path / "altered"
    shutil.copytree(ROOT / "src", altered / "src", ignore=shutil.ignore_patterns("__pycache__"))
    harness = altered / "src" / "cellfree_ee" / "harness.py"
    source = harness.read_text()
    assert source.count('"0",  # wall_ms') == 1
    harness.write_text(source.replace('"0",  # wall_ms', '"1",  # wall_ms'))
    args = ["--command", "sweep-m", "--config", str(config), "--seeds", "5", "--identical"]
    assert audit_rows.main([str(ROOT), str(ROOT), *args]) == audit_rows.EXIT_OK
    capsys.readouterr()
    assert audit_rows.main([str(ROOT), str(altered), *args]) == audit_rows.EXIT_NEW_BAD_ROWS
    out = capsys.readouterr().out
    assert "rows compared: 3, differing: 0" in out
    assert "byte-identical CSV and _agg.csv: 0 of 1 seeds" in out
