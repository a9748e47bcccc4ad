"""Tests of tests/compare_outputs.py, the byte-identity check between two
sheatlab output directories."""

import json

import compare_outputs

CSV = "t,x,u\n0.1,0.25,1.5\n0.1,0.5,2.0\n"
PAYLOAD = {"slope": -4.9, "fits": [{"lambda": 1.0, "slope": -4.9}]}
MANIFEST = {"command": "moments", "wall_clock_s": 1.25, "outputs": []}


def _outputs(root, csv=CSV, manifest=MANIFEST):
    root.mkdir()
    (root / "moments.csv").write_text(csv)
    (root / "lyapunov.json").write_text(json.dumps(PAYLOAD))
    (root / "manifest_moments.json").write_text(json.dumps(manifest))
    return str(root)


def test_identical_directories_print_nothing(tmp_path, capsys):
    a, b = _outputs(tmp_path / "a"), _outputs(tmp_path / "b")
    assert compare_outputs.main(a, b) == 0
    assert capsys.readouterr().out == ""


def test_perturbed_csv_cell_names_file_and_column(tmp_path, capsys):
    a = _outputs(tmp_path / "a")
    b = _outputs(tmp_path / "b", csv=CSV.replace("2.0", "2.0000001"))
    assert compare_outputs.main(a, b) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "moments.csv"
    assert len(lines) == 2 and lines[1].startswith("  u: max rel 5e-08 (1 differ)")


def test_roundoff_measure_floors_the_scale_at_one(tmp_path, capsys):
    # 0.1 -> 0.1000001 is 1e-6 relative but 1e-7 against a scale of 1;
    # 1.5 -> 1.5000003 is 2e-7 either way
    a = _outputs(tmp_path / "a")
    b = _outputs(tmp_path / "b", csv=CSV.replace("0.1,0.25", "0.1000001,0.25", 1)
                 .replace("1.5", "1.5000003"))
    assert compare_outputs.main(a, b) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "  t: max rel 1e-06 (1 differ), max |a - b|/max(1, |a|, |b|) 1e-07",
        "  u: max rel 2e-07 (1 differ), max |a - b|/max(1, |a|, |b|) 2e-07"]


def test_manifest_wall_clock_is_ignored(tmp_path, capsys):
    a = _outputs(tmp_path / "a")
    b = _outputs(tmp_path / "b", manifest={**MANIFEST, "wall_clock_s": 9.5})
    assert compare_outputs.main(a, b) == 0
    assert capsys.readouterr().out == ""


def test_manifest_difference_beyond_timing_is_reported(tmp_path, capsys):
    a = _outputs(tmp_path / "a")
    b = _outputs(tmp_path / "b", manifest={**MANIFEST, "wall_clock_s": 9.5,
                                           "command": "lyapunov"})
    assert compare_outputs.main(a, b) == 1
    assert capsys.readouterr().out.splitlines() == [
        "manifest_moments.json", "  command: max rel 0 (1 differ), text"]


def test_nested_timing_fields_are_ignored(tmp_path, capsys):
    nested = {**MANIFEST, "diagnostics": {"ensemble_s": 0.5, "oracle_s": 0.1,
                                          "sample_steps_per_s": 1e6, "n_diag": 1}}
    a = _outputs(tmp_path / "a", manifest=nested)
    b = _outputs(tmp_path / "b", manifest={**nested, "diagnostics": {
        **nested["diagnostics"], "ensemble_s": 0.7, "sample_steps_per_s": 2e6}})
    assert compare_outputs.main(a, b) == 0
    assert capsys.readouterr().out == ""
