import csv
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_scan(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / "run_sharpness_scan.py"), *args],
        capture_output=True,
        text=True,
    )


def test_sharpness_scan_script_writes_rows(tmp_path):
    out = tmp_path / "scan.csv"
    proc = run_scan("--steps", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["a", "ratio", "bound", "margin"]
    assert [float(row[0]) for row in rows[1:]] == [0.0, 0.45, 0.9]
    for a, ratio, bound, margin in rows[1:]:
        assert float(ratio) <= float(bound) + 1e-8


def test_sharpness_scan_script_rejects_bad_arguments():
    cases = (
        (["--amax", "0.99"], "--amax must lie in [0, 0.95]"),
        (["--amax", "-0.1"], "--amax must lie in [0, 0.95]"),
        (["--steps", "0"], "--steps must be at least 1"),
    )
    for args, message in cases:
        proc = run_scan(*args)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.strip().splitlines()[-1].endswith("error: " + message)
