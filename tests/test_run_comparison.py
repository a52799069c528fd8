import os
import subprocess
import sys

import pytest

from charrnn.cli import main
from charrnn.model import KINDS, PRESETS
from tests.conftest import REPO_ROOT
from tests.test_cli import _symlink_loop

SCALE_ARGS = ["--epochs", "1", "--scale", "0.0078125", "--seq-len", "20",
              "--batch-size", "8", "--embed-dim", "8", "--lr", "0.002",
              "--dropout", "0.25", "--seed", "3"]
SCRIPT = str(REPO_ROOT / "scripts" / "run_comparison.py")


def test_comparison_matches_cli_train_and_report(fixture_path, tmp_path, capsys):
    outdir = tmp_path / "runs"
    subprocess.run(
        [sys.executable, SCRIPT, "--corpus", str(fixture_path), "--outdir", str(outdir),
         *SCALE_ARGS],
        check=True, capture_output=True,
    )
    runs = [f"{kind}_{preset}" for kind in KINDS for preset in PRESETS]
    for run in runs:
        kind, preset = run.split("_")
        ckpt = tmp_path / f"{run}.ckpt"
        code = main(["train", "--corpus", str(fixture_path), "--model", kind,
                     "--preset", preset, *SCALE_ARGS,
                     "--out", str(ckpt), "--history", str(tmp_path / f"{run}.csv")])
        assert code == 0
        assert (outdir / f"{run}.ckpt").read_bytes() == ckpt.read_bytes(), run
    capsys.readouterr()
    assert main(["report", "--history", *(str(outdir / f"{run}.csv") for run in runs)]) == 0
    assert (outdir / "report.csv").read_text(encoding="utf-8") == capsys.readouterr().out


def test_bad_train_flag_ends_as_charrnn_train_does(fixture_path, tmp_path):
    # the script forwards the flag, so charrnn train's usage error is its own
    def run(argv):
        return subprocess.run([sys.executable, *argv, "--corpus", str(fixture_path),
                               "--scale", "0"], capture_output=True, text=True, cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})

    script = run([SCRIPT, "--outdir", str(tmp_path / "runs")])
    train = run(["-m", "charrnn", "train", "--model", "lstm", "--preset", "uni",
                 "--out", "x.ckpt", "--history", "x.csv"])
    assert train.returncode == 2 and "argument --scale: must be finite" in train.stderr
    assert (script.returncode, script.stderr) == (train.returncode, train.stderr)


@pytest.mark.parametrize("args", [["--corpus", "missing.txt"], ["--corpus", "loop"]],
                         ids=["missing_corpus", "symlink_loop_corpus"])
def test_bad_input_is_one_error_line_and_exit_1(fixture_path, tmp_path, args):
    if "loop" in args:
        _symlink_loop(tmp_path / "loop")
    run = subprocess.run(
        [sys.executable, SCRIPT, "--corpus", str(fixture_path),
         "--outdir", str(tmp_path / "runs"), *args],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert run.returncode == 1
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1, run.stderr
