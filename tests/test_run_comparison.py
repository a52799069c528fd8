import subprocess
import sys

from charrnn.cli import main
from charrnn.model import KINDS, PRESETS
from tests.conftest import REPO_ROOT

SCALE_ARGS = ["--epochs", "1", "--scale", "0.0078125", "--seq-len", "20",
              "--batch-size", "8", "--embed-dim", "8", "--seed", "3"]


def test_comparison_matches_cli_train_and_report(fixture_path, tmp_path, capsys):
    outdir = tmp_path / "runs"
    subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "run_comparison.py"),
         "--corpus", str(fixture_path), "--outdir", str(outdir), *SCALE_ARGS],
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
