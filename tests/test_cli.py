import pytest

from charrnn.cli import main
from charrnn.model import load_checkpoint
from charrnn.trainer import parse_history
from tests.test_model import write_non_finite_checkpoint, write_overflowing_dims_checkpoint

TRAIN_ARGS = [
    "--model", "lstm", "--preset", "uni", "--scale", "0.015625",  # width 16
    "--seq-len", "25", "--batch-size", "8", "--epochs", "2",
    "--embed-dim", "16", "--dropout", "0.0", "--seed", "7",
]


def _train(fixture_path, tmp_path, tag="a", extra=()):
    ckpt = tmp_path / f"{tag}.ckpt"
    hist = tmp_path / f"{tag}.csv"
    code = main(["train", "--corpus", str(fixture_path), *TRAIN_ARGS, *extra,
                 "--out", str(ckpt), "--history", str(hist)])
    return code, ckpt, hist


class TestVocabCommand:
    def test_table_contents(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("abc", encoding="utf-8")
        assert main(["vocab", "--corpus", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "vocab_size\t3"
        assert "0\ta" in out and "2\tc" in out

    def test_control_characters_escaped(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a\nb\tc", encoding="utf-8")
        main(["vocab", "--corpus", str(corpus)])
        out = capsys.readouterr().out
        assert "\\n" in out and "\\t" in out

    def test_stable_across_runs(self, fixture_path, capsys):
        main(["vocab", "--corpus", str(fixture_path)])
        first = capsys.readouterr().out
        main(["vocab", "--corpus", str(fixture_path)])
        assert capsys.readouterr().out == first

    def test_missing_corpus_is_runtime_error(self, tmp_path, capsys):
        code = main(["vocab", "--corpus", str(tmp_path / "nope.txt")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "error" in captured.err


class TestTrainCommand:
    def test_writes_outputs_and_progress(self, fixture_path, tmp_path, capsys):
        code, ckpt, hist = _train(fixture_path, tmp_path)
        out = capsys.readouterr().out
        assert code == 0
        assert ckpt.exists() and hist.exists()
        assert len(parse_history(hist)) == 2
        lines = [l for l in out.splitlines() if l.startswith("epoch")]
        assert len(lines) == 2
        assert lines[0].startswith("epoch 1  loss ")
        assert "ms/step" in lines[0]

    def test_missing_preset_is_usage_error(self, fixture_path, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--corpus", str(fixture_path), "--model", "lstm",
                  "--out", str(tmp_path / "x.ckpt"), "--history", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "uni" in err and "quad" in err

    def test_same_seed_byte_identical_checkpoints(self, fixture_path, tmp_path, capsys):
        _, ckpt_a, _ = _train(fixture_path, tmp_path, "a")
        _, ckpt_b, _ = _train(fixture_path, tmp_path, "b")
        capsys.readouterr()
        assert ckpt_a.read_bytes() == ckpt_b.read_bytes()

    def test_scale_applies_to_widths(self, fixture_path, tmp_path, capsys):
        _, ckpt, _ = _train(fixture_path, tmp_path)
        capsys.readouterr()
        assert load_checkpoint(ckpt).config.layer_widths == (16,)

    def test_bad_corpus_no_partial_outputs(self, tmp_path, capsys):
        corpus = tmp_path / "tiny.txt"
        corpus.write_text("ab", encoding="utf-8")  # shorter than any window
        ckpt = tmp_path / "x.ckpt"
        hist = tmp_path / "x.csv"
        code = main(["train", "--corpus", str(corpus), *TRAIN_ARGS,
                     "--out", str(ckpt), "--history", str(hist)])
        assert code == 1
        assert not ckpt.exists() and not hist.exists()
        assert "error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def checkpoint(fixture_path, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("gen")
    code, ckpt, _ = _train(fixture_path, tmp)
    assert code == 0
    return ckpt


class TestGenerateCommand:
    def test_length_zero_prints_prime(self, checkpoint, capsys):
        code = main(["generate", "--checkpoint", str(checkpoint),
                     "--prime", "GUARD", "--length", "0"])
        assert code == 0
        assert capsys.readouterr().out == "GUARD\n"

    def test_argmax_repeatable(self, checkpoint, capsys):
        args = ["generate", "--checkpoint", str(checkpoint), "--prime", "The",
                "--length", "30", "--mode", "argmax"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first
        assert len(first.rstrip("\n")) == 33

    def test_zero_temperature_rejected(self, checkpoint, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--checkpoint", str(checkpoint), "--prime", "a",
                  "--length", "5", "--temperature", "0"])
        assert exc.value.code == 2
        assert "> 0" in capsys.readouterr().err

    def test_out_file(self, checkpoint, tmp_path, capsys):
        target = tmp_path / "gen.txt"
        main(["generate", "--checkpoint", str(checkpoint), "--prime", "The",
              "--length", "10", "--seed", "3", "--out", str(target)])
        assert capsys.readouterr().out == ""
        assert len(target.read_text(encoding="utf-8")) == 13

    def test_unknown_prime_char_runtime_error(self, checkpoint, capsys):
        code = main(["generate", "--checkpoint", str(checkpoint),
                     "--prime", "é", "--length", "5"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_overflowing_checkpoint_dims_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        write_overflowing_dims_checkpoint(bad)
        code = main(["generate", "--checkpoint", str(bad), "--prime", "a",
                     "--length", "5"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_non_finite_checkpoint_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "nan.ckpt"
        write_non_finite_checkpoint(bad, float("nan"))
        code = main(["generate", "--checkpoint", str(bad), "--prime", "a",
                     "--length", "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err


class TestReportCommand:
    def _history(self, tmp_path, name, epochs):
        from charrnn.trainer import HistoryRow, export_history

        p = tmp_path / f"{name}.csv"
        export_history(
            [HistoryRow(i + 1, 3.0 / (i + 1), 12.5) for i in range(epochs)], p
        )
        return p

    def test_single_file_tagged_with_stem(self, tmp_path, capsys):
        p = self._history(tmp_path, "lstm_uni", 3)
        assert main(["report", "--history", str(p)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "run,epoch,mean_loss,ms_per_step"
        assert len(lines) == 4
        assert all(line.startswith("lstm_uni,") for line in lines[1:])

    def test_three_files_concatenated(self, tmp_path, capsys):
        paths = [self._history(tmp_path, f"run{i}", i + 1) for i in range(3)]
        main(["report", "--history", *map(str, paths)])
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 1 + 2 + 3

    def test_roundtrip_values(self, tmp_path, capsys):
        p = self._history(tmp_path, "r", 2)
        main(["report", "--history", str(p)])
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[1] == "1" and float(row[2]) == 3.0

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("epoch,mean_loss,ms_per_step\n1,0.5,1.0\noops\n")
        code = main(["report", "--history", str(p)])
        assert code == 1
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("body", [
        "1,0.5,1.0\n2," + "9" * 131_073 + ",1.0\n",
        "1,0.5,1.0\n2,0.4,1.0,7\n",
        "1,0.5,1.0\n1,0.4,1.0\n",
    ], ids=["long_field", "fourth_field", "repeated_epoch"])
    def test_bad_history_is_one_error_line(self, tmp_path, capsys, body):
        p = tmp_path / "bad.csv"
        p.write_text("epoch,mean_loss,ms_per_step\n" + body)
        code = main(["report", "--history", str(p)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "line 3" in captured.err

    def test_out_file(self, tmp_path, capsys):
        p = self._history(tmp_path, "r", 1)
        target = tmp_path / "merged.csv"
        main(["report", "--history", str(p), "--out", str(target)])
        assert capsys.readouterr().out == ""
        assert target.read_text().startswith("run,epoch")
