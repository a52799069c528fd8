import contextlib
import csv
import errno
import io
import os
import shutil
import signal
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charrnn import cli as cli_module
from charrnn.cli import build_parser, main
from charrnn.exceptions import CheckpointFormatError, ConfigError
from charrnn.generator import GenerationPlan
from charrnn.layers import dropout_forward
from charrnn.model import ModelConfig, load_checkpoint
from charrnn.numerics import Rng
from charrnn.trainer import TrainPlan, parse_history
from tests.checkpoint_reference import reference_load
from tests.conftest import REPO_ROOT
from tests.test_model import (
    _header,
    _with_header,
    write_non_finite_checkpoint,
    write_overflowing_dims_checkpoint,
)

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


def _run(argv):
    """main(argv) as the console sees it: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _child_env():
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def _run_child(argv, address_space=None):
    """python -m charrnn argv in a child process, optionally under an
    RLIMIT_AS of address_space bytes, so that a runaway read fails in the
    child instead of exhausting the host. Warnings reach its real stderr."""
    env = _child_env()

    def limit():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run([sys.executable, "-m", "charrnn", *argv], env=env,
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=limit if address_space else None)


def _assert_one_error_line(code, err):
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


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

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_endless_corpus_exit_1(self):
        # unbounded, the read would grow until the 1 GiB limit ends it in a
        # MemoryError traceback
        child = _run_child(["vocab", "--corpus", "/dev/zero"], address_space=1 << 30)
        _assert_one_error_line(child.returncode, child.stderr)
        assert child.stdout == "" and "longer than" in child.stderr

    def test_unencodable_stdout_exit_1(self, tmp_path, monkeypatch):
        corpus = tmp_path / "c.txt"
        corpus.write_text("café", encoding="utf-8")
        monkeypatch.setenv("PYTHONIOENCODING", "ascii")
        child = _run_child(["vocab", "--corpus", str(corpus)])
        _assert_one_error_line(child.returncode, child.stderr)
        # the table is one write, so none of its rows reach stdout
        assert child.stdout == "" and "can't encode" in child.stderr


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

    @pytest.mark.parametrize("flag", ["--scale", "--lr"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_float_is_usage_error(self, fixture_path, tmp_path, flag, value):
        code, _, err = _run(["train", "--corpus", str(fixture_path), *TRAIN_ARGS,
                             flag, value, "--out", str(tmp_path / "x.ckpt"),
                             "--history", str(tmp_path / "x.csv")])
        assert code == 2
        assert f"argument {flag}: must be finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("extra", [["--embed-dim", str(10**12)], ["--scale", "100000"]],
                             ids=["embed_dim", "scale"])
    def test_oversized_model_is_one_error_line(self, fixture_path, tmp_path, extra):
        ckpt = tmp_path / "x.ckpt"
        code, _, err = _run(["train", "--corpus", str(fixture_path), *TRAIN_ARGS, *extra,
                             "--out", str(ckpt), "--history", str(tmp_path / "x.csv")])
        _assert_one_error_line(code, err)
        assert "parameters" in err and not ckpt.exists()

    @pytest.mark.parametrize("ckpt, hist, bad", [
        pytest.param("out/m.ckpt", "nodir/h.csv", "nodir/h.csv", id="missing-directory"),
        pytest.param("out", "h.csv", "out", id="directory"),
        pytest.param("out/m.ckpt", "out/f/h.csv", "out/f/h.csv", id="file-as-directory"),
        pytest.param("out/m.ckpt", "out/m.ckpt", "out/m.ckpt", id="same-path"),
        pytest.param("out/m.ckpt", "out/./m.ckpt", "out/./m.ckpt", id="same-file"),
    ])
    def test_unwritable_output_refused_before_training(self, fixture_path, tmp_path,
                                                       ckpt, hist, bad):
        # refused before the first epoch, so nothing is trained or written;
        # os.path.join keeps the "./" that pathlib would drop
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "f").write_bytes(b"")
        before = sorted(tmp_path.rglob("*"))
        code, out, err = _run(["train", "--corpus", str(fixture_path), *TRAIN_ARGS,
                               "--out", os.path.join(tmp_path, ckpt),
                               "--history", os.path.join(tmp_path, hist)])
        _assert_one_error_line(code, err)
        assert out == "" and repr(os.path.join(tmp_path, bad)) in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.skipif(sys.platform == "win32", reason="needs POSIX signals")
    def test_ctrl_c_is_one_line_and_no_outputs(self, fixture_path, tmp_path):
        # interrupted after its first epoch, train ends in one line and exit
        # 130, with no checkpoint, history or temp file written
        child = subprocess.Popen(
            [sys.executable, "-m", "charrnn", "train", "--corpus", str(fixture_path),
             *TRAIN_ARGS, "--epochs", "100000", "--out", str(tmp_path / "m.ckpt"),
             "--history", str(tmp_path / "h.csv")],
            env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            assert child.stdout.readline().startswith("epoch 1 ")
            child.send_signal(signal.SIGINT)
            _, err = child.communicate(timeout=60)
        finally:
            child.kill()
            child.wait()
        assert child.returncode == 130 and err == "error: interrupted\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_endless_corpus_exit_1(self, tmp_path):
        ckpt = tmp_path / "x.ckpt"
        child = _run_child(["train", "--corpus", "/dev/zero", *TRAIN_ARGS, "--out", str(ckpt),
                            "--history", str(tmp_path / "x.csv")], address_space=1 << 30)
        _assert_one_error_line(child.returncode, child.stderr)
        assert child.stdout == "" and "longer than" in child.stderr
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_loss_is_one_error_line(self, fixture_path, tmp_path):
        # the weights overflow after one step; numpy's overflow warnings
        # would precede the error line, and only a child's stderr shows them
        ckpt = tmp_path / "x.ckpt"
        child = _run_child(["train", "--corpus", str(fixture_path), *TRAIN_ARGS,
                            "--lr", "1e306", "--out", str(ckpt),
                            "--history", str(tmp_path / "x.csv")])
        _assert_one_error_line(child.returncode, child.stderr)
        assert "non-finite loss inf" in child.stderr and not ckpt.exists()

    def test_overflowing_epoch_mean_is_one_error_line(self, tmp_path):
        # every batch loss is finite (up to about 2e307) but their sum
        # overflows; numpy's warning would precede the error line
        corpus = tmp_path / "c.txt"
        corpus.write_text("the cat sat on the mat. " * 8, encoding="utf-8")
        ckpt = tmp_path / "x.ckpt"
        child = _run_child(["train", "--corpus", str(corpus), "--model", "lstm",
                            "--preset", "uni", "--scale", "0.015625", "--lr", "1e306",
                            "--dropout", "0", "--seq-len", "1", "--batch-size", "1",
                            "--embed-dim", "1", "--epochs", "1", "--out", str(ckpt),
                            "--history", str(tmp_path / "x.csv")])
        _assert_one_error_line(child.returncode, child.stderr)
        assert "overflows float64" in child.stderr and child.stdout == ""
        assert [p.name for p in tmp_path.iterdir()] == ["c.txt"]

    def test_weights_past_float32_are_one_error_line(self, fixture_path, tmp_path):
        # the loss stays finite but the weights grow past float32's range, so
        # the checkpoint would hold inf: the save refuses it and leaves no file
        ckpt = tmp_path / "x.ckpt"
        child = _run_child(["train", "--corpus", str(fixture_path), *TRAIN_ARGS,
                            "--lr", "1e300", "--out", str(ckpt),
                            "--history", str(tmp_path / "x.csv")])
        _assert_one_error_line(child.returncode, child.stderr)
        assert "not finite at float32" in child.stderr
        assert [p.name for p in tmp_path.iterdir() if p.suffix != ".csv"] == []

    def test_overflowing_update_is_one_error_line(self, fixture_path, tmp_path):
        # the RMSprop step itself overflows; the next loss reports it
        ckpt = tmp_path / "x.ckpt"
        child = _run_child(["train", "--corpus", str(fixture_path), *TRAIN_ARGS,
                            "--lr", "1e308", "--out", str(ckpt),
                            "--history", str(tmp_path / "x.csv")])
        _assert_one_error_line(child.returncode, child.stderr)
        assert "non-finite loss" in child.stderr and not ckpt.exists()

    def test_oversized_step_is_one_error_line(self, fixture_path, tmp_path):
        # width 1024, L=50000, B=10: about 30 GiB of tape, refused before the
        # corpus (far too short for one window here) is cut
        ckpt = tmp_path / "x.ckpt"
        code, _, err = _run(["train", "--corpus", str(fixture_path), *TRAIN_ARGS,
                             "--scale", "1", "--seq-len", "50000", "--batch-size", "10",
                             "--out", str(ckpt), "--history", str(tmp_path / "x.csv")])
        _assert_one_error_line(code, err)
        assert "float64 values" in err and not ckpt.exists()

    # OpenBLAS may split a GEMM across threads; the bytes must not depend on
    # how many. The count is set in each child's environment only, and the
    # shapes (B=32, L=50, widths 128 and 64, E=256) make the GEMMs threaded.
    @pytest.mark.parametrize("kind", ["gru", "birnn"])
    def test_byte_identical_across_blas_threads(self, fixture_path, tmp_path, kind):
        src = str(REPO_ROOT / "src")
        outputs = []
        for threads in ("1", "2"):
            ckpt, hist = tmp_path / f"{threads}.ckpt", tmp_path / f"{threads}.csv"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            subprocess.run([sys.executable, "-m", "charrnn", "train", "--corpus", str(fixture_path),
                            "--model", kind, "--preset", "bi", "--scale", "0.25",
                            "--seq-len", "50", "--batch-size", "32", "--epochs", "1",
                            "--seed", "3", "--out", str(ckpt), "--history", str(hist)],
                           env=env, check=True, capture_output=True, timeout=300)
            losses = [repr(row.mean_loss) for row in parse_history(hist)]
            outputs.append((ckpt.read_bytes(), losses))
        assert outputs[0] == outputs[1]


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

    def test_tiny_temperature_is_the_argmax_limit(self, checkpoint):
        args = ["generate", "--checkpoint", str(checkpoint), "--prime", "The",
                "--length", "30"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = _run([*args, "--temperature", "1e-310"])
        assert (code, err, caught) == (0, "", [])
        assert out == _run([*args, "--mode", "argmax"])[1]

    def test_zero_temperature_rejected(self, checkpoint, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--checkpoint", str(checkpoint), "--prime", "a",
                  "--length", "5", "--temperature", "0"])
        assert exc.value.code == 2
        assert "> 0" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_temperature_is_usage_error(self, checkpoint, value):
        code, out, err = _run(["generate", "--checkpoint", str(checkpoint), "--prime", "a",
                               "--length", "5", "--temperature", value])
        assert code == 2 and out == ""
        assert "argument --temperature: must be finite" in err and "Traceback" not in err

    def test_out_file(self, checkpoint, tmp_path, capsys):
        target = tmp_path / "gen.txt"
        main(["generate", "--checkpoint", str(checkpoint), "--prime", "The",
              "--length", "10", "--seed", "3", "--out", str(target)])
        assert capsys.readouterr().out == ""
        assert len(target.read_text(encoding="utf-8")) == 13

    def test_unencodable_stdout_exit_1(self, tmp_path, monkeypatch):
        corpus = tmp_path / "c.txt"
        corpus.write_text("café au lait. " * 40, encoding="utf-8")
        code, ckpt, _ = _train(corpus, tmp_path)
        assert code == 0
        monkeypatch.setenv("PYTHONIOENCODING", "ascii")
        child = _run_child(["generate", "--checkpoint", str(ckpt), "--prime", "café",
                            "--length", "3"])
        _assert_one_error_line(child.returncode, child.stderr)
        assert child.stdout == "" and "can't encode" in child.stderr

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

    def test_float_size_in_header_exit_1(self, checkpoint, tmp_path):
        blob = checkpoint.read_bytes()
        header = _header(blob)
        header["config"]["embed_dim"] = float(header["config"]["embed_dim"])
        bad = tmp_path / "float.ckpt"
        bad.write_bytes(_with_header(blob, header))
        code, out, err = _run(["generate", "--checkpoint", str(bad), "--prime", "a",
                               "--length", "5"])
        _assert_one_error_line(code, err)
        assert out == "" and "embed_dim must be an integer" in err

    def test_true_code_point_in_header_exit_1(self, checkpoint, tmp_path):
        # JSON true where code point 10 belongs parses as chr(True), U+0001,
        # a sorted vocabulary; the header is not the bytes the writer makes
        blob = checkpoint.read_bytes()
        header = _header(blob)
        assert header["vocab"][0] == 10
        header["vocab"][0] = True
        bad = tmp_path / "true.ckpt"
        bad.write_bytes(_with_header(blob, header))
        code, out, err = _run(["generate", "--checkpoint", str(bad), "--prime", "a",
                               "--length", "5"])
        _assert_one_error_line(code, err)
        message = "malformed header: not the canonical JSON of its content"
        assert out == "" and err == f"error: {message}\n"
        with pytest.raises(CheckpointFormatError) as info:
            reference_load(bad)
        assert str(info.value) == message

    def test_bad_kind_in_header_exit_1(self, checkpoint, tmp_path):
        blob = checkpoint.read_bytes()
        header = _header(blob)
        header["config"]["kind"] = "xx"
        bad = tmp_path / "kind.ckpt"
        bad.write_bytes(_with_header(blob, header))
        code, out, err = _run(["generate", "--checkpoint", str(bad), "--prime", "a",
                               "--length", "5"])
        _assert_one_error_line(code, err)
        assert out == "" and "malformed header: kind must be one of" in err

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_endless_checkpoint_exit_1(self):
        # a device never ends, so the loader refuses it before reading
        code, out, err = _run(["generate", "--checkpoint", "/dev/zero", "--prime", "a",
                               "--length", "5"])
        _assert_one_error_line(code, err)
        assert out == "" and "/dev/zero is not a regular file" in err

    def test_directory_checkpoint_exit_1(self, tmp_path):
        code, out, err = _run(["generate", "--checkpoint", str(tmp_path), "--prime", "a",
                               "--length", "1"])
        _assert_one_error_line(code, err)
        assert out == "" and f"{tmp_path} is not a regular file" in err

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_fifo_checkpoint_exit_1(self, tmp_path):
        # no writer ever opens the pipe; a child, so a wait cannot hang the suite
        fifo = tmp_path / "pipe.ckpt"
        os.mkfifo(fifo)
        child = _run_child(["generate", "--checkpoint", str(fifo), "--prime", "a",
                            "--length", "5"])
        _assert_one_error_line(child.returncode, child.stderr)
        assert child.stdout == "" and "is not a regular file" in child.stderr

    def test_non_finite_checkpoint_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "nan.ckpt"
        write_non_finite_checkpoint(bad, float("nan"))
        code = main(["generate", "--checkpoint", str(bad), "--prime", "a",
                     "--length", "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def _failing_replace(src, dst):
    raise OSError(28, "No space left on device")


class TestOutFileAtomic:
    """generate and report write --out through a temp file and a rename, so
    a failed write leaves an existing file whole and no temp file behind."""

    @pytest.mark.parametrize("command", ["generate", "report"])
    def test_failed_write_keeps_the_old_file(self, checkpoint, tmp_path, monkeypatch, command):
        history = tmp_path / "run.csv"
        history.write_text("epoch,mean_loss,ms_per_step\n1,0.5,1.0\n")
        target = tmp_path / "out.txt"
        target.write_bytes(b"old contents\n")
        argv = (["generate", "--checkpoint", str(checkpoint), "--prime", "The",
                 "--length", "20"] if command == "generate" else
                ["report", "--history", str(history)])
        monkeypatch.setattr(os, "replace", _failing_replace)
        code, out, err = _run([*argv, "--out", str(target)])
        _assert_one_error_line(code, err)
        assert "No space left" in err and out == ""
        assert target.read_bytes() == b"old contents\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "run.csv"]
        monkeypatch.undo()
        code, _, _ = _run([*argv, "--out", str(target)])
        assert code == 0 and target.read_bytes() != b"old contents\n"

    @pytest.mark.parametrize("command", ["generate", "report"])
    def test_stdout_is_the_file_ending_in_a_newline(self, checkpoint, tmp_path, command):
        # stdout adds a final newline only where the text lacks one; report's has one
        history = tmp_path / "run.csv"
        history.write_text("epoch,mean_loss,ms_per_step\n1,0.5,1.0\n")
        argv = (["generate", "--checkpoint", str(checkpoint), "--prime", "The",
                 "--length", "20"] if command == "generate" else
                ["report", "--history", str(history)])
        target = tmp_path / "out.txt"
        assert _run([*argv, "--out", str(target)])[:2] == (0, "")
        text = target.read_text(encoding="utf-8")
        assert command == "generate" or text.endswith("\n")
        assert _run(argv)[:2] == (0, text if text.endswith("\n") else text + "\n")

    @pytest.mark.parametrize("command", ["generate", "report"])
    @pytest.mark.parametrize("target", ["nodir/out.txt", "dir"])
    def test_unwritable_out_refused_before_work(self, checkpoint, tmp_path, command, target):
        # refused by the path the user gave, not by _write_atomic's temp file
        history = tmp_path / "run.csv"
        history.write_text("epoch,mean_loss,ms_per_step\n1,0.5,1.0\n")
        (tmp_path / "dir").mkdir()
        before = sorted(tmp_path.rglob("*"))
        argv = (["generate", "--checkpoint", str(checkpoint), "--prime", "The",
                 "--length", "20"] if command == "generate" else
                ["report", "--history", str(history)])
        code, out, err = _run([*argv, "--out", str(tmp_path / target)])
        _assert_one_error_line(code, err)
        assert out == "" and repr(str(tmp_path / target)) in err and ".tmp" not in err
        assert sorted(tmp_path.rglob("*")) == before

    def test_new_file_has_the_mode_of_a_plain_write(self, checkpoint, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("x")
        target = tmp_path / "out.txt"
        code, _, _ = _run(["generate", "--checkpoint", str(checkpoint), "--prime", "The",
                           "--length", "5", "--out", str(target)])
        assert code == 0
        assert stat.S_IMODE(target.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


class TestOutputsSpareInputs:
    """No command writes over one of its own inputs: an output that
    resolves to an input is refused before any work."""

    @pytest.mark.parametrize("spelling", ["same", "dot-slash"])
    @pytest.mark.parametrize("command, flag", [
        ("generate", "--out"), ("report", "--out"), ("train", "--out"), ("train", "--history"),
    ])
    def test_output_naming_an_input_exit_1(self, checkpoint, fixture_path, tmp_path,
                                           command, flag, spelling):
        name = {"generate": "m.ckpt", "report": "h.csv", "train": "c.txt"}[command]
        source = tmp_path / name
        if command == "report":
            source.write_text("epoch,mean_loss,ms_per_step\n1,0.5,1.0\n")
        else:
            shutil.copyfile(checkpoint if command == "generate" else fixture_path, source)
        original = source.read_bytes()
        given = str(source)
        # os.path.join keeps the "./" that pathlib would drop
        target = given if spelling == "same" else os.path.join(tmp_path, ".", name)
        outputs = {"--out": str(tmp_path / "m.out"), "--history": str(tmp_path / "h.out"),
                   flag: target}
        argv = {
            "generate": ["generate", "--checkpoint", given, "--prime", "The",
                         "--length", "20", "--out", target],
            "report": ["report", "--history", given, "--out", target],
            "train": ["train", "--corpus", given, *TRAIN_ARGS,
                      "--out", outputs["--out"], "--history", outputs["--history"]],
        }[command]
        code, out, err = _run(argv)
        _assert_one_error_line(code, err)
        assert out == "" and repr(given) in err and repr(target) in err
        assert [p.name for p in tmp_path.iterdir()] == [name]
        assert source.read_bytes() == original


def _symlink_loop(path):
    """Make path a symlink to itself, or skip where symlinks cannot be made."""
    try:
        os.symlink(path.name, path)
    except (AttributeError, NotImplementedError, OSError) as exc:
        pytest.skip(f"no symlinks here: {exc}")


@pytest.mark.parametrize("case", [
    "train --corpus", "train --out", "train --history", "generate --checkpoint",
    "generate --out", "report --history", "report --out", "train --corpus missing/../loop",
    # a loop in an output's directory: is_dir and exists read it as missing
    "train --out loop/x", "generate --out loop/x", "report --out loop/x",
])
def test_symlink_loop_is_one_error_line(checkpoint, fixture_path, tmp_path, case):
    # Path.resolve raises RuntimeError for a loop before Python 3.13
    loop = tmp_path / "loop"
    _symlink_loop(loop)
    command, flag, *spelling = case.split()
    history = tmp_path / "h.csv"
    history.write_text("epoch,mean_loss,ms_per_step\n1,0.5,1.0\n")
    argv = {
        "train": ["train", "--corpus", fixture_path, *TRAIN_ARGS,
                  "--out", tmp_path / "m.out", "--history", tmp_path / "h.out"],
        "generate": ["generate", "--checkpoint", checkpoint, "--prime", "The",
                     "--length", "20", "--out", tmp_path / "g.out"],
        "report": ["report", "--history", history, "--out", tmp_path / "r.out"],
    }[command]
    argv[argv.index(flag) + 1] = tmp_path.joinpath(*spelling) if spelling else loop
    before = sorted(tmp_path.iterdir())
    code, out, err = _run([str(arg) for arg in argv])
    _assert_one_error_line(code, err)
    assert out == "" and os.strerror(errno.ELOOP) in err
    assert sorted(tmp_path.iterdir()) == before
    assert os.readlink(loop) == "loop"


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

    def test_run_name_with_comma_reads_back(self, tmp_path, capsys):
        p = self._history(tmp_path, 'lstm,"uni"', 2)
        assert main(["report", "--history", str(p)]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows == [["run", "epoch", "mean_loss", "ms_per_step"],
                        ['lstm,"uni"', "1", "3.0", "12.5"],
                        ['lstm,"uni"', "2", "1.5", "12.5"]]

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
        # rows export_history never writes, which report once merged with exit 0
        "1,0.5,1.0\n2,nan,-5\n",
        "1,0.5,1.0\n2, 1.50,1e3\n",
        "1,0.5,1.0\n03,inf,0\n",
    ], ids=["long_field", "fourth_field", "repeated_epoch", "nan_loss_short_ms",
            "spaced_loss_exponent_ms", "zero_padded_epoch_inf_loss"])
    def test_bad_history_is_one_error_line(self, tmp_path, capsys, body):
        p = tmp_path / "bad.csv"
        p.write_text("epoch,mean_loss,ms_per_step\n" + body)
        code = main(["report", "--history", str(p)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "line 3" in captured.err

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_endless_history_exit_1(self):
        # unbounded, the read would grow until the 1 GiB limit ends it in a
        # MemoryError traceback
        child = _run_child(["report", "--history", "/dev/zero"], address_space=1 << 30)
        _assert_one_error_line(child.returncode, child.stderr)
        assert child.stdout == "" and "longer than" in child.stderr

    @pytest.mark.parametrize("spelling", ["two-dirs", "twice", "dot-slash"])
    def test_shared_run_name_exit_1_before_reading(self, tmp_path, monkeypatch, spelling):
        # each file's rows would be tagged with the same run, mixing two runs
        # (or one run twice) under one name
        (tmp_path / "x").mkdir()
        (tmp_path / "y").mkdir()
        first = str(self._history(tmp_path / "x", "lstm", 2))
        second = {"two-dirs": str(self._history(tmp_path / "y", "lstm", 3)), "twice": first,
                  "dot-slash": os.path.join(tmp_path, "x", ".", "lstm.csv")}[spelling]
        read = []
        monkeypatch.setattr(cli_module, "parse_history", lambda path: read.append(path) or [])
        target = tmp_path / "merged.csv"
        code, out, err = _run(["report", "--history", first, second, "--out", str(target)])
        _assert_one_error_line(code, err)
        assert out == "" and read == [] and not target.exists()
        assert repr(first) in err and repr(second) in err and "'lstm'" in err

    def test_out_file(self, tmp_path, capsys):
        p = self._history(tmp_path, "r", 1)
        target = tmp_path / "merged.csv"
        main(["report", "--history", str(p), "--out", str(target)])
        assert capsys.readouterr().out == ""
        assert target.read_text().startswith("run,epoch")


_COMMAND_ARGS = {
    "train": ["train", "--corpus", "c.txt", "--model", "lstm", "--preset", "uni",
              "--out", "m.ckpt", "--history", "h.csv"],
    "generate": ["generate", "--checkpoint", "m.ckpt", "--prime", "a", "--length", "1"],
}


@pytest.mark.parametrize("command, flag, value, message", [
    ("train", "--seq-len", "0", "must be >= 1, got 0"),
    ("train", "--batch-size", "-1", "must be >= 1, got -1"),
    ("train", "--epochs", "0", "must be >= 1, got 0"),
    ("train", "--embed-dim", "-5", "must be >= 1, got -5"),
    ("train", "--lr", "-1e-3", "must be finite and > 0, got -1e-3"),
    ("train", "--scale", "0", "must be finite and > 0, got 0"),
    ("train", "--dropout", "1", "must be in [0, 1), got 1"),
    ("generate", "--length", "-1", "must be >= 0, got -1"),
    ("generate", "--temperature", "-inf", "must be finite and > 0, got -inf"),
    # text that is not a number: argparse's wording for type=int (as --seed)
    ("train", "--epochs", "x", "invalid int value: 'x'"),
    ("generate", "--temperature", "x", "invalid float value: 'x'"),
])
def test_number_flag_refusal_is_usage_error(command, flag, value, message):
    # flag=value, since argparse reads "-1e-3" and "-inf" as flags otherwise
    code, out, err = _run([*_COMMAND_ARGS[command], f"{flag}={value}"])
    assert code == 2 and out == ""
    assert err.endswith(f"argument {flag}: {message}\n") and "Traceback" not in err


_CONFIG_BASE = {
    ModelConfig: {"kind": "lstm", "layer_widths": (4,), "vocab_size": 3, "batch_size": 1},
    TrainPlan: {},
    GenerationPlan: {"prime_text": "a", "length": 1},
}


def _field(cls, name):
    return lambda value: cls(**{**_CONFIG_BASE[cls], name: value})


_SHARED_RULES = [
    ("train", "--seq-len", "0", 0, "seq_len", _field(ModelConfig, "seq_len")),
    ("train", "--batch-size", "-1", -1, "batch_size", _field(ModelConfig, "batch_size")),
    ("train", "--epochs", "0", 0, "epochs", _field(TrainPlan, "epochs")),
    ("train", "--embed-dim", "-5", -5, "embed_dim", _field(ModelConfig, "embed_dim")),
    ("train", "--lr", "-1.0", -1.0, "lr", _field(TrainPlan, "lr")),
    ("train", "--lr", "inf", float("inf"), "clip_norm", _field(TrainPlan, "clip_norm")),
    ("train", "--dropout", "1.0", 1.0, "dropout", _field(ModelConfig, "dropout")),
    ("train", "--dropout", "-0.5", -0.5, "dropout rate",
     lambda rate: dropout_forward(np.zeros(3), rate, True, Rng(0))),
    ("generate", "--length", "-1", -1, "length", _field(GenerationPlan, "length")),
    ("generate", "--temperature", "0.0", 0.0, "temperature",
     _field(GenerationPlan, "temperature")),
]


@pytest.mark.parametrize("command, flag, text, value, name, build", [
    pytest.param(*case, id=f"{case[1]}-{case[4]}") for case in _SHARED_RULES])
def test_flag_and_field_share_one_rule(command, flag, text, value, name, build):
    # the usage error and the ConfigError of the field the flag fills (or of
    # a field or argument under the same rule) end in the same words
    code, out, err = _run([*_COMMAND_ARGS[command], f"{flag}={text}"])
    assert code == 2 and out == "" and f"argument {flag}: must be " in err
    usage = err.rstrip("\n").split(f"argument {flag}: ")[-1]
    with pytest.raises(ConfigError) as info:
        build(value)
    assert str(info.value) == f"{name} {usage}"


def test_flag_defaults_are_the_config_and_plan_defaults():
    parser = build_parser()
    train = parser.parse_args(_COMMAND_ARGS["train"])
    gen = parser.parse_args(_COMMAND_ARGS["generate"])
    assert ((train.seq_len, train.batch_size, train.embed_dim, train.dropout)
            == (ModelConfig.seq_len, ModelConfig.batch_size, ModelConfig.embed_dim,
                ModelConfig.dropout))
    assert (train.epochs, train.lr) == (TrainPlan.epochs, TrainPlan.lr)
    assert ((gen.temperature, gen.mode, gen.seed)
            == (GenerationPlan.temperature, GenerationPlan.mode, GenerationPlan.sample_seed))


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """Good and bad paths, keyed by name, for the argv property."""
    tmp = tmp_path_factory.mktemp("argv")
    (tmp / "corpus.txt").write_text("the cat sat on the mat. " * 8, encoding="utf-8")
    (tmp / "empty.txt").write_text("", encoding="utf-8")
    (tmp / "binary.txt").write_bytes(b"\xff\xfe\x80abc")
    (tmp / "history.csv").write_text("epoch,mean_loss,ms_per_step\n1,0.5,1.0\n")
    (tmp / "bad.csv").write_text("epoch,mean_loss\noops\n")
    (tmp / "garbage.ckpt").write_bytes(b"CRNF" + bytes(40))
    code, ckpt, _ = _train(tmp / "corpus.txt", tmp, "good",
                           ["--seq-len", "8", "--epochs", "1"])
    assert code == 0
    names = ("corpus.txt", "empty.txt", "binary.txt", "history.csv", "bad.csv",
             "garbage.ckpt", "missing", "no_dir/out", "out", "out.csv")
    return {"dir": str(tmp), "good.ckpt": str(ckpt),
            **{name: str(tmp / name) for name in names}}


def _path(*names):
    return st.sampled_from(names + ("missing", "dir"))


# Values the property puts in place of a valid one. Sizes are tiny or ask for
# at least 10^11 elements, which must be refused before anything is
# allocated; never a size in between. Epochs and length stay small.
_BAD_NUMBER = st.sampled_from(["0", "-1", "inf", "-inf", "nan", "1e306", "1e8", "abc"])
_BAD_SIZE = st.one_of(st.integers(-2, 64), st.integers(10**11, 10**13)).map(str)

# command -> flag -> (valid values, replacements)
_FLAGS = {
    "vocab": {"--corpus": (st.just("corpus.txt"), _path("empty.txt", "binary.txt"))},
    "train": {
        "--corpus": (st.just("corpus.txt"), _path("empty.txt", "binary.txt")),
        "--model": (st.sampled_from(["lstm", "gru", "birnn"]), st.just("rnn")),
        "--preset": (st.sampled_from(["uni", "bi", "quad"]), st.just("mega")),
        "--scale": (st.sampled_from(["0.015625", "0.03125"]), _BAD_NUMBER),
        "--lr": (st.sampled_from(["1e-3", "0.5"]), _BAD_NUMBER),
        "--dropout": (st.sampled_from(["0", "0.4"]), st.sampled_from(["1", "nan", "-0.1"])),
        "--seq-len": (st.integers(1, 16).map(str), _BAD_SIZE),
        "--batch-size": (st.integers(1, 8).map(str), _BAD_SIZE),
        "--embed-dim": (st.integers(1, 64).map(str), _BAD_SIZE),
        "--epochs": (st.just("1"), st.sampled_from(["-1", "0", "x"])),
        "--out": (st.just("out"), _path("no_dir/out")),
        "--history": (st.just("out.csv"), _path("no_dir/out")),
    },
    "generate": {
        "--checkpoint": (st.just("good.ckpt"), _path("garbage.ckpt", "corpus.txt")),
        "--prime": (st.just("the"), st.sampled_from(["", "é"])),
        "--length": (st.sampled_from(["0", "5"]), st.sampled_from(["-1", "64", "x"])),
        "--temperature": (st.sampled_from(["0.5", "1"]), _BAD_NUMBER | st.just("1e-300")),
        "--mode": (st.sampled_from(["sample", "argmax"]), st.just("beam")),
    },
    "report": {
        "--history": (st.just("history.csv"), _path("bad.csv")),
        "--out": (st.just("out"), _path("no_dir/out")),
    },
}


@st.composite
def _argv(draw):
    """A valid command line with up to two flags replaced."""
    command = draw(st.sampled_from(list(_FLAGS)))
    flags = _FLAGS[command]
    replaced = draw(st.sets(st.sampled_from(list(flags)), max_size=2))
    argv = [command]
    for flag, (valid, other) in flags.items():
        argv += [flag, draw(other if flag in replaced else valid)]
    return argv


_SMALL_TRAIN = ["train", "--corpus", "corpus.txt", "--model", "gru", "--preset", "bi",
                "--scale", "0.015625", "--seq-len", "8", "--batch-size", "2", "--epochs", "1",
                "--embed-dim", "4", "--out", "out", "--history", "out.csv"]


@settings(max_examples=100, deadline=None)
@given(argv=_argv())
@example(argv=_SMALL_TRAIN)
@example(argv=[*_SMALL_TRAIN, "--embed-dim", str(10**12)])  # the last flag wins
@example(argv=[*_SMALL_TRAIN, "--scale", "1e8"])
@example(argv=[*_SMALL_TRAIN, "--seq-len", str(10**11)])
@example(argv=[*_SMALL_TRAIN, "--batch-size", str(10**11)])
def test_any_argv_ends_in_an_exit_code(argv_files, argv):
    # 0; 1 with one error line; or 2, a usage error; never a traceback
    code, _, err = _run([argv_files.get(a, a) for a in argv])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        _assert_one_error_line(code, err)
