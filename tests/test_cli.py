import pytest

from deepnmf import load_factors
from deepnmf.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, cli_main


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSynthTrainFlow:
    def test_smoke_path(self, tmp_path, capsys):
        data = tmp_path / "d.bin"
        code, out, _ = run(capsys, "synth", "--kind", "blobs", "--seed", "7",
                           "--rows", "10", "--cols", "32", "--classes", "4",
                           "--out", str(data))
        assert code == EXIT_OK
        assert data.exists()
        assert (tmp_path / "d.bin.labels").exists()

        rundir = tmp_path / "run1"
        code, out, _ = run(capsys, "train", "--data", str(data),
                           "--layers", "8,4", "--variant", "dnmf",
                           "--sweeps", "8", "--inner-iters", "100",
                           "--out", str(rundir))
        assert code == EXIT_OK
        assert "finetune sweep" in out
        spec, stack, meta = load_factors(rundir)
        assert spec.variant == "dnmf"
        assert stack.w[0].shape == (10, 8)
        assert (rundir / "labels.csv").exists()

        code, out, _ = run(capsys, "evaluate", "--factors", str(rundir),
                           "--reps", "2", "--restarts", "2")
        assert code == EXIT_OK
        assert "nmi: mean" in out

        code, out, _ = run(capsys, "inspect", "--factors", str(rundir),
                           "--class", "2", "--top", "3")
        assert code == EXIT_OK
        assert "layer 2 basis column" in out
        # Deterministic: a second run prints the same drill-down.
        code, out2, _ = run(capsys, "inspect", "--factors", str(rundir),
                            "--class", "2", "--top", "3")
        assert out2 == out

    def test_train_default_output_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        data = tmp_path / "d.bin"
        run(capsys, "synth", "--kind", "blobs", "--seed", "1", "--rows", "6",
            "--cols", "18", "--classes", "3", "--out", str(data))
        code, out, _ = run(capsys, "train", "--data", str(data), "--layers",
                           "4,2", "--sweeps", "5", "--inner-iters", "50")
        assert code == EXIT_OK
        assert (tmp_path / "run_d").is_dir()


class TestExitCodes:
    def test_missing_sweep_config_is_data_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--config",
                           str(tmp_path / "missing.cfg"))
        assert code == EXIT_DATA
        assert "not found" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "train", "--data", "d.bin", "--bogus")
        assert code == EXIT_USAGE
        assert "usage" in err

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, err = run(capsys, "transmogrify")
        assert code == EXIT_USAGE

    def test_corrupt_data_file_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"NOTFMT" + b"\x00" * 20)
        code, _, err = run(capsys, "train", "--data", str(bad), "--layers", "2")
        assert code == EXIT_DATA
        assert "bad magic" in err

    def test_inspect_without_labels_is_data_error(self, capsys, tmp_path, rng):
        from deepnmf import make_spec, save_factors
        from deepnmf.models import FactorStack

        w = rng.uniform(0.1, 1.0, size=(5, 3))
        h = rng.uniform(0.1, 1.0, size=(3, 8))
        save_factors(tmp_path / "run", make_spec("dnmf", (3,)),
                     FactorStack([w], [h]))
        code, _, err = run(capsys, "inspect", "--factors", str(tmp_path / "run"),
                           "--class", "0")
        assert code == EXIT_DATA
        assert "labels" in err

    @pytest.mark.parametrize("line", ["model.layer_sizes = 10,abc",
                                      "model.layer_sizes = 4\nmodel.mu ="])
    def test_malformed_config_number_is_data_error(self, capsys, tmp_path, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"data.kind = blobs\nmodel.variant = sdnmf_l\n{line}\n")
        code, _, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_DATA
        assert str(cfg) in err and "model." in err

    @pytest.mark.parametrize("flags", [("--layers", "4,x"),
                                       ("--layers", "4", "--mu", "abc"),
                                       ("--layers", "4", "--lambda", "1,,2")])
    def test_malformed_train_flag_is_usage_error(self, capsys, flags):
        code, _, err = run(capsys, "train", "--data", "d.bin", *flags)
        assert code == EXIT_USAGE
        assert "usage" in err

    @pytest.mark.parametrize("command", ["evaluate", "inspect"])
    def test_factor_meta_without_variant_is_data_error(self, capsys, tmp_path,
                                                       rng, command):
        from deepnmf import make_spec, save_factors
        from deepnmf.models import FactorStack

        w = rng.uniform(0.1, 1.0, size=(5, 3))
        h = rng.uniform(0.1, 1.0, size=(3, 8))
        run_dir = save_factors(tmp_path / "run", make_spec("dnmf", (3,)),
                               FactorStack([w], [h]))
        meta = run_dir / "meta.cfg"
        meta.write_text("".join(line for line in meta.read_text().splitlines(True)
                                if not line.startswith("variant")))
        code, _, err = run(capsys, command, "--factors", str(run_dir))
        assert code == EXIT_DATA
        assert "meta.cfg" in err and "variant" in err


class TestSweepCommand:
    def test_end_to_end(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "data.kind = planted_linear\n"
            "data.rows = 10\n"
            "data.cols = 24\n"
            "data.layer_sizes = 4,2\n"
            "data.classes = 2\n"
            "data.seed = 3\n"
            "model.variant = dnmf\n"
            "model.layer_sizes = 4,2\n"
            "train.max_sweeps = 6\n"
            "train.inner_iters = 80\n"
            "eval.model_reps = 1\n"
            "eval.kmeans_reps = 1\n"
            f"output_dir = {tmp_path / 'out'}\n")
        code, out, _ = run(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_OK
        assert (tmp_path / "out" / "summary.csv").exists()
        assert "1 sweep points" in out
