import re

import numpy as np
import pytest

from deepnmf import (cli, experiment, load_factors, load_matrix, save_bundle,
                     save_matrix, synth_generate, train)
from deepnmf.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, cli_main
from deepnmf.synth import KINDS


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

    @pytest.mark.parametrize("kind", KINDS)
    def test_synth_without_flags_writes_synth_generate_defaults(
            self, tmp_path, capsys, kind):
        code, _, _ = run(capsys, "synth", "--kind", kind, "--seed", "4",
                         "--out", str(tmp_path / "cli.bin"))
        assert code == EXIT_OK
        save_bundle(tmp_path / "lib.bin", synth_generate(kind, 4))
        for suffix in (".bin", ".bin.labels"):
            assert ((tmp_path / f"cli{suffix}").read_bytes()
                    == (tmp_path / f"lib{suffix}").read_bytes())


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

    def test_empty_data_file_is_data_error(self, capsys, tmp_path):
        empty = save_matrix(tmp_path / "empty.bin", np.zeros((0, 3)))
        code, _, err = run(capsys, "train", "--data", str(empty), "--layers", "2")
        assert code == EXIT_DATA
        assert f"{empty}: header gives an empty 0x3 matrix" in err

    def test_layer_wider_than_the_data_is_named(self, capsys, tmp_path):
        data = tmp_path / "d.bin"
        run(capsys, "synth", "--kind", "blobs", "--rows", "20", "--cols", "40",
            "--out", str(data))
        code, _, err = run(capsys, "train", "--data", str(data), "--layers", "100")
        assert code == EXIT_DATA
        assert "layer 1 has size 100, above the smaller side of its 20x40" in err

    @pytest.mark.parametrize("case", ["synth --out dir", "train --data dir",
                                      "train --out file"])
    def test_os_error_is_data_error(self, capsys, tmp_path, case):
        data = tmp_path / "d.bin"
        run(capsys, "synth", "--kind", "blobs", "--rows", "6", "--cols", "12",
            "--classes", "2", "--out", str(data))
        taken = tmp_path / "taken"
        taken.write_text("")
        argv = {"synth --out dir": ("synth", "--kind", "blobs", "--out",
                                    str(tmp_path)),
                "train --data dir": ("train", "--data", str(tmp_path),
                                     "--layers", "2"),
                "train --out file": ("train", "--data", str(data), "--layers",
                                     "2", "--sweeps", "2", "--out", str(taken))}
        code, _, err = run(capsys, *argv[case])
        assert code == EXIT_DATA
        assert err.startswith("data error: ") and str(tmp_path) in err

    def test_train_out_file_is_rejected_before_the_fit(self, capsys, tmp_path,
                                                        monkeypatch):
        data = tmp_path / "d.bin"
        run(capsys, "synth", "--kind", "blobs", "--rows", "6", "--cols", "12",
            "--classes", "2", "--out", str(data))
        taken = tmp_path / "taken"
        taken.write_text("")

        def no_fit(*args, **kwargs):
            raise AssertionError("fit called")

        monkeypatch.setattr(cli, "fit", no_fit)
        code, out, err = run(capsys, "train", "--data", str(data), "--layers",
                             "2", "--out", str(taken))
        assert code == EXIT_DATA
        assert out == "" and f"--out {taken} exists and is not a directory" in err
        assert taken.read_text() == ""

    @pytest.mark.parametrize("lines, key", [
        ("data.layer_sizes = 0,2\nmodel.layer_sizes = 4,2", "data.layer_sizes"),
        ("model.layer_sizes = 4,0", "model.layer_sizes"),
        ("model.layer_sizes = 4,2\nsweep.layer_sizes = 4,2 ; 4,-1",
         "sweep.layer_sizes")])
    def test_non_positive_config_layer_size_is_data_error(self, capsys,
                                                          tmp_path, lines, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"data.kind = planted_linear\n{lines}\n"
                       f"output_dir = {tmp_path / 'out'}\n")
        code, _, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_DATA
        assert f"{cfg}: {key} = " in err and "positive integer" in err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("line", ["data.rows = abc", "data.layer_sizes = 6,x",
                                      "data.noise = lots", "data.seed = 1.5",
                                      "data.rowz = 7"])
    def test_malformed_data_key_is_data_error(self, capsys, tmp_path, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("data.kind = planted_linear\nmodel.layer_sizes = 4,2\n"
                       f"{line}\n")
        code, _, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_DATA
        assert str(cfg) in err and line.split(" =")[0] in err

    @pytest.mark.parametrize("line", ["eval.k = 0", "sweep.structure = nan,2,4",
                                      "train.max_sweeps = 0",
                                      "train.inner_tol = nan", "sweep.cap = 0",
                                      "dump_factors = flase", "model.mu = nan",
                                      "model.variant = bogus",
                                      "sweep.mu = nan", "data.noise = nan",
                                      "data.rows = 0",
                                      "sweep.activation = bogus",
                                      "sweep.projection_mode = wrong"])
    def test_out_of_range_config_value_is_data_error(self, capsys, tmp_path,
                                                     line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"data.kind = blobs\nmodel.layer_sizes = 4,2\n{line}\n")
        code, _, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_DATA
        assert str(cfg) in err and line.split(" =")[0] in err

    # Each case sets its own data section: the fixture's data.kind would turn
    # a second data.kind into a repeated key.
    @pytest.mark.parametrize("lines, key", [
        ("data.kind = bogus", "data.kind"),
        ("data.kind = planted_nonlinear\ndata.activation = relu",
         "data.activation"),
        ("data.path = d.bin\ndata.kind = blobs", "data.kind"),
        ("data.kind = blobs\nmodel.layer_sizes = 6,2", "model.layer_sizes"),
        ("data.kind = blobs\nmodel.variant = dnmf\nmodel.mu = 0.5",
         "dnmf does not penalize W_1"),
        ("data.kind = blobs\nmodel.mu = 0.1,0.2,0.3", "mu and lam"),
        ("", "data.path or data.kind")],
        ids=["data.kind", "data.activation", "data.path+data.kind",
             "repeated-key", "unpenalized-weight", "weight-count",
             "no-dataset"])
    def test_bad_or_conflicting_config_entry_is_data_error(self, capsys,
                                                           tmp_path, lines,
                                                           key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"model.layer_sizes = 4,2\n{lines}\n"
                       f"output_dir = {tmp_path / 'out'}\n")
        code, _, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_DATA
        assert str(cfg) in err and key in err

    @pytest.mark.parametrize("argv", [
        ("evaluate", "--factors", "run", "--reps", "0"),
        ("evaluate", "--factors", "run", "--restarts", "0"),
        ("evaluate", "--factors", "run", "--k", "0"),
        ("evaluate", "--factors", "run", "--k", "-2"),
        ("inspect", "--factors", "run", "--class", "0", "--top", "0"),
        ("train", "--data", "d.bin", "--layers", "4", "--sweeps", "0"),
        ("train", "--data", "d.bin", "--layers", "4", "--inner-iters", "0"),
        ("train", "--data", "d.bin", "--layers", "4", "--tol", "0"),
        ("train", "--data", "d.bin", "--layers", "4", "--inner-tol", "nan"),
        ("synth", "--kind", "blobs", "--out", "d.bin", "--rows", "0")])
    def test_zero_count_is_usage_error(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert "positive" in err and "usage" in err

    @pytest.mark.parametrize("flags", [("--layers", "4,x"),
                                       ("--layers", "4", "--mu", "abc"),
                                       ("--layers", "4", "--lambda", "1,,2"),
                                       ("--layers", "4", "--mu", "nan"),
                                       ("--layers", "4", "--variant", "bogus"),
                                       ("--layers", "4", "--activation", "bogus"),
                                       ("--layers", "4", "--projection", "bogus"),
                                       ("--layers", "4", "--activation", "root",
                                        "--projection", "hidden")])
    def test_malformed_train_flag_is_usage_error(self, capsys, flags):
        # d.bin does not exist: the flag is rejected before any file is read.
        code, _, err = run(capsys, "train", "--data", "d.bin", *flags)
        assert code == EXIT_USAGE
        assert "usage" in err

    @pytest.mark.parametrize("argv", [
        ("train", "--data", "d.bin", "--layers", "0,2"),
        ("train", "--data", "d.bin", "--layers", "4,-1"),
        ("synth", "--kind", "planted_linear", "--sizes", "0,2")])
    def test_non_positive_layer_size_is_usage_error(self, capsys, tmp_path,
                                                    argv):
        # d.bin does not exist: the sizes are rejected before any file is read.
        out = tmp_path / "out.bin"
        code, _, err = run(capsys, *argv, *(("--out", str(out))
                                            if argv[0] == "synth" else ()))
        assert code == EXIT_USAGE
        assert "parse_sizes" in err and "usage" in err and not out.exists()

    @pytest.mark.parametrize("key", ["model.projection_mode",
                                     "sweep.projection_mode"])
    def test_projection_config_key_is_unknown(self, capsys, tmp_path, key):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("data.kind = blobs\nmodel.layer_sizes = 4,2\n"
                       "model.activation = root\ntrain.max_sweeps = 2\n"
                       "eval.model_reps = 1\neval.kmeans_reps = 1\n"
                       f"{key} = hidden\noutput_dir = {tmp_path / 'out'}\n")
        code, _, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_DATA
        assert str(cfg) in err and f"unknown config keys ['{key}']" in err

    @pytest.mark.parametrize("flags", [("--noise", "nan"), ("--noise", "inf"),
                                       ("--noise", "-0.1"),
                                       ("--kind", "blobs", "--separation", "nan")])
    def test_non_finite_synth_scale_is_usage_error(self, capsys, tmp_path, flags):
        out = tmp_path / "d.bin"
        code, _, err = run(capsys, "synth", "--kind", "planted_linear", "--out",
                           str(out), *flags)
        assert code == EXIT_USAGE
        assert "nonneg_float" in err and "usage" in err and not out.exists()

    @pytest.mark.parametrize("kind", ["planted_linear", "planted_nonlinear"])
    def test_unknown_synth_activation_is_usage_error(self, capsys, tmp_path,
                                                     kind):
        out = tmp_path / "d.bin"
        code, _, err = run(capsys, "synth", "--kind", kind, "--activation",
                           "bogus", "--out", str(out))
        assert code == EXIT_USAGE
        assert "invalid choice" in err and not out.exists()

    def test_weight_the_variant_does_not_take_is_data_error(self, capsys,
                                                              tmp_path):
        data = tmp_path / "d.bin"
        run(capsys, "synth", "--kind", "blobs", "--rows", "6", "--cols", "12",
            "--classes", "2", "--out", str(data))
        code, _, err = run(capsys, "train", "--data", str(data), "--layers",
                           "4,2", "--variant", "dnmf", "--mu", "0.5")
        assert code == EXIT_DATA
        assert "dnmf does not penalize W_1" in err

    @pytest.mark.parametrize("flags, message", [
        (("--variant", "dnmf", "--mu", "0.5"), "dnmf does not penalize W_1"),
        (("--variant", "sdnmf_l", "--mu", "0.1,0.2,0.3"), "mu and lam must")])
    def test_train_checks_the_model_before_reading_the_data(
            self, capsys, tmp_path, monkeypatch, flags, message):
        def no_load(*args, **kwargs):
            raise AssertionError("load_bundle called")

        monkeypatch.setattr(cli, "load_bundle", no_load)
        code, out, err = run(capsys, "train", "--data", str(tmp_path / "d.bin"),
                             "--layers", "4,2", *flags)
        assert code == EXIT_DATA
        assert out == "" and message in err

    @pytest.mark.parametrize("key, value", [("variant", None),
                                            ("variant", "bogus"),
                                            ("activation", "relu")])
    @pytest.mark.parametrize("command", ["evaluate", "inspect"])
    def test_malformed_factor_meta_is_data_error(self, capsys, tmp_path, rng,
                                                 command, key, value):
        """A meta.cfg entry that is missing (value None) or malformed."""
        from deepnmf import make_spec, save_factors
        from deepnmf.models import FactorStack

        w = rng.uniform(0.1, 1.0, size=(5, 3))
        h = rng.uniform(0.1, 1.0, size=(3, 8))
        run_dir = save_factors(tmp_path / "run", make_spec("dnmf", (3,)),
                               FactorStack([w], [h]))
        meta = run_dir / "meta.cfg"
        meta.write_text("".join(line for line in meta.read_text().splitlines(True)
                                if not line.startswith(key))
                        + ("" if value is None else f"{key} = {value}\n"))
        code, _, err = run(capsys, command, "--factors", str(run_dir))
        assert code == EXIT_DATA
        assert "meta.cfg" in err and key in err

    def test_rising_objective_is_numerical_failure(self, capsys, tmp_path,
                                                   monkeypatch):
        data = tmp_path / "d.bin"
        run(capsys, "synth", "--kind", "blobs", "--rows", "6", "--cols", "12",
            "--classes", "2", "--out", str(data))
        values = iter(range(1, 100))
        monkeypatch.setattr(train, "finetune_objective",
                            lambda *args: float(next(values)))
        code, _, err = run(capsys, "train", "--data", str(data), "--layers",
                           "2", "--sweeps", "3", "--out",
                           str(tmp_path / "run"))
        assert code == EXIT_NUMERIC
        assert err.startswith("numerical failure: objective rose from 1.0 "
                              "to 2.0")


@pytest.fixture
def train_dir(tmp_path, capsys):
    """A 20x40 planted bundle trained at layers 6,3."""
    data = tmp_path / "d.bin"
    run(capsys, "synth", "--kind", "planted_linear", "--rows", "20", "--cols",
        "40", "--sizes", "6,3", "--classes", "3", "--seed", "1", "--out",
        str(data))
    run(capsys, "train", "--data", str(data), "--layers", "6,3", "--sweeps",
        "5", "--inner-iters", "50", "--out", str(tmp_path / "run"))
    return tmp_path / "run"


class TestFactorDirChecks:
    @pytest.mark.parametrize("command", [("evaluate", "--reps", "1"),
                                         ("inspect", "--class", "0")])
    @pytest.mark.parametrize("edit", ["layer_sizes", "long", "short"])
    def test_directory_disagreeing_with_itself_is_data_error(
            self, capsys, train_dir, command, edit):
        meta, labels = train_dir / "meta.cfg", train_dir / "labels.csv"
        if edit == "layer_sizes":
            meta.write_text(meta.read_text().replace("layer_sizes = 6,3",
                                                     "layer_sizes = 5,3"))
            named = str(meta)
        else:
            lines = labels.read_text().splitlines(True)
            labels.write_text("".join(lines + lines[:5] if edit == "long"
                                      else lines[:30]))
            named = str(labels)
        code, _, err = run(capsys, command[0], "--factors", str(train_dir),
                           *command[1:])
        assert code == EXIT_DATA
        assert named in err

    def test_retraining_on_unlabeled_data_drops_stored_labels(
            self, capsys, train_dir, tmp_path):
        # Retrained on unlabeled data, the directory must not keep the
        # first dataset's labels for evaluate to score the new factors by.
        data = tmp_path / "b.bin"
        run(capsys, "synth", "--kind", "planted_linear", "--rows", "20",
            "--cols", "40", "--sizes", "6,3", "--classes", "3", "--seed", "2",
            "--out", str(data))
        (tmp_path / "b.bin.labels").unlink()
        code, _, _ = run(capsys, "train", "--data", str(data), "--layers",
                         "6,3", "--sweeps", "5", "--inner-iters", "50",
                         "--out", str(train_dir))
        assert code == EXIT_OK
        assert not (train_dir / "labels.csv").exists()
        code, _, err = run(capsys, "evaluate", "--factors", str(train_dir),
                           "--reps", "1")
        assert code == EXIT_DATA
        assert "no labels.csv stored" in err

    def test_evaluate_names_a_short_label_file(self, capsys, train_dir,
                                               tmp_path):
        short = tmp_path / "short.csv"
        short.write_text("".join((train_dir / "labels.csv").read_text()
                                 .splitlines(True)[:30]))
        code, _, err = run(capsys, "evaluate", "--factors", str(train_dir),
                           "--labels", str(short))
        assert code == EXIT_DATA
        assert f"{short}: 30 labels for 40 samples" in err

    def test_evaluate_k_above_sample_count_names_flag_and_directory(
            self, capsys, train_dir):
        code, _, err = run(capsys, "evaluate", "--factors", str(train_dir),
                           "--k", "50")
        assert code == EXIT_DATA
        assert f"--k 50 exceeds the 40 samples of {train_dir}" in err

    def test_evaluate_representation_too_large_for_kmeans_is_data_error(
            self, capsys, train_dir):
        # Its squared distances overflow; k-means++ used to crash on NaN
        # probabilities with a traceback (exit 1).
        h = train_dir / "H2.bin"
        save_matrix(h, load_matrix(h) * 1e160)
        code, out, err = run(capsys, "evaluate", "--factors", str(train_dir))
        assert code == EXIT_DATA and out == ""
        assert "squared norm" in err and "could overflow" in err

    def test_label_file_class_ids_are_kept(self, capsys, train_dir, tmp_path):
        sidecar = tmp_path / "d.bin.labels"
        sidecar.write_text("".join(f"{v}\n" for v in [7] * 13 + [2] * 13 + [5] * 14))
        run_dir = tmp_path / "ids"
        code, _, _ = run(capsys, "train", "--data", str(tmp_path / "d.bin"),
                         "--layers", "6,3", "--sweeps", "5", "--inner-iters",
                         "50", "--out", str(run_dir))
        assert code == EXIT_OK
        assert (run_dir / "labels.csv").read_text() == sidecar.read_text()
        code, out, _ = run(capsys, "inspect", "--factors", str(run_dir),
                           "--class", "7")
        assert code == EXIT_OK and "class 7: 13 samples" in out
        code, _, err = run(capsys, "inspect", "--factors", str(run_dir),
                           "--class", "0")
        assert code == EXIT_DATA and "class 0 has no samples" in err
        # The scores see only the partition, not the ids that name it.
        renumbered = tmp_path / "renumbered.csv"
        renumbered.write_text("0\n" * 13 + "1\n" * 13 + "2\n" * 14)
        _, kept, _ = run(capsys, "evaluate", "--factors", str(run_dir))
        _, plain, _ = run(capsys, "evaluate", "--factors", str(run_dir),
                          "--labels", str(renumbered))
        assert "nmi: mean" in kept and kept == plain

    def test_near_zero_share_is_relative_to_each_factor(self, capsys,
                                                         tmp_path):
        # Entries at or below 1e-6 times the factor's largest entry count,
        # so a power-of-two rescaling of the factors prints the same shares.
        from deepnmf import make_spec, save_factors
        from deepnmf.models import FactorStack

        w = np.array([[0.0, 1e-7], [2e-6, 1.0], [0.5, 0.5]])
        h = np.array([[1.0, 1e-6, 0.3, 0.0], [0.2, 0.4, 0.6, 0.8]])
        shares = []
        for e in (0, -48, 48):
            out_dir = tmp_path / f"scaled{e}"
            save_factors(out_dir, make_spec("dnmf", (2,)),
                         FactorStack([w * 2.0 ** e], [h * 2.0 ** e]))
            code, out, _ = run(capsys, "inspect", "--factors", str(out_dir))
            assert code == EXIT_OK
            shares.append(re.findall(r"near-zero (\S+)", out))
        assert shares == [["0.333", "0.250"]] * 3

    @pytest.mark.parametrize("command", [("evaluate", "--reps", "1"),
                                         ("inspect", "--class", "0")])
    def test_directory_with_a_projection_entry_loads(self, capsys, train_dir,
                                                     command):
        # Older factor directories name a projection mode in meta.cfg; the
        # entry is kept as an extra, like final_objective.
        meta = train_dir / "meta.cfg"
        meta.write_text("".join(line for line in meta.read_text().splitlines(True)
                                if not line.startswith("projection_mode"))
                        + "projection_mode = hidden\n")
        code, out, err = run(capsys, command[0], "--factors", str(train_dir),
                             *command[1:])
        assert code == EXIT_OK and err == ""
        assert "projection" not in out


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
            "dump_factors = true\n"
            f"output_dir = {tmp_path / 'out'}\n")
        code, out, _ = run(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_OK
        assert (tmp_path / "out" / "summary.csv").exists()
        assert "1 sweep points" in out

        # A dumped factor directory carries the labels it was trained on.
        factors = str(tmp_path / "out" / "factors" / "p0")
        code, out, _ = run(capsys, "evaluate", "--factors", factors,
                           "--reps", "1", "--restarts", "1")
        assert code == EXIT_OK and "nmi: mean" in out
        code, out, _ = run(capsys, "inspect", "--factors", factors,
                           "--class", "0")
        assert code == EXIT_OK and "class 0:" in out

    def test_eval_k_above_sample_count_fails_before_training(self, tmp_path,
                                                             capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "data.kind = planted_linear\n"
            "data.rows = 20\n"
            "data.cols = 40\n"
            "model.layer_sizes = 6,3\n"
            "sweep.mu = 0 ; 0.1\n"
            "eval.k = 50\n"
            f"output_dir = {tmp_path / 'out'}\n")
        code, _, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_DATA
        assert "eval.k = 50 exceeds the 40 samples" in err
        assert not (tmp_path / "out").exists()

    def test_bad_thread_count_fails_before_any_work(self, tmp_path, capsys,
                                                    monkeypatch):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "data.kind = planted_linear\n"
            "model.layer_sizes = 4,2\n"
            f"output_dir = {tmp_path / 'out'}\n")

        def no_data(data):
            raise AssertionError("the data was read")

        monkeypatch.setattr(experiment, "resolve_bundle", no_data)
        monkeypatch.setenv("DEEPNMF_THREADS", "abc")
        code, _, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_DATA
        assert "DEEPNMF_THREADS = 'abc'" in err
        assert not (tmp_path / "out").exists()
