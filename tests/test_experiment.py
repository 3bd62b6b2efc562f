import numpy as np
import pytest

from deepnmf import (DataFormatError, EvalConfig, ExperimentConfig,
                     InvalidInputError, NumericalError, StopRule, SweepAxes,
                     TrainConfig, draw_layer_structures, load_factors,
                     make_spec, parse_config, run_experiment)
from deepnmf import experiment
from deepnmf.experiment import (_spec_for_point, score_partitions, sweep_points,
                                worker_count)

FAST_TRAIN = TrainConfig(inner_stop=StopRule(100, 1e-4), max_sweeps=10,
                         rel_obj_tol=1e-6)


def tiny_config(tmp_path, **overrides):
    kwargs = dict(
        model=make_spec("sdnmf_l", (4, 2), mu=0.1),
        train=FAST_TRAIN,
        eval=EvalConfig(kmeans_restarts=2, model_reps=2, kmeans_reps=2, seed=5),
        data={"kind": "planted_linear", "rows": 10, "cols": 24,
              "layer_sizes": (4, 2), "classes": 2, "noise": 0.01,
              "seed": 3},
        output_dir=str(tmp_path / "out"),
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestSweepPoints:
    def test_single_point_when_no_axes(self, tmp_path):
        cfg = tiny_config(tmp_path)
        assert sweep_points(cfg) == [{}]

    def test_cross_product(self, tmp_path):
        cfg = tiny_config(tmp_path, sweep=SweepAxes(mu=(0.0, 0.1),
                                                    activation=("linear", "root")))
        points = sweep_points(cfg)
        assert len(points) == 4

    def test_cap_enforced(self, tmp_path):
        cfg = tiny_config(tmp_path, sweep=SweepAxes(mu=tuple(range(9)), cap=8))
        with pytest.raises(InvalidInputError):
            sweep_points(cfg)


class TestRunExperiment:
    def test_single_point_row_count(self, tmp_path):
        cfg = tiny_config(tmp_path)
        rows, summary = run_experiment(cfg)
        # One row per (model_rep, kmeans_rep).
        assert len(rows) == 2 * 2
        assert len(summary) == 1
        assert (tmp_path / "out" / "records.csv").exists()
        assert (tmp_path / "out" / "summary.csv").exists()
        assert (tmp_path / "out" / "summary.json").exists()

    def test_one_record_per_model_rep_when_single_kmeans_rep(self, tmp_path):
        cfg = tiny_config(tmp_path, eval=EvalConfig(kmeans_restarts=2,
                                                    model_reps=3, kmeans_reps=1,
                                                    seed=5))
        rows, _ = run_experiment(cfg)
        assert len(rows) == 3

    def test_sparsity_grows_with_mu(self, tmp_path):
        cfg = tiny_config(
            tmp_path,
            sweep=SweepAxes(mu=(0.0, 0.1, 1.0)),
            eval=EvalConfig(kmeans_restarts=2, model_reps=1, kmeans_reps=1, seed=5),
            dump_factors=True,
        )
        rows, summary = run_experiment(cfg)
        assert len(summary) == 3
        fractions = []
        for point in range(3):
            _, stack, _ = load_factors(tmp_path / "out" / "factors" / f"p{point}")
            fractions.append(float(np.mean(np.abs(stack.w[0]) < 1e-6)))
        assert fractions == sorted(fractions)
        assert fractions[-1] > fractions[0]

    def test_each_point_trains_once_and_keeps_its_kmeans_seeds(
            self, tmp_path, monkeypatch):
        fits, seeds = [], []
        real_fit, real_kmeans = experiment.fit, experiment.kmeans

        def counting_fit(*args, **kwargs):
            fits.append(args[0])
            return real_fit(*args, **kwargs)

        def recording_kmeans(*args, seed, **kwargs):
            seeds.append(seed)
            return real_kmeans(*args, seed=seed, **kwargs)

        monkeypatch.setattr(experiment, "fit", counting_fit)
        monkeypatch.setattr(experiment, "kmeans", recording_kmeans)
        cfg = tiny_config(tmp_path, sweep=SweepAxes(mu=(0.0, 0.1)),
                          eval=EvalConfig(kmeans_restarts=2, model_reps=3,
                                          kmeans_reps=2, seed=5))
        rows, _ = run_experiment(cfg)
        assert len(fits) == 2
        assert sorted(seeds) == sorted(
            experiment._derived_seed(5, point, rep, krep)
            for point in range(2) for rep in range(3) for krep in range(2))
        assert [(r["point"], r["model_rep"], r["kmeans_rep"]) for r in rows] == [
            (point, rep, krep)
            for point in range(2) for rep in range(3) for krep in range(2)]
        for point in range(2):
            walls = {r["wall_ms"] for r in rows if r["point"] == point}
            assert len(walls) == 1 and walls.pop() > 0

    def test_failed_fit_gives_an_error_row_per_model_rep(self, tmp_path,
                                                         monkeypatch):
        def failing_fit(*args, **kwargs):
            raise NumericalError("diverged")

        monkeypatch.setattr(experiment, "fit", failing_fit)
        cfg = tiny_config(tmp_path, eval=EvalConfig(
            kmeans_restarts=2, model_reps=3, kmeans_reps=2, seed=5))
        rows, summary = run_experiment(cfg)
        assert [(r["model_rep"], r["kmeans_rep"], r["error"]) for r in rows] == [
            (rep, -1, "NumericalError") for rep in range(3)]
        assert len({r["wall_ms"] for r in rows}) == 1
        assert rows[0]["wall_ms"] >= 0
        assert summary[0]["n_errors"] == 3

    def test_failed_scoring_gives_one_error_row_for_its_rep(self, tmp_path,
                                                            monkeypatch):
        real_kmeans = experiment.kmeans
        bad_seed = experiment._derived_seed(5, 0, 1, 1)

        def kmeans_failing_once(*args, seed, **kwargs):
            if seed == bad_seed:
                raise InvalidInputError("bad partition")
            return real_kmeans(*args, seed=seed, **kwargs)

        monkeypatch.setattr(experiment, "kmeans", kmeans_failing_once)
        rows, summary = run_experiment(tiny_config(tmp_path))
        assert [(r["model_rep"], r["kmeans_rep"], r["error"]) for r in rows] == [
            (0, 0, ""), (0, 1, ""), (1, -1, "InvalidInputError")]
        assert len({r["wall_ms"] for r in rows}) == 1
        assert (summary[0]["n_rows"], summary[0]["n_errors"]) == (2, 1)

    def test_dump_writes_one_factor_directory_per_point(self, tmp_path):
        cfg = tiny_config(tmp_path, sweep=SweepAxes(mu=(0.0, 0.1, 1.0)),
                          dump_factors=True)
        run_experiment(cfg)
        factors = tmp_path / "out" / "factors"
        assert sorted(d.name for d in factors.iterdir()) == ["p0", "p1", "p2"]

    def test_failures_recorded_and_sweep_continues(self, tmp_path):
        # Second point's first layer is wider than the data, so NNSVD rejects it.
        cfg = tiny_config(tmp_path, sweep=SweepAxes(layer_sizes=((4, 2), (11, 2))))
        rows, summary = run_experiment(cfg)
        bad = [r for r in rows if r["error"]]
        good = [r for r in rows if not r["error"]]
        assert {r["error"] for r in bad} == {"InvalidInputError"}
        assert len(good) == 4
        assert summary[1]["n_errors"] == 2
        assert summary[1]["nmi_mean"] is None

    def test_invalid_spec_point_recorded_not_fatal(self, tmp_path):
        # sdnmf_l penalizes no H, so a nonzero lambda cannot build a spec;
        # the point is recorded as failed and the other point still runs.
        cfg = tiny_config(tmp_path, sweep=SweepAxes(lam=(0.0, 0.5)))
        rows, summary = run_experiment(cfg)
        assert summary[0]["n_errors"] == 0
        assert summary[1]["n_errors"] == 2
        bad = [r for r in rows if r["error"]]
        assert {r["error"] for r in bad} == {"InvalidInputError"}
        assert all(r["point"] == 1 for r in bad)

    def test_summary_header_with_a_failed_point(self, tmp_path):
        # The first point cannot build its spec, so it has no scores.
        cfg = tiny_config(tmp_path, sweep=SweepAxes(lam=(0.5, 0.0)))
        run_experiment(cfg)
        header = (tmp_path / "out" / "summary.csv").read_text().splitlines()[0]
        assert header.split(",") == [
            "point", "variant", "layer_sizes", "mu", "lambda", "activation",
            "n_rows", "n_errors"] + [
            f"{metric}_{stat}" for metric in ("nmi", "er", "np")
            for stat in ("mean", "std", "min", "max")] + [
            "final_objective", "sweeps_used"]

    def test_summary_records_each_fit_once(self, tmp_path):
        # 3 model x 5 k-means repetitions: a mean over the 15 copies of the
        # fit's objective need not round back to it; the summary copies it.
        import csv as csvmod

        cfg = tiny_config(tmp_path, sweep=SweepAxes(mu=(0.0, 0.1, 1.0)),
                          eval=EvalConfig(kmeans_restarts=1, model_reps=3,
                                          kmeans_reps=5, seed=5))
        run_experiment(cfg)
        out = tmp_path / "out"
        with open(out / "records.csv", newline="") as fh:
            records = list(csvmod.DictReader(fh))
        with open(out / "summary.csv", newline="") as fh:
            summary = list(csvmod.DictReader(fh))
        assert len(records) == 3 * 15 and len(summary) == 3
        for point in summary:
            rows = [r for r in records if r["point"] == point["point"]]
            assert len(rows) == 15
            for name in ("final_objective", "sweeps_used"):
                assert {r[name] for r in rows} == {point[name]}

    def test_failed_scoring_keeps_the_fit(self, tmp_path, monkeypatch):
        def failing_kmeans(*args, **kwargs):
            raise InvalidInputError("bad partition")

        cfg = tiny_config(tmp_path)
        _, report = experiment.fit(cfg.model, experiment.resolve_bundle(
            cfg.data).x, cfg.train)
        monkeypatch.setattr(experiment, "kmeans", failing_kmeans)
        rows, summary = run_experiment(cfg)
        assert [(r["kmeans_rep"], r["error"]) for r in rows] == [
            (-1, "InvalidInputError")] * 2
        for entry in rows + summary:
            assert entry["final_objective"] == report.final_objective
            assert entry["sweeps_used"] == report.sweeps_used

    def test_point_of_another_depth_inherits_base_weight(self, tmp_path):
        cfg = tiny_config(
            tmp_path, model=make_spec("sdnmf_l", (4, 2), mu=0.5),
            eval=EvalConfig(kmeans_restarts=2, model_reps=1, kmeans_reps=1, seed=5),
            sweep=SweepAxes(layer_sizes=((4, 2), (4, 3, 2))))
        rows, _ = run_experiment(cfg)
        assert [(r["mu"], r["error"]) for r in rows] == [
            ("0.5,0.5", ""), ("0.5,0.5,0.5", "")]

    def test_base_h_weight_lands_on_last_layer_at_another_depth(self):
        base = make_spec("sdnmf_rl1", (4, 2), mu=0.2, lam=0.3)
        spec = _spec_for_point(base, {"layer_sizes": (6, 4, 2)})
        assert spec.mu == (0.2, 0.2, 0.2)
        assert spec.lam == (0.0, 0.0, 0.3)

    def test_overridden_weight_is_not_inherited(self):
        base = make_spec("sdnmf_l", (4, 2), mu=(0.1, 0.2))
        spec = _spec_for_point(base, {"layer_sizes": (6, 4, 2), "mu": 0.3})
        assert spec.mu == (0.3, 0.3, 0.3)

    def test_differing_base_weights_fail_a_point_of_another_depth(self, tmp_path):
        cfg = tiny_config(
            tmp_path, model=make_spec("sdnmf_l", (4, 2), mu=(0.1, 0.2)),
            sweep=SweepAxes(layer_sizes=((4, 3, 2),)))
        rows, _ = run_experiment(cfg)
        assert {(r["error"], r["mu"]) for r in rows} == {
            ("InvalidInputError", "0.1,0.2")}

    def test_failed_point_shows_swept_weights_like_built_ones(self, tmp_path):
        cfg = tiny_config(tmp_path, sweep=SweepAxes(
            mu=((0.1, 0.2),), layer_sizes=((4, 3, 2),)))
        rows, summary = run_experiment(cfg)
        assert rows[0]["error"] == "InvalidInputError"
        assert summary[0]["mu"] == "0.1,0.2"

    def test_byte_identical_reruns_and_thread_counts(self, tmp_path, monkeypatch):
        import csv as csvmod

        outputs = []
        for run, threads in ((0, "1"), (1, "4"), (2, "1")):
            monkeypatch.setenv("DEEPNMF_THREADS", threads)
            cfg = tiny_config(tmp_path, output_dir=str(tmp_path / f"out{run}"),
                              sweep=SweepAxes(mu=(0.0, 0.1)))
            run_experiment(cfg)
            summary = (tmp_path / f"out{run}" / "summary.csv").read_bytes()
            with open(tmp_path / f"out{run}" / "records.csv", newline="") as fh:
                table = list(csvmod.reader(fh))
            # Drop the wall-clock column; it is the one nondeterministic field.
            wall = table[0].index("wall_ms")
            stripped = [row[:wall] + row[wall + 1:] for row in table]
            outputs.append((summary, stripped))
        assert outputs[0] == outputs[1] == outputs[2]


class TestConfigFile:
    def test_parse_and_run(self, tmp_path):
        cfg_text = """
        # toy sweep
        data.kind = planted_linear
        data.rows = 10
        data.cols = 24
        data.layer_sizes = 4,2
        data.classes = 2
        data.noise = 0.01
        data.seed = 3
        model.variant = sdnmf_l
        model.layer_sizes = 4,2
        model.mu = 0.1
        train.max_sweeps = 10
        train.inner_iters = 100
        eval.model_reps = 1
        eval.kmeans_reps = 2
        eval.seed = 5
        sweep.mu = 0 ; 0.1
        output_dir = {out}
        """.format(out=tmp_path / "out")
        path = tmp_path / "exp.cfg"
        path.write_text(cfg_text)
        cfg = parse_config(path)
        assert cfg.model.variant == "sdnmf_l"
        assert cfg.sweep.mu == (0.0, 0.1)
        rows, summary = run_experiment(cfg)
        assert len(summary) == 2
        assert len(rows) == 4

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("model.layer_sizes = 4,2\nmodel.typo = 1\n")
        with pytest.raises(DataFormatError, match="unknown config keys"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="not found"):
            parse_config(tmp_path / "absent.cfg")

    def test_unknown_data_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("data.kind = blobs\ndata.rowz = 7\n"
                        "model.layer_sizes = 4,2\n")
        with pytest.raises(DataFormatError, match="data.rowz") as err:
            parse_config(path)
        assert str(path) in str(err.value)

    def test_every_data_key_parses(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("data.kind = planted_nonlinear\ndata.rows = 12\n"
                        "data.cols = 20\ndata.classes = 2\ndata.seed = 4\n"
                        "data.layer_sizes = 4,2\ndata.noise = 0.5\n"
                        "data.separation = 3\ndata.activation = tanh\n"
                        "model.layer_sizes = 4,2\n")
        assert parse_config(path).data == {
            "kind": "planted_nonlinear", "rows": 12, "cols": 20, "classes": 2,
            "seed": 4, "layer_sizes": (4, 2), "noise": 0.5, "separation": 3.0,
            "activation": "tanh"}

    @pytest.mark.parametrize("value", [
        "nan,2,4", "1.5,2,4", "4,3", "2,2,4,50,600,0.1,9", "-1,2,4",
        "2,2,4,600,50", "2,2,4,50,600,2", "2,2,4,50,600,inf",
        "2,2,4,50,600,0", "2,2,4,50,600,nan"])
    def test_malformed_structure_rejected(self, tmp_path, value):
        path = tmp_path / "exp.cfg"
        path.write_text(f"data.kind = blobs\nmodel.layer_sizes = 4,2\n"
                        f"sweep.structure = {value}\n")
        with pytest.raises(DataFormatError, match="sweep.structure") as err:
            parse_config(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("key", ["k", "model_reps", "kmeans_reps",
                                     "kmeans_restarts"])
    @pytest.mark.parametrize("value", ["0", "-3", "2.5"])
    def test_eval_counts_must_be_positive(self, tmp_path, key, value):
        path = tmp_path / "exp.cfg"
        path.write_text(f"data.kind = blobs\nmodel.layer_sizes = 4,2\n"
                        f"eval.{key} = {value}\n")
        with pytest.raises(DataFormatError, match=f"eval.{key} = "):
            parse_config(path)

    def test_structure_draw_axis(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "model.layer_sizes = 8,4\n"
            "data.kind = blobs\n"
            "sweep.structure = 4,3,4,6,20,0.1\n")
        cfg = parse_config(path)
        assert len(cfg.sweep.layer_sizes) == 4
        for sizes in cfg.sweep.layer_sizes:
            assert len(sizes) == 3
            assert sizes[-1] == 4
            assert sizes[0] >= sizes[1] >= sizes[2]

    def test_blank_axis_is_absent(self, tmp_path):
        # A blank sweep.layer_sizes line must not replace the drawn
        # structures with an empty axis.
        path = tmp_path / "exp.cfg"
        path.write_text(
            "model.layer_sizes = 4,2\n"
            "data.kind = blobs\n"
            "sweep.structure = 3,2,2,4,8\n"
            "sweep.layer_sizes =\n")
        cfg = parse_config(path)
        assert len(cfg.sweep.layer_sizes) == 3
        assert len(sweep_points(cfg)) == 3


class TestStructureDraws:
    def test_properties(self):
        draws = draw_layer_structures(seed=3, draws=20, depth=3, last_size=40,
                                      lo=50, hi=600, p=0.02)
        assert len(draws) == 20
        for sizes in draws:
            assert sizes[-1] == 40
            assert sizes[0] >= sizes[1] >= 40
            assert all(50 <= k <= 600 for k in sizes[:-1])
        assert draws == draw_layer_structures(seed=3, draws=20, depth=3,
                                              last_size=40, lo=50, hi=600, p=0.02)

    @pytest.mark.parametrize("kwargs", [
        {"draws": -1}, {"lo": 60, "hi": 50}, {"p": 0.0}, {"p": 1.5},
        {"p": float("nan")}, {"depth": 0}])
    def test_rejects_out_of_range_arguments(self, kwargs):
        args = dict(seed=0, draws=2, depth=2, last_size=4)
        args.update(kwargs)
        with pytest.raises(InvalidInputError):
            draw_layer_structures(**args)


def test_unlabeled_scores_cluster_nothing(monkeypatch):
    calls = []
    monkeypatch.setattr(experiment, "kmeans",
                        lambda *args, **kwargs: calls.append(args))
    assert score_partitions(np.ones((3, 5)), None, 2, 4, 1, 0) == [{}] * 4
    assert calls == []


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("DEEPNMF_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("DEEPNMF_THREADS", "4")
    assert worker_count() == 4
    for raw in ("zero", "0", "-2"):
        monkeypatch.setenv("DEEPNMF_THREADS", raw)
        with pytest.raises(InvalidInputError, match="DEEPNMF_THREADS"):
            worker_count()


@pytest.mark.parametrize("field, value", [
    ("kmeans_restarts", 0), ("model_reps", 0), ("kmeans_reps", 0),
    ("kmeans_reps", -1), ("k", 0)])
def test_eval_config_rejects_counts_below_one(field, value):
    # Unchecked, k = 0 would cluster with the label count and a zero
    # repetition count would write an empty summary row with no error.
    with pytest.raises(InvalidInputError, match=f"{field} must be"):
        EvalConfig(**{field: value})
