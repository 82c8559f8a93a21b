import struct

import numpy as np
import pytest

from potts_sl import (
    AffinityGraph,
    Image,
    ProbField,
    ScribbleField,
    read_probfield,
    write_image,
    write_labels,
    write_probfield,
)
from potts_sl import cli
from potts_sl.cli import main
from potts_sl.synthetic import solver_oracle_instance, two_region_instance


@pytest.fixture
def instance_files(tmp_path):
    sigma, scribbles, image = solver_oracle_instance(0, height=8, width=8)
    paths = {
        "image": tmp_path / "img.ppm",
        "scribbles": tmp_path / "scr.pgm",
        "sigma": tmp_path / "sigma.pfld",
        "config": tmp_path / "run.cfg",
        "out": tmp_path / "out",
    }
    write_image(image, paths["image"])
    write_labels(scribbles.data, paths["scribbles"])
    write_probfield(sigma, paths["sigma"])
    paths["config"].write_text("eta = 4\nlambda = 2\npotts = q\nxent = quad\nsteps = 60\n")
    return paths


def run(*argv):
    return main([str(a) for a in argv])


class TestSolve:
    def test_writes_artifacts(self, instance_files, capsys):
        p = instance_files
        code = run("solve", "--image", p["image"], "--scribbles", p["scribbles"],
                   "--sigma", p["sigma"], "--config", p["config"], "--out", p["out"])
        assert code == 0
        for name in ("y.pfld", "y_decode.pgm", "y_vis.ppm", "solve_report.txt"):
            assert (p["out"] / name).is_file()
        report = (p["out"] / "solve_report.txt").read_text().splitlines()
        assert len(report) == 62  # 61 trace lines + divergence line
        y = read_probfield(p["out"] / "y.pfld")
        assert y.data.shape == (8, 8, 3)

    def test_fully_scribbled_decode_matches_input(self, tmp_path):
        rng = np.random.default_rng(5)
        labels = rng.integers(1, 4, size=(6, 6))
        sigma = ProbField.uniform(6, 6, 3)
        image = Image(rng.integers(0, 256, size=(6, 6, 3)))
        paths = dict(
            image=tmp_path / "i.ppm", scr=tmp_path / "s.pgm",
            sigma=tmp_path / "p.pfld", cfg=tmp_path / "c.cfg", out=tmp_path / "o",
        )
        write_image(image, paths["image"])
        write_labels(labels, paths["scr"])
        write_probfield(sigma, paths["sigma"])
        paths["cfg"].write_text("steps = 3\n")
        code = run("solve", "--image", paths["image"], "--scribbles", paths["scr"],
                   "--sigma", paths["sigma"], "--config", paths["cfg"], "--out", paths["out"])
        assert code == 0
        decoded = (paths["out"] / "y_decode.pgm").read_bytes()
        assert decoded == paths["scr"].read_bytes()


    def test_grid_layout_leaves_outputs_byte_identical(self, tmp_path, monkeypatch):
        sigma, scribbles, image = solver_oracle_instance(3, height=11, width=9)
        files = dict(image=tmp_path / "i.ppm", scr=tmp_path / "s.pgm",
                     sigma=tmp_path / "p.pfld", cfg=tmp_path / "c.cfg")
        write_image(image, files["image"])
        write_labels(scribbles.data, files["scr"])
        write_probfield(sigma, files["sigma"])
        files["cfg"].write_text("neighborhood = sparse:2\nsteps = 20\n")
        build = cli.build_graph

        def build_without_layout(image, cfg):
            g = build(image, cfg)
            return AffinityGraph(g.npixels, g.ei, g.ej, g.w)

        outs = []
        for name, builder in (("grid", build), ("flat", build_without_layout)):
            monkeypatch.setattr(cli, "build_graph", builder)
            out = tmp_path / name
            code = run("solve", "--image", files["image"], "--scribbles", files["scr"],
                       "--sigma", files["sigma"], "--config", files["cfg"], "--out", out)
            assert code == 0
            outs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert len(outs[0]) == 4 and outs[0] == outs[1]


class TestOracleRw:
    # at eta = 1e308, 2 eta overflows unless the weights are scaled down first
    @pytest.mark.parametrize("eta", ["4", "1e308"])
    def test_runs_and_writes(self, eta, instance_files):
        p = instance_files
        p["config"].write_text(f"eta = {eta}\nlambda = 2\npotts = q\nxent = quad\n")
        code = run("oracle-rw", "--image", p["image"], "--scribbles", p["scribbles"],
                   "--sigma", p["sigma"], "--config", p["config"], "--out", p["out"])
        assert code == 0
        for name in ("y.pfld", "y_decode.pgm", "y_vis.ppm", "solve_report.txt"):
            assert (p["out"] / name).is_file()

    @pytest.mark.parametrize("lam, scribbled, reason", [
        # no data term and no scribbles: the linear system has no anchor
        ("1", False, "eta is negligible next to lambda * max(w) and a component has no scribble"),
        # no term at all on a flat image: one component with a scribble, zero diagonal
        ("0", True, "zero diagonal in the Laplacian block"),
    ], ids=["no-scribble", "no-term"])
    def test_singular_system_exits_numerical(self, lam, scribbled, reason, instance_files,
                                             capsys):
        p = instance_files
        p["config"].write_text(f"eta = 0\nlambda = {lam}\npotts = q\nxent = quad\n")
        if scribbled:
            write_image(Image(np.full((8, 8, 3), 80, dtype=np.uint8)), p["image"])
        else:
            write_labels(np.zeros((8, 8), dtype=np.int64), p["scribbles"])
        code = run("oracle-rw", "--image", p["image"], "--scribbles", p["scribbles"],
                   "--sigma", p["sigma"], "--config", p["config"], "--out", p["out"])
        assert code == 3
        assert capsys.readouterr().err == f"numerical failure: singular system: {reason}\n"
        assert list(p["out"].iterdir()) == []

    def test_off_simplex_solution_exits_numerical(self, tmp_path, capsys):
        # eta = 0 on 8x8 noise: affinities underflow, so pixels reach the
        # scribbles only through negligible edges and the grounding check
        # refuses the singular system (the library case in test_oracles)
        rng = np.random.default_rng(5)
        write_image(Image(rng.integers(0, 256, size=(8, 8, 3))), tmp_path / "i.ppm")
        write_probfield(ProbField(rng.dirichlet(np.ones(3), size=(8, 8))), tmp_path / "p.pfld")
        labels = np.zeros(64, dtype=np.int64)
        labels[rng.permutation(64)[:4]] = rng.integers(1, 4, size=4)
        write_labels(labels.reshape(8, 8), tmp_path / "s.pgm")
        (tmp_path / "c.cfg").write_text("eta = 0\nlambda = 1\npotts = q\nxent = quad\n")
        out = tmp_path / "out"
        code = run("oracle-rw", "--image", tmp_path / "i.ppm", "--scribbles", tmp_path / "s.pgm",
                   "--sigma", tmp_path / "p.pfld", "--config", tmp_path / "c.cfg", "--out", out)
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestTrain:
    def make_files(self, tmp_path, rounds=2):
        image, scribbles, gt = two_region_instance(seed=7, height=16, width=16)
        paths = {
            "image": tmp_path / "img.ppm",
            "scribbles": tmp_path / "scr.pgm",
            "gt": tmp_path / "gt.pgm",
            "config": tmp_path / "run.cfg",
        }
        write_image(image, paths["image"])
        write_labels(scribbles.data, paths["scribbles"])
        write_labels(gt, paths["gt"])
        paths["config"].write_text(f"rounds = {rounds}\nsteps = 40\nseed = 7\n")
        return paths

    def test_writes_artifacts_and_miou(self, tmp_path, capsys):
        p = self.make_files(tmp_path)
        out = tmp_path / "out"
        code = run("train", "--image", p["image"], "--scribbles", p["scribbles"],
                   "--config", p["config"], "--out", out, "--gt", p["gt"])
        assert code == 0
        for name in ("sigma.pfld", "y.pfld", "loss_trace.txt", "miou.txt",
                     "sigma_decode.pgm", "y_decode.pgm", "sigma_vis.ppm", "y_vis.ppm"):
            assert (out / name).is_file()
        printed = capsys.readouterr().out
        assert "final_y_miou" in printed

    @pytest.mark.parametrize("gt, line", [
        (np.ones((5, 5), dtype=np.int64), "prediction and ground truth differ in size"),
        (np.full((12, 12), 3), "illegal label value 3 (K=2)"),
    ], ids=["another-size", "class-above-k"])
    def test_bad_ground_truth_is_refused_before_training(self, gt, line, tmp_path, capsys):
        image, scribbles, _ = two_region_instance(seed=7, height=12, width=12)
        write_image(image, tmp_path / "i.ppm")
        write_labels(scribbles.data, tmp_path / "s.pgm")
        write_labels(gt, tmp_path / "g.pgm")
        (tmp_path / "c.cfg").write_text("rounds = 1\nsteps = 2\n")
        out = tmp_path / "out"
        code = run("train", "--image", tmp_path / "i.ppm", "--scribbles", tmp_path / "s.pgm",
                   "--config", tmp_path / "c.cfg", "--out", out, "--gt", tmp_path / "g.pgm")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.endswith(f"{line}\n")
        assert not (out / "loss_trace.txt").exists()
        assert list(out.iterdir()) == []

    def test_deterministic_across_runs(self, tmp_path):
        p = self.make_files(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run("train", "--image", p["image"], "--scribbles", p["scribbles"],
                       "--config", p["config"], "--out", out, "--gt", p["gt"])
            assert code == 0
            outs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert outs[0].keys() == outs[1].keys()
        for name in outs[0]:
            assert outs[0][name] == outs[1][name], name


class TestSmallCommands:
    def test_metrics_perfect(self, tmp_path, capsys):
        labels = np.array([[1, 2], [2, 1]])
        pred = tmp_path / "p.pgm"
        gt = tmp_path / "g.pgm"
        write_labels(labels, pred)
        write_labels(labels, gt)
        assert run("metrics", "--pred", pred, "--gt", gt, "--classes", 2) == 0
        assert capsys.readouterr().out.strip() == "1.0000"

    METRICS = ("metrics", "--pred", "p.pgm", "--gt", "g.pgm", "--classes", "2")

    @pytest.mark.parametrize("labels, argv, line", [
        # 2x3 and 3x2 maps hold the same six labels in row-major order
        ({"p.pgm": [[1, 2, 1], [2, 1, 2]], "g.pgm": [[1, 2], [1, 2], [1, 2]]}, METRICS,
         "prediction and ground truth differ in shape: (2, 3) and (3, 2)"),
        ({"p.pgm": [[1, 3], [2, 1]], "g.pgm": [[1, 2], [2, 1]]}, METRICS,
         "prediction labels must lie in 1..2"),
        ({}, ("gradcheck", "--kind", "nosuch"), "unknown gradcheck kind; matched only []"),
    ], ids=["transposed-ground-truth", "label-above-classes", "unknown-gradcheck-kind"])
    def test_refusal_is_one_data_error_line(self, labels, argv, line, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.chdir(tmp_path)
        for name, data in labels.items():
            write_labels(np.array(data), name)
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"data error: {line}"]

    @pytest.mark.parametrize("missing", ["pred", "gt"])
    def test_metrics_missing_file_names_its_flag(self, tmp_path, capsys, missing):
        files = {"pred": tmp_path / "p.pgm", "gt": tmp_path / "g.pgm"}
        for name, path in files.items():
            if name != missing:
                write_labels(np.array([[1, 2]]), path)
        assert run("metrics", "--pred", files["pred"], "--gt", files["gt"], "--classes", 2) == 2
        assert f"--{missing}: no such file: {files[missing]}" in capsys.readouterr().err

    def test_gradcheck_passes(self, capsys):
        assert run("gradcheck", "--kind", "q", "--kind", "cce") == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    @pytest.mark.parametrize("argv", [("gradcheck",), ("corrupt-bench", "--out", "unused")])
    def test_negative_seed_is_usage_error(self, argv, capsys):
        assert run(*argv, "--seed", -1) == 1
        err = capsys.readouterr().err
        assert "error: argument --seed: must be a non-negative integer" in err
        assert "Traceback" not in err

    def test_corrupt_bench_csv(self, tmp_path):
        out = tmp_path / "bench"
        assert run("corrupt-bench", "--seed", 3, "--out", out) == 0
        lines = (out / "corruption.csv").read_text().splitlines()
        assert lines[0] == "eta,kind,accuracy"
        assert len(lines) == 16  # 5 levels x 3 kinds


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, instance_files, capsys):
        assert run("solve", "--bogus", "x") == 1

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run("frobnicate") == 1

    def test_missing_input_is_data_error(self, instance_files, capsys):
        p = instance_files
        code = run("solve", "--image", "/nonexistent.ppm", "--scribbles", p["scribbles"],
                   "--sigma", p["sigma"], "--config", p["config"], "--out", p["out"])
        assert code == 2

    @pytest.mark.parametrize("text, reason", [
        ("bogus_key = 1\n", "{config}: unknown config keys: bogus_key"),
        ("eta = abc\n", "config key eta: 'abc' is not a number"),
    ], ids=["unknown-key", "not-a-number"])
    def test_config_parse_failure_is_data_error(self, text, reason, instance_files, capsys):
        p = instance_files
        p["config"].write_text(text)
        code = run("solve", "--image", p["image"], "--scribbles", p["scribbles"],
                   "--sigma", p["sigma"], "--config", p["config"], "--out", p["out"])
        assert code == 2
        assert capsys.readouterr().err == f"data error: {reason.format(config=p['config'])}\n"

    @pytest.mark.parametrize("name, corrupt, reason", [
        ("scribbles", lambda data: data[:-1] + bytes([200]), "illegal scribble value 200 (K=3)"),
        ("image", lambda _: b"P6\n3 3", "truncated header"),
        ("image", lambda _: b"P6\n3 x\n255\n", "malformed header byte b'x'"),
        ("image", lambda _: b"P6\n3 3\n255", "missing separator after header"),
        ("image", lambda _: b"P6\n0 3\n255\n", "bad dimensions 0x3"),
        ("sigma", lambda data: data[:4] + struct.pack("<III", 3, 3, 1),
         "bad PFLD dimensions 3x3x1"),
    ], ids=["scribble-value", "ppm-truncated", "ppm-byte", "ppm-separator", "ppm-dimensions",
            "pfld-one-class"])
    def test_malformed_input_is_data_error(self, name, corrupt, reason, instance_files, capsys):
        p = instance_files
        p[name].write_bytes(corrupt(p[name].read_bytes()))
        code = run("solve", "--image", p["image"], "--scribbles", p["scribbles"],
                   "--sigma", p["sigma"], "--config", p["config"], "--out", p["out"])
        assert code == 2
        assert capsys.readouterr().err == f"data error: {p[name]}: {reason}\n"

    def test_dimension_mismatch_is_data_error(self, instance_files, capsys, tmp_path):
        p = instance_files
        write_probfield(ProbField.uniform(4, 4, 3), p["sigma"])
        code = run("solve", "--image", p["image"], "--scribbles", p["scribbles"],
                   "--sigma", p["sigma"], "--config", p["config"], "--out", p["out"])
        assert code == 2

    @pytest.mark.parametrize("command", ["solve", "train"])
    def test_transposed_inputs_are_data_error(self, command, tmp_path, capsys):
        # a 6x4 image with 4x6 predictions and scribbles: equal pixel counts
        rng = np.random.default_rng(4)
        write_image(Image(rng.integers(0, 256, size=(6, 4, 3))), tmp_path / "i.ppm")
        labels = np.zeros((4, 6), dtype=np.int64)
        labels[0, 0], labels[3, 5] = 1, 2
        write_labels(labels, tmp_path / "s.pgm")
        write_probfield(ProbField.uniform(4, 6, 2), tmp_path / "p.pfld")
        (tmp_path / "c.cfg").write_text("steps = 2\nrounds = 1\n")
        sigma = ["--sigma", tmp_path / "p.pfld"] if command == "solve" else []
        code = run(command, "--image", tmp_path / "i.ppm", "--scribbles", tmp_path / "s.pgm",
                   *sigma, "--config", tmp_path / "c.cfg", "--out", tmp_path / "o")
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_train_reports_shape_before_scribble_classes(self, tmp_path, capsys):
        # 5x5 single-class scribbles on a 6x4 image: the shape is the problem
        rng = np.random.default_rng(6)
        write_image(Image(rng.integers(0, 256, size=(6, 4, 3))), tmp_path / "i.ppm")
        write_labels(np.ones((5, 5), dtype=np.int64), tmp_path / "s.pgm")
        (tmp_path / "c.cfg").write_text("steps = 2\nrounds = 1\n")
        code = run("train", "--image", tmp_path / "i.ppm", "--scribbles", tmp_path / "s.pgm",
                   "--config", tmp_path / "c.cfg", "--out", tmp_path / "o")
        assert code == 2
        assert "graph covers a 6x4 grid, field is 5x5" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0

    @staticmethod
    def small_job(tmp_path, command, config, image, labels=None, sigma=None):
        if labels is None:
            labels = np.zeros((5, 5), dtype=np.int64)
            labels[0, 0], labels[4, 4] = 1, 2
            sigma = ProbField.uniform(5, 5, 2)
        write_image(image, tmp_path / "i.ppm")
        write_labels(labels, tmp_path / "s.pgm")
        write_probfield(sigma, tmp_path / "p.pfld")
        (tmp_path / "c.cfg").write_text(config)
        sigma = ["--sigma", tmp_path / "p.pfld"] if command != "train" else []
        out = tmp_path / "out"
        code = run(command, "--image", tmp_path / "i.ppm", "--scribbles", tmp_path / "s.pgm",
                   *sigma, "--config", tmp_path / "c.cfg", "--out", out)
        return code, sorted(f.name for f in out.iterdir())

    @staticmethod
    def labelled_job(tmp_path, command, labels, classes=2):
        """small_job on a random image and a uniform sigma of labels' shape."""
        rng = np.random.default_rng(labels.size)
        image = Image(rng.integers(0, 256, size=(*labels.shape, 3)))
        sigma = ProbField.uniform(*labels.shape, classes)
        return TestExitCodes.small_job(tmp_path, command, "steps = 2\nrounds = 1\n", image,
                                       labels, sigma)

    @pytest.mark.parametrize("labels, reason", [
        (np.zeros((4, 4), dtype=np.int64), "training needs at least one scribble"),
        (np.ones((1, 1), dtype=np.int64), "training needs scribbles from at least two classes"),
        (np.diag([1, 0, 1, 1]), "training needs scribbles from at least two classes"),
        (np.ones((4, 4), dtype=np.int64), "training needs scribbles from at least two classes"),
    ], ids=["no-scribbles", "one-class-1x1", "one-class-4x4", "one-class-all-scribbled"])
    def test_train_refusal_names_its_reason(self, labels, reason, tmp_path, capsys):
        assert self.labelled_job(tmp_path, "train", labels) == (2, [])
        assert capsys.readouterr().err == f"data error: {reason}\n"

    def test_solve_with_22_classes_names_the_palette(self, tmp_path, capsys):
        labels = np.zeros((5, 5), dtype=np.int64)
        assert self.labelled_job(tmp_path, "solve", labels, classes=22) == (2, [])
        assert capsys.readouterr().err == "data error: K=22 exceeds the 21 palette colors\n"

    @pytest.mark.parametrize("label", [0, 1], ids=["unscribbled", "scribbled"])
    def test_solve_on_one_pixel(self, label, tmp_path, capsys):
        code, _ = self.labelled_job(tmp_path, "solve", np.full((1, 1), label))
        assert code == 0 and capsys.readouterr().err == ""
        y = read_probfield(tmp_path / "out" / "y.pfld").data
        assert y.shape == (1, 1, 2)
        assert np.all(y >= 0.0) and abs(y.sum() - 1.0) <= 1e-6
        if label:
            assert y[0, 0].tolist() == [1.0, 0.0]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("line", [
        "color_bandwidth = 1e200",  # 2 * bw**2 overflows
        "neighborhood = dense:2:1e200",
        "color_bandwidth = 1e-300",  # 2 * bw**2 underflows: 0/0 on a flat image
    ])
    def test_extreme_bandwidth_is_data_error(self, line, tmp_path, capsys):
        flat = Image(np.full((5, 5, 3), 80, dtype=np.uint8))
        code, written = self.small_job(tmp_path, "solve", f"{line}\nsteps = 2\n", flat)
        assert code == 2
        assert "bandwidth**2 a positive finite float" in capsys.readouterr().err
        assert written == []

    @pytest.mark.parametrize("command, size", [("solve", 5), ("train", 5), ("solve", 16),
                                               ("train", 16), ("oracle-rw", 16)],
                             ids=["solve", "train", "solve-16", "train-16", "oracle-rw-16"])
    def test_non_finite_objective_is_numerical_failure(self, command, size, tmp_path, capsys):
        # the objective overflows at the start point, so no inf trace is
        # written; on the 16x16, K = 3 instance the edge gradients overflow
        # too, and the failure line alone reaches stderr (a numpy
        # RuntimeWarning fails this suite); oracle-rw solves exactly and
        # refuses the overflowing objective of its solution
        if size == 5:
            job = (Image(np.random.default_rng(2).integers(0, 256, size=(5, 5, 3))),)
        else:
            sigma, scribbles, image = solver_oracle_instance(0, size, size)
            job = (image, scribbles.data, sigma)
        config = "eta = 1e308\nlambda = 1e308\nsteps = 3\nrounds = 2\n"
        code, written = self.small_job(tmp_path, command, config, *job)
        assert code == 3
        objective = ("quadratic objective of the solution" if command == "oracle-rw"
                     else "pseudo-label objective at the start point")
        assert capsys.readouterr().err == f"numerical failure: {objective} is inf\n"
        assert written == []


class TestClassLimit:
    """The CLI renders K <= 21 classes with its palette and refuses more
    before any solve, so no partial output is left behind."""

    @staticmethod
    def job(tmp_path, command, classes):
        rng = np.random.default_rng(classes)
        write_image(Image(rng.integers(0, 256, size=(5, 5, 3))), tmp_path / "i.ppm")
        labels = np.zeros((5, 5), dtype=np.int64)
        labels.ravel()[:classes] = np.arange(1, classes + 1)
        write_labels(labels, tmp_path / "s.pgm")
        write_probfield(ProbField.uniform(5, 5, classes), tmp_path / "p.pfld")
        (tmp_path / "c.cfg").write_text("steps = 2\nrounds = 1\n")
        sigma = [] if command == "train" else ["--sigma", tmp_path / "p.pfld"]
        out = tmp_path / "out"
        code = run(command, "--image", tmp_path / "i.ppm", "--scribbles", tmp_path / "s.pgm",
                   *sigma, "--config", tmp_path / "c.cfg", "--out", out)
        return code, sorted(f.name for f in out.iterdir())

    @pytest.mark.parametrize("command", ["solve", "oracle-rw", "train"])
    def test_22_classes_refused_before_any_output(self, command, tmp_path, capsys):
        assert self.job(tmp_path, command, 22) == (2, [])
        assert "K=22" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "oracle-rw", "train"])
    def test_21_classes_run(self, command, tmp_path, capsys):
        code, names = self.job(tmp_path, command, 21)
        assert code == 0 and "y_vis.ppm" in names
