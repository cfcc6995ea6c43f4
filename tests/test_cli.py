import numpy as np
import pytest

import atrosim.cli as cli_module
from atrosim.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, build_parser, cli
from atrosim.fieldio import read_field, write_field
from atrosim.fields import DisplacementField, LabelField, ScalarField


@pytest.fixture
def phantom_files(tmp_path):
    paths = {
        "labels": str(tmp_path / "labels.atrf"),
        "intensity": str(tmp_path / "intensity.atrf"),
        "atrophy": str(tmp_path / "atrophy.atrf"),
    }
    rc = cli(["phantom", "--size", "32", "--seed", "0",
              "--out-labels", paths["labels"],
              "--out-intensity", paths["intensity"],
              "--out-atrophy", paths["atrophy"]])
    assert rc == EXIT_OK
    return paths


class TestUsage:
    def test_no_command(self):
        assert cli([]) == EXIT_USAGE

    def test_unknown_command(self):
        assert cli(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_argument(self):
        assert cli(["phantom", "--out-labels", "x"]) == EXIT_USAGE


class TestParserReuse:
    def test_calls_share_one_parser_without_carrying_state(
            self, phantom_files, tmp_path, monkeypatch):
        # cli() builds its parser once per process; each call must still parse
        # exactly as a freshly built parser would, whatever came before it
        parsed = []
        for name in ("warp", "eval"):
            command = cli_module._COMMANDS[name]

            def recording(args, command=command):
                parsed.append(vars(args))
                return command(args)
            monkeypatch.setitem(cli_module._COMMANDS, name, recording)

        u_path = str(tmp_path / "zero.atrf")
        write_field(u_path, DisplacementField.zeros(32, 32))
        bad = ["eval", "--atrophy", phantom_files["atrophy"], "--u", u_path,
               "--out", str(tmp_path / "x.csv"), "--bogus"]
        warp = ["warp", "--input", phantom_files["intensity"], "--u", u_path,
                "--out", str(tmp_path / "warped.atrf")]
        evaluate = ["eval", "--labels-a", phantom_files["labels"],
                    "--labels-b", phantom_files["labels"],
                    "--out", str(tmp_path / "m.csv")]
        assert cli(bad) == EXIT_USAGE
        assert cli(warp) == EXIT_OK
        assert cli(evaluate) == EXIT_OK
        assert parsed == [vars(build_parser().parse_args(warp)),
                          vars(build_parser().parse_args(evaluate))]
        assert parsed[1]["atrophy"] is None and parsed[1]["u"] is None
        assert cli_module._parser() is cli_module._parser()


class TestPhantomCommand:
    def test_writes_three_fields(self, phantom_files):
        labels = read_field(phantom_files["labels"])
        intensity = read_field(phantom_files["intensity"])
        atrophy = read_field(phantom_files["atrophy"])
        assert isinstance(labels, LabelField)
        assert isinstance(intensity, ScalarField)
        assert isinstance(atrophy, ScalarField)
        assert labels.shape == (32, 32)

    def test_deterministic_bytes(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            args = ["phantom", "--size", "32", "--seed", "3"]
            names = {}
            for kind in ("labels", "intensity", "atrophy"):
                names[kind] = tmp_path / f"{tag}-{kind}.atrf"
                args += [f"--out-{kind}", str(names[kind])]
            assert cli(args) == EXIT_OK
            outs.append(names)
        for kind in ("labels", "intensity", "atrophy"):
            assert outs[0][kind].read_bytes() == outs[1][kind].read_bytes()

    def test_bad_spec_is_runtime_error(self, tmp_path):
        rc = cli(["phantom", "--size", "8",
                  "--out-labels", str(tmp_path / "l"),
                  "--out-intensity", str(tmp_path / "i"),
                  "--out-atrophy", str(tmp_path / "a")])
        assert rc == EXIT_RUNTIME


class TestSolveCommand:
    def test_solve_writes_outputs_and_report(self, phantom_files, tmp_path):
        out_u = str(tmp_path / "u.atrf")
        out_j = str(tmp_path / "jac.atrf")
        report = tmp_path / "report.csv"
        rc = cli(["solve", "--atrophy", phantom_files["atrophy"],
                  "--labels", phantom_files["labels"],
                  "--image", phantom_files["intensity"],
                  "--out-u", out_u, "--out-jacobian", out_j,
                  "--out-warped", str(tmp_path / "warped.atrf"),
                  "--out-warped-labels", str(tmp_path / "wl.atrf"),
                  "--report", str(report), "--max-iters", "100"])
        assert rc == EXIT_OK
        u = read_field(out_u)
        assert isinstance(u, DisplacementField)
        lines = report.read_text().splitlines()
        assert lines[0].split(",")[:2] == ["iterations", "terminated_by"]
        assert len(lines) == 2

    def test_solve_deterministic(self, phantom_files, tmp_path):
        paths = []
        for tag in ("a", "b"):
            out = tmp_path / f"u-{tag}.atrf"
            rc = cli(["solve", "--atrophy", phantom_files["atrophy"],
                      "--labels", phantom_files["labels"],
                      "--out-u", str(out), "--max-iters", "50"])
            assert rc == EXIT_OK
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_wrong_field_kind(self, phantom_files, tmp_path):
        rc = cli(["solve", "--atrophy", phantom_files["labels"],
                  "--labels", phantom_files["labels"],
                  "--out-u", str(tmp_path / "u.atrf")])
        assert rc == EXIT_RUNTIME

    def test_config_file_applies(self, phantom_files, tmp_path):
        cfgpath = tmp_path / "run.cfg"
        cfgpath.write_text("max_iters = 20\n", encoding="utf-8")
        out = tmp_path / "u.atrf"
        report = tmp_path / "r.csv"
        rc = cli(["solve", "--config", str(cfgpath),
                  "--atrophy", phantom_files["atrophy"],
                  "--labels", phantom_files["labels"],
                  "--out-u", str(out), "--report", str(report)])
        assert rc == EXIT_OK
        row = report.read_text().splitlines()[1].split(",")
        assert row[0] == "20"


class TestTrainPredictCommands:
    def test_synthetic_train_and_predict(self, phantom_files, tmp_path):
        ckpt = str(tmp_path / "net.nawt")
        losscsv = tmp_path / "loss.csv"
        rc = cli(["train", "--synthetic", "2", "--size", "32",
                  "--epochs", "2", "--batch-size", "2",
                  "--checkpoint", ckpt, "--loss-csv", str(losscsv)])
        assert rc == EXIT_OK
        lines = losscsv.read_text().splitlines()
        assert lines[0] == "epoch,mean_loss"
        assert len(lines) == 3
        out_u = str(tmp_path / "pred.atrf")
        rc = cli(["predict", "--checkpoint", ckpt,
                  "--atrophy", phantom_files["atrophy"],
                  "--labels", phantom_files["labels"],
                  "--out-u", out_u])
        assert rc == EXIT_OK
        assert isinstance(read_field(out_u), DisplacementField)

    def test_train_deterministic_checkpoint(self, tmp_path):
        ckpts = []
        for tag in ("a", "b"):
            ckpt = tmp_path / f"net-{tag}.nawt"
            rc = cli(["train", "--synthetic", "2", "--size", "32",
                      "--epochs", "2", "--batch-size", "2", "--seed", "5",
                      "--checkpoint", str(ckpt),
                      "--loss-csv", str(tmp_path / f"loss-{tag}.csv")])
            assert rc == EXIT_OK
            ckpts.append(ckpt)
        assert ckpts[0].read_bytes() == ckpts[1].read_bytes()
        assert (tmp_path / "loss-a.csv").read_bytes() == \
            (tmp_path / "loss-b.csv").read_bytes()

    def test_manifest_training(self, phantom_files, tmp_path):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(
            f"{phantom_files['atrophy']},{phantom_files['labels']}\n",
            encoding="utf-8")
        rc = cli(["train", "--manifest", str(manifest),
                  "--epochs", "1", "--batch-size", "1",
                  "--checkpoint", str(tmp_path / "m.nawt"),
                  "--loss-csv", str(tmp_path / "m.csv")])
        assert rc == EXIT_OK

    def test_train_requires_a_source(self, tmp_path):
        rc = cli(["train", "--checkpoint", str(tmp_path / "x.nawt"),
                  "--loss-csv", str(tmp_path / "x.csv")])
        assert rc == EXIT_RUNTIME


class TestEvalCommand:
    def test_metrics_csv(self, phantom_files, tmp_path):
        out_u = str(tmp_path / "u.atrf")
        assert cli(["solve", "--atrophy", phantom_files["atrophy"],
                    "--labels", phantom_files["labels"],
                    "--out-u", out_u, "--max-iters", "50"]) == EXIT_OK
        out = tmp_path / "metrics.csv"
        rc = cli(["eval", "--atrophy", phantom_files["atrophy"],
                  "--u", out_u, "--labels", phantom_files["labels"],
                  "--image-a", phantom_files["intensity"],
                  "--image-b", phantom_files["intensity"],
                  "--labels-a", phantom_files["labels"],
                  "--labels-b", phantom_files["labels"],
                  "--out", str(out)])
        assert rc == EXIT_OK
        header, row = out.read_text().splitlines()
        assert header == ("mse_atrophy_brain,mse_atrophy_all,mse_image,"
                          "dice_csf,dice_gm,dice_wm,dice_dgm")
        vals = [float(v) for v in row.split(",")]
        assert vals[2] == 0.0            # identical images
        assert vals[3:] == [1.0] * 4     # identical labels

    def test_absent_groups_are_nan(self, phantom_files, tmp_path):
        out = tmp_path / "metrics.csv"
        rc = cli(["eval", "--image-a", phantom_files["intensity"],
                  "--image-b", phantom_files["intensity"], "--out", str(out)])
        assert rc == EXIT_OK
        vals = out.read_text().splitlines()[1].split(",")
        assert vals[0] == "nan"
        assert float(vals[2]) == 0.0

    def test_incomplete_group(self, phantom_files, tmp_path):
        rc = cli(["eval", "--atrophy", phantom_files["atrophy"],
                  "--out", str(tmp_path / "m.csv")])
        assert rc == EXIT_RUNTIME


class TestGradcheckCommand:
    def test_passes(self, capsys):
        rc = cli(["gradcheck", "--size", "16", "--probes", "32"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "field gradcheck" in out
        assert "net gradcheck" in out
        assert "FAIL" not in out


class TestWarpCommand:
    def test_zero_warp_round_trips_image(self, phantom_files, tmp_path):
        u_path = str(tmp_path / "zero.atrf")
        write_field(u_path, DisplacementField.zeros(32, 32))
        out = tmp_path / "warped.atrf"
        pgm = tmp_path / "warped.pgm"
        rc = cli(["warp", "--input", phantom_files["intensity"],
                  "--u", u_path, "--out", str(out), "--pgm", str(pgm)])
        assert rc == EXIT_OK
        orig = read_field(phantom_files["intensity"])
        warped = read_field(str(out))
        assert np.array_equal(orig.values, warped.values)
        assert pgm.read_bytes().startswith(b"P5\n32 32\n255\n")

    def test_warp_labels(self, phantom_files, tmp_path):
        u_path = str(tmp_path / "zero.atrf")
        write_field(u_path, DisplacementField.zeros(32, 32))
        out = tmp_path / "wl.atrf"
        rc = cli(["warp", "--input", phantom_files["labels"],
                  "--u", u_path, "--out", str(out)])
        assert rc == EXIT_OK
        assert isinstance(read_field(str(out)), LabelField)

    def test_pgm_on_labels_rejected(self, phantom_files, tmp_path):
        u_path = str(tmp_path / "zero.atrf")
        write_field(u_path, DisplacementField.zeros(32, 32))
        rc = cli(["warp", "--input", phantom_files["labels"],
                  "--u", u_path, "--out", str(tmp_path / "o.atrf"),
                  "--pgm", str(tmp_path / "o.pgm")])
        assert rc == EXIT_RUNTIME

    def test_displacement_input_rejected(self, phantom_files, tmp_path):
        u_path = str(tmp_path / "zero.atrf")
        write_field(u_path, DisplacementField.zeros(32, 32))
        rc = cli(["warp", "--input", u_path, "--u", u_path,
                  "--out", str(tmp_path / "o.atrf")])
        assert rc == EXIT_RUNTIME
