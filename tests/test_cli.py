"""Config handling, CSV emission, and end-to-end runs of every subcommand."""

import argparse
import os
import re
import struct
import subprocess
import sys
import time
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oneshot_fl import aggregate as agg
from oneshot_fl import cli, datasets, fisher, models
from oneshot_fl.cli import (
    ConfigError,
    ExperimentConfig,
    ResultRow,
    build_config,
    default_config,
    load_config_file,
    validate_config,
    write_csv,
)

from idx_files import write_idx

_FLAG_ATTRS = dict(
    config=None, out=None, seed_list=None, methods=None, no_timing=False,
    clients=None, alpha=None, eta=None, eta_s=None, epochs=None,
    batch_size=None, t_max=None, widths=None, steps_list=None, rounds=None,
    s_q_list=None, data_kind=None, n_train=None, n_test=None,
)


def _ns(**overrides) -> argparse.Namespace:
    return argparse.Namespace(**{**_FLAG_ATTRS, **overrides})


def _read_rows(path) -> list[list[str]]:
    lines = path.read_text().strip().split("\n")
    assert lines[0] == cli.CSV_HEADER
    return [line.split(",") for line in lines[1:]]


class TestDefaults:
    def test_width_sweep_defaults(self):
        cfg = default_config("synthetic-width")
        assert cfg.clients == 2
        assert cfg.per_client == 100
        assert cfg.dim == 2
        assert cfg.eta == 0.1
        assert cfg.eta_s == 0.001
        assert cfg.epochs_or_steps == 2048
        assert cfg.momentum == 0.0
        assert cfg.batch_size == 0
        assert cfg.seeds == list(range(10))
        assert cfg.widths == [32, 64, 128, 256, 512]
        assert agg.METHOD_FULL in cfg.methods
        validate_config(cfg)

    def test_steps_sweep_defaults(self):
        cfg = default_config("synthetic-steps")
        assert cfg.width == 512
        assert cfg.steps_list == [2**k for k in range(4, 13)]
        validate_config(cfg)

    def test_server_applies_kronecker_products_in_float32(self):
        # The library's default is float64, the exact operator.
        cfg = _tiny_image_cfg(methods=[agg.METHOD_KFAC])
        assert cli._setup(cfg, 0).server_cfg.kron_precision == "float32"
        assert agg.ServerConfig().kron_precision == "float64"

    def test_every_task_default_validates(self):
        for task in ("one-shot", "few-shot", "compress-bench"):
            validate_config(default_config(task))

    def test_unknown_task_rejected(self):
        with pytest.raises(ConfigError, match="unknown task"):
            default_config("hyperparameter-search")


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_command(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "oneshot_fl", "--help"],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": path})
        assert done.returncode == 0, done.stderr
        assert "synthetic-width" in done.stdout
        assert "RuntimeWarning" not in done.stderr


class TestConfigFile:
    def test_sections_parse_and_override(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[data]\nclients = 3\nalpha = 0.5\n"
            "[model]\nhidden_dims = 16, 8\n"
            "[local]\neta = 0.05\nbatch_size = 16\n"
            "[server]\neta_s = auto\nt_max = 50\n"
            "[run]\nseeds = 1, 2\ntiming = false\n"
            "methods = fedavg, fedfisher-diag\n"
        )
        cfg = load_config_file(default_config("one-shot"), str(path))
        assert cfg.clients == 3
        assert cfg.alpha == 0.5
        assert cfg.hidden_dims == [16, 8]
        assert cfg.eta == 0.05
        assert cfg.batch_size == 16
        assert cfg.eta_s is None
        assert cfg.t_max == 50
        assert cfg.seeds == [1, 2]
        assert cfg.timing is False
        assert cfg.methods == [agg.METHOD_FEDAVG, agg.METHOD_DIAG]

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[data]\nbogus = 1\n")
        with pytest.raises(ConfigError, match=r"unknown config key \[data\] bogus"):
            load_config_file(default_config("one-shot"), str(path))

    def test_key_in_wrong_section_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[model]\nclients = 3\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config_file(default_config("one-shot"), str(path))

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[data]\nclients = three\n")
        with pytest.raises(ConfigError, match=r"bad value for \[data\] clients"):
            load_config_file(default_config("one-shot"), str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config_file(default_config("one-shot"), str(tmp_path / "nope.ini"))

    @pytest.mark.parametrize("text, messages", [
        # Each exited 1 with a configparser or decoding traceback.
        (b"clients = 3\n", ["cannot parse config file {path}: File contains no section headers"]),
        (b"[data]\nclients = 3\nclients = 4\n",
         ["cannot parse config file {path}: ",
          "option 'clients' in section 'data' already exists"]),
        (b"[data]\nclients = 3\n[data]\nalpha = 0.5\n",
         ["cannot parse config file {path}: ", "section 'data' already exists"]),
        (b"[data]\nclients\n", ["cannot parse config file {path}: Source contains parsing errors"]),
        (b"[data]\nclients = 3 ; \xff\n",
         ["cannot parse config file {path}: 'utf-8' codec can't decode byte 0xff"]),
        # "%" is literal: the run looks for the file it names.
        (b"[data]\nkind = csv\ncsv_path = my%data.csv\n",
         ["[data] csv_path: [Errno 2] No such file or directory: 'my%data.csv'"]),
        # Keys under [DEFAULT] were dropped (exit 0), or copied into every other section.
        (b"[DEFAULT]\nclients = 3\n", ["unknown config key [DEFAULT] clients"]),
        (b"[DEFAULT]\nclients = 3\n[model]\nhidden_dims = 8\n",
         ["unknown config key [DEFAULT] clients"]),
    ], ids=["no section", "repeated key", "repeated section", "no equals sign", "not utf-8",
            "percent sign", "default section", "default beside another section"])
    def test_malformed_file_is_config_error(self, text, messages, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path, out = tmp_path / "run.ini", tmp_path / "x.csv"
        path.write_bytes(text)
        code = cli.main(["one-shot", "--config", str(path), "--seed-list", "0", "--methods",
                         "fedavg", "--no-timing", "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert all(message.format(path=path) in err for message in messages), err
        assert not out.exists()

    def test_model_kind_key_is_gone(self, tmp_path):
        # The task decides the architecture; there is no [model] kind.
        path = tmp_path / "run.ini"
        path.write_text("[model]\nkind = mlp\n")
        with pytest.raises(ConfigError, match=r"unknown config key \[model\] kind"):
            load_config_file(default_config("one-shot"), str(path))

    def test_bad_boolean_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\ntiming = maybe\n")
        with pytest.raises(ConfigError, match="expected a boolean"):
            load_config_file(default_config("one-shot"), str(path))

    def test_eta_s_forms(self, tmp_path):
        assert cli._parse_eta_s("auto") is None
        assert cli._parse_eta_s(" AUTO ") is None
        assert cli._parse_eta_s("0.5") == 0.5
        with pytest.raises(ConfigError, match="expected a float or 'auto'"):
            cli._parse_eta_s("fast")

    def test_bad_int_list_rejected(self):
        with pytest.raises(ConfigError, match="comma-separated integers"):
            cli._parse_int_list("4,five")


class TestValidation:
    def test_unknown_method(self):
        cfg = replace(default_config("one-shot"), methods=["fedprox"])
        with pytest.raises(ConfigError, match="unknown method"):
            validate_config(cfg)

    def test_empty_seeds_and_methods(self):
        with pytest.raises(ConfigError, match="seed"):
            validate_config(replace(default_config("one-shot"), seeds=[]))
        with pytest.raises(ConfigError, match="method"):
            validate_config(replace(default_config("one-shot"), methods=[]))

    def test_unknown_optimizer(self):
        cfg = replace(default_config("one-shot"), optimizer="lbfgs")
        with pytest.raises(ConfigError, match="server optimizer"):
            validate_config(cfg)

    def test_nonpositive_clients(self):
        cfg = replace(default_config("one-shot"), clients=0)
        with pytest.raises(ConfigError, match="clients"):
            validate_config(cfg)

    def test_more_clients_than_training_examples(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = cli.main(["one-shot", "--clients", "1200", "--n-train", "1000",
                         "--seed-list", "0", "--no-timing", "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "[data] clients (--clients) is 1200" in err and "900 examples" in err
        assert not out.exists()

    def test_unknown_data_kind(self):
        cfg = replace(default_config("one-shot"), data_kind="parquet")
        with pytest.raises(ConfigError, match="data kind"):
            validate_config(cfg)

    def test_s_q_out_of_range(self):
        for bad in (0, 17):
            cfg = replace(default_config("compress-bench"), s_q_list=[4, bad])
            with pytest.raises(ConfigError, match="s_q"):
                validate_config(cfg)

    def test_nonpositive_rounds(self):
        cfg = replace(default_config("few-shot"), rounds=0)
        with pytest.raises(ConfigError, match="rounds"):
            validate_config(cfg)

    def test_empty_sweeps(self):
        with pytest.raises(ConfigError, match="width"):
            validate_config(replace(default_config("synthetic-width"), widths=[]))
        with pytest.raises(ConfigError, match="step"):
            validate_config(replace(default_config("synthetic-steps"), steps_list=[]))
        with pytest.raises(ConfigError, match="s_q"):
            validate_config(replace(default_config("compress-bench"), s_q_list=[]))

    @pytest.mark.parametrize("task, flags, name", [
        ("one-shot", ["--seed-list", "0,1,0"], "seeds"),
        ("few-shot", ["--methods", "fedavg,fedavg"], "methods"),
        ("synthetic-width", ["--widths", "8,8"], "widths"),
        ("synthetic-steps", ["--steps-list", "4,4"], "steps_list"),
        ("compress-bench", ["--s-q-list", "2,4,2"], "s_q_list"),
    ])
    def test_repeated_list_entry_rejected(self, task, flags, name, tmp_path, capsys):
        # A repeat wrote duplicate rows, or was silently dropped (steps_list).
        out = tmp_path / "x.csv"
        code = cli.main([task, *flags, "--no-timing", "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert f"{name} must not repeat an entry" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("changes, message", [
        (dict(data_kind="csv"), "csv data needs csv_path"),
        (dict(data_kind="idx", images_path="img.idx"),
         "idx data needs images_path and labels_path"),
        (dict(data_kind="idx", images_path="img.idx", labels_path="lab.idx",
              test_images_path="timg.idx"),
         "[data] set both test_images_path and test_labels_path, or neither"),
        (dict(data_kind="idx", images_path="img.idx", labels_path="lab.idx",
              test_images_path="timg.idx", test_labels_path="tlab.idx", test_fraction=0.5),
         "[data] test_fraction is not read when test_images_path and test_labels_path are set; "
         "leave it at its default 0.2"),
        (dict(data_kind="synthetic"), "data kind 'synthetic' is not a classification source"),
    ])
    def test_data_source_errors_need_no_file(self, changes, message):
        # Each passed validate_config and was raised only once the run read its data.
        with pytest.raises(ConfigError, match=re.escape(message)):
            validate_config(replace(default_config("one-shot"), **changes))

    @pytest.mark.parametrize("bound, inside, outside", [
        ("positive", [1e-300, 5], [0, -1e-300]), ("nonnegative", [0, 0.5], [-1e-300]),
        ("at least 2", [2, 3], [1]), ("in [0, 1)", [0, 0.5], [-1e-300, 1]),
        ("in (0, 1)", [1e-300, 0.5], [0, 1]), ("in [1, 16]", [1, 16], [0, 17]),
    ])
    def test_bounds_hold_at_their_ends(self, bound, inside, outside):
        assert all(cli._within(x, bound) for x in inside)
        assert not any(cli._within(x, bound) for x in outside)

    def test_repeated_hidden_width_accepted(self):
        validate_config(replace(default_config("one-shot"), hidden_dims=[64, 64]))

    def test_dense_curvature_rejected_on_classification(self, tmp_path, capsys):
        for task in ("one-shot", "few-shot", "compress-bench"):
            cfg = replace(default_config(task), methods=[agg.METHOD_FULL])
            with pytest.raises(ConfigError, match="fedfisher-full does not apply"):
                validate_config(cfg)
        code = cli.main(["one-shot", "--methods", "fedfisher-full", "--out",
                         str(tmp_path / "x.csv")])
        assert code == cli.EXIT_CONFIG
        assert "MLP" in capsys.readouterr().err

    def test_kfac_rejected_on_synthetic(self, tmp_path, capsys):
        for task in ("synthetic-width", "synthetic-steps"):
            cfg = replace(default_config(task), methods=[agg.METHOD_KFAC])
            with pytest.raises(ConfigError, match="fedfisher-kfac does not apply"):
                validate_config(cfg)
        code = cli.main(["synthetic-width", "--methods", "fedfisher-kfac", "--out",
                         str(tmp_path / "x.csv")])
        assert code == cli.EXIT_CONFIG
        assert "two-layer net" in capsys.readouterr().err

    def test_batch_size_rejected_on_synthetic(self, tmp_path, capsys):
        # The synthetic sweeps always train full batch; a batch size would do nothing.
        out = tmp_path / "x.csv"
        for task, sweep in (("synthetic-width", "--widths"), ("synthetic-steps", "--steps-list")):
            code = cli.main([task, "--batch-size", "10", "--seed-list", "0", sweep, "8",
                             "--methods", "fedavg", "--no-timing", "--out", str(out)])
            assert code == cli.EXIT_CONFIG
            assert f"task {task} does not read [local] batch_size" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--eta", "0"], ["--eta", "-0.1"], ["--eta-s", "0"], ["--eta-s", "-1"],
        ["--epochs", "-1"], ["--t-max", "-5"], ["--widths", "0"], ["--alpha", "0"],
        ["--n-train", "0"],
    ])
    def test_nonpositive_steps_and_counts_rejected(self, flags, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = cli.main(["synthetic-width", "--widths", "8", "--seed-list", "0",
                         "--methods", "fedavg", "--no-timing", "--out", str(out), *flags])
        assert code == cli.EXIT_CONFIG
        name = {"--eta": "eta", "--eta-s": "eta_s", "--epochs": "epochs_or_steps",
                "--t-max": "t_max", "--widths": "widths", "--alpha": "alpha",
                "--n-train": "n_train"}[flags[0]]
        assert f"{name} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("task, ini, message", [
        # Curvature is exact: there is no key to choose a sampled one or its draws.
        ("synthetic-width", "[run]\nfisher_mode = sampled\ndraws = 0\n",
         "unknown config key [run] fisher_mode"),
        ("one-shot", "[run]\ndraws = 1\n", "unknown config key [run] draws"),
        ("one-shot", "[run]\ndraws = 7\n", "unknown config key [run] draws"),
        ("synthetic-steps", "[run]\nfisher_mode = expected\ndraws = 7\n",
         "unknown config key [run] fisher_mode"),
        ("synthetic-width", "[local]\nmomentum = 1.5\n", "momentum must be in [0, 1)"),
        # The holdout kept one test example anyway.
        ("one-shot", "[data]\nkind = csv\ncsv_path = d.csv\ntest_fraction = 0\n",
         "test_fraction must be in (0, 1), got 0.0"),
        ("one-shot", "[server]\nval_every = -3\n", "val_every must be positive"),
        # An empty test set would score every row NaN.
        ("one-shot", "[data]\nn_test = 0\n", "n_test must be at least 1"),
        # A 1x1 image is constant: min-max scaling divided 0 by 0 (exit 3).
        ("one-shot", "[data]\nside = 1\n", "side must be at least 2"),
        # The task's model declares its loss, so there is no key to set it.
        ("synthetic-width", "[local]\nloss = softmax-ce\n", "unknown config key [local] loss"),
        ("one-shot", "[local]\nloss = squared\n", "unknown config key [local] loss"),
        # s_q sets only the K-FAC codec: these wrote the same bytes as the defaults.
        ("one-shot", "[run]\ns_q = 8\n",
         "task one-shot with methods fedavg does not read [run] s_q; leave it at its default 4"),
        ("few-shot", "[run]\ncompress = false\ns_q = 8\n",
         "task few-shot with methods fedavg and compress = false does not read [run] s_q"),
        ("synthetic-steps", "[model]\nwidth = 0\n", "width must be at least 1"),
        ("synthetic-width", "[model]\nkappa = 0\n", "kappa must be positive"),
        ("synthetic-steps", "[run]\nsteps_list = 4, -1\n", "steps_list must be at least 0"),
        # A negative batch size trained full batch, like 0.
        ("one-shot", "[local]\nbatch_size = -5\n", "batch_size must be at least 0"),
        # NaN Dirichlet proportions (exit 0), local or server divergence (exit 3),
        # or, for eta_s beside fedavg alone, no effect at all.
        ("one-shot", "[data]\nalpha = inf\n", "[data] alpha must be finite, got inf"),
        ("one-shot", "[data]\npixel_noise = nan\n", "[data] pixel_noise must be finite, got nan"),
        # Negative noise scales ran (exit 0).
        ("one-shot", "[data]\npixel_noise = -0.3\n", "[data] pixel_noise must be nonnegative"),
        ("one-shot", "[data]\nfield_noise = -0.15\n", "[data] field_noise must be nonnegative"),
        ("synthetic-width", "[model]\nkappa = inf\n", "[model] kappa must be finite, got inf"),
        ("synthetic-width", "[local]\neta = inf\n", "[local] eta must be finite, got inf"),
        ("one-shot", "[server]\neta_s = inf\n", "[server] eta_s must be finite, got inf"),
    ])
    def test_out_of_range_config_values_rejected(self, task, ini, message, tmp_path, capsys):
        path, out = tmp_path / "run.ini", tmp_path / "x.csv"
        path.write_text(ini)
        code = cli.main([task, "--config", str(path), "--seed-list", "0", "--methods",
                         "fedavg", "--no-timing", "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("task", ["synthetic-width", "one-shot"])
    def test_negative_seed_rejected(self, task, tmp_path, capsys):
        # numpy's seeding raised ValueError on it (exit 1).
        out = tmp_path / "x.csv"
        code = cli.main([task, "--seed-list", "-1", "--methods", "fedavg", "--no-timing",
                         "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert "seeds must be at least 0" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_stop_tol_rejected(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[server]\nstop_tol = -1e-10\n")
        code = cli.main(["synthetic-width", "--config", str(path), "--widths", "8",
                         "--seed-list", "0", "--no-timing", "--out", str(tmp_path / "x.csv")])
        assert code == cli.EXIT_CONFIG
        assert "stop_tol must be nonnegative" in capsys.readouterr().err

    def test_fisher_mode_flag_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(_tiny_width_args(tmp_path / "x.csv", ["--fisher-mode", "expected"]))
        assert exc.value.code == cli.EXIT_CONFIG
        assert "unrecognized arguments: --fisher-mode expected" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_out_rejected_before_training(self, where, tmp_path, capsys, monkeypatch):
        # The whole run finished, then writing raised FileNotFoundError or
        # IsADirectoryError (exit 1).
        out = {"missing directory": tmp_path / "none" / "x.csv", "directory": tmp_path}[where]

        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "Round", no_training)
        assert cli.main(_tiny_width_args(out)) == cli.EXIT_CONFIG
        assert f"[run] out (--out): {str(out)!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("methods, ini, flags, named", [
        ("fedavg", "", ["--t-max", "5"], "[server] t_max (--t-max)"),
        ("fedavg", "[run]\ncompress = false\n", [], "[run] compress;"),
        ("fedavg,fishermerge", "", ["--eta-s", "0.5"], "[server] eta_s (--eta-s)"),
    ])
    def test_key_no_method_reads_rejected(self, methods, ini, flags, named, tmp_path, capsys):
        # Only the solver methods read the [server] keys, and fedavg is never
        # compressed: each of these wrote the bytes of the run without it.
        path, out = tmp_path / "run.ini", tmp_path / "x.csv"
        path.write_text(ini)
        argv = ["one-shot", "--config", str(path), *flags, "--seed-list", "0", "--n-train", "300",
                "--n-test", "50", "--epochs", "1", "--no-timing", "--out", str(out)]
        assert cli.main(argv + ["--methods", methods]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"task one-shot with methods {methods.replace(',', ', ')} does not read {named}" in err
        assert not out.exists()
        # With a solver method beside them, the run reads the key: no ConfigError.
        build_config("one-shot", cli._parser().parse_args(
            argv + ["--methods", f"{methods},fedfisher-diag"]))

    def test_val_every_unread_without_validation_split(self, tmp_path, capsys):
        # With val_fraction = 0 the solver gets no val_fn: val_every = 5 wrote
        # the bytes of the run without it.
        path, out = tmp_path / "run.ini", tmp_path / "x.csv"
        argv = ["one-shot", "--config", str(path), "--seed-list", "0", "--methods",
                "fedavg,fedfisher-diag", "--n-train", "300", "--n-test", "50", "--epochs", "1",
                "--t-max", "20", "--no-timing", "--out", str(out)]
        path.write_text("[data]\nval_fraction = 0\n[server]\nval_every = 5\n")
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert ("task one-shot and val_fraction = 0 does not read [server] val_every; leave it "
                "at its default 100") in capsys.readouterr().err
        assert not out.exists()
        path.write_text("[data]\nval_fraction = 0.2\n[server]\nval_every = 5\n")
        build_config("one-shot", cli._parser().parse_args(argv))

    def test_s_q_accepted_where_read(self):
        validate_config(replace(default_config("one-shot"), s_q=8,
                                methods=[agg.METHOD_FEDAVG, agg.METHOD_KFAC]))

    def test_auto_and_zero_counts_accepted(self):
        validate_config(replace(default_config("synthetic-width"), eta_s=None,
                                epochs_or_steps=0, t_max=0, stop_tol=0.0))

    def test_widths_rejected_on_steps_sweep(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = cli.main(["synthetic-steps", "--widths", "8", "--steps-list", "4",
                         "--seed-list", "0", "--methods", "fedavg", "--no-timing",
                         "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert "does not read [run] widths" in capsys.readouterr().err
        assert not out.exists()
        path = tmp_path / "run.ini"
        path.write_text("[run]\nwidths = 8\n")
        code = cli.main(["synthetic-steps", "--config", str(path), "--no-timing",
                         "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert "does not read [run] widths" in capsys.readouterr().err

    def test_data_key_of_another_kind_rejected(self, tmp_path, capsys):
        # The image generator's keys did nothing on csv data: same CSV bytes.
        path, out = tmp_path / "run.ini", tmp_path / "x.csv"
        path.write_text(f"[data]\nkind = csv\ncsv_path = {tmp_path / 'd.csv'}\n"
                        "side = 6\nclasses = 3\nn_train = 7\n")
        code = cli.main(["one-shot", "--config", str(path), "--no-timing", "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert ("task one-shot on data kind csv does not read [data] n_train (--n-train)"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("kind, key", [
        ("csv", "side"), ("csv", "images_path"), ("idx", "csv_path"), ("idx", "pixel_noise"),
        ("image-classes", "test_fraction"), ("image-classes", "labels_path"),
    ])
    def test_data_keys_checked_per_kind(self, kind, key):
        paths = {"idx": dict(images_path="img.idx", labels_path="lab.idx"),
                 "csv": dict(csv_path="x.csv")}.get(kind, {})  # the files the kind needs
        cfg = replace(default_config("few-shot"), data_kind=kind, **paths)
        validate_config(cfg)
        spec = cli._CONFIG_KEYS[("data", key)]
        bad = replace(cfg, **{spec.attr: spec.parse(_UNREAD_VALUES[key])})
        with pytest.raises(ConfigError, match=rf"data kind {kind} does not read \[data\] {key}"):
            validate_config(bad)

    def test_data_keys_of_the_kind_accepted(self):
        for kind, keys in (("image-classes", "n_train n_test classes side pixel_noise field_noise"),
                           ("idx", "images_path labels_path test_images_path test_labels_path"),
                           ("idx", "images_path labels_path test_fraction"),
                           ("csv", "csv_path test_fraction")):
            values = {}
            for key in keys.split() + ["alpha", "val_fraction"]:
                spec = cli._CONFIG_KEYS[("data", key)]
                values[spec.attr] = spec.parse(_UNREAD_VALUES[key])
            validate_config(replace(default_config("compress-bench"), data_kind=kind, **values))

    def test_dense_curvature_size_cap(self):
        cfg = replace(default_config("synthetic-width"), widths=[1024], dim=4)
        with pytest.raises(ConfigError, match="width\\*dim"):
            validate_config(cfg)
        validate_config(replace(cfg, methods=[agg.METHOD_FEDAVG]))
        steps_cfg = replace(default_config("synthetic-steps"), width=1024, dim=4)
        with pytest.raises(ConfigError, match="width\\*dim"):
            validate_config(steps_cfg)


class TestApplyFlags:
    def test_every_flag_lands(self):
        ns = _ns(out="x.csv", seed_list="3,4", methods="fedavg", no_timing=True,
                 clients=7, alpha=0.3, eta=0.2, eta_s="auto", epochs=5,
                 batch_size=8, t_max=99, widths="4,8", steps_list="16",
                 rounds=2, s_q_list="2,4", data_kind="synthetic", n_train=50, n_test=10)
        cfg = cli._apply_flags(default_config("one-shot"), ns)
        assert cfg.out == "x.csv"
        assert cfg.seeds == [3, 4]
        assert cfg.methods == ["fedavg"]
        assert cfg.timing is False
        assert cfg.clients == 7
        assert cfg.alpha == 0.3
        assert cfg.eta == 0.2
        assert cfg.eta_s is None
        assert cfg.epochs_or_steps == 5
        assert cfg.batch_size == 8
        assert cfg.t_max == 99
        assert cfg.widths == [4, 8]
        assert cfg.steps_list == [16]
        assert cfg.rounds == 2
        assert cfg.s_q_list == [2, 4]
        assert cfg.data_kind == "synthetic"
        assert cfg.n_train == 50
        assert cfg.n_test == 10
        # The table loop set exactly the flagged keys' attributes.
        default = default_config("one-shot")
        changed = {name for name in vars(cfg) if getattr(cfg, name) != getattr(default, name)}
        assert changed == {spec.attr for spec in cli._CONFIG_KEYS.values() if spec.flag}

    def test_no_flags_keeps_defaults(self):
        cfg = cli._apply_flags(default_config("one-shot"), _ns())
        assert cfg == default_config("one-shot")

    def test_flags_override_config_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[data]\nclients = 3\n[run]\nseeds = 5\n")
        cfg = build_config("one-shot", _ns(config=str(path), seed_list="1,2"))
        assert cfg.clients == 3  # file value survives
        assert cfg.seeds == [1, 2]  # flag wins

    def test_default_output_path_names_task(self):
        cfg = build_config("few-shot", _ns())
        assert cfg.out == "few-shot.csv"


# A value for every key that some run below does not read: parses, passes the
# range checks, and differs from the default of every such task (but for
# optimizer, which only the classification tasks default to adam).
_UNREAD_VALUES = {
    "kind": "csv", "per_client": "50", "dim": "3", "alpha": "0.5", "n_train": "700",
    "n_test": "300", "classes": "3", "side": "6", "pixel_noise": "0.2",
    "field_noise": "0.1", "images_path": "img.idx", "labels_path": "lab.idx",
    "test_images_path": "timg.idx", "test_labels_path": "tlab.idx", "csv_path": "x.csv",
    "test_fraction": "0.25", "val_fraction": "0.2", "width": "8", "kappa": "0.25",
    "hidden_dims": "16", "epochs_or_steps": "7", "batch_size": "10", "val_every": "5",
    "widths": "8", "steps_list": "4", "rounds": "2", "compress": "false", "s_q": "8",
    "s_q_list": "2", "optimizer": "gd", "eta_s": "0.5", "t_max": "5", "stop_tol": "1e-6",
}


def _unread_by_fedavg(task: str, spec) -> bool:
    """Whether a fedavg-only run of ``task`` at its default ``compress``
    leaves the key unread by its task, its methods or its ``compress``
    (the data kinds are checked on their own)."""
    tasks, _, methods, compress = (spec.readers + (None,) * 3)[:4]
    on = f"compress = {str(default_config(task).compress).lower()}"
    return (task not in tasks or methods is not None and agg.METHOD_FEDAVG not in methods
            or compress is not None and on not in compress)


_UNREAD = [(task, section, key) for (section, key), spec in cli._CONFIG_KEYS.items()
           for task in cli._ALL if _unread_by_fedavg(task, spec)
           and spec.parse(_UNREAD_VALUES[key]) != getattr(default_config(task), spec.attr)]

# Today's flags; every subcommand takes all of them.
_FLAGS = {
    "--config", "--out", "--seed-list", "--methods", "--no-timing", "--clients", "--alpha",
    "--eta", "--eta-s", "--epochs", "--batch-size", "--t-max", "--widths", "--steps-list",
    "--rounds", "--s-q-list", "--data-kind", "--n-train", "--n-test",
}


def _readme_rows(header: str) -> list[tuple[list[tuple[str, str]], str]]:
    """(keys, right-hand cell) for every row of README's table under ``header``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    body = readme.split(f"\n{header}\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rows = []
    for line in body.splitlines():
        keys, cell = line.strip("| ").split(" | ")
        groups = re.findall(r"`\[(\w+)\] ([\w ]+)`", keys)
        rows.append(([(section, key) for section, group in groups for key in group.split()], cell))
    return rows


def _readme_table(header: str) -> list[tuple[tuple[str, str], tuple]]:
    """(key, readers) for every key in README's table under ``header``, with
    "every task" and "every task but ..." spelled out as task lists. A
    ", when `methods` has ..." condition adds the methods named, or with
    "but" every other method, and ``compress = true`` or ``val_fraction > 0``
    when it names them."""
    entries = []
    for keys, cell in _readme_rows(header):
        readers, _, when = cell.partition(", when `methods` has ")
        names = re.findall(r"`([\w-]+)`", readers)
        if readers.startswith("every task"):
            names = [task for task in cli._ALL if task not in names]
        groups = (sorted(names),)
        if when:
            methods = re.findall(r"`([\w-]+)`", when)
            if " but " in when:
                methods = [m for m in agg.VALID_METHODS if m not in methods]
            groups += (None, sorted(methods))
            conditions = [[c] if f"`{c}`" in when else None
                          for c in ("compress = true", "val_fraction > 0")]
            while conditions and conditions[-1] is None:
                conditions.pop()
            groups += tuple(conditions)
        entries.extend((key, groups) for key in keys)
    return entries


class TestConfigTable:
    def test_one_row_per_field_and_unchanged_flags(self):
        rows = [spec.attr for spec in cli._CONFIG_KEYS.values()]
        assert sorted(rows) == sorted(set(vars(ExperimentConfig())) - {"task"})
        assert {t for spec in cli._CONFIG_KEYS.values() for t in spec.readers[0]} == set(
            cli._ALL)
        # Keys that were accepted and wrote the same CSV bytes as without them.
        assert {("synthetic-steps", "local", "epochs_or_steps"),
                ("synthetic-steps", "run", "widths"),
                ("synthetic-width", "data", "n_train"), ("synthetic-width", "run", "rounds"),
                ("synthetic-width", "run", "steps_list"), ("synthetic-width", "local", "batch_size"),
                ("one-shot", "run", "rounds"), ("compress-bench", "run", "compress"),
                ("compress-bench", "run", "s_q"), ("one-shot", "server", "t_max"),
                ("synthetic-width", "server", "eta_s"), ("one-shot", "run", "compress"),
                ("few-shot", "run", "s_q")} <= set(_UNREAD)
        (subparsers,) = [a for a in cli._parser()._actions
                         if isinstance(a, argparse._SubParsersAction)]
        assert set(subparsers.choices) == set(cli._ALL)
        for sub in subparsers.choices.values():
            actions = [a for a in sub._actions if a.option_strings != ["-h", "--help"]]
            assert {s for a in actions for s in a.option_strings} == _FLAGS
            assert {a.dest for a in actions} == set(_FLAG_ATTRS)

    @pytest.mark.parametrize("task, section, key", _UNREAD)
    def test_unread_key_rejected(self, task, section, key, tmp_path, capsys):
        out = tmp_path / "x.csv"
        base = [task, "--seed-list", "0", "--methods", "fedavg", "--no-timing", "--out", str(out)]
        path = tmp_path / "run.ini"
        path.write_text(f"[{section}]\n{key} = {_UNREAD_VALUES[key]}\n")
        attempts = [["--config", str(path)]]
        flag = cli._CONFIG_KEYS[(section, key)].flag
        if flag is not None:
            attempts.append([flag, _UNREAD_VALUES[key]])
        for extra in attempts:
            assert cli.main(base + extra) == cli.EXIT_CONFIG
            assert f"does not read [{section}] {key}" in capsys.readouterr().err
            assert not out.exists()

    def test_readme_key_tables_match_declarations(self):
        by_task = _readme_table("| keys | read by |")
        assert sorted(key for key, _ in by_task) == sorted(cli._CONFIG_KEYS)  # each key once
        for key, readers in by_task:
            declared = cli._CONFIG_KEYS[key].readers
            if len(declared) == 2:  # tasks and data kinds: the kinds are in the table below
                declared = declared[:1]
            assert readers == tuple(group and sorted(group) for group in declared), key
        kinds = {key: spec.readers[1] for key, spec in cli._CONFIG_KEYS.items()
                 if len(spec.readers) > 1 and spec.readers[1]}
        by_kind = _readme_table("| keys | read on data kind |")
        assert sorted(key for key, _ in by_kind) == sorted(kinds)
        for key, (readers,) in by_kind:
            assert readers == sorted(kinds[key]), key

    def test_every_numeric_key_declares_a_bound(self):
        numeric = (int, float, cli._parse_eta_s, cli._parse_int_list)
        for key, spec in cli._CONFIG_KEYS.items():
            assert (spec.bound is not None) == (spec.parse in numeric), key

    def test_readme_range_table_matches_declarations(self):
        by_range = [(key, bound) for keys, bound in _readme_rows("| keys | range |")
                    for key in keys]
        assert sorted(key for key, _ in by_range) == sorted(
            key for key, spec in cli._CONFIG_KEYS.items() if spec.bound)  # each key once
        for key, bound in by_range:
            assert cli._CONFIG_KEYS[key].bound == bound, key
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = re.search(r"Each entry of\s(.*?)\smakes its own\srows", readme, re.S)[1]
        assert sorted(re.findall(r"`(\w+)`", rows)) == sorted(
            key for (_, key), spec in cli._CONFIG_KEYS.items() if spec.rows)

    def test_readme_ini_example_validates(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        path = tmp_path / "run.ini"
        path.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
        cfg = load_config_file(default_config("one-shot"), str(path))
        validate_config(cfg)
        assert cfg.alpha == 0.1
        assert cfg.optimizer == "adam"
        assert cfg.eta_s == 0.01
        assert cfg.val_every == 100


class TestCsvWriting:
    def test_rows_sorted_and_formatted(self, tmp_path):
        rows = [
            ResultRow(1, "fedavg", 2.0, 1 / 3, 0.5, 0.0, 64),
            ResultRow(0, "fedavg", 8.0, 0.25, 0.5, 0.0, 32),
            ResultRow(0, "fedavg", 2.0, 0.125, 0.5, 0.0, 32),
            ResultRow(0, "fedfisher-diag", 2.0, 0.5, 0.5, 0.0, 96),
        ]
        path = tmp_path / "out.csv"
        write_csv(rows, str(path))
        parsed = _read_rows(path)
        keys = [(int(r[0]), r[1], float(r[2])) for r in parsed]
        assert keys == sorted(keys)
        assert float(parsed[0][3]) == 0.125

    def test_seventeen_digit_round_trip(self, tmp_path):
        awkward = [1 / 3, 0.1, np.nextafter(1.0, 2.0), 1e-300, 2e17]
        rows = [ResultRow(i, "fedavg", 0.0, v, v, v, 1) for i, v in enumerate(awkward)]
        path = tmp_path / "out.csv"
        write_csv(rows, str(path))
        for row, v in zip(_read_rows(path), awkward):
            assert float(row[3]) == v
            assert float(row[4]) == v
            assert float(row[5]) == v

    def test_repeat_write_is_byte_identical(self, tmp_path):
        rows = [ResultRow(0, "fedavg", 1.0, 0.123456789012345, 0.5, 0.0, 32)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(rows, str(a))
        write_csv(rows, str(b))
        assert a.read_bytes() == b.read_bytes()


def _tiny_width_args(out, extra=()):
    return ["synthetic-width", "--widths", "4,8", "--seed-list", "0",
            "--epochs", "8", "--t-max", "300", "--no-timing",
            "--methods", "fedavg,fedfisher-full", "--out", str(out), *extra]


class TestWidthSweepCommand:
    def test_exit_zero_and_row_count(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        assert cli.main(_tiny_width_args(out)) == cli.EXIT_OK
        assert f"wrote {out}" in capsys.readouterr().out
        rows = _read_rows(out)
        assert len(rows) == 1 * 2 * 2  # seeds * methods * widths
        for r in rows:
            assert np.isfinite(float(r[3]))
            assert float(r[5]) == 0.0  # --no-timing
            assert int(r[6]) > 0

    def test_repeat_run_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(_tiny_width_args(a)) == cli.EXIT_OK
        assert cli.main(_tiny_width_args(b)) == cli.EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = cli.main(_tiny_width_args(tmp_path / "x.csv", ["--methods", "bogus"]))
        assert code == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_divergence_exit_code(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code = cli.main(["synthetic-width", "--widths", "8", "--seed-list", "0",
                        "--epochs", "40", "--eta", "1e8", "--methods", "fedavg",
                        "--no-timing", "--out", str(out)])
        assert code == cli.EXIT_DIVERGED
        assert "divergence" in capsys.readouterr().err
        assert not out.exists()

    def test_compress_quantizes_synthetic_payloads(self):
        cfg = replace(default_config("synthetic-width"), widths=[8], seeds=[0],
                      epochs_or_steps=8, t_max=300, timing=False, compress=True,
                      methods=[agg.METHOD_FEDAVG, agg.METHOD_DIAG, agg.METHOD_FULL])
        rows = {r.method: r for r in cli.run_width_sweep(cfg)}
        d = 8 * 2  # one weight block
        assert rows[agg.METHOD_FEDAVG].comm_bits == 2 * 32 * d  # never quantized
        assert rows[agg.METHOD_DIAG].comm_bits == 2 * 2 * (16 * d + 32)
        assert rows[agg.METHOD_FULL].comm_bits == 2 * (16 * d + 32 + 32 * d * d)


class TestSolverReport:
    """One stderr line counts the solver merges that ran out of t_max without
    meeting the stop test and those that set step_warning."""

    @staticmethod
    def _run(**server):
        cfg = replace(default_config("synthetic-width"), widths=[4, 8], seeds=[0],
                      epochs_or_steps=8, t_max=300, timing=False,
                      methods=[agg.METHOD_FEDAVG, agg.METHOD_FULL], **server)
        return cli.run_width_sweep(cfg)

    def test_unconverged_merges_counted(self, capsys):
        self._run()
        assert capsys.readouterr().err.splitlines() == [
            "warning: of 2 solver merges, 2 ran out of t_max = 300 without meeting "
            "the stop test and 0 set step_warning"]

    def test_step_warnings_counted(self, capsys):
        # lambda_max is 0.57 and 0.50: a step of 2.5 exceeds 1 / lambda_max
        # on both merges, not 2 / lambda_max.
        self._run(eta_s=2.5, stop_tol=1e-2)
        assert capsys.readouterr().err.splitlines() == [
            "warning: of 2 solver merges, 0 ran out of t_max = 300 without meeting "
            "the stop test and 2 set step_warning"]

    def test_no_line_when_every_merge_converged(self, capsys):
        self._run(stop_tol=1e-2)
        assert capsys.readouterr().err == ""


class TestStepsSweepCommand:
    def test_zero_steps_returns_init(self):
        cfg = replace(default_config("synthetic-steps"), seeds=[0], width=8,
                      steps_list=[0], timing=False, t_max=200)
        rows = cli.run_local_steps_sweep(cfg)
        assert len(rows) == 2  # fedavg + fedfisher-full
        data = datasets.gen_synthetic(cfg.clients, cfg.per_client, cfg.dim, 0)
        init = models.init_two_layer(8, cfg.dim, cfg.kappa, [0, 8, 7])
        want = models.loss_eval(init, data.x, data.y)
        for row in rows:
            assert row.train_loss == pytest.approx(want, rel=1e-12)

    def test_snapshots_match_independent_runs(self):
        base = replace(default_config("synthetic-steps"), seeds=[1], width=8,
                       steps_list=[4, 16], timing=False, t_max=300,
                       methods=[agg.METHOD_FULL])
        swept = cli.run_local_steps_sweep(base)
        separate = []
        for k in base.steps_list:
            separate.extend(cli.run_local_steps_sweep(replace(base, steps_list=[k])))
        for got, want in zip(swept, sorted(separate, key=lambda r: r.sweep)):
            assert got.sweep == want.sweep
            assert got.train_loss == want.train_loss

    def test_row_count_and_sweep_column(self, tmp_path):
        out = tmp_path / "s.csv"
        code = cli.main(["synthetic-steps", "--steps-list", "4,8", "--seed-list",
                        "0,1", "--no-timing", "--methods", "fedavg", "--out", str(out)])
        assert code == cli.EXIT_OK
        rows = _read_rows(out)
        assert len(rows) == 2 * 1 * 2
        assert sorted({float(r[2]) for r in rows}) == [4.0, 8.0]


def _tiny_image_cfg(**overrides) -> ExperimentConfig:
    cfg = replace(
        default_config("one-shot"), n_train=90, n_test=30, classes=3, side=6,
        clients=2, alpha=100.0, epochs_or_steps=2, batch_size=16,
        hidden_dims=[16], seeds=[0], timing=False, t_max=200, val_every=50,
    )
    return replace(cfg, **overrides)


class TestOneShotCommand:
    def test_fedavg_row_is_weighted_mean_model(self):
        cfg = _tiny_image_cfg(methods=[agg.METHOD_FEDAVG])
        rows = cli.run_one_shot(cfg)
        assert len(rows) == 1
        splits = cli._classification_data(cfg, 0)
        init = models.init_mlp([36, 16, 3], [0, 17])
        local = models.TrainConfig(cfg.eta, cfg.epochs_or_steps, cfg.batch_size, cfg.momentum)
        updates = []
        for i in range(cfg.clients):
            cx, cy = splits.train.client_data(i)
            trained = models.sgd_train(init, cx, cy, local, seed=[0, 0, i])
            updates.append(agg.ClientUpdate(models.get_flat_params(trained.model), None,
                                            cx.shape[0]))
        merged = agg.fedavg(updates)
        model = models.with_flat_params(init, merged)
        want_loss = models.loss_eval(model, splits.train.x, splits.train.y)
        want_acc = models.accuracy_eval(model, splits.test_x, splits.test_y)
        assert rows[0].train_loss == want_loss
        assert rows[0].test_accuracy == want_acc

    def test_diag_bits_are_fedavg_bits_plus_header_overhead(self):
        cfg = _tiny_image_cfg(methods=[agg.METHOD_FEDAVG, agg.METHOD_DIAG])
        rows = {r.method: r for r in cli.run_one_shot(cfg)}
        d = 37 * 16 + 17 * 3  # two weight blocks, bias column included
        layers = 2
        assert rows[agg.METHOD_FEDAVG].comm_bits == cfg.clients * 32 * d
        assert (rows[agg.METHOD_DIAG].comm_bits
                == rows[agg.METHOD_FEDAVG].comm_bits + cfg.clients * 64 * layers)

    def test_kfac_within_budget(self):
        cfg = _tiny_image_cfg(methods=[agg.METHOD_KFAC])
        (row,) = cli.run_one_shot(cfg)
        d = 37 * 16 + 17 * 3
        assert row.comm_bits <= cfg.clients * (32 * d + 64 * 2)
        assert 0.0 <= row.test_accuracy <= 1.0

    def test_kfac_over_budget_at_rank_one_is_config_error(self, tmp_path, capsys, monkeypatch):
        # One hidden unit: d = 785 + 2 * 10 = 805, and rank-1 factors at the
        # default s_q = 4 already need more than the 16 d bits the plan
        # allows; at s_q = 1, 32 bits per entry, they need about four times as many.
        # The plan depends on the architecture alone, so no client trains.
        trained = []
        monkeypatch.setattr(models, "sgd_train", lambda *args, **kwargs: trained.append(args))
        for s_q, extra in ((4, ""), (1, "compress = true\ns_q = 1\n")):
            ini = tmp_path / "run.ini"
            ini.write_text("[data]\nn_train = 300\n[model]\nhidden_dims = 1\n"
                           "[run]\nmethods = fedfisher-kfac\n" + extra)
            out = tmp_path / "kfac.csv"
            code = cli.main(["one-shot", "--config", str(ini), "--no-timing", "--out", str(out)])
            assert code == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert f"s_q = {s_q}" in err and "[(785, 1), (2, 10)]" in err
            assert not out.exists()
            assert not trained

    def test_empty_validation_split_keeps_final_iterate(self):
        # No validation examples: the solver keeps its last iterate. Scoring
        # the empty set gives NaN, no iterate beats the start, and every
        # curvature-weighted merge would be the mean.
        cfg = _tiny_image_cfg(val_fraction=0.0, methods=[
            agg.METHOD_FEDAVG, agg.METHOD_DIAG, agg.METHOD_KFAC])
        assert len(cli._classification_data(cfg, 0).val_y) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows = {r.method: r for r in cli.run_one_shot(cfg)}
        assert rows[agg.METHOD_KFAC].train_loss != rows[agg.METHOD_DIAG].train_loss

    def test_csv_run_deterministic(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[data]\nn_train = 90\nn_test = 30\nclasses = 3\nside = 6\n"
            "clients = 2\nalpha = 100\n"
            "[model]\nhidden_dims = 16\n"
            "[local]\nepochs_or_steps = 2\nbatch_size = 16\n"
            "[server]\nt_max = 200\n"
            "[run]\nseeds = 0\nmethods = fedavg, fedfisher-diag\n"
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code = cli.main(["one-shot", "--config", str(ini), "--no-timing",
                            "--out", str(path)])
            assert code == cli.EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        assert len(_read_rows(a)) == 2

    def test_idx_data_kind(self, tmp_path):
        rng = np.random.default_rng(3)
        n, side = 80, 6
        labels = rng.integers(0, 2, size=n).astype(np.uint8)
        images = rng.integers(0, 60, size=(n, side, side)).astype(np.uint8)
        images[labels == 1, :, side // 2:] += 150  # bright right half
        write_idx(images, labels, str(tmp_path / "img.idx"), str(tmp_path / "lab.idx"))
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[data]\nkind = idx\n"
            f"images_path = {tmp_path / 'img.idx'}\n"
            f"labels_path = {tmp_path / 'lab.idx'}\n"
            "test_fraction = 0.25\nclients = 2\nalpha = 100\n"
            "[model]\nhidden_dims = 8\n"
            "[local]\nepochs_or_steps = 3\nbatch_size = 16\n"
            "[run]\nseeds = 0\nmethods = fedavg\n"
        )
        out = tmp_path / "idx.csv"
        assert cli.main(["one-shot", "--config", str(ini), "--no-timing",
                        "--out", str(out)]) == cli.EXIT_OK
        (row,) = _read_rows(out)
        assert 0.0 <= float(row[4]) <= 1.0

    def test_idx_test_files_take_no_test_fraction(self, tmp_path, capsys):
        # With the test split read from files, test_fraction = 0.5 wrote the
        # bytes of the run at its default.
        img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
        write_idx(np.zeros((8, 3, 3)), np.arange(8) % 2, str(img), str(lab))
        ini, out = tmp_path / "run.ini", tmp_path / "x.csv"
        ini.write_text(f"[data]\nkind = idx\nimages_path = {img}\nlabels_path = {lab}\n"
                       f"test_images_path = {img}\ntest_labels_path = {lab}\n"
                       "test_fraction = 0.5\nclients = 1\n[run]\nseeds = 0\nmethods = fedavg\n")
        code = cli.main(["one-shot", "--config", str(ini), "--no-timing", "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert ("[data] test_fraction is not read when test_images_path and test_labels_path "
                "are set; leave it at its default 0.2") in capsys.readouterr().err
        assert not out.exists()

    def test_idx_without_paths_is_config_error(self, tmp_path, capsys):
        code = cli.main(["one-shot", "--data-kind", "idx", "--no-timing",
                        "--out", str(tmp_path / "x.csv")])
        assert code == cli.EXIT_CONFIG
        assert "images_path" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["idx missing", "idx truncated", "idx test images only",
                                      "idx oversized header", "csv missing", "csv ragged",
                                      "csv non-finite"])
    def test_unreadable_data_file_is_config_error(self, case, tmp_path, capsys):
        img, lab, none = tmp_path / "img.idx", tmp_path / "lab.idx", tmp_path / "none"
        write_idx(np.zeros((4, 3, 3)), np.zeros(4), str(img), str(lab))
        huge = tmp_path / "huge.idx"  # a header claiming more bytes than an index can hold
        huge.write_bytes(struct.pack(">IIII", datasets.IDX_MAGIC_IMAGES, 4_000_000_000,
                                     60_000, 60_000))
        (tmp_path / "d.csv").write_text("f1,label\n0.5,a\n0.5,b,c\n")
        # A NaN feature trained to NaN weights: "client 0 diverged" (exit 3).
        (tmp_path / "nan.csv").write_text("f1,label\n" + "0.5,a\n0.2,b\n" * 10 + "nan,a\n")
        data, key = {
            "idx missing": (f"kind = idx\nimages_path = {none}\nlabels_path = {lab}", "images_path"),
            "idx truncated": (f"kind = idx\nimages_path = {lab}\nlabels_path = {lab}", "images_path"),
            "idx test images only": (f"kind = idx\nimages_path = {img}\nlabels_path = {lab}\n"
                                     f"test_images_path = {img}", "test_images_path"),
            "idx oversized header": (f"kind = idx\nimages_path = {huge}\nlabels_path = {lab}",
                                     "images_path"),
            "csv missing": (f"kind = csv\ncsv_path = {none}", "csv_path"),
            "csv ragged": (f"kind = csv\ncsv_path = {tmp_path / 'd.csv'}", "csv_path"),
            "csv non-finite": (f"kind = csv\ncsv_path = {tmp_path / 'nan.csv'}", "csv_path"),
        }[case]
        ini, out = tmp_path / "run.ini", tmp_path / "x.csv"
        ini.write_text(f"[data]\n{data}\nclients = 1\n[run]\nseeds = 0\nmethods = fedavg\n")
        code = cli.main(["one-shot", "--config", str(ini), "--no-timing", "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "[data]" in err and key in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["csv", "idx"])
    def test_single_class_training_split_is_config_error(self, kind, tmp_path, capsys):
        # A one-output model: softmax-ce raised ValueError (exit 1).
        (tmp_path / "d.csv").write_text("f1,label\n" + "0.5,a\n" * 8)
        img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
        write_idx(np.zeros((8, 3, 3)), np.zeros(8), str(img), str(lab))
        data, keys = {
            "csv": (f"csv_path = {tmp_path / 'd.csv'}", "[data] csv_path"),
            "idx": (f"images_path = {img}\nlabels_path = {lab}", "[data] images_path, labels_path"),
        }[kind]
        ini, out = tmp_path / "run.ini", tmp_path / "x.csv"
        ini.write_text(f"[data]\nkind = {kind}\n{data}\nclients = 1\n"
                       "[run]\nseeds = 0\nmethods = fedavg\n")
        code = cli.main(["one-shot", "--config", str(ini), "--no-timing", "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert f"{keys}: the training split has 1 class" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("shape", [(8, 0, 3), (8, 3, 0)])
    def test_idx_images_without_pixels_are_config_error(self, shape, tmp_path, capsys):
        # An input dimension of 0: building the MLP divided by zero (exit 1).
        img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
        write_idx(np.zeros(shape), np.arange(8) % 2, str(img), str(lab))
        ini, out = tmp_path / "run.ini", tmp_path / "x.csv"
        ini.write_text(f"[data]\nkind = idx\nimages_path = {img}\nlabels_path = {lab}\n"
                       "clients = 1\n[run]\nseeds = 0\nmethods = fedavg\n")
        code = cli.main(["one-shot", "--config", str(ini), "--no-timing", "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "[data] images_path, labels_path" in err and "rows" in err and "columns" in err
        assert not out.exists()

    def test_csv_data_kind(self, tmp_path):
        for labels in (("cat", "dog"), ("0", "1")):  # integer labels are classes too
            rng = np.random.default_rng(5)
            lines = ["f1,f2,species"]
            for _ in range(60):
                if rng.random() < 0.5:
                    lines.append(f"{rng.normal(-1):.4f},{rng.normal(-1):.4f},{labels[0]}")
                else:
                    lines.append(f"{rng.normal(1):.4f},{rng.normal(1):.4f},{labels[1]}")
            data_path = tmp_path / "pets.csv"
            data_path.write_text("\n".join(lines) + "\n")
            ini = tmp_path / "run.ini"
            ini.write_text(
                f"[data]\nkind = csv\ncsv_path = {data_path}\n"
                "test_fraction = 0.25\nclients = 2\nalpha = 100\n"
                "[model]\nhidden_dims = 8\n"
                "[local]\nepochs_or_steps = 5\nbatch_size = 8\n"
                "[run]\nseeds = 0\nmethods = fedavg, fedfisher-diag\ncompress = false\n"
            )
            out = tmp_path / "pets_out.csv"
            assert cli.main(["one-shot", "--config", str(ini), "--no-timing",
                            "--out", str(out)]) == cli.EXIT_OK
            rows = _read_rows(out)
            assert len(rows) == 2
            for r in rows:
                assert float(r[4]) >= 0.5  # separable classes, better than chance


class TestFewShotCommand:
    def test_single_round_matches_one_shot(self):
        methods = [agg.METHOD_FEDAVG, agg.METHOD_DIAG]
        few = replace(_tiny_image_cfg(task="few-shot"), rounds=1,
                      compress=False, methods=methods)
        one = replace(_tiny_image_cfg(task="one-shot"), compress=False,
                      methods=methods)
        few_rows = {r.method: r for r in cli.run_few_shot(few)}
        one_rows = {r.method: r for r in cli.run_one_shot(one)}
        for method in methods:
            assert few_rows[method].train_loss == pytest.approx(
                one_rows[method].train_loss, rel=1e-9)
            assert few_rows[method].test_accuracy == one_rows[method].test_accuracy
            assert few_rows[method].comm_bits == one_rows[method].comm_bits

    def test_merge_rounds_hold_no_spent_round(self, monkeypatch):
        # Each later merge kept round 1's trained models and curvature alive,
        # and each method's round kept the previous method's while it trained.
        cfg = replace(_tiny_image_cfg(task="few-shot"), seeds=[0], rounds=3,
                      methods=[agg.METHOD_FEDAVG, agg.METHOD_DIAG])
        rounds, alive = [], []

        class TrackedRound(cli.Round):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                rounds.append(weakref.ref(self))

            def merge(self, *args, **kwargs):
                alive.append(sum(ref() is not None for ref in rounds))
                return super().merge(*args, **kwargs)

        monkeypatch.setattr(cli, "Round", TrackedRound)
        cli.run_few_shot(cfg)
        assert len(rounds) == 1 + 2 * 2
        assert alive == [1] * 6

    def test_rounds_accumulate_bits_and_rows(self, tmp_path):
        cfg = replace(_tiny_image_cfg(task="few-shot"), rounds=3,
                      compress=False, methods=[agg.METHOD_FEDAVG], seeds=[0, 1])
        rows = cli.run_few_shot(cfg)
        assert len(rows) == 2 * 1 * 3
        for seed in (0, 1):
            per_seed = sorted([r for r in rows if r.seed == seed],
                              key=lambda r: r.sweep)
            assert [r.sweep for r in per_seed] == [1.0, 2.0, 3.0]
            base = per_seed[0].comm_bits
            assert [r.comm_bits for r in per_seed] == [base, 2 * base, 3 * base]


    def test_curvature_bits_match_uncompressed_formula(self):
        cfg = replace(_tiny_image_cfg(task="few-shot"), rounds=2, compress=False,
                      methods=[agg.METHOD_KFAC, agg.METHOD_FISHERMERGE])
        rows = cli.run_few_shot(cfg)
        assert len(rows) == 2 * 2
        dims = [36, 16, 3]
        d = sum((i + 1) * o for i, o in zip(dims, dims[1:]))
        factors = sum((i + 1) ** 2 + o ** 2 for i, o in zip(dims, dims[1:]))
        per_client = {agg.METHOD_KFAC: 32 * (d + factors), agg.METHOD_FISHERMERGE: 64 * d}
        for row in rows:
            assert row.comm_bits == cfg.clients * per_client[row.method] * int(row.sweep)

    def test_compress_applies_every_round(self):
        methods = [agg.METHOD_FEDAVG, agg.METHOD_DIAG, agg.METHOD_KFAC]
        few = replace(_tiny_image_cfg(task="few-shot"), rounds=2, compress=True,
                      methods=methods)
        one = replace(_tiny_image_cfg(), compress=True, methods=methods)
        few_rows = {(r.method, r.sweep): r for r in cli.run_few_shot(few)}
        for row in cli.run_one_shot(one):
            first = few_rows[(row.method, 1.0)]
            assert first.train_loss == row.train_loss
            assert first.comm_bits == row.comm_bits
            assert few_rows[(row.method, 2.0)].comm_bits == 2 * row.comm_bits


class TestCompressBenchCommand:
    def test_sq_one_matches_uncompressed_baseline(self):
        cfg = replace(_tiny_image_cfg(task="compress-bench"),
                      methods=[agg.METHOD_DIAG], s_q_list=[1, 4])
        rows = {r.sweep: r for r in cli.run_compress_bench(cfg)}
        assert set(rows) == {1.0, 4.0}
        baseline = cli.run_one_shot(replace(cfg, task="one-shot", compress=False))
        assert rows[1.0].test_accuracy == baseline[0].test_accuracy
        assert rows[1.0].train_loss == baseline[0].train_loss
        assert rows[1.0].comm_bits == baseline[0].comm_bits

    def test_bits_shrink_with_coarser_grid(self):
        cfg = replace(_tiny_image_cfg(task="compress-bench"),
                      methods=[agg.METHOD_DIAG], s_q_list=[1, 2, 8])
        rows = {r.sweep: r for r in cli.run_compress_bench(cfg)}
        d = 37 * 16 + 17 * 3
        layers = 2
        assert rows[1.0].comm_bits == cfg.clients * 64 * d
        for s_q in (2, 8):
            per_el = 32 // s_q
            want = cfg.clients * 2 * (per_el * d + 32 * layers)
            assert rows[float(s_q)].comm_bits == want
        assert rows[8.0].comm_bits < rows[2.0].comm_bits < rows[1.0].comm_bits

    def test_each_curvature_built_once(self, monkeypatch):
        calls = {}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("diag_fisher", "kfac_fisher"):
            counted(fisher, name)
        counted(cli.comp, "compress_kfac")
        counted(cli.comp, "quantize_blocks")
        cfg = replace(_tiny_image_cfg(task="compress-bench"), s_q_list=[1, 2, 4],
                      methods=[agg.METHOD_DIAG, agg.METHOD_FISHERMERGE, agg.METHOD_KFAC])
        assert len(cli.run_compress_bench(cfg)) == 3 * 3
        clients, points = cfg.clients, 2  # s_q = 1 sends raw payloads
        # Weights and the diagonal are encoded once per client and point, not
        # once per method that sends them.
        assert calls == {"diag_fisher": clients, "kfac_fisher": clients,
                         "compress_kfac": clients * points,
                         "quantize_blocks": 2 * clients * points}

    @pytest.mark.parametrize("s_q_list", [[1, 2, 4], [1, 2, 4, 8]])
    def test_each_factor_decomposed_once_per_round(self, s_q_list, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        cfg = replace(_tiny_image_cfg(task="compress-bench"), s_q_list=s_q_list,
                      methods=[agg.METHOD_KFAC])
        assert len(cli.run_compress_bench(cfg)) == len(s_q_list)
        layers = len(cfg.hidden_dims) + 1
        assert len(calls) == 2 * layers * cfg.clients  # A and B of every layer, once
        assert sorted(calls) == sorted([(37, 37), (16, 16), (17, 17), (3, 3)] * cfg.clients)

    def test_kfac_ranks_planned_once_per_merge(self, monkeypatch):
        plans = []
        plan = cli.comp.kfac_budget_plan

        def counted(dims, d, s_q):
            plans.append(s_q)
            return plan(dims, d, s_q)

        monkeypatch.setattr(cli.comp, "kfac_budget_plan", counted)
        cfg = replace(_tiny_image_cfg(task="compress-bench"), seeds=[0, 1], s_q_list=[1, 2, 4],
                      methods=[agg.METHOD_DIAG, agg.METHOD_KFAC])
        assert len(cli.run_compress_bench(cfg)) == 2 * 3 * 2
        # Per seed, _setup plans each codec point before training, then each
        # K-FAC merge under a codec plans once for all its clients.
        assert plans == [2, 4, 2, 4] * 2

    def test_clients_keep_only_the_latest_codec_encodings(self, monkeypatch):
        sent, alive = {}, []  # s_q -> weakrefs to its encodings; (s_q, s_q 2's alive) per merge
        quantize_blocks, merge_updates = cli.comp.quantize_blocks, cli.agg.merge_updates

        def tracked_quantize(x, blocks, s_q):
            out = quantize_blocks(x, blocks, s_q)
            sent.setdefault(s_q, []).extend(weakref.ref(q) for q in out)
            return out

        def counted_merge(*args, **kwargs):
            alive.append((max(sent, default=1), sum(ref() is not None for ref in sent.get(2, []))))
            return merge_updates(*args, **kwargs)

        monkeypatch.setattr(cli.comp, "quantize_blocks", tracked_quantize)
        monkeypatch.setattr(cli.agg, "merge_updates", counted_merge)
        cfg = replace(_tiny_image_cfg(task="compress-bench"), s_q_list=[1, 2, 4],
                      methods=[agg.METHOD_DIAG, agg.METHOD_KFAC])
        assert len(cli.run_compress_bench(cfg)) == 3 * 2
        kept = 2 * 2 * cfg.clients  # weights and diagonal, one block per layer, every client
        assert alive == [(1, 0)] * 2 + [(2, kept)] * 2 + [(4, 0)] * 2

    def test_main_row_count(self, tmp_path):
        out = tmp_path / "cb.csv"
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[data]\nn_train = 90\nn_test = 30\nclasses = 3\nside = 6\n"
            "clients = 2\nalpha = 100\n"
            "[model]\nhidden_dims = 16\n"
            "[local]\nepochs_or_steps = 2\nbatch_size = 16\n"
            "[run]\nseeds = 0\nmethods = fedfisher-diag\ns_q_list = 1, 4\n"
        )
        assert cli.main(["compress-bench", "--config", str(ini), "--no-timing",
                        "--out", str(out)]) == cli.EXIT_OK
        assert len(_read_rows(out)) == 2


class _CountingClock:
    """Stands in for time.perf_counter: every read is one second later."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class TestMeasuredTimes:
    """Each read pair brackets one measured phase, so under the counting clock
    a phase lasts one second: a row holds its training plus its merge."""

    def _rows(self, monkeypatch, runner, cfg):
        monkeypatch.setattr(cli.time, "perf_counter", _CountingClock())
        return runner(replace(cfg, timing=True))

    def test_few_shot_rows_hold_their_own_round(self, monkeypatch):
        cfg = replace(_tiny_image_cfg(task="few-shot"), rounds=3,
                      methods=[agg.METHOD_FEDAVG, agg.METHOD_DIAG])
        rows = self._rows(monkeypatch, cli.run_few_shot, cfg)
        assert len(rows) == 2 * 3
        assert [r.wall_time_s for r in rows] == [2.0] * 6

    def test_steps_rows_hold_training_up_to_their_snapshot(self, monkeypatch):
        cfg = replace(default_config("synthetic-steps"), seeds=[0], width=8,
                      steps_list=[4, 16, 8], t_max=50, methods=[agg.METHOD_FEDAVG])
        rows = self._rows(monkeypatch, cli.run_local_steps_sweep, cfg)
        assert {r.sweep: r.wall_time_s for r in rows} == {4.0: 2.0, 8.0: 3.0, 16.0: 4.0}
        # With momentum each snapshot trains anew from the initial model.
        rows = self._rows(monkeypatch, cli.run_local_steps_sweep, replace(cfg, momentum=0.5))
        assert [r.wall_time_s for r in rows] == [2.0] * 3

    def test_one_round_runners(self, monkeypatch):
        width = replace(default_config("synthetic-width"), widths=[4, 8], seeds=[0],
                        epochs_or_steps=4, t_max=50)
        one = _tiny_image_cfg(methods=[agg.METHOD_FEDAVG, agg.METHOD_DIAG])
        bench = replace(one, task="compress-bench", s_q_list=[1, 4])
        for runner, cfg in ((cli.run_width_sweep, width), (cli.run_one_shot, one),
                            (cli.run_compress_bench, bench)):
            rows = self._rows(monkeypatch, runner, cfg)
            assert {r.wall_time_s for r in rows} == {2.0}

    def test_no_timing_writes_zero(self, monkeypatch):
        monkeypatch.setattr(cli.time, "perf_counter", _CountingClock())
        cfg = replace(_tiny_image_cfg(task="few-shot"), rounds=2, methods=[agg.METHOD_DIAG])
        assert {r.wall_time_s for r in cli.run_few_shot(cfg)} == {0.0}
        steps = replace(default_config("synthetic-steps"), seeds=[0], width=8,
                        steps_list=[4, 8], t_max=50, timing=False)
        assert {r.wall_time_s for r in cli.run_local_steps_sweep(steps)} == {0.0}

    def test_evaluation_is_not_timed(self, monkeypatch):
        # Each row's train_loss is scored after its merge is timed, so a
        # 100 s loss_eval leaves every time above as it is. accuracy_eval is
        # not slowed: the server's val_fn calls it inside the timed merge.
        loss_eval = models.loss_eval

        def slow_loss_eval(*args, **kwargs):
            cli.time.perf_counter.now += 100.0  # the _CountingClock of _rows
            return loss_eval(*args, **kwargs)

        monkeypatch.setattr(models, "loss_eval", slow_loss_eval)
        self.test_few_shot_rows_hold_their_own_round(monkeypatch)
        self.test_steps_rows_hold_training_up_to_their_snapshot(monkeypatch)
        self.test_one_round_runners(monkeypatch)


class TestTrainingCost:
    """How often each runner trains a client, from which seed tag, and for
    how many steps."""

    def _train_steps(self, monkeypatch, runner, cfg) -> dict:
        """Seed tag [seed, round, client] -> steps of each training run under it."""
        runs = {}
        sgd_train = models.sgd_train

        def counted(*args, seed, **kwargs):
            result = sgd_train(*args, seed=seed, **kwargs)
            runs.setdefault(tuple(seed), []).append(result.steps)
            return result

        monkeypatch.setattr(models, "sgd_train", counted)
        runner(cfg)
        return runs

    def test_width_sweep_trains_once_per_width(self, monkeypatch):
        cfg = replace(default_config("synthetic-width"), widths=[4, 8, 16], seeds=[0, 1],
                      epochs_or_steps=4, t_max=20, timing=False)
        runs = self._train_steps(monkeypatch, cli.run_width_sweep, cfg)
        assert runs == {(seed, 0, i): [4, 4, 4] for seed in (0, 1) for i in (0, 1)}  # 12 runs

    def test_steps_sweep_continues_only_without_momentum(self, monkeypatch):
        cfg = replace(default_config("synthetic-steps"), seeds=[0, 1], width=8,
                      steps_list=[4, 16, 8], t_max=20, timing=False)
        runs = self._train_steps(monkeypatch, cli.run_local_steps_sweep, cfg)
        # Each client trains on to the next point: 4 + 4 + 8 = max k steps.
        assert runs == {(seed, 0, i): [4, 4, 8] for seed in (0, 1) for i in (0, 1)}
        runs = self._train_steps(monkeypatch, cli.run_local_steps_sweep,
                                 replace(cfg, seeds=[0], momentum=0.5))
        assert runs == {(0, 0, i): [4, 8, 16] for i in (0, 1)}  # 6 runs, 56 steps

    def test_one_shot_trains_once_for_every_method(self, monkeypatch):
        cfg = _tiny_image_cfg(seeds=[0, 1], methods=[
            agg.METHOD_FEDAVG, agg.METHOD_DIAG, agg.METHOD_KFAC])
        runs = self._train_steps(monkeypatch, cli.run_one_shot, cfg)
        assert {tag: len(steps) for tag, steps in runs.items()} == {
            (seed, 0, i): 1 for seed in (0, 1) for i in (0, 1)}

    def test_few_shot_shares_only_the_first_round(self, monkeypatch):
        cfg = replace(_tiny_image_cfg(task="few-shot"), seeds=[0, 1], rounds=3, methods=[
            agg.METHOD_FEDAVG, agg.METHOD_DIAG, agg.METHOD_KFAC])
        runs = self._train_steps(monkeypatch, cli.run_few_shot, cfg)
        assert {tag: len(steps) for tag, steps in runs.items()} == {
            (seed, r, i): 1 if r == 0 else 3 for seed in (0, 1) for r in range(3) for i in (0, 1)}

    @pytest.mark.parametrize("s_q_list", [[4], [1, 2, 4, 8]])
    def test_compress_bench_trains_once_for_every_point(self, s_q_list, monkeypatch):
        cfg = replace(_tiny_image_cfg(task="compress-bench"), seeds=[0, 1],
                      s_q_list=s_q_list, methods=[agg.METHOD_DIAG, agg.METHOD_KFAC])
        runs = self._train_steps(monkeypatch, cli.run_compress_bench, cfg)
        assert {tag: len(steps) for tag, steps in runs.items()} == {
            (seed, 0, i): 1 for seed in (0, 1) for i in (0, 1)}


def _diag_curvature_time_ratio() -> float:
    """(local training + diagonal uplink) / local training, in CPU seconds,
    each the least of three fresh rounds of one client. The uplink is timed
    by a fishermerge merge, whose server step is one weighted mean."""
    x, y, _, _ = datasets.gen_image_classes(1000, 1, 4, 12, 0)
    data = datasets.FederatedDataset(x, y, [np.arange(len(y))], num_classes=4)
    init = models.init_mlp([x.shape[1], 32, 4], [0, 17], head=models.LOSS_SOFTMAX)
    train_cfg = models.TrainConfig(eta=0.01, epochs_or_steps=10,
                                   batch_size=32, momentum=0.9)

    def round_once():
        t0 = time.process_time()
        rnd = cli.Round(data, [init], train_cfg, 0, 0)
        t1 = time.process_time()
        rnd.merge(agg.METHOD_FISHERMERGE, None, agg.ServerConfig())
        return t1 - t0, time.process_time() - t1

    times = [round_once() for _ in range(3)]
    t_train, t_fisher = min(t for t, _ in times), min(t for _, t in times)
    return (t_train + t_fisher) / t_train


class TestClientTimeOverhead:
    def test_diag_curvature_adds_under_thirty_percent(self):
        # Timed in CPU seconds in a child with one BLAS thread. Wall time
        # counts other processes' use of the cores, and with several BLAS
        # threads CPU time counts their spin-waiting, which grows when the
        # cores are shared: each read up to 1.5-1.7 on a loaded 2-core host.
        here = Path(__file__).resolve().parent
        path = os.pathsep.join([str(Path(cli.__file__).resolve().parents[1]), str(here)])
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        done = subprocess.run(
            [sys.executable, "-c", "import test_cli; print(test_cli._diag_curvature_time_ratio())"],
            capture_output=True, text=True, timeout=300, env=env)
        assert done.returncode == 0, done.stderr
        assert float(done.stdout.split()[-1]) <= 1.30
