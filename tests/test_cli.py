import dataclasses
import json
import warnings

import numpy as np
import pytest

from fpplab.cli import (
    ConfigError,
    build_summary,
    config_digest,
    main,
    parse_config,
    records_from_csv,
    records_to_csv,
    serialize_config,
)
from fpplab.estimators import ReplicaRecord, SweepConfig, run_sweep
from fpplab.weights import Bernoulli, Uniform

TORUS_N4 = "records_fpp-torus_n4.csv"
MINIMAL = """
# minimal sweep
model = fpp-point
d = 2
n_list = 4,6
dist = uniform:0,1
replicas = 3
seed = 1
"""


class TestConfigGrammar:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.kappa == 1.25
        assert cfg.bootstrap == 2000
        assert cfg.n_list == (4, 6)

    def test_dyadic_depth_is_not_a_key(self):
        with pytest.raises(ConfigError, match="dyadic_depth"):
            parse_config(MINIMAL + "dyadic_depth = 53\n")

    def test_golden_config_text(self):
        # config_digest hashes these bytes: key order and value formats are fixed
        assert serialize_config(parse_config(MINIMAL)) == (
            "model = fpp-point\n"
            "d = 2\n"
            "n_list = 4,6\n"
            "dist = uniform:0.0,1.0\n"
            "replicas = 3\n"
            "seed = 1\n"
            "kappa = 1.25\n"
            "bootstrap = 2000\n"
            "threads = 0\n"
            "record_fn = false\n"
            "record_geometry = true\n"
            "max_grows = 6\n"
        )

    def test_distribution_grammar(self):
        cfg = parse_config(MINIMAL.replace("uniform:0,1", "bernoulli:1,2,0.5"))
        assert cfg.spec == Bernoulli(1, 2, 0.5)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="replcias"):
            parse_config(MINIMAL + "replcias = 7\n")

    def test_parse_error_line_number(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config(MINIMAL + "not a key value pair\n")

    def test_round_trip(self):
        every_key = MINIMAL + (
            "kappa = 0.25\nbootstrap = 50\nthreads = 2\n"
            "record_fn = true\nrecord_geometry = false\nmax_grows = 3\n"
        )
        cfg = parse_config(every_key)
        # every SweepConfig default is overridden, so no field escapes the check
        assert all(getattr(cfg, f.name) != f.default for f in dataclasses.fields(cfg))
        for text in (
            MINIMAL,
            MINIMAL.replace("uniform:0,1", "geometric:0.5").replace(
                "fpp-point", "lpp"
            ),
            every_key,
        ):
            cfg = parse_config(text)
            assert parse_config(serialize_config(cfg)) == cfg

    def test_semantic_validation(self):
        bad = MINIMAL.replace("uniform:0,1", "bernoulli:0,1,0.7")
        with pytest.raises((ConfigError, ValueError)):
            parse_config(bad)

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(MINIMAL + "seed = 2\n")


class TestRecordsCsv:
    @pytest.mark.parametrize(
        "model,spec,n",
        [
            pytest.param("fpp-point", Uniform(0, 1), 4, id="fpp-point-spec0"),
            pytest.param("fpp-torus", Bernoulli(1, 2, 0.5), 4, id="fpp-torus-spec1"),
            pytest.param("lpp", None, 4, id="lpp-None"),
            # 18 edges pack into 3 bytes: the decoder must drop 6 padding bits
            pytest.param("fpp-torus", Bernoulli(1, 2, 0.5), 3, id="fpp-torus-n3"),
        ],
    )
    def test_round_trip(self, model, spec, n):
        from fpplab.lpp import default_spec

        cfg = SweepConfig(
            model=model,
            d=2,
            n_list=(n,),
            spec=spec or default_spec(),
            replicas=3,
            seed=5,
            record_fn=(model == "fpp-point"),
        )
        records = run_sweep(cfg, threads=1)
        n_edges = 2 * n * n
        if model == "fpp-torus":
            assert all(r.g_bitmap.size == n_edges for r in records)
        if model == "fpp-point":
            records.append(
                ReplicaRecord(
                    n, 3, 2.5, F_n=2.25, g_dag_size=9, g_int_size=5, geo_len=8,
                    geo_diam=4, transverse_dev=1, Y_n=0.75,
                    win_counts={2: 3, 4: 5, 8: 8}, window_grows=2, flagged=True,
                )
            )
        text = records_to_csv(model, records)
        back = records_from_csv(model, text, n_edges=n_edges)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            for f in dataclasses.fields(ReplicaRecord):
                x, y = getattr(a, f.name), getattr(b, f.name)
                if f.name == "g_bitmap" and x is not None:
                    assert np.array_equal(x, y), f.name
                else:
                    assert x == y, f.name

    def test_header_stability(self):
        text = records_to_csv("lpp", [])
        assert text.splitlines()[0] == "n,replica,T"


class TestCliCommands:
    def test_fpp_run_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = [
            "fpp", "run", "--d", "2", "--dist", "uniform:0,1", "--n", "4,6",
            "--replicas", "3", "--seed", "1", "--threads", "1",
        ]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("records_fpp-point_n4.csv", "records_fpp-point_n6.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_unknown_flag_exit_1(self, tmp_path, capsys):
        code = main(["fpp", "run", "--bogus", "1", "--out", str(tmp_path)])
        assert code == 1

    def test_missing_flags_exit_1(self, tmp_path):
        code = main(["fpp", "run", "--out", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize(
        "model, dist, n",
        [("lpp", "geometric:0.5", "-1,4"), ("fpp", "uniform:0,1", "-2,4"), ("lpp", "geometric:0.5", "0,4")],
    )
    def test_size_below_one_is_a_config_error(self, tmp_path, capsys, model, dist, n):
        out = tmp_path / "o"
        code = main(
            [model, "run", "--d", "2", "--dist", dist, f"--n={n}", "--replicas", "3",
             "--seed", "1", "--threads", "1", "--out", str(out)]
        )
        assert code == 1
        assert "config error: sizes must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_size_below_one_in_config_file(self, tmp_path):
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(MINIMAL.replace("n_list = 4,6", "n_list = 0,6"))
        with pytest.raises(ConfigError, match="sizes must be >= 1"):
            parse_config(cfg_path.read_text())
        assert main(["fpp", "run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "dist, message",
        [("exponential:inf", "rate must be positive and finite"), ("uniform:0,1,7", "wrong parameter count")],
    )
    def test_bad_dist_is_a_config_error(self, tmp_path, capsys, dist, message):
        out = tmp_path / "o"
        code = main(
            ["fpp", "run", "--d", "2", "--dist", dist, "--n", "4", "--replicas", "3",
             "--seed", "1", "--threads", "1", "--out", str(out)]
        )
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bootstrap", [0, -3])
    def test_bootstrap_below_one_is_a_config_error(self, tmp_path, bootstrap):
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(MINIMAL + f"bootstrap = {bootstrap}\n")
        with pytest.raises(ConfigError, match="bootstrap must be at least 1"):
            parse_config(cfg_path.read_text())
        out = tmp_path / "o"
        assert main(["fpp", "run", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("kappa", ["nan", "inf", "-inf", "0", "-5"])
    def test_bad_kappa_in_config_file(self, tmp_path, kappa):
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(MINIMAL + f"kappa = {kappa}\n")
        with pytest.raises(ConfigError, match="kappa must be positive and finite"):
            parse_config(cfg_path.read_text())
        out = tmp_path / "o"
        assert main(["fpp", "run", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("kappa", ["nan", "inf", "-inf", "0", "-5"])
    def test_bad_kappa_flag(self, tmp_path, capsys, kappa):
        out = tmp_path / "o"
        code = main(
            ["fpp", "run", "--d", "2", "--dist", "uniform:0,1", "--n", "4", "--replicas", "3",
             "--seed", "1", "--threads", "1", f"--kappa={kappa}", "--out", str(out)]
        )
        assert code == 1
        assert "config error: kappa must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["flag", "config_key"])
    def test_negative_threads_is_a_config_error(self, tmp_path, capsys, where):
        if where == "flag":
            argv = ["--d", "2", "--dist", "uniform:0,1", "--n", "4", "--replicas", "4",
                    "--seed", "1", "--threads", "-1"]
        else:
            cfg_path = tmp_path / "sweep.cfg"
            cfg_path.write_text(MINIMAL + "threads = -1\n")
            argv = ["--config", str(cfg_path)]
        out = tmp_path / "o"
        assert main(["fpp", "run", *argv, "--out", str(out)]) == 1
        assert "config error: threads must be at least 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "value,why",
        [("-1", "must be at least 0, got -1"), ("two", "must be an integer, got 'two'")],
        ids=["negative", "not_an_integer"],
    )
    def test_bad_thread_environment_is_a_config_error(self, tmp_path, capsys, monkeypatch, value, why):
        # --threads unset and no threads key: the count comes from FPPLAB_THREADS
        monkeypatch.setenv("FPPLAB_THREADS", value)
        out = tmp_path / "o"
        assert main(["fpp", "run", "--d", "2", "--dist", "uniform:0,1", "--n", "4",
                     "--replicas", "4", "--seed", "1", "--out", str(out)]) == 1
        assert f"config error: FPPLAB_THREADS {why}" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_run(self, tmp_path):
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(MINIMAL + "threads = 1\n")
        code = main(["fpp", "run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["model"] == "fpp-point"
        assert set(summary["per_n"]) == {"4", "6"}

    @pytest.mark.parametrize(
        "command, flags, keys",
        [
            (["fpp", "run"], ["--kappa", "0.5"], "model = fpp-point\nkappa = 0.5\n"),
            (["fpp", "fn"], [], "model = fpp-point\nrecord_fn = true\n"),
            (["lpp", "run"], [], "model = lpp\n"),
        ],
        ids=["fpp_run", "fpp_fn", "lpp_run"],
    )
    def test_flags_and_config_file_give_the_same_store(self, tmp_path, command, flags, keys):
        # the flags are config text on the one path a config file takes: the
        # same config text and digest, and byte-identical store files
        dist = "geometric:0.5" if command[0] == "lpp" else "uniform:0,1"
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(keys + f"d = 2\nn_list = 4,6\ndist = {dist}\nreplicas = 3\nseed = 5\n")
        by_flags, by_file = tmp_path / "flags", tmp_path / "file"
        assert main([*command, "--d", "2", "--dist", dist, "--n", "4,6", "--replicas", "3",
                     "--seed", "5", *flags, "--threads", "1", "--out", str(by_flags)]) == 0
        assert main([*command, "--config", str(cfg_path), "--threads", "1",
                     "--out", str(by_file)]) == 0
        manifests = [json.loads((out / "manifest.json").read_text()) for out in (by_flags, by_file)]
        assert manifests[0]["config_text"] == manifests[1]["config_text"]
        assert manifests[0]["config_text"] == serialize_config(parse_config(cfg_path.read_text()))
        assert manifests[0]["config_digest"] == manifests[1]["config_digest"]
        assert manifests[0]["files"] == manifests[1]["files"]
        for name in manifests[0]["files"]:
            assert (by_flags / name).read_bytes() == (by_file / name).read_bytes(), name

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--dist", "uniform:0,1", "--n", "4", "--replicas", "3", "--seed", "1"],
             "missing required key 'd'"),
            (["--d", "2", "--dist", "uniform:0,1", "--replicas", "3"],
             "missing required key 'n_list', 'seed'"),
            (["--d", "2.5", "--dist", "uniform:0,1", "--n", "4", "--replicas", "3", "--seed", "1"],
             "d: invalid literal for int()"),
            (["--d", "2", "--dist", "uniform:0,1", "--n", "4", "--replicas", "3", "--seed", "1",
              "--kappa", "abc"],
             "kappa: could not convert string to float: 'abc'"),
        ],
        ids=["missing_d", "missing_n_and_seed", "d_not_an_integer", "kappa_not_a_number"],
    )
    def test_bad_sweep_flag_is_a_config_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "o"
        assert main(["fpp", "run", *flags, "--threads", "1", "--out", str(out)]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_model_must_match_the_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "sweep.cfg"
        lpp = MINIMAL.replace("fpp-point", "lpp").replace("uniform:0,1", "geometric:0.5")
        cfg_path.write_text(lpp)
        out = tmp_path / "o"
        assert main(["fpp", "run", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error: config file model 'lpp' does not match subcommand 'fpp-point'" in err
        assert not out.exists()

    def test_missing_config_file_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["fpp", "run", "--config", str(tmp_path / "nosuch.cfg"), "--out", str(out)])
        assert code == 1
        assert "config error: cannot read" in capsys.readouterr().err
        assert not out.exists()

    def test_runtime_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        from fpplab import cli

        def fail(cfg, threads):
            raise RuntimeError("replica blew up")

        monkeypatch.setattr(cli, "run_sweep", fail)
        out = tmp_path / "o"
        assert main(["fpp", "run", "--d", "2", "--dist", "uniform:0,1", "--n", "4",
                     "--replicas", "3", "--seed", "1", "--threads", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: RuntimeError: replica blew up\n"
        # the store is made on its first write, so a failed sweep leaves none
        assert not out.exists()

    def test_report_on_a_missing_store_is_a_config_error(self, tmp_path, capsys):
        store = tmp_path / "nosuch"
        assert main(["report", "--store", str(store)]) == 1
        assert "config error: cannot read" in capsys.readouterr().err
        assert not store.exists()

    def test_report_on_a_wrong_csv_header_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "lpp"
        assert main(["lpp", "run", "--d", "2", "--dist", "geometric:0.5", "--n", "4", "--replicas",
                     "3", "--seed", "1", "--threads", "1", "--out", str(out)]) == 0
        records = out / "records_lpp_n4.csv"
        records.write_text(records.read_text().replace("n,replica,T", "n,replica,T_n", 1))
        assert main(["report", "--store", str(out)]) == 1
        assert "config error: unexpected CSV header for model lpp" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, content, message",
        [
            pytest.param(TORUS_N4, None, "cannot read", id="deleted_records"),
            pytest.param(TORUS_N4, b"\xff\xfe\x00", "cannot read", id="binary_records"),
            pytest.param(TORUS_N4, b"", "unexpected CSV header for model fpp-torus",
                         id="empty_records"),
            pytest.param(TORUS_N4, records_to_csv("fpp-torus", []).encode() + b"not,a,record\n",
                         "line 2 of the fpp-torus records", id="unparsable_row"),
            pytest.param("manifest.json", b"{}", "manifest.json holds no config_text",
                         id="empty_manifest"),
            pytest.param("manifest.json", b"not json", "manifest.json is not JSON",
                         id="manifest_not_json"),
        ],
    )
    def test_report_on_a_damaged_store_is_a_config_error(self, tmp_path, capsys, name, content,
                                                         message):
        # content None deletes the store file
        out = tmp_path / "torus"
        assert main(["torus", "influence", "--d", "2", "--dist", "bernoulli:1,2,0.5", "--n", "4",
                     "--replicas", "2", "--seed", "1", "--threads", "1", "--out", str(out)]) == 0
        if content is None:
            (out / name).unlink()
        else:
            (out / name).write_bytes(content)
        capsys.readouterr()
        assert main(["report", "--store", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err

    def test_report_on_torus_records_without_bitmaps_names_the_size(self, tmp_path, capsys):
        out = tmp_path / "torus"
        assert main(["torus", "influence", "--d", "2", "--dist", "bernoulli:1,2,0.5", "--n", "4",
                     "--replicas", "2", "--seed", "1", "--threads", "1", "--out", str(out)]) == 0
        lines = (out / TORUS_N4).read_text().splitlines()
        (out / TORUS_N4).write_text(
            "\n".join([lines[0], *(line.rsplit(",", 1)[0] + "," for line in lines[1:])]) + "\n"
        )
        capsys.readouterr()
        assert main(["report", "--store", str(out)]) == 2
        assert "no membership bitmaps recorded at n=4" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sweep",
        [
            pytest.param(["fpp", "fn", "--dist", "uniform:0,1", "--n", "4,6"], id="fpp_fn"),
            # 18 and 50 edges pad to 24 and 56 bitmap bits: the p-values hold
            # only if the report trims each bitmap to the torus's edges
            pytest.param(["torus", "influence", "--dist", "bernoulli:1,2,0.5", "--n", "3,4,5"],
                         id="torus"),
            # three sizes: the chi and center fits
            pytest.param(["lpp", "run", "--dist", "geometric:0.5", "--n", "4,6,8"], id="lpp"),
        ],
    )
    def test_report_regenerates_identically(self, tmp_path, sweep):
        out = tmp_path / "sweep"
        args = [
            *sweep, "--d", "2", "--replicas", "3", "--seed", "2", "--threads", "1",
            "--out", str(out),
        ]
        assert main(args) == 0
        original = (out / "summary.json").read_bytes()
        (out / "summary.json").unlink()
        assert main(["report", "--store", str(out)]) == 0
        assert (out / "summary.json").read_bytes() == original

    def test_fit_chi_synthetic_power_law(self, tmp_path, capsys):
        payload = {"pairs": [[n, float(n) ** (2.0 / 3.0)] for n in (8, 16, 32, 64)]}
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(payload))
        assert main(["fit", "chi", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "chi_hat = 0.333333" in out

    def test_fit_chi_from_summary(self, tmp_path, capsys):
        cfg = parse_config(MINIMAL.replace("4,6", "4,6,8"))
        records = run_sweep(cfg, threads=1)
        summary = build_summary(cfg, records)
        path = tmp_path / "summary.json"
        path.write_text(json.dumps(summary))
        assert main(["fit", "chi", "--input", str(path)]) == 0
        assert "chi_hat" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([[16, 1.0], [16, 2.0], [16, 3.0]], "need at least 2 distinct sizes"),
            ([[8, 1.0], [16, 2.0]], "need at least 3"),
            ([[8, 1.0], [16, 0.0], [32, 2.0]], "must be positive"),
            ([[8, 1.0], [16, -2.0], [32, 2.0]], "must be positive"),
        ],
        ids=["one_size", "two_pairs", "zero_variance", "negative_variance"],
    )
    def test_fit_chi_degenerate_input_is_a_config_error(self, tmp_path, capsys, pairs, message):
        # used to exit 2 (a ZeroDivisionError with a numpy warning for one size)
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"pairs": pairs}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", "chi", "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ") and message in captured.err

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot read"),
            ("{'pairs': []}", "JSONDecodeError"),
            ("", "JSONDecodeError"),
            ("42", "TypeError"),
            ('{"pairs": [["a", 1.0], [16, 2.0], [32, 3.0]]}', "ValueError"),
            ('{"pairs": [[8, 1.0, 2.0]]}', "ValueError"),
            ('{"per_n": {"8": {"mean": 1.0}}}', "KeyError"),
        ],
        ids=["missing", "not_json", "empty", "number", "bad_n", "triple", "no_variance"],
    )
    def test_fit_chi_unreadable_input_is_a_config_error(self, tmp_path, capsys, content, message):
        # used to exit 2 with a traceback-like runtime error
        path = tmp_path / "pairs.json"
        if content is not None:
            path.write_text(content)
        assert main(["fit", "chi", "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ") and message in captured.err

    def test_ineq_verify_violation_exits_3_with_its_json(self, tmp_path, capsys, monkeypatch):
        # a check that reports every instance violated: the JSON is still
        # written, with the violations, and the run exits 3
        from fpplab import ineqlab

        def violated(X):
            return [ineqlab.CheckResult("log_sobolev", 1.0, 0.5, False) for _ in X]

        monkeypatch.setattr(ineqlab, "log_sobolev_check", violated)
        out = tmp_path / "ineq.json"
        code = main(["ineq", "verify", "--suite", "log_sobolev", "--instances", "4",
                     "--out", str(out)])
        assert code == 3
        assert "VERIFICATION FAILURE: 4 violations" in capsys.readouterr().err
        (entry,) = json.loads(out.read_text())
        assert entry["check"] == "log_sobolev" and entry["violations"] == 4
        assert not entry["holds"] and entry["min_margin"] == -0.5

    def test_ineq_verify_small(self, tmp_path):
        out = tmp_path / "ineq.json"
        code = main(
            ["ineq", "verify", "--suite", "all", "--seed", "7",
             "--instances", "50", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        names = {entry["check"] for entry in payload}
        assert "efron_stein" in names
        assert "fpp_exhaustive_4_edges" in names
        assert "fpp_exhaustive_7_edges" in names
        assert all(entry["holds"] for entry in payload)
        exhaustive = [e for e in payload if e["check"].startswith("fpp_exhaustive_")]
        assert len(exhaustive) == 2
        for entry in exhaustive:
            assert set(entry) == {"check", "lhs", "rhs", "margin", "holds"}
            assert entry["margin"] == entry["rhs"] - entry["lhs"]

    def test_ineq_verify_writes_the_suite_json_round_trip(self, capsys):
        # the payload is built from the report dicts, written sorted
        from fpplab.ineqlab import run_randomized_suite

        checks = "efron_stein,rossignol"
        assert main(["ineq", "verify", "--suite", checks, "--seed", "3", "--instances", "40"]) == 0
        reports = run_randomized_suite(3, 40, checks=checks.split(","))
        want = json.dumps([r.to_json() for r in reports], indent=2, sort_keys=True) + "\n"
        assert capsys.readouterr().out == want

    def test_parser_built_once_and_calls_keep_no_flags(self, capsys, monkeypatch):
        # main builds the argparse tree on its first call and reuses it; the
        # second call must see the defaults (seed 7, suite all), not the first
        # call's flags
        from fpplab import cli
        from fpplab.ineqlab import run_randomized_suite

        build = cli.build_parser
        builds = []
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        assert main(["ineq", "verify", "--suite", "rossignol", "--seed", "3", "--instances", "5"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["ineq", "verify", "--instances", "5"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert len(builds) == 1
        assert [e["check"] for e in first] == ["rossignol"]
        assert first[0]["inputs_digest"] == run_randomized_suite(3, 5, ["rossignol"])[0].digest
        digests = {r.name: r.digest for r in run_randomized_suite(7, 5)}
        assert {e["check"]: e["inputs_digest"] for e in second if "inputs_digest" in e} == digests
        assert sum(e["check"].startswith("fpp_exhaustive_") for e in second) == 2

    def test_ineq_verify_unknown_check_is_a_config_error(self, capsys):
        # a misspelled check must not verify nothing and pass
        code = main(["ineq", "verify", "--suite", "efron_stien", "--instances", "5"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error: unknown check 'efron_stien'" in captured.err
        for name in ("efron_stein", "falik_samorodnitsky", "rossignol"):
            assert name in captured.err

    @pytest.mark.parametrize("instances", ["0", "-3"])
    def test_ineq_verify_needs_an_instance(self, capsys, instances):
        # zero instances used to report "holds": true with min_margin Infinity
        code = main(["ineq", "verify", "--suite", "all", "--instances", instances])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error: instances must be at least 1" in captured.err

    def test_ineq_verify_prints_strict_json_for_a_vacuous_run(self, capsys):
        # the one instance at seed 38 is vacuous (Var f = 0), so no margin is
        # finite: min_margin is null, not the non-JSON token Infinity
        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        args = ["ineq", "verify", "--suite", "falik_samorodnitsky", "--instances", "1", "--seed", "38"]
        assert main(args) == 0
        (entry,) = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert entry["min_margin"] is None and entry["holds"] and "worst" not in entry

    def test_torus_influence_command(self, tmp_path):
        out = tmp_path / "torus"
        code = main(
            ["torus", "influence", "--d", "2", "--dist", "bernoulli:1,2,0.5",
             "--n", "4", "--replicas", "4", "--seed", "3", "--threads", "1",
             "--out", str(out)]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "influence" in summary

    def test_lpp_run_command(self, tmp_path):
        out = tmp_path / "lpp"
        code = main(
            ["lpp", "run", "--d", "2", "--dist", "geometric:0.5", "--n", "4,8",
             "--replicas", "3", "--seed", "9", "--threads", "1", "--out", str(out)]
        )
        assert code == 0
        assert (out / "records_lpp_n8.csv").exists()

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "m"
        main(
            ["fpp", "run", "--d", "2", "--dist", "uniform:0,1", "--n", "4",
             "--replicas", "2", "--seed", "1", "--threads", "1", "--out", str(out)]
        )
        manifest = json.loads((out / "manifest.json").read_text())
        cfg = parse_config(manifest["config_text"])
        assert manifest["config_digest"] == config_digest(cfg)
        assert manifest["record_counts"] == {"4": 2}
        assert "started_at" in manifest and "finished_at" in manifest
        # timestamps never leak into the data files
        csv_text = (out / "records_fpp-point_n4.csv").read_text()
        assert "20" not in csv_text.splitlines()[0]

    def test_kappa_default_lives_in_sweep_config(self, tmp_path):
        base = [
            "fpp", "run", "--d", "2", "--dist", "uniform:0,1", "--n", "4",
            "--replicas", "2", "--seed", "1", "--threads", "1",
        ]
        for extra, want in (([], SweepConfig.kappa), (["--kappa", "0.3"], 0.3)):
            out = tmp_path / str(want)
            assert main(base + extra + ["--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert parse_config(manifest["config_text"]).kappa == want

    def test_plot_manifest(self, tmp_path):
        out = tmp_path / "p"
        main(
            ["fpp", "run", "--d", "2", "--dist", "uniform:0,1", "--n", "4,6",
             "--replicas", "2", "--seed", "1", "--threads", "1", "--out", str(out)]
        )
        text = (out / "plots.manifest").read_text()
        assert "c*n**(2/3)" in text
        assert "c*n/log(n)" in text
