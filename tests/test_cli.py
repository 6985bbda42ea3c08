import hashlib
import json

import numpy as np
import pytest

import parareach as pr
from parareach import cli, riccati
from parareach.cli import main
from parareach.errors import ConfigError
from parareach.presets import load_preset


def run(args):
    return main(args)


class TestExamples:
    def test_list(self, capsys):
        assert run(["examples"]) == 0
        out = capsys.readouterr().out.split()
        assert {"ex1-stable", "ex1-escape", "ex1-family", "sec5"} <= set(out)

    def test_show_parses(self, capsys):
        assert run(["examples", "--show", "sec5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed_paraboloid"]["g"] == -0.015
        sys5 = pr.system_from_json(payload["system"])
        assert (sys5.n, sys5.m, sys5.p) == (2, 2, 1)

    def test_unknown_preset(self, tmp_path, capsys):
        with pytest.raises(ConfigError):
            load_preset("nope")
        for argv in (["examples", "--show", "nope"],
                     ["reach", "--example", "nope", "--out", str(tmp_path)]):
            assert run(argv) == 1
            msg = json.loads(capsys.readouterr().err[len("error: "):])
            assert msg["error"] == "ConfigError"
            assert msg["message"].startswith("unknown preset 'nope'; available: ex1-escape")

    def test_loaded_presets_share_nothing(self):
        # the ex1 presets are built on one base dict
        for name in ["ex1-escape", "ex1-stable", "ex1-family"]:
            spec = load_preset(name)
            spec["oracle"]["n_trajectories"] = 1
            spec["integrator"]["max_step"] = 1.0
            spec["times"].append(99.0)
        for name in ["ex1-escape", "ex1-stable", "ex1-family"]:
            spec = load_preset(name)
            assert spec["oracle"]["n_trajectories"] == 2000
            assert spec["integrator"]["max_step"] == 0.025
            assert 99.0 not in spec["times"]


class TestPropagate:
    def test_stable_run(self, tmp_path):
        out = tmp_path / "run"
        assert run(["propagate", "--example", "ex1-stable",
                    "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        E10 = manifest["final"]["E"][0][0]
        assert E10 == pytest.approx(2 + np.sqrt(2), abs=2e-5)
        assert manifest["escape_time"] is None
        header = (out / "tvp.csv").read_text().splitlines()[0]
        assert header == "t,E_00,f_0,g"

    def test_escape_exit_code(self, tmp_path):
        out = tmp_path / "run"
        assert run(["propagate", "--example", "ex1-escape",
                    "--out", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["escape_time"] == pytest.approx(2.4929, abs=1e-3)

    def test_escape_at_the_horizon_exit_code(self, tmp_path):
        # the escape bracket ends at the horizon: still an escape, and exit 2
        out = tmp_path / "run"
        assert run(["propagate", "--example", "ex1-escape", "--t-end", "2.4929012",
                    "--out", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["t_end_reached"] < manifest["escape_time"] <= 2.4929012

    def test_singular_first_step_is_an_escape(self, tmp_path):
        # at this e0, X = Phi11 + Phi12 e0 is exactly 0 at the first full step
        spec = load_preset("ex1-escape")
        flow = riccati.Flow(spec["system"], spec["t_end"], spec["integrator"]["max_step"])
        Phi = flow._full[0][0, 0]
        e0 = float(-Phi[0, 0] / Phi[0, flow.k])
        out = tmp_path / "run"
        assert run(["propagate", "--example", "ex1-escape", "--e0", repr(e0),
                    "--out", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert 0.0 < manifest["escape_time"] <= flow.h[0]

    def test_missing_system_file(self, tmp_path, capsys):
        assert run(["propagate", "--system", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "nope.json" in err

    def test_custom_system_file(self, tmp_path):
        sys_path = tmp_path / "sys.json"
        sys1 = pr.make_system([[-1.0]], [[1.0]], [[0.0]],
                              np.diag([1.0, 1.0, -2.0]))
        sys_path.write_text(json.dumps(sys1.to_json()))
        out = tmp_path / "run"
        assert run(["propagate", "--system", str(sys_path),
                    "--e0", "[[1.0]]", "--g0", "-0.06",
                    "--t-end", "10", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["final"]["E"][0][0] == pytest.approx(2 + np.sqrt(2), abs=2e-5)

    def test_non_finite_input_sample(self, tmp_path, capsys):
        # Python's json reads NaN; the sampled input refuses it
        spec = pr.make_system([[-1.0]], [[1.0]], [[1.0]], np.diag([1.0, 1.0, -2.0]),
                              u=pr.SampledSignal([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])).to_json()
        spec["u"]["values"][1] = [float("nan")]
        sys_path, out = tmp_path / "sys.json", tmp_path / "run"
        sys_path.write_text(json.dumps(spec))
        assert run(["propagate", "--system", str(sys_path), "--e0", "[[1]]", "--f0", "[0]",
                    "--g0", "-1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert json.loads(err[len("error: "):])["error"] == "ConfigError"
        assert not out.exists()

    def test_non_finite_system_matrix(self, tmp_path, capsys):
        # Python's json reads NaN; the system refuses it
        spec = pr.make_system([[-1.0]], [[1.0]], [[0.0]], np.diag([1.0, 1.0, -2.0])).to_json()
        spec["A"][0][0] = float("nan")
        sys_path, out = tmp_path / "sys.json", tmp_path / "run"
        sys_path.write_text(json.dumps(spec))
        assert run(["propagate", "--system", str(sys_path), "--e0", "[[1]]", "--g0", "-1",
                    "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err[len("error: "):])
        assert err == {"error": "ConfigError", "message": "A has non-finite entries"}
        assert not out.exists()

    def test_requires_seed_coefficient(self, tmp_path, capsys):
        sys_path = tmp_path / "sys.json"
        sys1 = pr.make_system([[-1.0]], [[1.0]], [[0.0]],
                              np.diag([1.0, 1.0, -2.0]))
        sys_path.write_text(json.dumps(sys1.to_json()))
        assert run(["propagate", "--system", str(sys_path),
                    "--out", str(tmp_path)]) == 1

    def test_ignores_time(self, tmp_path):
        assert run(["propagate", "--example", "ex1-stable", "--time", "-1",
                    "--out", str(tmp_path / "run")]) == 0

    def test_json_format(self, tmp_path):
        out = tmp_path / "run"
        assert run(["propagate", "--example", "ex1-stable", "--format", "json",
                    "--out", str(out)]) == 0
        payload = json.loads((out / "tvp.json").read_text())
        assert payload["columns"][0] == "t"


class TestRoundTrip:
    def test_system_json_bit_for_bit(self, tmp_path):
        sys1 = pr.make_system([[-1.0 / 3]], [[np.pi]], [[0.12345678901234567]],
                              np.diag([1.0, 0.7, -2.0 / 3]))
        text1 = json.dumps(sys1.to_json())
        sys2 = pr.system_from_json(json.loads(text1))
        text2 = json.dumps(sys2.to_json())
        assert text1 == text2
        np.testing.assert_array_equal(sys1.M, sys2.M)


class TestReach:
    def test_family_preset(self, tmp_path):
        out = tmp_path / "run"
        assert run(["reach", "--example", "ex1-family", "--time", "1.62",
                    "--out", str(out)]) == 0
        manifest = json.loads((out / "family_manifest.json").read_text())
        np.testing.assert_allclose(manifest["gammas"], [1.0, 1.6, 2.2, 2.7, 3.3])
        assert manifest["assumptions"]["falling_ok"] in (True, False)
        slice_text = (out / "slice_t1p62.csv").read_text()
        assert slice_text.splitlines()[0] == "x_0,xq_max,argmin_gamma"
        assert (out / "tube.csv").exists()

    def test_explicit_gammas_tighten(self, tmp_path):
        out1 = tmp_path / "solo"
        out2 = tmp_path / "family"
        assert run(["reach", "--example", "ex1-escape", "--gammas", "1",
                    "--time", "1.62", "--out", str(out1)]) == 0
        assert run(["reach", "--example", "ex1-escape",
                    "--gammas", "1,1.6,2.2,2.7,3.3",
                    "--time", "1.62", "--out", str(out2)]) == 0

        def xq_col(path):
            lines = (path / "slice_t1p62.csv").read_text().strip().splitlines()[1:]
            return np.array([float(ln.split(",")[1]) for ln in lines])

        solo, fam = xq_col(out1), xq_col(out2)
        assert np.all(fam <= solo + 1e-12)
        assert np.max(solo - fam) > 1e-6

    def test_stable_assumptions_pinned(self, tmp_path):
        out = tmp_path / "run"
        assert run(["reach", "--example", "ex1-stable", "--out", str(out)]) == 0
        report = json.loads((out / "family_manifest.json").read_text())["assumptions"]
        assert report["n_boundary_points"] == 24
        assert report["violations"] == []

    def test_nonpositive_eps_q_is_config_error(self, tmp_path, capsys):
        assert run(["reach", "--example", "ex1-stable", "--eps-q", "0",
                    "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert json.loads(err[len("error: "):])["error"] == "ConfigError"

    def test_members_one(self, tmp_path):
        out = tmp_path / "run"
        assert run(["reach", "--example", "ex1-stable", "--members", "1",
                    "--time", "0.91", "--out", str(out)]) == 0
        manifest = json.loads((out / "family_manifest.json").read_text())
        assert manifest["gammas"] == [1.0]

    def test_tube_is_the_slices_led_by_t(self, tmp_path):
        argv = ["reach", "--example", "ex1-family", "--time", "0.5", "--time", "1.62",
                "--grid-points", "11", "--out"]
        slices = {0.5: "slice_t0p5", 1.62: "slice_t1p62"}
        out = tmp_path / "csv"
        assert run(argv + [str(out)]) == 0
        lines = ["t,x_0,xq_max,argmin_gamma"]
        for t, stem in slices.items():
            rows = (out / f"{stem}.csv").read_text().splitlines()[1:]
            lines += [repr(t) + "," + row for row in rows]
        assert (out / "tube.csv").read_text() == "\n".join(lines) + "\n"

        out = tmp_path / "json"
        assert run(argv + [str(out), "--format", "json"]) == 0
        rows = {stem: json.loads((out / f"{stem}.json").read_text())["rows"]
                for stem in ["tube", *slices.values()]}
        assert rows["tube"] == [[t] + row for t, stem in slices.items() for row in rows[stem]]


class TestIntegerFlags:
    """A flag out of range (an integer below 1, a negative seed, a non-finite
    or nonpositive float, a time outside [0, t_end]) is a ConfigError before
    the family is built."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--example", "sec5", "--cells", "0"],
        ["reach", "--example", "ex1-stable", "--grid-points", "-3"],
        ["reach", "--example", "ex1-stable", "--grid-points", "0"],
        ["reach", "--example", "ex1-family", "--eps-q", "nan"],
        ["reach", "--example", "ex1-stable", "--eps-q", "nan"],
        ["reach", "--example", "ex1-stable", "--window", "nan"],
        ["verify", "--example", "ex1-stable", "--n", "0"],
        ["verify", "--example", "ex1-stable", "--segments", "0"],
        ["reach", "--example", "sec5", "--time", "2"],
        ["reach", "--example", "ex1-stable", "--time", "-1"],
        ["reach", "--example", "ex1-stable", "--time", "nan"],
        ["verify", "--example", "ex1-stable", "--time", "11"],
        ["reach", "--example", "sec5", "--window", "0"],
        ["reach", "--example", "ex1-escape", "--window", "-1"],
        ["verify", "--example", "ex1-stable", "--seed", "-1"],
        ["reach", "--example", "sec5", "--gammas", "1,abc"],
        ["reach", "--example", "sec5", "--e0", '"abc"'],
        ["reach", "--example", "sec5", "--e0", '[[1,"a"]]'],
        ["reach", "--example", "sec5", "--f0", "{}"],
        ["reach", "--example", "sec5", "--gammas", "nan"],
        ["reach", "--example", "sec5", "--gammas", "1e400"],
        ["reach", "--example", "sec5", "--g0", "nan"],
        ["reach", "--example", "sec5", "--e0", "[[NaN, 0], [0, 1]]"],
        ["verify", "--example", "sec5", "--f0", "[Infinity, 0]"],
        ["reach", "--example", "sec5", "--f0", "[true, false]"],
        ["reach", "--example", "sec5", "--e0", "true"],
    ])
    def test_config_error_before_any_work(self, argv, tmp_path, capsys, monkeypatch):
        def build_family(*args, **kwargs):
            raise AssertionError("build_family called")
        monkeypatch.setattr(cli, "build_family", build_family)
        assert run(argv + ["--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert json.loads(err[len("error: "):])["error"] == "ConfigError"
        assert not (tmp_path / "run").exists()

    def test_malformed_system_file(self, tmp_path, capsys, monkeypatch):
        def build_family(*args, **kwargs):
            raise AssertionError("build_family called")
        monkeypatch.setattr(cli, "build_family", build_family)
        sys_path = tmp_path / "sys.json"
        sys_path.write_text('{"A": [[-1.0]], "B": ')
        assert run(["reach", "--system", str(sys_path), "--e0", "[[1.0]]",
                    "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert json.loads(err[len("error: "):])["error"] == "ConfigError"
        assert not (tmp_path / "run").exists()


class TestUsageErrors:
    """A usage error of the argument parser exits 1 with a ConfigError, like
    any other bad flag: exit 2 is propagate's finite escape."""

    @pytest.mark.parametrize("argv", [
        ["propagate", "--example", "ex1-escape", "--max-step", "abc"],
        ["propagate", "--example", "ex1-escape", "--bogus", "1"],
        ["reach", "--example", "sec5", "--gamma-spacing", "cubic"],
    ])
    def test_config_error(self, argv, tmp_path, capsys):
        assert run(argv + ["--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert json.loads(err[len("error: "):])["error"] == "ConfigError"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["reach", "--help"]])
    def test_help_and_version_exit_0(self, argv, capsys):
        with pytest.raises(SystemExit) as e:
            run(argv)
        assert e.value.code == 0


@pytest.mark.parametrize("command", ["reach", "verify"])
def test_seed_of_wrong_dimension(command, tmp_path, capsys, monkeypatch):
    def propagate(*args, **kwargs):
        raise AssertionError("propagate called")
    monkeypatch.setattr(pr.family, "propagate", propagate)
    out = tmp_path / "run"
    assert run([command, "--example", "sec5", "--e0", "[[1]]", "--f0", "[0]",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert json.loads(err[len("error: "):])["error"] == "DimensionMismatch"
    assert not out.exists()


class TestVerify:
    def test_clean_run(self, tmp_path):
        out = tmp_path / "run"
        assert run(["verify", "--example", "ex1-stable", "--n", "400",
                    "--seed", "42", "--time", "0.91", "--members", "4",
                    "--out", str(out)]) == 0
        report = json.loads((out / "verify_report.json").read_text())
        assert report["n_violations"] == 0
        assert report["worst_margin"] < 1e-8
        assert (out / "endpoints.csv").exists()
        assert (out / "coverage.json").exists()

    def test_violation_is_reported(self, tmp_path, monkeypatch):
        def margins(F, t, xs, xqs):         # the first endpoint lies outside
            return np.where(np.arange(len(xs)) == 0, 0.5, -1.0)
        monkeypatch.setattr(cli, "membership_margins", margins)
        out = tmp_path / "run"
        assert run(["verify", "--example", "ex1-stable", "--n", "200", "--seed", "42",
                    "--time", "0.91", "--members", "4", "--out", str(out)]) == 1
        report = json.loads((out / "verify_report.json").read_text())
        assert report["n_violations"] == 1 and report["worst_margin"] == 0.5
        bad = report["violations"][0]
        assert (bad["t"], bad["margin"]) == (0.91, 0.5)
        first = (out / "endpoints.csv").read_text().splitlines()[1].split(",")
        assert bad["x"] == [float(first[0])]

    def test_system_without_disturbance(self, tmp_path):
        # m = 0: no channel to steer or to push, only the drawn initial states
        sys_path, out = tmp_path / "sys.json", tmp_path / "run"
        sys_path.write_text(json.dumps({"A": [[-1.0, 0.0], [0.0, -1.0]], "B": [[], []],
                                        "Bu": [[0.0], [0.0]], "M": np.eye(3).tolist(),
                                        "u": "zero"}))
        assert run(["verify", "--system", str(sys_path), "--e0", "[[1, 0], [0, 1]]",
                    "--g0", "-1", "--n", "200", "--seed", "3", "--members", "4",
                    "--out", str(out)]) == 0
        report = json.loads((out / "verify_report.json").read_text())
        assert report["n_admissible"] == 200 and report["n_violations"] == 0

    def test_no_admissible_draw_is_typed_error(self, tmp_path, capsys):
        assert run(["verify", "--example", "ex1-stable", "--n", "3",
                    "--w-scale", "50", "--seed", "1", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert json.loads(err[len("error: "):])["error"] == "RejectionStarvation"

    def test_zero_draws_config_error(self, tmp_path):
        assert run(["verify", "--example", "ex1-stable", "--n", "0",
                    "--out", str(tmp_path)]) == 1

    def test_zero_cells_config_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["verify", "--example", "ex1-stable", "--n", "50", "--members", "4",
                    "--cells", "0", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert json.loads(err[len("error: "):])["error"] == "ConfigError"
        assert not (out / "coverage.json").exists()

    def test_tampered_slice_detected(self, ex1_system, ex1_stable_seed,
                                     ex1_cfg):
        # harness self-test: negating the slice's budget headroom must turn
        # previously inside endpoints into detected violations
        fam = pr.build_family(ex1_stable_seed, ex1_system, 6e-5, 4, ex1_cfg)
        cfg = pr.OracleConfig(n_trajectories=200, segments=4, w_scale=0.5,
                              seed=4, t_end=1.0)
        samples = pr.sample_admissible(ex1_system, ex1_stable_seed, cfg,
                                       family=fam, sample_times=[1.0])
        xs, xqs = samples.x[-1], samples.x_q[-1]
        slc = pr.reach_slice(fam, 1.0, xs)
        honest = xqs - slc.xq_max
        tampered = xqs - (-slc.xq_max)
        assert np.all(honest <= 1e-8)
        assert np.count_nonzero(tampered > 1e-8) > 0


def read_tables(out, stem):
    """(columns, rows) of a table from its CSV, and from its JSON twin."""
    lines = (out / "csv" / f"{stem}.csv").read_text().splitlines()
    csv = (lines[0].split(","),
           np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]]))
    payload = json.loads((out / "json" / f"{stem}.json").read_text())
    return csv, (payload["columns"], np.array(payload["rows"], dtype=float))


class TestTables:
    """Every table is one array, written as CSV or as JSON: the two files
    hold the same columns and bit-equal values."""

    @staticmethod
    def twins(tmp_path, argv, stems, code=0):
        for fmt in ("csv", "json"):
            assert run(argv + ["--format", fmt, "--out", str(tmp_path / fmt)]) == code
        tables = {}
        for stem in stems:
            (cols, rows), (jcols, jrows) = read_tables(tmp_path, stem)
            assert cols == jcols
            assert rows.shape == jrows.shape and rows.shape[1] == len(cols)
            np.testing.assert_array_equal(rows.view(np.int64), jrows.view(np.int64))
            tables[stem] = (cols, rows)
        return tables

    def test_propagate(self, tmp_path):
        tables = self.twins(tmp_path, ["propagate", "--example", "ex1-stable"], ["tvp"])
        cols, rows = tables["tvp"]
        manifest = json.loads((tmp_path / "csv" / "manifest.json").read_text())
        assert cols == ["t", "E_00", "f_0", "g"]
        assert len(rows) == manifest["n_grid_points"]
        assert rows[0].tolist() == [0.0, 1.0, 0.0, -0.06]

    def test_reach(self, tmp_path):
        tables = self.twins(tmp_path, ["reach", "--example", "ex1-family",
                                       "--time", "0.5", "--time", "1.62",
                                       "--grid-points", "11"],
                            ["slice_t0p5", "slice_t1p62", "tube"])
        cols, rows = tables["slice_t1p62"]
        assert cols == ["x_0", "xq_max", "argmin_gamma"]
        assert len(rows) == 11
        tube_cols, tube = tables["tube"]
        assert tube_cols == ["t"] + cols
        np.testing.assert_array_equal(tube[:, 0], np.repeat([0.5, 1.62], 11))
        np.testing.assert_array_equal(tube[:11, 1:], tables["slice_t0p5"][1])
        np.testing.assert_array_equal(tube[11:, 1:], rows)

    def test_verify(self, tmp_path):
        tables = self.twins(tmp_path, ["verify", "--example", "ex1-stable",
                                       "--n", "400", "--seed", "42", "--time",
                                       "0.91", "--members", "4"], ["endpoints"])
        cols, rows = tables["endpoints"]
        report = json.loads((tmp_path / "csv" / "verify_report.json").read_text())
        assert cols == ["x_0", "x_q"]
        assert len(rows) == report["n_admissible"] > 0
        assert np.all(rows[:, 1] >= 0.0)


class TestByteIdentity:
    """Every file a preset run writes, and every preset's ``examples --show``
    output, pinned by its sha256 as the CLI wrote it on x86-64 (numpy 2.4,
    OpenBLAS).  Any change to an output's bits, its formatting or the set of
    files written changes a digest."""

    @pytest.mark.parametrize("argv, code, digests", [
        (["reach", "--example", "sec5"], 0, {
            "family_manifest.json":
                "772368ff27d73787575d3b0eb0391dac5178acf0f197f0b61411d636e0b19f05",
            "slice_t0p794.csv":
                "34ae0a638c04cb8618539ce4b382aba8161120a2d9c98de11c8580e931106895",
            "tube.csv": "8bf0056a8b49ee5cbd245cf19c0a1c0d2c1e7bd749efaa9b5e916bdc7ad84110"}),
        (["reach", "--example", "ex1-escape"], 0, {
            "family_manifest.json":
                "e2685f4e82de6b7bad7f7eecbd38f17427abb67ce0786d19db3f0ee5918e6861",
            "slice_t0p91.csv":
                "7cadd847860d0bc3a3b536406ff08ae6f3761caf314da481089309f15cce9e5b",
            "slice_t1p62.csv":
                "d77673cef8ab9157713c21d956ac7192cab674a1380285de0d4147357b85f45a",
            "tube.csv": "eeb65210d305b3cbb0d7ae89c998ef34a543f40a0773628021d8e79bf4e79556"}),
        (["propagate", "--example", "ex1-escape"], 2, {
            "manifest.json": "72703f87a672a4a44653090d6c24318957168bb11526ab2b6d0ed30d11435072",
            "tvp.csv": "05be1bbf39c3d15f1f6e2e14dd42106da7d85754a040a1648d6a1d11c921ce22"}),
        (["verify", "--example", "ex1-family", "--seed", "3"], 0, {
            "coverage.json": "da7618c91e147a93263bf068d3ba2956be9bfc1ae75b2ddefdc9ce3511bd2950",
            "endpoints.csv": "f961cbd395607cbbf27f69e495b63b275bfbb098987fda4592d11417f0c4bd3d",
            "verify_report.json":
                "857caf91b33cc316b359004a3bdc1318b57cd59808573db7714749602dc0a341"}),
        (["reach", "--example", "ex1-stable"], 0, {
            "family_manifest.json":
                "36fb5c7d104a199cfdc074a7cf261381213e8363c376665bc64bbe2bcd1e6274",
            "slice_t0p91.csv":
                "0b0ee9691c44b0802b2ece6f603af2f6e9b8d498c8b3ad43e8645ea5bcebc958",
            "slice_t10.csv":
                "5ae4e67928c96bc1f2fda1dc40215e783575f071863f2ea93417724919bfddd7",
            "slice_t1p62.csv":
                "5b440713d29c16746b6e5956647b5b5737ec070649f5e8f416a06624729ba665",
            "tube.csv": "6b1d2c2405906fe060aac4338d93da5e1bdbb399742e6ce4de2f84ef73bb448b"}),
        (["verify", "--example", "sec5", "--n", "2000", "--seed", "42"], 0, {
            "coverage.json": "53ce2f8726f7e821b714fc14baa4ed3d524039458398fd8ba677fb4624106672",
            "endpoints.csv": "b0b5a557bfb9766aeb80aaece6f0d2a213f8a2e0b12ef9eba67159b644cba0eb",
            "verify_report.json":
                "3418adf3c28e8bb8ce14bf04dffa4e89d5e7ff6be49a43819cccb44ec8575b9f"}),
    ])
    def test_preset_run(self, tmp_path, argv, code, digests):
        assert run(argv + ["--out", str(tmp_path)]) == code
        assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in tmp_path.iterdir()} == digests

    @pytest.mark.parametrize("name, digest", [
        ("ex1-stable", "b8e75d80ffb4eda81a7dde617a714783ef8f993dae1c7e55b07c76bc6ecb567f"),
        ("ex1-escape", "fe611ceed391af1c3c18da6a2cde7bdadee9760a8b90b929ae3eb18686b7eae7"),
        ("ex1-family", "3216c936aab1388a4be23c91bc769971677955374a83547d7180132c1fa3776a"),
        ("sec5", "192ddedfad59e1399a730e358bd84feac2d2f7c7f629140d426fb20d52f4a4a1"),
    ])
    def test_examples_show(self, capsys, name, digest):
        assert run(["examples", "--show", name]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
