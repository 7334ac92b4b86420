"""Command-line behaviour: exit codes, reports, manifests, determinism."""

import ast
import csv
import errno
import importlib
import json
import math
import os
import pkgutil
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import ucsbound
from ucsbound import optimizer, ucslab
from ucsbound.cli import SCHEMA_VERSION, main
from ucsbound.optimizer import SearchConfig, gamma_hat

FAST_KNOBS = ["--grid", "32", "--refine-rounds", "3", "--multistart", "8"]


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def keys_anywhere(value):
    """Every mapping key in a parsed JSON value, at any depth."""
    if isinstance(value, dict):
        return set(value) | set().union(*(keys_anywhere(v) for v in value.values()))
    if isinstance(value, list):
        return set().union(*(keys_anywhere(v) for v in value))
    return set()


def stdout_json(capsys):
    """Parse the whole of stdout, which --out - gives to the JSON report alone."""
    return json.loads(capsys.readouterr().out)


TOO_MANY_CELLS = (
    "a grid of 3000000 points per axis has 9000000000000 seed cells, "
    "more than the 1048576 a search allows; lower --grid"
)


class TestGammaHat:
    def test_report_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["gamma-hat", "--t", "0.38", *FAST_KNOBS, "--out", str(out)])
        assert rc == 0
        summary = capsys.readouterr().out
        assert "certifies t" in summary and "gap " in summary
        payload = read_json(out)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["t"] == 0.38
        assert payload["gamma_hat_lower"] > 1.0
        assert 0.0 <= payload["alpha_star"] <= 1.0
        assert 0.0 <= payload["alpha_gap"] <= 1e-9
        assert set(payload["argmin"]) == {"a1", "a2", "b1", "b2", "beta"}
        assert payload["wall_time_ms"] > 0
        manifest = read_json(str(out) + ".manifest.json")
        assert manifest["subcommand"] == "gamma-hat"
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["parameters"]["t"] == 0.38
        assert manifest["outputs"] == [str(out)]

    def test_bad_t_exits_2(self, capsys):
        rc = main(["gamma-hat", "--t", "1.2"])
        assert rc == 2
        assert "t must lie in (0, 1/2)" in capsys.readouterr().err

    def test_t_too_small_to_search_exits_2(self, capsys):
        rc = main(["gamma-hat", "--t", "1e-20"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "at t=1e-20 no seed cell has an entropy denominator above 1e-14" in err
        assert "Traceback" not in err

    def test_t_below_the_alpha_one_cut_exits_2(self, capsys):
        rc = main(["gamma-hat", "--t", "1e-14"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "at t=1e-14 no family (0, 0; b1, 1) has an entropy denominator above 1e-14" in err
        assert "Traceback" not in err

    def test_bad_alpha_exits_2(self, capsys):
        rc = main(["gamma-hat", "--t", "0.38", "--alpha", "sideways"])
        assert rc == 2
        assert "--alpha" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gamma-hat", "--t", "0.38", "--grid", "1"], "grid_points_per_axis must be >= 2, got 1"),
            (["gamma-hat", "--t", "0.38", "--multistart", "0"], "multistart_count must be >= 1, got 0"),
            (["gamma-hat", "--t", "0.38", "--refine-rounds", "-1"], "refine_rounds must be >= 0, got -1"),
            (["verify-paper", "--grid", "1"], "grid_points_per_axis must be >= 2, got 1"),
            (["gamma-hat", "--t", "0.38", "--grid", "3000000"], TOO_MANY_CELLS),
            (["gamma-hat", "--t", "0.38", "--alpha", "0.035", "--grid", "3000000"], TOO_MANY_CELLS),
            (["gamma-hat", "--t", "0.38", "--alpha", "1", "--grid", "3000000"], TOO_MANY_CELLS),
        ],
        ids=[
            "grid", "multistart", "refine-rounds", "verify-grid",
            "grid-cap", "pinned-grid-cap", "alpha-one-grid-cap",
        ],
    )
    def test_knobs_out_of_range_exit_2(self, argv, message, capsys):
        # The knobs are checked when the command line's SearchConfig is built,
        # before any search, and so is the cap on seed cells: for a pinned
        # alpha too, and for alpha = 1, whose closed form scans no seed.  A
        # scan of 9e12 cells would run for hours.
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_stdout_report(self, capsys):
        rc = main(
            ["gamma-hat", "--t", "0.3", "--alpha", "0.035", *FAST_KNOBS, "--out", "-"]
        )
        assert rc == 0
        payload = stdout_json(capsys)
        assert payload["alpha_star"] == 0.035
        assert payload["alpha_gap"] is None
        assert payload["gamma_hat_lower"] > 1.0

    def test_negative_zero_alpha_reads_as_zero(self, capsys):
        # -0.0 used to come back as alpha_star -0.0, printed alpha=-0.000000.
        cert = gamma_hat(0.3, -0.0, SearchConfig(32, 3, 8))
        assert cert.alpha_star == 0.0 and math.copysign(1.0, cert.alpha_star) == 1.0
        assert main(["gamma-hat", "--t", "0.3", "--alpha", "-0.0", *FAST_KNOBS, "--out", "-"]) == 0
        captured = capsys.readouterr()
        assert "at alpha=0.000000 " in captured.err and '"alpha_star": 0.0,' in captured.out


@pytest.mark.parametrize(
    "argv",
    [
        ["gamma-hat", "--t", "0.38", *FAST_KNOBS],
        ["tmax", "--t-tol", "1e-3", *FAST_KNOBS],
        ["verify-paper", "--strict", *FAST_KNOBS],
        ["enumerate", "--n", "2", "--check-entropy"],
        ["maxcorr", "--pq", "0.3", "0.4", "0.2"],
    ],
    ids=lambda argv: argv[0],
)
def test_out_dash_writes_only_the_json_to_stdout(argv, capsys):
    # The summary goes to stderr, so stdout pipes into a JSON reader whole.
    assert main([*argv, "--out", "-"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["schema_version"] == SCHEMA_VERSION
    assert captured.err.strip()


class TestTmax:
    def test_bracket_that_does_not_straddle_exits_1(self, capsys):
        rc = main(["tmax", "--bracket", "0.40", "0.45", *FAST_KNOBS])
        assert rc == 1
        assert "low endpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("margin", ["nan", "-2e-3"])
    def test_bad_margin_exits_2(self, margin, capsys):
        rc = main(["tmax", f"--margin={margin}", "--t-tol", "1e-4", *FAST_KNOBS])
        assert rc == 2
        assert "margin" in capsys.readouterr().err

    def test_t_tol_below_float_resolution_exits_2(self, monkeypatch, capsys):
        # Capped so that a bisection that never ends fails instead of hanging.
        calls = []

        def capped(*args, **kwargs):
            calls.append(args[0])
            assert len(calls) <= 100, "tmax kept bisecting"
            return gamma_hat(*args, **kwargs)

        monkeypatch.setattr(optimizer, "gamma_hat", capped)
        argv = ["tmax", "--t-tol", "1e-300", "--grid", "8", "--refine-rounds", "0"]
        rc = main([*argv, "--multistart", "1"])
        assert rc == 2
        assert "t_tol" in capsys.readouterr().err

    def test_malformed_bracket_exits_2(self, capsys):
        for bracket in (["0.45", "0.40"], ["0.38", "0.38"]):
            rc = main(["tmax", "--bracket", *bracket, *FAST_KNOBS])
            assert rc == 2
            assert "bracket" in capsys.readouterr().err


class TestVerifyPaper:
    def test_default_passes(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        rc = main(["verify-paper", "--out", str(out)])
        assert rc == 0
        assert "reference evaluation reproduced" in capsys.readouterr().out
        payload = read_json(out)
        assert payload["gamma_hat_lower"] == pytest.approx(1.00000889, abs=2e-5)

    @pytest.mark.parametrize(
        "flags, expect",
        [
            ([], {}),
            (["--multistart", "16"], {}),
            (["--refine-rounds", "7"], {"refine_rounds": 7}),
        ],
    )
    def test_overrides_apply_to_verify_defaults(self, flags, expect, tmp_path):
        # verify-paper runs the default search unless told otherwise; a
        # flag changes only its own knob.
        out = tmp_path / "verify.json"
        assert main(["verify-paper", *flags, "--out", str(out)]) == 0
        defaults = SearchConfig()._asdict()
        assert read_json(out)["config"] == {**defaults, **expect}

    def test_finer_search_is_one_flag_away(self, tmp_path):
        # The finer search, a 96-point grid refined 8 rounds, stays one set
        # of flags away and keeps its bits.
        out = tmp_path / "verify.json"
        argv = ["verify-paper", "--strict", "--grid", "96", "--refine-rounds", "8"]
        assert main([*argv, "--no-timestamps", "--out", str(out)]) == 0
        payload = read_json(out)
        assert payload["gamma_hat_lower"].hex() == (1.0000088929370758).hex()
        assert payload["argmin"] == {
            "a1": 0.3300622366381754,
            "a2": 0.3300622366381754,
            "b1": 0.3300622228105198,
            "b2": 1.0,
            "beta": 0.15606752537284296,
        }
        assert payload["evaluations"] == 334
        assert payload["config"] == SearchConfig(96, 8)._asdict()

    def test_degraded_search_exits_1(self, capsys):
        rc = main(["verify-paper", "--grid", "8", "--refine-rounds", "0"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestEnumerate:
    def test_n2_report_and_csv(self, tmp_path, capsys):
        out = tmp_path / "families.json"
        sheet = tmp_path / "families.csv"
        rc = main(["enumerate", "--n", "2", "--csv", str(sheet), "--out", str(out)])
        assert rc == 0
        assert "13" in capsys.readouterr().out
        payload = read_json(out)
        assert payload["family_count"] == 13
        assert payload["min_pA"] == 0.5
        assert payload["witness_mask"] == "0x3"
        assert payload["violations"] == []
        assert "sampled" not in payload
        with open(sheet, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 13
        assert rows[0].keys() == {"n", "size", "mask", "p_A", "freqs", "H_X"}
        manifest = read_json(str(out) + ".manifest.json")
        assert str(sheet) in manifest["outputs"]

    def output_and_open_modes(self, tmp_path, monkeypatch, umask_refused):
        """The modes of enumerate's report, manifest and sheet, and the mode
        of a file open() makes, all under umask 0o022."""
        out = tmp_path / "families.json"
        sheet = tmp_path / "families.csv"
        # Fix the umask so that the comparison shows more than 0600 == 0600.
        umask = os.umask(0o022)
        try:
            with monkeypatch.context() as patch:
                if umask_refused:

                    def refuse(mask):
                        raise AssertionError("os.umask was called")

                    patch.setattr(os, "umask", refuse)
                rc = main(["enumerate", "--n", "2", "--csv", str(sheet), "--out", str(out)])
            with open(tmp_path / "plain.txt", "w"):
                pass
        finally:
            os.umask(umask)
        assert rc == 0
        paths = (out, tmp_path / "families.json.manifest.json", sheet)
        return [oct(path.stat().st_mode) for path in paths], oct((tmp_path / "plain.txt").stat().st_mode)

    def test_outputs_get_the_mode_open_gives(self, tmp_path, monkeypatch):
        modes, want = self.output_and_open_modes(tmp_path, monkeypatch, umask_refused=False)
        assert modes == [want] * 3

    def test_outputs_get_that_mode_without_setting_the_umask(self, tmp_path, monkeypatch):
        # Reading the umask means setting it, for the whole process, and a
        # file another thread made meanwhile got mode 0666.  The writes
        # leave the umask to the kernel, so they never call os.umask.
        modes, want = self.output_and_open_modes(tmp_path, monkeypatch, umask_refused=True)
        assert modes == [want] * 3

    @pytest.mark.parametrize("argv", [["--n", "4", "--check-entropy"]], ids=["n4"])
    def test_csv_does_not_change_report_or_stdout(self, argv, tmp_path, capsys):
        # With or without --csv, p_A comes from the same ucslab._tally pass as the sheet.
        outputs = []
        for extra in ([], ["--csv", str(tmp_path / "families.csv")]):
            out = tmp_path / f"report{len(extra)}.json"
            rc = main(["enumerate", *argv, *extra, "--no-timestamps", "--out", str(out)])
            assert rc == 0
            outputs.append((out.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]

    def test_sheet_does_not_depend_on_check_entropy(self, tmp_path):
        sheets = []
        for extra in ([], ["--check-entropy"]):
            sheet = tmp_path / f"families{len(extra)}.csv"
            assert main(["enumerate", "--n", "3", *extra, "--csv", str(sheet)]) == 0
            sheets.append(sheet.read_bytes())
        assert sheets[0] == sheets[1]
        assert sheets[0].startswith(b"n,size,mask,p_A,freqs,H_X\r\n")

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive_witness_is_min_peak_frequency(self, n, tmp_path):
        out = tmp_path / "families.json"
        assert main(["enumerate", "--n", str(n), "--out", str(out)]) == 0
        payload = read_json(out)
        value, witness = ucslab.min_peak_frequency(n)
        assert (payload["min_pA"], payload["witness_mask"]) == (value, witness.hex_mask)

    def test_entropy_check_block(self, tmp_path):
        out = tmp_path / "families.json"
        rc = main(["enumerate", "--n", "2", "--check-entropy", "--out", str(out)])
        assert rc == 0
        block = read_json(out)["entropy_check"]
        assert block == {"checked": 9, "skipped": 4}

    def test_n6_exits_2(self, capsys):
        rc = main(["enumerate", "--n", "6"])
        assert rc == 2
        assert capsys.readouterr().err == "error: ground-set size must be in 1..5, got 6\n"

    def test_n_below_one_exits_2(self, capsys):
        rc = main(["enumerate", "--n", "-1"])
        assert rc == 2
        assert "ground-set size" in capsys.readouterr().err


class TestReportWrites:
    @pytest.mark.parametrize(
        "argv, target",
        [
            (["gamma-hat", "--t", "0.38", *FAST_KNOBS, "--out"], "missing/x.json"),
            (["enumerate", "--n", "2", "--csv"], "adir"),
        ],
        ids=["missing-directory", "csv-is-a-directory"],
    )
    def test_error_names_the_given_path(self, argv, target, tmp_path, capsys, monkeypatch):
        # Each write goes through a temp file beside the given path; the
        # error must name the path the user gave, and no temp file may be
        # made: a missing directory cannot hold one, and a directory
        # target is refused before the report is written anywhere.
        made = []

        def open_(name, *args, **kwargs):
            fd = real_open(name, *args, **kwargs)
            if os.path.basename(name).startswith(".ucsbound-"):
                made.append(name)
            return fd

        real_open = os.open
        monkeypatch.setattr(os, "open", open_)
        (tmp_path / "adir").mkdir()
        path = str(tmp_path / target)
        assert main([*argv, path]) == 2
        err = capsys.readouterr().err
        assert repr(path) in err and ".ucsbound-" not in err
        assert made == []
        assert list(tmp_path.rglob(".ucsbound-*")) == []

    @pytest.mark.parametrize(
        "argv, runs",
        [
            (["gamma-hat", "--t", "0.3", "--out"], "gamma_hat"),
            (["tmax", "--out"], "find_tmax"),
            (["verify-paper", "--out"], "verify_reference_point"),
            (["enumerate", "--n", "4", "--csv"], "_chunks"),
            (["enumerate", "--n", "4", "--csv", "ok.csv", "--out"], "_chunks"),
        ],
        ids=["gamma-hat", "tmax", "verify-paper", "enumerate-csv", "enumerate-out"],
    )
    @pytest.mark.parametrize(
        "target, error",
        [
            ("", "[Errno 2] No such file or directory"),
            ("adir", "[Errno 21] Is a directory"),
            ("missing/x.json", "[Errno 2] No such file or directory"),
        ],
        ids=["empty", "directory", "missing-directory"],
    )
    def test_unwritable_path_is_refused_before_the_run(
        self, argv, runs, target, error, tmp_path, capsys, monkeypatch
    ):
        # These used to run the whole search, print its summary, and only
        # then fail to write the report.
        def run(*args, **kwargs):
            raise AssertionError("the command ran")

        monkeypatch.setattr(ucslab if runs == "_chunks" else optimizer, runs, run)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        assert main([*argv, target]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error}: {target!r}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir"]

    def test_directory_removed_during_the_run_is_named(self, tmp_path, capsys, monkeypatch):
        # The paths are checked once, before the run; a report write that
        # fails after it still names the given path, and leaves no temp file.
        real = ucslab._chunks

        def remove_then_run(n):
            os.rmdir(tmp_path / "sub")
            return real(n)

        monkeypatch.setattr(ucslab, "_chunks", remove_then_run)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        assert main(["enumerate", "--n", "2", "--out", "sub/r"]) == 2
        assert capsys.readouterr().err.endswith(
            "error: [Errno 2] No such file or directory: 'sub/r'\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_an_error_the_run_raises_keeps_its_own_path(self, tmp_path, capsys, monkeypatch):
        # An OSError that names a path other than the output or its temp
        # file is the run's own: it is not relabelled with the sheet's path.
        real = ucslab._chunks

        def remove_then_run(n):
            os.rmdir("sub")  # the temp sheet is in it
            return real(n)

        monkeypatch.setattr(ucslab, "_chunks", remove_then_run)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        assert main(["enumerate", "--n", "2", "--csv", "sub/s"]) == 2
        assert capsys.readouterr().err.endswith(
            f"error: [Errno {errno.ENOTEMPTY}] {os.strerror(errno.ENOTEMPTY)}: 'sub'\n"
        )
        assert [p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")] == ["sub"]

    @pytest.mark.parametrize(
        "fifo", ["r.json", "r.json.manifest.json", "s.csv"], ids=["out", "manifest", "csv"]
    )
    def test_a_path_that_is_not_a_regular_file_is_refused_before_the_run(
        self, fifo, tmp_path, capsys, monkeypatch
    ):
        # Renaming the written file into place used to replace a FIFO (or a
        # device node) with a regular file, and exit 0.
        def run(*args, **kwargs):
            raise AssertionError("the command ran")

        monkeypatch.setattr(ucslab, "_chunks", run)
        monkeypatch.chdir(tmp_path)
        os.mkfifo(fifo)
        assert main(["enumerate", "--n", "2", "--csv", "s.csv", "--out", "r.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {fifo!r} is not a regular file, and would be replaced by one\n"
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == [fifo]

    def test_csv_dash_is_refused_before_the_run(self, tmp_path, capsys, monkeypatch):
        # The sheet goes to a file only; "-" is not taken as a file name.
        def run(*args, **kwargs):
            raise AssertionError("the command ran")

        monkeypatch.setattr(ucslab, "_chunks", run)
        monkeypatch.chdir(tmp_path)
        assert main(["enumerate", "--n", "2", "--csv", "-", "--out", "r.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --csv - is not supported; give the sheet a file path\n"
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize(
        "argv, runs",
        [(["enumerate", "--n", "2"], "_chunks"), (["tmax"], "find_tmax")],
        ids=["enumerate", "tmax"],
    )
    def test_manifest_path_is_refused_before_the_run(
        self, argv, runs, tmp_path, capsys, monkeypatch
    ):
        # A directory at the manifest path used to fail only after the
        # command had run and written its report.
        def run(*args, **kwargs):
            raise AssertionError("the command ran")

        monkeypatch.setattr(ucslab if runs == "_chunks" else optimizer, runs, run)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "r.json.manifest.json").mkdir()
        assert main([*argv, "--out", "r.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: [Errno 21] Is a directory: 'r.json.manifest.json'\n"
        assert [p.name for p in tmp_path.iterdir()] == ["r.json.manifest.json"]

    @pytest.mark.parametrize(
        "sheet, real",
        [
            ("r.json", "r.json"),
            ("r.json.manifest.json", "r.json.manifest.json"),
            ("sub/../r.json", "r.json"),
        ],
        ids=["report", "manifest", "dotdot"],
    )
    def test_two_outputs_naming_one_file_are_refused_before_the_run(
        self, sheet, real, tmp_path, capsys, monkeypatch
    ):
        # The later write used to overwrite the earlier, and exit 0.
        def run(*args, **kwargs):
            raise AssertionError("the command ran")

        monkeypatch.setattr(ucslab, "_chunks", run)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        assert main(["enumerate", "--n", "2", "--csv", sheet, "--out", "r.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        path = os.path.realpath(tmp_path / real)
        assert captured.err == f"error: two outputs would be written to one file, {path!r}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["sub"]


class TestRetiredFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--n", "2", "--check-entropy", "--tol", "0"],
            ["enumerate", "--n", "2", "--check-entropy", "--size-cap", "8"],
            ["tmax", "--alpha", "0.035"],
            ["enumerate", "--n", "5", "--sample", "200"],
            ["enumerate", "--n", "5", "--seed", "1"],
        ],
        ids=["tol", "size-cap", "tmax-alpha", "sample", "seed"],
    )
    def test_retired_flags_are_unknown(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


class TestMaxcorr:
    def test_pq_matches_library_value(self, tmp_path, capsys):
        out = tmp_path / "corr.json"
        rc = main(["maxcorr", "--pq", "0.3", "0.4", "0.2", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == "maximal correlation 0.356348323\n"
        payload = read_json(out)
        assert payload["maximal_correlation"] == pytest.approx(
            0.35634832254989923, abs=1e-12
        )
        assert payload["source"] == {"kind": "pq", "p": 0.3, "q": 0.4, "joint_on": 0.2}
        assert {"pearson", "singular_values"}.isdisjoint(payload)

    def test_tiny_marginals_do_not_underflow(self, tmp_path, capsys):
        out = tmp_path / "corr.json"
        rc = main(["maxcorr", "--pq", "1e-200", "1e-200", "1e-300", "--out", str(out)])
        assert rc == 0
        payload = read_json(out)
        assert payload["maximal_correlation"] == pytest.approx(1e-100, rel=1e-12, abs=0)

    def test_infeasible_pq_exits_2(self, capsys):
        rc = main(["maxcorr", "--pq", "0.9", "0.9", "0.0"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "pq,message",
        [
            (["0.3", "0.4", "nan"], "joint on-mass nan outside Frechet window [0.0, 0.3]"),
            (["nan", "0.4", "0.2"], "p must lie in [0, 1], got nan"),
            (["1", "0.4", "0.4"], "a constant bit has no correlation"),
            (["0.3", "0", "0"], "a constant bit has no correlation"),
        ],
        ids=["nan-r", "nan-p", "constant-x", "constant-y"],
    )
    def test_bad_pq_exits_2_with_a_message(self, pq, message, capsys):
        rc = main(["maxcorr", "--pq", *pq])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["maxcorr"], "the following arguments are required: --pq"),
            (
                ["maxcorr", "--pq", "0.3", "0.4", "0.2", "--joint", "x.json"],
                "unrecognized arguments: --joint x.json",
            ),
        ],
        ids=["no-pq", "joint"],
    )
    def test_pq_is_the_only_input(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gamma-hat", "--t", "0.38", *FAST_KNOBS],
            ["tmax", "--t-tol", "1e-3", *FAST_KNOBS],
            ["enumerate", "--n", "2"],
            ["maxcorr", "--pq", "0.3", "0.4", "0.2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_no_timestamps_is_byte_identical(self, argv, tmp_path):
        argv = [*argv, "--no-timestamps"]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main([*argv, "--out", str(a)]) == 0
        assert main([*argv, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert "wall_time_ms" not in keys_anywhere(read_json(a))
        ma = read_json(str(a) + ".manifest.json")
        mb = read_json(str(b) + ".manifest.json")
        assert ma["started_at"] is None and ma["finished_at"] is None
        ma["parameters"]["out"] = mb["parameters"]["out"] = None
        ma["outputs"] = mb["outputs"] = None
        assert ma == mb

    def test_timestamps_present_by_default(self, tmp_path):
        out = tmp_path / "a.json"
        assert main(["enumerate", "--n", "1", "--out", str(out)]) == 0
        manifest = read_json(str(out) + ".manifest.json")
        assert manifest["started_at"] is not None
        assert manifest["finished_at"] is not None


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "ucsbound" in capsys.readouterr().out

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["transmogrify"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "command, config",
        [("gamma-hat", SearchConfig()), ("verify-paper", SearchConfig())],
        ids=["gamma-hat", "verify-paper"],
    )
    def test_help_prints_the_search_defaults(self, command, config, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert f"seed points per face axis (default {config.grid_points_per_axis})" in text
        assert f"refinement rounds (default {config.refine_rounds})" in text
        assert f"is not refined (default {config.multistart_count})" in text

    KNOBS = ["--grid", "--refine-rounds", "--multistart"]
    COMMON = ["--out", "--no-timestamps"]
    OPTIONS = {
        "gamma-hat": ["--t", "--alpha", *KNOBS, *COMMON],
        "tmax": ["--margin", "--bracket", "--t-tol", *KNOBS, *COMMON],
        "verify-paper": ["--strict", *KNOBS, *COMMON],
        "enumerate": ["--n", "--csv", "--check-entropy", *COMMON],
        "maxcorr": ["--pq", *COMMON],
    }

    @pytest.mark.parametrize("command", OPTIONS)
    def test_help_lists_exactly_the_subcommands_options(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        listed = re.findall(r"^  (?:-h, )?(--[\w-]+)", capsys.readouterr().out, re.M)
        assert listed == ["--help", *self.OPTIONS[command]]

    @pytest.mark.parametrize(
        "argv",
        [
            ["gamma-hat", "--t", "0.38", *FAST_KNOBS],
            ["tmax", "--t-tol", "1e-3", "--grid", "12", "--refine-rounds", "1", "--multistart", "2"],
            ["verify-paper", "--strict"],
            ["enumerate", "--n", "3", "--check-entropy"],
            ["maxcorr", "--pq", "0.3", "0.4", "0.2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_no_argv_reads_the_command_line(self, argv, monkeypatch, capsys):
        # The console script calls main() with no argv.
        argv = [*argv, "--no-timestamps", "--out", "-"]
        assert main(argv) == 0
        given = capsys.readouterr()
        monkeypatch.setattr(sys, "argv", ["ucsbound", *argv])
        assert main() == 0
        assert capsys.readouterr() == given

    @pytest.mark.parametrize("name", OPTIONS)
    def test_a_subcommand_name_as_an_option_value_is_a_value(
        self, name, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["enumerate", "--n", "2", "--csv", name]) == 0
        assert capsys.readouterr().out.startswith("n=2: 13 enumerated OR-closed families")
        assert (tmp_path / name).read_text().startswith("n,size,mask,p_A,freqs,H_X\n")
        assert [p.name for p in tmp_path.iterdir()] == [name]


NUMPY_LOADED = "'numpy' in sys.modules"


def run_python(code, cwd=None, flags=()):
    """Stdout of ``python [flags] -c code`` in a fresh interpreter that finds this package."""
    src = str(Path(ucsbound.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=env,
        cwd=cwd,
    )
    return done.stdout.splitlines()


class TestImport:
    def test_package_and_cli_load_without_scipy(self):
        # The package depends on the standard library alone; numpy, which
        # it does not install, is imported only by the library's frequency
        # array, element_frequencies, which no command calls.
        code = (
            "import sys, ucsbound, ucsbound.cli; "
            "print(len([m for m in sys.modules if m.split('.')[0] == 'scipy'])); "
            f"print({NUMPY_LOADED})"
        )
        assert run_python(code) == ["0", "False"]

    def test_sampling_loads_no_numpy(self):
        # The sampler draws its words from the standard library's random.
        code = (
            "import sys, ucsbound.ucslab; ucsbound.ucslab.sample_or_closed(5, 500, 3); "
            f"print({NUMPY_LOADED})"
        )
        assert run_python(code) == ["False"]

    def test_numpy_stays_unloaded_when_a_library_probes_for_it(self):
        # pytest.approx looks numpy up in sys.modules; a placeholder
        # registered there would load it.
        code = (
            f"import sys, pytest, ucsbound, ucsbound.cli; print('=>', {NUMPY_LOADED}); "
            f"pytest.approx(1.0) == 1.0; print('=>', {NUMPY_LOADED}); "
            "rc = ucsbound.cli.main(['enumerate', '--n', '4', '--check-entropy']); "
            f"print('=>', rc, {NUMPY_LOADED})"
        )
        results = [line for line in run_python(code) if line.startswith("=>")]
        assert results == ["=> False", "=> False", "=> 0 False"]

    def test_commands_run_without_numpy(self, tmp_path):
        knobs = "'--grid', '12', '--refine-rounds', '1', '--multistart', '2'"
        commands = [
            "'enumerate', '--n', '4', '--check-entropy', '--csv', 'e.csv', "
            "'--no-timestamps', '--out', 'e.json'",
            f"'gamma-hat', '--t', '0.38', {knobs}",
            f"'gamma-hat', '--t', '0.38', '--alpha', '0.035', {knobs}",
            f"'tmax', '--t-tol', '1e-3', {knobs}",
            f"'verify-paper', '--strict', '--out', 'vp.json'",
            "'maxcorr', '--pq', '0.3', '0.4', '0.2'",
            "'maxcorr', '--pq', '1e-200', '1e-200', '1e-300'",
        ]
        code = "import sys; from ucsbound.cli import main"
        for argv in commands:
            code += f"; rc = main([{argv}]); print('=>', rc, {NUMPY_LOADED})"
        results = [line for line in run_python(code, cwd=tmp_path) if line.startswith("=>")]
        assert results == ["=> 0 False"] * len(commands)
        assert read_json(tmp_path / "e.json")["family_count"] == 4959
        assert read_json(tmp_path / "vp.json")["gamma_hat_lower"] > 1.0

    def test_each_command_loads_only_what_it_runs(self, tmp_path):
        # The help of every subcommand is registered, but only the one run
        # gets its arguments, so only the search commands load the search.
        knobs = ["--grid", "12", "--refine-rounds", "1", "--multistart", "2"]
        base = {"ucsbound", "ucsbound.cli", "ucsbound.errors"}
        search = base | {"ucsbound.optimizer", "ucsbound.distributions", "ucsbound.scalars"}
        cases = [
            (["--version"], base),
            (["--help"], base),
            (
                ["enumerate", "--n", "4", "--check-entropy"],
                base | {"ucsbound.ucslab", "ucsbound.scalars"},
            ),
            (
                ["maxcorr", "--pq", "0.3", "0.4", "0.2"],
                base | {"ucsbound.maxcorr", "ucsbound.scalars"},
            ),
            (["gamma-hat", "--t", "0.38", *knobs], search),
            (["tmax", "--t-tol", "1e-3", *knobs], search),
            (["verify-paper", "--strict"], search),
        ]
        loaded = "' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'ucsbound'))"
        # A bare import loads no submodule, and binds only __version__
        # beside what the import system sets on every package.
        system = "__builtins__ __cached__ __doc__ __file__ __loader__ __name__ __package__ __path__ __spec__"
        bound = f"' '.join(sorted(set(vars(ucsbound)) - set({system.split()!r})))"
        assert run_python(f"import sys, ucsbound; print({loaded}); print({bound})") == [
            "ucsbound",
            "__version__",
        ]
        for argv, modules in cases:
            code = (
                "import sys\n"
                "from ucsbound.cli import main\n"
                "try:\n"
                f"    rc = main({argv!r})\n"
                "except SystemExit as exc:\n"
                "    rc = exc.code\n"
                f"print(rc); print({loaded})"
            )
            rc, names = run_python(code, cwd=tmp_path)[-2:]
            assert rc == "0", argv
            assert set(names.split()) == modules, argv

    def test_no_command_loads_dataclasses_or_inspect(self, tmp_path):
        # The package's records are named tuples; dataclasses would load
        # inspect, ast, dis and tokenize with it.
        commands = [
            ["verify-paper", "--strict"],
            ["gamma-hat", "--t", "0.38234", "--alpha", "0.035"],
            ["gamma-hat", "--t", "0.38234"],
            ["enumerate", "--n", "4", "--check-entropy", "--csv", "F"],
            ["maxcorr", "--pq", "0.3", "0.4", "0.2"],
        ]
        loaded = "sorted({'dataclasses', 'inspect'} & set(sys.modules))"
        code = f"import sys; from ucsbound.cli import main; print('=>', {loaded})"
        for argv in commands:
            code += f"; rc = main({argv!r}); print('=>', rc, {loaded})"
        results = [line for line in run_python(code, cwd=tmp_path) if line.startswith("=>")]
        assert results == ["=> []"] + ["=> 0 []"] * len(commands)
        assert (tmp_path / "F").exists()

    def test_readme_library_example_runs(self):
        # The README's one Python block shows which submodule each name is
        # imported from; it runs as written, in a fresh interpreter.
        readme = Path(__file__).resolve().parents[1] / "README.md"
        (block,) = re.findall(r"^```python\n(.*?)^```$", readme.read_text(), re.S | re.M)
        certificate, atoms, ratio = run_python(block)
        assert certificate.endswith(" True")
        assert atoms.startswith("[(0.33, 0.33, ")
        assert float(ratio.split()[1]) > 1.0

    def test_cli_uses_no_private_lab_name(self):
        # The command line reaches the lab through its public names only:
        # neither "from .ucslab import _x" nor "ucslab._x".
        tree = ast.parse(Path(ucsbound.__file__).with_name("cli.py").read_text())
        private = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("ucslab"):
                private += [alias.name for alias in node.names if alias.name.startswith("_")]
            if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
                if isinstance(node.value, ast.Name) and node.value.id == "ucslab":
                    private.append(node.attr)
        assert any(
            isinstance(node, ast.ImportFrom) and node.module == "ucslab" for node in ast.walk(tree)
        )
        assert private == []

    def test_every_command_runs_where_numpy_cannot_load(self, tmp_path, monkeypatch, capsys):
        # python -S leaves site-packages off the path, and None in
        # sys.modules stops an import of numpy wherever the package is
        # installed.  Each command writes the same bytes there as here:
        # report, manifest, sheet and stdout, each command in a directory
        # of its own.
        knobs = ["--grid", "12", "--refine-rounds", "1", "--multistart", "2"]
        quiet = ["--no-timestamps", "--out", "report.json"]
        commands = [
            ["verify-paper", "--strict", *quiet],
            ["gamma-hat", "--t", "0.38234", "--alpha", "0.035", *quiet],
            ["gamma-hat", "--t", "0.38", *knobs, *quiet],
            ["tmax", "--t-tol", "1e-3", *knobs, *quiet],
            ["enumerate", "--n", "4", "--check-entropy", "--csv", "f.csv", *quiet],
            ["maxcorr", "--pq", "0.3", "0.4", "0.2", *quiet],
        ]
        code = (
            "import sys; sys.modules['numpy'] = None\n"
            "import contextlib, os, ucsbound.ucslab\n"
            "from ucsbound.cli import main\n"
            f"for i, argv in enumerate({commands!r}):\n"
            "    os.mkdir(str(i))\n"
            "    with open(os.path.join(str(i), 'stdout'), 'w') as out:\n"
            "        os.chdir(str(i))\n"
            "        with contextlib.redirect_stdout(out):\n"
            "            rc = main(argv)\n"
            "        os.chdir('..')\n"
            "    print('=>', rc)\n"
            "try:\n"
            "    ucsbound.ucslab.element_frequencies(ucsbound.ucslab.FamilySet(2, 0x3))\n"
            "except ModuleNotFoundError as exc:\n"
            "    print('=>', exc.name)\n"
        )
        there, here = tmp_path / "there", tmp_path / "here"
        there.mkdir()
        results = [line for line in run_python(code, cwd=there, flags=["-S"]) if line.startswith("=>")]
        assert results == ["=> 0"] * len(commands) + ["=> numpy"]
        for i, argv in enumerate(commands):
            (here / str(i)).mkdir(parents=True)
            monkeypatch.chdir(here / str(i))
            assert main(argv) == 0, argv
            (here / str(i) / "stdout").write_text(capsys.readouterr().out)
            files = sorted(path.name for path in (there / str(i)).iterdir())
            assert files == sorted(path.name for path in (here / str(i)).iterdir()), argv
            assert "report.json.manifest.json" in files and "stdout" in files, argv
            for name in files:
                assert (there / str(i) / name).read_bytes() == (here / str(i) / name).read_bytes(), (argv, name)

    def test_every_exported_name_exists(self):
        modules = [ucsbound] + [
            importlib.import_module(f"ucsbound.{info.name}")
            for info in pkgutil.iter_modules(ucsbound.__path__)
        ]
        missing = [
            f"{module.__name__}.{name}"
            for module in modules
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
        assert len(modules) > 1  # the submodules were found
        assert missing == []
