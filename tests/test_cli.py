import hashlib
import io
import json
import math
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gipower import (
    CovarianceMatrix,
    from_standard_form,
    gip_closed_form,
    is_separable,
    log_negativity,
    mean_photon_A,
    pt_min_symplectic_eigenvalue,
    StandardForm,
    symplectic_eigenvalues,
    tmsv,
)
import gipower.families as families
from gipower import cli
from gipower.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestIp:
    def test_pure_tmsv_flags(self, capsys):
        code, out = run_cli(
            capsys, "ip", "--a", "2", "--b", "2", "--c", "1.7320508", "--d", "-1.7320508"
        )
        assert code == 0
        report = json.loads(out)
        assert report["value"] == pytest.approx(0.75, abs=1e-6)
        assert report["branch"] == "pure"

    def test_standard_form_flags(self, capsys):
        code, out = run_cli(capsys, "ip", "--a", "2", "--b", "3", "--c", "1", "--d", "-1")
        assert code == 0
        report = json.loads(out)
        assert report["value"] == pytest.approx(0.0833333, abs=1e-6)
        assert report["invariants"]["D"] == pytest.approx(25.0, abs=1e-9)
        assert report["separable"] is True
        assert report["n_bar_A"] == pytest.approx(0.5)

    def test_product_state_file(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        cm = from_standard_form(StandardForm(2.0, 3.0, 0.0, 0.0))
        path.write_text(json.dumps(cm.to_dict()))
        code, out = run_cli(capsys, "ip", "--input", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["value"] == pytest.approx(0.0, abs=1e-12)
        assert report["separable"] is True

    def test_unphysical_input_exit_2(self, capsys):
        code, _ = run_cli(capsys, "ip", "--a", "2", "--b", "3", "--c", "2.4", "--d", "-2.4")
        assert code == 2

    def test_missing_flags_exit_2(self, capsys):
        code, _ = run_cli(capsys, "ip", "--a", "2", "--b", "3")
        assert code == 2

    def test_missing_file_exit_2(self, capsys):
        code, _ = run_cli(capsys, "ip", "--input", "/nonexistent/state.json")
        assert code == 2

    def test_malformed_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _ = run_cli(capsys, "ip", "--input", str(path))
        assert code == 2

    @pytest.mark.parametrize("text", ["[1, 2]", '"abc"', "null", "3"])
    def test_non_object_file_exit_2(self, capsys, tmp_path, text):
        path = tmp_path / "state.json"
        path.write_text(text)
        assert main(["ip", "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: invalid input:")

    @pytest.mark.parametrize("flags", [["--a", "2", "--b", "3", "--c", "1", "--d", "-1"], ["--a", "2"]])
    def test_file_and_flags_exit_2(self, capsys, tmp_path, flags):
        """--input with any of --a --b --c --d is ambiguous, not a file read that drops the flags."""
        path = tmp_path / "state.json"
        path.write_text(json.dumps(from_standard_form(tmsv(2.0)).to_dict()))
        assert main(["ip", "--input", str(path), *flags]) == 2
        assert capsys.readouterr().err.startswith("error: invalid input:")

    def test_overflowing_state_is_a_numerical_failure(self, tmp_path):
        """det sigma overflows at entries of 1e150: exit 1 with a message, not a traceback."""
        path = tmp_path / "big.json"
        path.write_text(json.dumps(CovarianceMatrix(np.diag([1e150, 1e150, 2e150, 2e150])).to_dict()))
        result = subprocess.run([sys.executable, "-m", "gipower", "ip", "--input", str(path)],
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: numerical failure:")
        assert "Traceback" not in result.stderr

    def test_pure_state_off_the_pure_branch_prints_no_traceback(self):
        """Rounded tmsv(1e6): det sigma misses PURE_TOL, but w from (a, b, c, d) is
        under it, so the exact limit (a^2 - 1)/4 and exit 0."""
        result = subprocess.run([sys.executable, "-m", "gipower", "ip", "--a", "1e6", "--b", "1e6",
                                 "--c", "999999.9999995", "--d", "-999999.9999995"],
                                capture_output=True, text=True, timeout=60)
        assert "Traceback" not in result.stderr
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["value"] == 249999999999.75
        assert report["branch"] == "pure"

    def test_one_factor_per_quantity(self, capsys, tmp_path, cholesky_calls):
        # The report reads every quantity off the closed form's gate record.
        code, _ = run_cli(capsys, "ip", "--a", "2", "--b", "3", "--c", "1", "--d", "-1")
        assert code == 0
        assert cholesky_calls[0] == 1
        path = tmp_path / "state.json"
        path.write_text(json.dumps(from_standard_form(StandardForm(2.0, 3.0, 1.0, -0.5)).to_dict()))
        cholesky_calls[0] = 0
        code, _ = run_cli(capsys, "ip", "--input", str(path))
        assert code == 0
        assert cholesky_calls[0] == 1

    @pytest.mark.parametrize("sf", [StandardForm(2.0, 3.0, 1.0, -1.0), StandardForm(2.0, 3.0, 0.0, 0.0),
                                    StandardForm(3.0, 2.0, 2.0, -1.5), tmsv(2.0)])
    def test_report_matches_public_functions(self, capsys, tmp_path, sf):
        cm = from_standard_form(sf)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(cm.to_dict()))
        for argv in (["--a", str(sf.a), "--b", str(sf.b), "--c", str(sf.c), "--d", str(sf.d)],
                     ["--input", str(path)]):
            code, out = run_cli(capsys, "ip", *argv)
            assert code == 0
            report = json.loads(out)
            assert (report["nu_minus"], report["nu_plus"]) == symplectic_eigenvalues(cm)
            assert report["nu_tilde"] == pt_min_symplectic_eigenvalue(cm)
            assert report["log_negativity"] == log_negativity(cm)
            assert report["separable"] == is_separable(cm)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out = run_cli(capsys, "ip", "--a", "2", "--b", "2", "--c", "0", "--d", "0",
                            "--out", str(path))
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["value"] == pytest.approx(0.0, abs=1e-12)


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "--seed", "3", "--n", "5", "--tol", "1e-3")
        assert code == 0
        assert "PASS" in out
        assert "max |closed - oracle|" in out

    def test_zero_tolerance_fails(self, capsys):
        # At tol 0 rounding alone puts states beyond tolerance: exit 1 and a count.
        code, out = run_cli(capsys, "verify", "--seed", "3", "--n", "20", "--tol", "0")
        assert code == 1
        failed = re.search(r"^FAIL \((\d+) states beyond tolerance\)$", out, re.MULTILINE)
        assert failed and int(failed[1]) >= 1, out
        assert "PASS" not in out

    def test_huge_b_passes_without_traceback(self):
        """Product states (1, b, 0, 0) up to b ~ 1e30: the oracle's Q is exact there, so they pass."""
        for b_max in ("1e20", "1e30"):
            result = subprocess.run([sys.executable, "-m", "gipower", "verify", "--seed", "1", "--n", "5",
                                     "--a-max", "1", "--b-max", b_max],
                                    capture_output=True, text=True, timeout=60)
            assert "Traceback" not in result.stderr
            assert result.returncode == 0, result.stderr
            assert re.search(r"^PASS$", result.stdout, re.MULTILINE), result.stdout

    def test_overflowing_b_is_a_numerical_failure(self):
        """At b ~ 1e100 the closed form's X, Y and Z overflow: exit 1 with the message, no traceback."""
        result = subprocess.run([sys.executable, "-m", "gipower", "verify", "--seed", "1", "--n", "5",
                                 "--a-max", "1", "--b-max", "1e100"], capture_output=True, text=True, timeout=60)
        assert result.returncode == 1
        assert result.stderr == ("error: numerical failure: closed formula gave nan "
                                 "at det sigma = 9.033812380335597e+199\n")

    @pytest.mark.parametrize("flags", [
        ("--n", "-5"), ("--n", "0"), ("--tol", "-1"), ("--tol", "nan"), ("--tol", "inf"),
    ])
    def test_bad_count_or_tolerance_exit_2(self, capsys, flags):
        args = {"--seed": "3", "--n": "2", **dict([flags])}
        code = main(["verify", *(x for kv in args.items() for x in kv)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: invalid input:")
        assert "PASS" not in captured.out

    def test_negative_seed_exit_2(self, capsys):
        """numpy refuses SeedSequence(-3), and the numpy-free stream refuses it alike."""
        assert main(["verify", "--seed", "-3", "--n", "5"]) == 2
        assert capsys.readouterr().err == "error: invalid input: expected non-negative integer\n"


class TestSample:
    def test_fig2_schema_and_revalidation(self, capsys, tmp_path):
        path = tmp_path / "fig2.csv"
        code, _ = run_cli(capsys, "sample", "--seed", "9", "--n", "25", "--which", "fig2",
                          "--out", str(path))
        assert code == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "n_bar_A,P_G,separable,sql,heisenberg,a,b,c,d"
        assert len(lines) == 26
        for line in lines[1:]:
            fields = line.split(",")
            n_bar, p_g = float(fields[0]), float(fields[1])
            sql, heis = float(fields[3]), float(fields[4])
            a, b, c, d = (float(x) for x in fields[5:9])
            cm = from_standard_form(StandardForm(a, b, c, d))
            assert n_bar == pytest.approx(mean_photon_A(cm), abs=1e-9)
            assert p_g == pytest.approx(gip_closed_form(cm).value, abs=1e-9)
            assert sql == pytest.approx(n_bar, abs=1e-9)
            assert heis == pytest.approx(n_bar * (n_bar + 1), abs=1e-9)
            assert fields[2] in ("true", "false")

    def test_fig3_schema_and_revalidation(self, capsys, tmp_path):
        path = tmp_path / "fig3.csv"
        code, _ = run_cli(capsys, "sample", "--seed", "9", "--n", "25", "--which", "fig3",
                          "--out", str(path))
        assert code == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "E_N,ratio,nu_tilde,lower,upper,a,b,c,d"
        assert len(lines) == 26
        for line in lines[1:]:
            fields = [float(x) for x in line.split(",")]
            e_n, ratio, nu = fields[0], fields[1], fields[2]
            a, b, c, d = fields[5:9]
            cm = from_standard_form(StandardForm(a, b, c, d))
            assert e_n == pytest.approx(log_negativity(cm), abs=1e-9)
            assert nu == pytest.approx(pt_min_symplectic_eigenvalue(cm), abs=1e-9)
            assert ratio == pytest.approx(
                gip_closed_form(cm).value / mean_photon_A(cm), abs=1e-9
            )
            assert e_n > 0

    def test_byte_identical_across_runs(self, capsys, tmp_path):
        paths = [tmp_path / f"out{i}.csv" for i in range(2)]
        for path in paths:
            run_cli(capsys, "sample", "--seed", "4", "--n", "30", "--which", "fig2",
                    "--out", str(path))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("which, bounds, sha256", [
        pytest.param(which, bounds, sha256, id="-".join([which, *bounds[1::2], sha256]))
        for which, bounds, sha256 in [
            ("fig2", (), "bf75812d27e64e0e797cf79e13c6e8f6049e3b5fe96259ec0c9f558e1c4125a5"),
            ("fig3", (), "518fe8f930806b5d9f1d71f6f2da760de1feccf13949dfa2a6c0c3b591383146"),
            ("fig2", ("--a-max", "1.05", "--b-max", "1.05"),
             "5fabbc802ec3283fb879d1f9654390f2384bbde2aa1981862e3b9832cd68855c"),
            ("fig3", ("--a-max", "1.05", "--b-max", "1.05"),
             "d21e0ca214453e5281123a1f866fc82ee4d7b55364f8c64c400ee2feb4889af8"),
        ]
    ])
    def test_pinned_digest(self, capsys, tmp_path, which, bounds, sha256):
        """Pinned CSVs, two of them near the physicality boundary: a moved draw, decision or digit fails."""
        path = tmp_path / f"{which}.csv"
        code, _ = run_cli(capsys, "sample", "--seed", "1", "--n", "2000", "--which", which,
                          *bounds, "--out", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256

    def test_one_factor_per_record(self, capsys, tmp_path, monkeypatch, cholesky_calls):
        """No kept row factors its state alone: one stacked factor per round of draw
        decisions (none inside GUARD_BAND here) and one per chunk of kept rows."""
        counts = {}

        def counting(name):
            original = getattr(families, name)

            def counted(*args):
                counts[name] = counts.get(name, 0) + 1
                return original(*args)
            return counted

        for name in ("_accept", "_kept_columns"):
            monkeypatch.setattr(families, name, counting(name))
        code, _ = run_cli(capsys, "sample", "--seed", "1", "--n", "2000", "--which", "fig3",
                          "--out", str(tmp_path / "fig3.csv"))
        assert code == 0
        assert counts["_kept_columns"] == -(-2000 // families._CHUNK)
        assert cholesky_calls == [0, counts["_accept"] + counts["_kept_columns"]]

    def test_one_bit_generator_per_call(self, capsys, tmp_path, pcg64_constructions):
        """Child streams are seeded by arithmetic: no PCG64 per row, one to draw them all."""
        code, _ = run_cli(capsys, "sample", "--seed", "1", "--n", "2000", "--which", "fig3",
                          "--out", str(tmp_path / "fig3.csv"))
        assert code == 0
        assert pcg64_constructions[0] <= 1

    def test_closed_form_failure_exits_1(self, capsys, tmp_path):
        """Entries near 1e45 overflow X: the scalar closed form's error, unchanged, for the first such row."""
        code = main(["sample", "--which", "fig2", "--seed", "1", "--n", "200", "--a-max", "1e45",
                     "--b-max", "1e45", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err == ("error: numerical failure: closed formula gave nan "
                                           "at det sigma = 8.203995680859794e+177\n")

    def test_no_entangled_state_exits_2_in_time(self, tmp_path):
        """Only product states: MAX_DRAWS separable draws, then exit 2, in well under the timeout."""
        t0 = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "gipower", "sample", "--seed", "1", "--n", "3",
             "--out", str(tmp_path / "x.csv"), "--which", "fig3", "--a-max", "1", "--b-max", "1"],
            capture_output=True, text=True, timeout=30,
        )
        elapsed = time.perf_counter() - t0
        assert result.returncode == 2
        assert result.stderr == ("error: invalid input: no entangled state in 10000 draws; "
                                 "raise a_max or b_max\n")
        assert elapsed < 10, elapsed

    @pytest.mark.parametrize("flags", [
        ("--which", "fig3", "--a-max", "1", "--b-max", "1"),  # only product states
        ("--which", "fig2", "--a-max", "nan"),
        ("--which", "fig2", "--a-max", "inf"),
        ("--which", "fig3", "--b-max", "1e200"),
    ])
    def test_bad_bounds_exit_2_without_traceback(self, tmp_path, flags):
        result = subprocess.run(
            [sys.executable, "-m", "gipower", "sample", "--seed", "1", "--n", "3",
             "--out", str(tmp_path / "x.csv"), *flags],
            capture_output=True, text=True, timeout=30,
        )
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error: invalid input:")
        assert not (tmp_path / "x.csv").exists()

    def test_bad_bounds_exit_2_before_any_stream(self, capsys, tmp_path):
        """Bounds are checked before the streams are seeded, so n does not delay the exit."""
        t0 = time.perf_counter()
        code = main(["sample", "--which", "fig2", "--seed", "1", "--n", "100000000",
                     "--a-max", "nan", "--out", str(tmp_path / "x.csv")])
        elapsed = time.perf_counter() - t0
        assert code == 2
        assert capsys.readouterr().err.startswith("error: invalid input: need a_max, b_max >= 1")
        assert elapsed < 2, elapsed


class TestBounds:
    def test_schema_and_revalidation(self, capsys, tmp_path):
        path = tmp_path / "bounds.csv"
        code, _ = run_cli(capsys, "bounds", "--grid", "40", "--out", str(path))
        assert code == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "nu_tilde,E_N,upper,lower,branch"
        assert len(lines) == 41
        from gipower import lower_bound, nu_zero, upper_bound

        for line in lines[1:]:
            fields = line.split(",")
            nu, e_n, upper, lower = (float(x) for x in fields[:4])
            assert 0 < nu < 1
            assert e_n == pytest.approx(-math.log(nu), abs=1e-9)
            assert upper == pytest.approx(float(upper_bound(nu)), abs=1e-9)
            assert lower == pytest.approx(float(lower_bound(nu)), abs=1e-9)
            assert fields[4] == ("branch1" if nu > nu_zero() else "branch2")

    @pytest.mark.parametrize("x", [-0.0, 0.0, 5e-324, 1 / 3, 123456789012.5, 1e16, np.array(0.25)],
                             ids=repr)
    def test_row_format_is_fstring_g12(self, x):
        """One %-format per row gives the bytes of f"{x:.12g}" per field."""
        assert cli._NUMBER % x == f"{x:.12g}"
        assert cli._csv("bounds", [(x, x, x, x, "b")]) == (
            "nu_tilde,E_N,upper,lower,branch\n" + ",".join([f"{x:.12g}"] * 4 + ["b"]) + "\n")

    def test_bad_grid_exit_2(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "bounds", "--grid", "0", "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_out_to_a_directory_exit_2_leaves_no_temporary(self, capsys, tmp_path):
        """The rename onto a directory fails: the temporary file is removed, and the exit is 2."""
        target = tmp_path / "dir"
        target.mkdir()
        assert main(["bounds", "--grid", "3", "--out", str(target)]) == 2
        assert capsys.readouterr().err.startswith("error: invalid input: [Errno 21] Is a directory: ")
        assert [path.name for path in tmp_path.iterdir()] == ["dir"]
        assert not any(target.iterdir())


class TestFamily:
    def test_tmsv_round_trip(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        code, _ = run_cli(capsys, "family", "--kind", "tmsv", "--params", "2", "--out", str(path))
        assert code == 0
        cm = CovarianceMatrix.from_dict(json.loads(path.read_text()))
        assert np.allclose(cm.sigma, from_standard_form(tmsv(2.0)).sigma, atol=0)

    def test_two_parameter_family(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        code, _ = run_cli(capsys, "family", "--kind", "separable_extremal",
                          "--params", "3,101", "--out", str(path))
        assert code == 0
        cm = CovarianceMatrix.from_dict(json.loads(path.read_text()))
        assert gip_closed_form(cm).value == pytest.approx(200 / 204, abs=1e-9)

    def test_unknown_kind_exit_2(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "family", "--kind", "bogus", "--out", str(tmp_path / "x.json"))
        assert code == 2

    def test_unphysical_params_exit_2(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "family", "--kind", "entangled_st_nu",
                          "--params", "2,3,0.1", "--out", str(tmp_path / "x.json"))
        assert code == 2

    def test_bad_params_exit_2(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "family", "--kind", "tmsv", "--params", "abc",
                          "--out", str(tmp_path / "x.json"))
        assert code == 2


# Flag values for the fuzz test: numbers, extremes and junk.
TOKENS = ["nan", "inf", "-inf", "-1", "0", "1", "2", "3", "5", "0.5", "1e300", "-1e300",
          "", "abc", "1,2", "--", "0x10"]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "state.json").write_text(json.dumps(from_standard_form(tmsv(2.0)).to_dict()))
    (d / "junk.json").write_text("{not json")
    (d / "bad.json").write_text(json.dumps({"sigma": [[1, 2], [3, 4]]}))
    (d / "list.json").write_text("[1, 2]")
    return d


@st.composite
def cli_argv(draw, d):
    """argv for ip, verify (n <= 3), sample (n <= 5) or bounds, from TOKENS.

    Required flags are present in most draws and values are valid about
    half the time, so many argv run; every other flag, and a stray one,
    comes and goes.
    """
    value = st.one_of(st.sampled_from(["1", "2", "3"]), st.sampled_from(TOKENS))
    out = st.sampled_from([str(d / "out"), str(d / "missing" / "out")])
    command = draw(st.sampled_from(["ip", "verify", "sample", "bounds"]))
    required, optional = {
        "ip": ({"--a": value, "--b": value, "--c": value, "--d": value},
               {"--out": out, "--input": st.sampled_from(
                   [str(d / f) for f in ("state.json", "junk.json", "bad.json", "list.json", "none")])}),
        "verify": ({"--seed": value, "--n": st.sampled_from(["-1", "0", "1", "2", "3", "nan"])},
                   {"--tol": value, "--a-max": value, "--b-max": value}),
        "sample": ({"--seed": value, "--n": st.sampled_from(["-1", "0", "1", "3", "5", "nan"]),
                    "--which": st.sampled_from(["fig2", "fig3", "fig4"]), "--out": out},
                   {"--a-max": value, "--b-max": value}),
        "bounds": ({"--grid": value, "--out": out}, {}),
    }[command]
    chosen = [f for f in required if draw(st.integers(0, 9))]  # each kept 9 times in 10
    chosen += draw(st.lists(st.sampled_from(sorted(optional) + ["--bogus"]), unique=True))
    argv = [command]
    for flag in chosen:
        argv += [flag, draw({**required, **optional}.get(flag, value))]
    return argv


class TestFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_exit_code_and_no_traceback(self, fuzz_dir, data):
        argv = data.draw(cli_argv(fuzz_dir))
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects malformed argv with exit 2
                code = exc.code
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue(), argv


def test_parser_reused_without_leaks(capsys, tmp_path):
    """sample, verify, sample in one process: each call sees its own argv and defaults only.

    The parser is built once; every call's output equals that of a fresh interpreter.
    """
    def argvs(tag):
        return [
            ["sample", "--seed", "3", "--n", "5", "--which", "fig3", "--a-max", "2",
             "--b-max", "1.5", "--out", str(tmp_path / f"{tag}-1.csv")],
            ["verify", "--seed", "3", "--n", "2"],
            ["sample", "--seed", "3", "--n", "5", "--which", "fig2",
             "--out", str(tmp_path / f"{tag}-3.csv")],
        ]

    stdout = []
    for argv in argvs("warm"):
        assert main(argv) == 0
        stdout.append(capsys.readouterr().out)
    assert cli._build_parser() is cli._build_parser()
    parsed = [cli._build_parser().parse_args(argv) for argv in argvs("warm")]
    assert (parsed[1].a_max, parsed[1].b_max, parsed[1].tol) == (5.0, 5.0, 1e-4)
    assert not hasattr(parsed[1], "which") and not hasattr(parsed[1], "out")
    assert (parsed[2].a_max, parsed[2].b_max) == (5.0, 5.0)

    for argv, out in zip(argvs("fresh"), stdout):
        result = subprocess.run([sys.executable, "-m", "gipower", *argv],
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout == out
    for i in (1, 3):
        assert (tmp_path / f"warm-{i}.csv").read_bytes() == (tmp_path / f"fresh-{i}.csv").read_bytes()


@pytest.mark.parametrize("argv, code, reason", [
    (["ip", "--input", "{tmp}/huge.json"], 2, "overflows"),  # diag(1e308, 1e308, 1, 1)
    (["ip", "--a", "1e308", "--b", "1", "--c", "0", "--d", "0"], 2, "overflows the covariance matrix"),
    (["ip", "--input", "{tmp}/big.json"], 1, "det sigma = inf"),  # diag(1e150, 1e150, 2e150, 2e150)
    (["verify", "--seed", "1", "--n", "5", "--a-max", "1", "--b-max", "1e100"], 1, "closed formula gave nan"),
    (["sample", "--seed", "1", "--n", "3", "--which", "fig3", "--a-max", "1", "--b-max", "1",
      "--out", "{tmp}/x.csv"], 2, "no entangled state"),  # product states only
    (["sample", "--seed", "1", "--n", "3", "--which", "fig2", "--out", "{tmp}/dir"], 2, "Is a directory"),
], ids=["huge-input", "huge-flags", "big-input", "verify-huge-b", "fig3-no-entangled", "out-dir"])
def test_edge_inputs_print_one_error_line(tmp_path, argv, code, reason):
    """One stderr line, the error's, with its exit code: no warning, no traceback, no temporary file left."""
    (tmp_path / "dir").mkdir()
    for name, diagonal in (("huge.json", [1e308, 1e308, 1.0, 1.0]),
                           ("big.json", [1e150, 1e150, 2e150, 2e150])):
        (tmp_path / name).write_text(json.dumps({"sigma": np.diag(diagonal).tolist()}))
    result = subprocess.run([sys.executable, "-m", "gipower", *(x.format(tmp=tmp_path) for x in argv)],
                            capture_output=True, text=True, timeout=60)
    prefix = {1: "error: numerical failure: ", 2: "error: invalid input: "}[code]
    assert result.returncode == code, result.stderr
    assert result.stderr.startswith(prefix) and result.stderr.count("\n") == 1, result.stderr
    assert result.stderr.endswith("\n") and reason in result.stderr and result.stdout == ""
    assert "Warning" not in result.stderr and "Traceback" not in result.stderr
    assert not list(tmp_path.rglob(".gipower-*.tmp"))


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "gipower", "ip", "--a", "2", "--b", "3", "--c", "1", "--d", "-1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["value"] == pytest.approx(1 / 12, abs=1e-9)


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency: importing the package and its CLI
    # loads no top-level module but the standard library's, numpy's and its own
    code = ("import sys; before = set(sys.modules); import gipower, gipower.cli; "
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names) - {'numpy', 'gipower'}))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


#: Runs in a fresh interpreter, numpy blocked if argv[1] is "block": imports the
#: package and its CLI, reports the submodules, calls the scalar public
#: functions, then gipower's main on argv[2:].
SCALAR_RUN = """
import sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None  # import numpy now raises
import gipower, gipower.cli
from gipower import BlackBoxParams, InvalidStateError, gip_pure
print(all(f"gipower.{name}" in sys.modules for name in ("cli", "families", "power", "fidelity", "symplectic")))
print(repr(gip_pure(2.5)), BlackBoxParams(0.25, 2.0, 7.0))
for call in (lambda: gip_pure(float("nan")), lambda: BlackBoxParams(0.0, -1.0, 0.0)):
    try:
        call()
    except InvalidStateError as error:
        print(error)
sys.exit(gipower.cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("argv", [
    *(["verify", "--seed", seed, "--n", "300"] for seed in ("1", "2", "3")),
    ["verify", "--seed", "-3", "--n", "5"],
    ["ip", "--a", "2", "--b", "2", "--c", "1.7320508075688772", "--d", "-1.7320508075688772"],  # pure
    ["ip", "--a", "2", "--b", "3", "--c", "0", "--d", "0"],  # product
    ["ip", "--a", "2", "--b", "3", "--c", "1", "--d", "-1"],
    ["ip", "--a", "1e308", "--b", "1", "--c", "0", "--d", "0"],  # (a + a)/2 overflows
    ["ip", "--a", "1", "--b", "1", "--c", "0.5", "--d", "-0.5"],  # fails the gate
])
def test_scalar_paths_load_no_numpy(argv):
    """verify and ip from flags run with numpy blocked, with a plain run's bytes and exit code."""
    blocked, plain = (subprocess.run([sys.executable, "-c", SCALAR_RUN, mode, *argv],
                                     capture_output=True, text=True, timeout=60)
                      for mode in ("block", "plain"))
    assert blocked.stdout.startswith("True\n"), blocked.stderr
    assert "Traceback" not in blocked.stderr
    assert (blocked.returncode, blocked.stdout, blocked.stderr) == (plain.returncode, plain.stdout, plain.stderr)
