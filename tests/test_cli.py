"""Command-line interface: outputs, exit-code vocabulary, file round trips."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import oldform_pair, padded_pair, stored_mode
from maassforms import eisenstein, forms
from maassforms.characters import enumerate_characters
from maassforms.cli import build_parser, main
from maassforms.eisenstein import harmonic_eisenstein_level_one
from maassforms.forms import FormExpansion, load_form, save_form, twist
from maassforms.modgroup import cusp_parameter, cusps


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def example_form(tmp_path_factory):
    path = tmp_path_factory.mktemp("forms") / "f.json"
    code = run(
        "example", "--level", "1", "--weight", "-2", "--cusp", "inf",
        "--character", "triv", "--nmax", "10", "--out", str(path),
    )
    assert code == 0
    return path


class TestExample:
    def test_writes_form_with_expected_leading_datum(self, example_form):
        form = load_form(example_form)
        assert form.weight == -2 and form.level == 1
        assert abs(form.c_minus_zero - 1.0 / 3.0) < 1e-3

    def test_invalid_cusp_exits_2(self, tmp_path, capsys):
        code = run(
            "example", "--level", "4", "--weight", "-2", "--cusp", "bogus",
            "--character", "triv", "--nmax", "4", "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "cusp" in capsys.readouterr().err

    def test_nonnegative_weight_exits_2(self, tmp_path):
        code = run(
            "example", "--level", "1", "--weight", "0", "--cusp", "inf",
            "--character", "triv", "--nmax", "4", "--out", str(tmp_path / "x.json"),
        )
        assert code == 2

    def test_parity_mismatch_exits_3(self, tmp_path):
        # quadratic character mod 4 is odd; weight -2 needs an even character
        code = run(
            "example", "--level", "4", "--weight", "-2", "--cusp", "inf",
            "--character", "quadratic", "--nmax", "4", "--out", str(tmp_path / "x.json"),
        )
        assert code == 3

    def test_unresolved_modes_get_a_notice(self, tmp_path, capsys):
        # at heights (1, 2) the bound-60 window noise swamps c-(-n) from
        # n = 3 on and c+(n) from n = 2 on (c+(2) extracts as 1.0 against
        # the closed form's 0.27)
        code = run(
            "example", "--level", "1", "--weight", "-2", "--cusp", "inf",
            "--character", "triv", "--nmax", "8", "--v0", "1", "--v1", "2",
            "--out", str(tmp_path / "deep.json"),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "at c-(-3)" in out.split("worst relative", 1)[1].splitlines()[0]
        notices = [line for line in out.splitlines() if line.startswith("notice:")]
        assert len(notices) == 1
        named = set(notices[0].rsplit(": ", 1)[1].split(", "))
        assert named == {f"c+({n})" for n in range(2, 9)} | {f"c-({-n})" for n in range(3, 9)}

    @pytest.mark.parametrize("level, cusp", [("1", "inf"), ("4", "1/2")])
    def test_resolved_run_prints_no_notice(self, tmp_path, capsys, level, cusp):
        # at level 4 the cusp-1/2 lift has c-(0) = 0: a zero resolved to the
        # coset tail is not reported as unresolved
        code = run(
            "example", "--level", level, "--weight", "-2", "--cusp", cusp,
            "--character", "triv", "--nmax", "10", "--out", str(tmp_path / "f.json"),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "extraction witness (bound 60 vs 30): worst relative" in out
        assert "notice:" not in out

    @pytest.mark.parametrize("v0", ["-0.5", "0"])
    def test_heights_off_the_upper_half_plane_exit_3(self, tmp_path, capsys, v0):
        # a line at v0 = -0.5 would give c-(0) = -0.184 for the true 1/3,
        # and one at v0 = 0 NaN coefficients; neither may be written
        out = tmp_path / "x.json"
        code = run(
            "example", "--level", "1", "--weight", "-2", "--nmax", "4",
            "--v0", v0, "--v1", "1", "--out", str(out),
        )
        assert code == 3
        assert "upper half-plane" in capsys.readouterr().err
        assert not out.exists()

    def test_prints_the_sample_lines_it_used(self, tmp_path, capsys):
        code = run("example", "--level", "1", "--weight", "-2", "--nmax", "8",
                   "--out", str(tmp_path / "f.json"))
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == "sample lines: heights (0.25, 0.5), 256 samples each"

    def test_deep_modes_take_the_samples_they_need(self, tmp_path, capsys):
        # 256 samples a line cannot resolve modes up to 150 (this exited 3);
        # at the default heights (0.02, 0.04) the rule takes 300 + 378 -> 1024
        code = run("example", "--level", "1", "--weight", "-2", "--nmax", "150",
                   "--out", str(tmp_path / "f.json"))
        assert code == 0
        assert "sample lines: heights (0.02, 0.04), 1024 samples each" in capsys.readouterr().out

    def test_heights_past_the_sample_cap_exit_3_before_any_coset_row(
        self, tmp_path, capsys, monkeypatch
    ):
        def refuse(*args):
            raise AssertionError("a coset row was built")

        monkeypatch.setattr(eisenstein, "_coset_rows", refuse)
        out = tmp_path / "x.json"
        code = run("example", "--level", "1", "--weight", "-2", "--nmax", "8",
                   "--v0", "1e-6", "--v1", "2e-6", "--out", str(out))
        assert code == 3
        assert "heights (1e-06, 2e-06)" in capsys.readouterr().err
        assert not out.exists()

    def test_heights_too_close_to_separate_c_minus_zero_exit_4(self, tmp_path, capsys):
        # G(v) = v^3 at n = 0 moves by 3e-9 between the heights, below 1e-8
        out = tmp_path / "x.json"
        code = run("example", "--level", "1", "--weight", "-2", "--nmax", "8",
                   "--v0", "1", "--v1", "1.000000001", "--out", str(out))
        assert code == 4
        assert "agree to 1e-8 relative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, message", [
        ("--nmax=-3", "n_range must be >= 1"), ("--nmax=0", "n_range must be >= 1"),
        ("--bound=0", "bound must be >= 1"), ("--bound=-5", "bound must be >= 1"),
    ])
    def test_a_bad_mode_count_or_bound_exits_3_before_any_coset_row(
        self, tmp_path, capsys, monkeypatch, flag, message
    ):
        def refuse(*args):
            raise AssertionError("a coset row was built")

        monkeypatch.setattr(eisenstein, "_coset_rows", refuse)
        out = tmp_path / "x.json"
        code = run("example", "--level", "1", "--weight", "-2", "--nmax", "8", flag,
                   "--out", str(out))
        assert code == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_equivalent_cusp_string_accepted(self, tmp_path):
        # 7/3 reduces to the representative class at level 1
        code = run(
            "example", "--level", "1", "--weight", "-2", "--cusp", "7/3",
            "--character", "triv", "--nmax", "3", "--out", str(tmp_path / "y.json"),
        )
        assert code == 0

    def test_bare_integer_cusp_is_read_as_a_over_1(self, tmp_path, capsys):
        # "0" is the cusp 0/1, whose representative at level 7 is labelled 0/1
        args = ["example", "--level", "7", "--weight", "-2", "--character", "triv",
                "--nmax", "3"]
        assert run(*args, "--cusp", "0", "--out", str(tmp_path / "a.json")) == 0
        assert run(*args, "--cusp", "0/1", "--out", str(tmp_path / "b.json")) == 0
        assert load_form(tmp_path / "a.json").to_json() == load_form(tmp_path / "b.json").to_json()


class TestVerifyFe:
    def test_exact_pair_passes_default_tolerance(self, tmp_path, capsys):
        path = tmp_path / "exact.json"
        save_form(harmonic_eisenstein_level_one(40), path)
        out = tmp_path / "resid.csv"
        code = run(
            "verify-fe", "--f", str(path), "--g", str(path),
            "--grid=-1:1:3,0:2:2", "--tol", "1e-4", "--out", str(out),
        )
        assert code == 0
        text = out.read_text()
        assert text.splitlines()[0] == "re_s,im_s,lambda_residual,omega_residual,tail_bound"
        assert "PASS" in capsys.readouterr().out

    def test_extracted_pair_passes_truncation_tolerance(self, example_form, capsys):
        # a bound-60 extraction is a ~1e-3-accurate pair; the residual sees
        # exactly that, so the tolerance is the coset tail, not 1e-4
        code = run(
            "verify-fe", "--f", str(example_form), "--g", str(example_form),
            "--grid=-1:1:3,0:2:2", "--tol", "1e-2",
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_corrupted_pair_exits_5(self, example_form, tmp_path):
        data = json.loads(example_form.read_text())
        data["c_plus"][2][0] += 0.1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code = run(
            "verify-fe", "--f", str(example_form), "--g", str(bad),
            "--grid=-1:1:3,0:2:2", "--tol", "1e-4",
        )
        assert code == 5

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
    def test_a_tolerance_that_is_not_a_finite_number_from_0_exits_2_before_any_form_is_read(
        self, tmp_path, capsys, monkeypatch, tol
    ):
        # nan and inf would PASS whatever the residual, and -1 FAIL it
        def refuse(path):
            raise AssertionError("a form was read")

        monkeypatch.setattr(forms, "load_form", refuse)
        path = str(tmp_path / "f.json")
        code = run("verify-fe", "--f", path, "--g", path, f"--tol={tol}")
        assert code == 2
        assert "--tol must be a finite number >= 0" in capsys.readouterr().err

    def test_a_zero_tolerance_is_accepted(self, tmp_path, capsys):
        zero = FormExpansion(-2, 1, enumerate_characters(1)[0], 0.0, 4, np.zeros(5), 0.0,
                             np.zeros(4))
        path = tmp_path / "zero.json"
        save_form(zero, path)
        code = run("verify-fe", "--f", str(path), "--g", str(path), "--tol", "0")
        out = capsys.readouterr().out
        assert code == 0
        assert "max residual: 0.000000e+00 (tolerance 0)" in out and "PASS" in out

    def test_mellin_cutoff_must_exceed_one(self, tmp_path, capsys):
        # g = f with c+(3) x 1.5 is no partner of f.  With T = 1 the Mellin
        # integral over [1/T, T] vanishes and the pair would PASS (residual
        # 2e-5); the pairs' own cut-off FAILs it (residual 2.2)
        f = harmonic_eisenstein_level_one(40)
        cp = f.c_plus.copy()
        cp[3] *= 1.5
        g = FormExpansion(f.weight, f.level, f.character, f.alpha, f.n_max, cp,
                          f.c_minus_zero, f.c_minus)
        save_form(f, tmp_path / "f.json")
        save_form(g, tmp_path / "g.json")
        code = run(
            "verify-fe", "--f", str(tmp_path / "f.json"), "--g", str(tmp_path / "g.json"),
            "--grid=-1:1:5,0.5:2:3", "--tol", "1e-4",
        )
        assert code == 5
        assert "PASS" not in capsys.readouterr().out

    @pytest.mark.parametrize("nan_in", ["f", "g"])
    def test_a_nan_residual_fails_with_exit_5(self, capsys, monkeypatch, nan_in):
        # c+(3) = NaN makes every residual NaN, which no tolerance may pass.
        # No form file holds a NaN (load_form refuses one), so the forms
        # come from memory
        f = harmonic_eisenstein_level_one(40)
        cp = f.c_plus.copy()
        cp[3] = np.nan
        g = replace(f, c_plus=cp)
        held = dict(zip(("f.json", "g.json"), (g, f) if nan_in == "f" else (f, g)))
        monkeypatch.setattr(forms, "load_form", held.__getitem__)
        code = run("verify-fe", "--f", "f.json", "--g", "g.json", self.GRID, "--tol", "1e-4")
        out = capsys.readouterr().out
        assert code == 5
        assert "max residual: nan" in out and "PASS" not in out
        assert "FAIL: functional equation residual is not a number" in out

    GRID = "--grid=-1.5:1.5:4,0.5:2:2"  # no pole of the completed series

    def run_pair(self, tmp_path, f, g, *flags, grid=GRID):
        # grid=None runs verify-fe's default grid
        save_form(f, tmp_path / "f.json")
        save_form(g, tmp_path / "g.json")
        return run("verify-fe", "--f", str(tmp_path / "f.json"), "--g", str(tmp_path / "g.json"),
                   *([grid] if grid else []), *flags)

    def test_a_cutoff_flag_is_a_usage_error(self, tmp_path):
        # the cut-off comes from the data; --T is no flag, so it exits 2
        with pytest.raises(SystemExit) as exc:
            self.run_pair(tmp_path, *oldform_pair(7), "--T", "2")
        assert exc.value.code == 2

    @staticmethod
    def max_residual(out: str) -> float:
        return float(re.search(r"max residual: (\S+)", out).group(1))

    def test_zero_padded_pair_is_cut_off_at_its_last_coefficient(self, tmp_path, capsys):
        # the lift ends at n = 40, so both sides take T = sqrt(40), not
        # sqrt(280): on GRID the residual reads 2.9e-3 (78 at sqrt(280)),
        # 1.2e-3 on the default grid (20.5); the length-40 data still fails 1e-4
        f, g = padded_pair()
        for a, b in ((f, g), (g, f)):
            assert self.run_pair(tmp_path, a, b) == 5
            out = capsys.readouterr().out
            assert "tail bound at T = 6.325:" in out and "notice" not in out
            if a is f:
                assert self.max_residual(out) < 3e-3
        assert self.run_pair(tmp_path, f, g, grid=None) == 5
        assert self.max_residual(capsys.readouterr().out) <= 1.2e-3

    @pytest.mark.parametrize("level, n", [(1, 4), (7, 28)])
    def test_a_one_percent_corrupted_partner_fails(self, tmp_path, capsys, level, n):
        # g's c+(n) x 1.01 against f: at T = 2 these passed with residuals
        # 1.6e-7 and 3.0e-8; the pairs' own cut-off fails both
        f, g = oldform_pair(level)
        cp = g.c_plus.copy()
        cp[n] *= 1.01
        assert self.run_pair(tmp_path, f, replace(g, c_plus=cp), grid=None) == 5
        assert self.max_residual(capsys.readouterr().out) > 1e-2

    def test_golden_pair_prints_no_notice(self, tmp_path, capsys):
        assert self.run_pair(tmp_path, *oldform_pair(7)) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "notice" not in out

    def test_levels_that_differ_exit_3(self, tmp_path, capsys):
        _, g = oldform_pair(7, base=4)
        assert self.run_pair(tmp_path, harmonic_eisenstein_level_one(28), g) == 3
        assert "levels differ: f is at level 1, g at 7" in capsys.readouterr().err

    def test_psi_coprimality_exits_2(self, tmp_path):
        # build a level-5 form file by hand (content irrelevant to the check)
        form = {
            "weight": -2, "level": 5,
            "character": {"modulus": 5, "exponents": [0], "generators": [2]},
            "alpha": 0.0, "n_max": 2,
            "c_plus": [[0.0, 0.0]] * 3, "c_minus_zero": [0.0, 0.0],
            "c_minus": [[0.0, 0.0]] * 2,
        }
        path = tmp_path / "f5.json"
        path.write_text(json.dumps(form))
        code = run(
            "verify-fe", "--f", str(path), "--g", str(path),
            "--psi", "5:quadratic", "--grid", "0:1:2,0:1:2",
        )
        assert code == 2

    def test_psi_without_a_real_character_exits_2(self, example_form, capsys):
        # (Z/2)* has only the trivial character: the message says so rather
        # than point to an index that does not exist
        code = run(
            "verify-fe", "--f", str(example_form), "--g", str(example_form),
            "--psi", "2:quadratic", "--grid", "0:1:2,0:1:2",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "modulus 2 has no real non-trivial character" in err
        assert "index" not in err

    def test_twisted_pass(self, tmp_path):
        ref = harmonic_eisenstein_level_one(400)
        path = tmp_path / "ref.json"
        save_form(ref, path)
        code = run(
            "verify-fe", "--f", str(path), "--g", str(path),
            "--psi", "5:quadratic", "--grid=-1:2:2,0:1:2", "--tol", "1e-4",
        )
        assert code == 0

    def test_twisted_run_reports_through_the_residual_driver(self, tmp_path, monkeypatch):
        # the twisted run is lseries.fe_residuals(..., psi=psi): its CSV
        # carries the integrand tail of f's twisted pair, at the T used
        import maassforms.lseries as lseries
        seen = []
        driver = lseries.fe_residuals

        def recording(*args, **kwargs):
            seen.append((kwargs["psi"], driver(*args, **kwargs)))
            return seen[-1][1]

        monkeypatch.setattr(lseries, "fe_residuals", recording)
        path = tmp_path / "ref.json"
        save_form(harmonic_eisenstein_level_one(40), path)
        out = tmp_path / "resid.csv"
        code = run(
            "verify-fe", "--f", str(path), "--g", str(path), "--psi", "5:quadratic",
            "--grid=0.5:0.5:1,0:1:2", "--tol", "1", "--out", str(out),
        )
        assert code == 0
        (psi, report), = seen
        assert psi.modulus == 5
        assert report.quadrature_T == math.sqrt(39)  # psi(40) = 0: the last term is at n = 39
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [float(r[4]) for r in rows] == [report.tail_bound] * 2

    def test_twisted_run_prints_the_measured_tail(self, tmp_path, monkeypatch, capsys):
        # psi mod 13 at n_max 400 on the default grid: the run reaches a
        # residual near 2, and prints the report's tail_bound (the dropped
        # [T, inf) integrand, the CSV's last column) with a notice, not a
        # predicted floor
        import maassforms.lseries as lseries
        seen = []
        driver = lseries.fe_residuals
        monkeypatch.setattr(
            lseries, "fe_residuals", lambda *a, **kw: seen.append(driver(*a, **kw)) or seen[-1]
        )
        path = tmp_path / "ref.json"
        save_form(harmonic_eisenstein_level_one(400), path)
        assert run("verify-fe", "--f", str(path), "--g", str(path), "--psi", "13:quadratic") == 5
        out = capsys.readouterr().out
        (report,) = seen
        assert "truncation floor" not in out
        assert f"tail bound at T = 20: {report.tail_bound:.6e}\n" in out
        assert "notice: the tail bound exceeds the tolerance" in out
        assert report.tail_bound > 1e-4 and report.max_residual > 1.0

    @pytest.mark.parametrize("grid", ["-1:1:0,0:2:3", "0:0:1,0:0:1"])
    def test_grid_without_a_point_to_check_exits_2(self, example_form, tmp_path, capsys, grid):
        # an empty grid, and a grid holding only the pole s = 0: no residual
        # is computed, so no verdict is printed and no CSV is written
        out = tmp_path / "resid.csv"
        code = run(
            "verify-fe", "--f", str(example_form), "--g", str(example_form),
            f"--grid={grid}", "--out", str(out),
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out and "max residual" not in captured.out
        assert "no point to check" in captured.err
        assert not out.exists()


class TestOps:
    def test_shadow_of_pure_plus_form_is_zero(self, tmp_path, capsys):
        form = {
            "weight": -2, "level": 1,
            "character": {"modulus": 1, "exponents": [], "generators": []},
            "alpha": 0.0, "n_max": 2,
            "c_plus": [[1.0, 0.0], [2.0, 0.0], [0.5, 0.0]],
            "c_minus_zero": [0.0, 0.0],
            "c_minus": [[0.0, 0.0]] * 2,
        }
        path = tmp_path / "plus.json"
        path.write_text(json.dumps(form))
        assert run("shadow", "--in", str(path)) == 0
        data = json.loads(capsys.readouterr().out)
        assert all(re == 0 and im == 0 for re, im in data["coefficients"])
        assert data["weight"] == 4

    def test_bol_writes_weight_two_minus_k(self, example_form, tmp_path):
        out = tmp_path / "bol.json"
        assert run("bol", "--in", str(example_form), "--out", str(out)) == 0
        data = json.loads(out.read_text())
        assert data["weight"] == 4

    def test_twist_round_trip(self, example_form, tmp_path):
        out = tmp_path / "twisted.json"
        assert run("twist", "--in", str(example_form), "--psi", "5:quadratic",
                   "--out", str(out)) == 0
        tw = load_form(out)
        assert tw.level == 25
        assert tw.c_minus_zero == 0

    def test_twist_by_character_index_one(self, example_form, tmp_path):
        # "5:1" is entry 1 of the enumeration mod 5, a primitive quartic
        # character, not an alias of the trivial one
        out = tmp_path / "twisted.json"
        assert run("twist", "--in", str(example_form), "--psi", "5:1", "--out", str(out)) == 0
        psi = enumerate_characters(5)[1]
        want = twist(load_form(example_form), psi)
        got = load_form(out)
        assert got.level == 25 and got.character == want.character
        assert np.array_equal(got.c_plus, want.c_plus)
        assert np.array_equal(got.c_minus, want.c_minus)

    def test_eval_and_extract(self, example_form, capsys):
        assert run("eval", "--in", str(example_form), "--tau", "0.3+0.7j") == 0
        out = capsys.readouterr().out
        assert "f(" in out and "tail" in out
        assert run("extract", "--in", str(example_form), "--n", "1") == 0
        out = capsys.readouterr().out
        assert "c+(1)" in out

    def test_extract_prints_the_sample_lines_it_used(self, example_form, capsys):
        assert run("extract", "--in", str(example_form), "--n", "1") == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "sample lines: heights (0.5, 1.0), 256 samples each")

    @pytest.fixture(scope="class")
    def long_form(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("forms") / "f400.json"
        save_form(harmonic_eisenstein_level_one(400), path)
        return path

    def test_extract_reads_a_long_form_without_alias(self, long_form, capsys):
        # at n = 100 the form's reach n_max + |n| + 1 = 501 is below the
        # alias reach 2 |n| + R / v0 = 1695: 512 samples a line, and no mode
        # of the form aliases onto n
        ref = load_form(long_form)
        assert run("extract", "--in", str(long_form), "--n", "100") == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "sample lines: heights (0.005, 0.01), 512 samples each"
        got = complex(re.search(r"c\+\(100\) = (\S+)", out).group(1))
        assert abs(got - ref.c_plus[100]) <= 1e-11 * abs(ref.c_plus[100])

    @pytest.mark.parametrize("n", [-100, -400, 20, 400, 0])
    def test_extract_reads_deep_modes_of_the_long_form(self, long_form, capsys, n):
        # at the fixed heights (0.4, 0.8) this printed c-(-100) = -4.6e86 for
        # the stored -0.139 and c+(20) = -46911 for -0.278, with exit 0, and
        # exited 4 at n = 400
        ref = load_form(long_form)
        assert run("extract", "--in", str(long_form), f"--n={n}") == 0
        out = capsys.readouterr().out
        got = [complex(re.search(re.escape(f"c{sign}({n}) = ") + r"(\S+)", out).group(1))
               for sign in "+-"]
        want = stored_mode(ref, n)
        scale = max(map(abs, want))
        assert all(abs(x - y) <= 1e-11 * scale for x, y in zip(got, want))

    @pytest.mark.parametrize("n_max, n", [
        (70000, 5000),  # the alias reach 2 |n| + R / v0 = 84728, n_max + |n| + 1 = 75001
        (10, 40000),  # 2 |n| + 2 = 80002
    ])
    def test_extract_past_the_sample_cap_exits_3_before_any_work(
        self, monkeypatch, capsys, n_max, n
    ):
        form = harmonic_eisenstein_level_one(n_max)

        def refuse(*args):
            raise AssertionError("the form was evaluated")

        monkeypatch.setattr(forms, "load_form", lambda path: form)
        monkeypatch.setattr(forms.TermSeries, "_sums", refuse)
        tracemalloc.start()
        try:
            code = run("extract", "--in", "f.json", "--n", str(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert f"n_max {n_max} need" in capsys.readouterr().err
        assert peak < 1e6

    def test_extract_reads_a_form_past_the_no_alias_reach(self, monkeypatch, capsys):
        # n_max + |n| + 1 = 70004 is past the cap, but at the heights (1/6,
        # 1/3) the modes past 2 |n| + R / v0 = 51 weigh below 4e-17 of their
        # coefficients, so 256 samples a line read c+(3)
        ref = harmonic_eisenstein_level_one(70000)
        monkeypatch.setattr(forms, "load_form", lambda path: ref)
        assert run("extract", "--in", "f.json", "--n", "3") == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].endswith(", 256 samples each")
        got = complex(re.search(r"c\+\(3\) = (\S+)", out).group(1))
        assert abs(got - ref.c_plus[3]) < 1e-10

    @pytest.mark.parametrize("flag", ["--v0", "--v1"])
    def test_extract_takes_no_height(self, example_form, flag):
        # the heights come from the mode
        with pytest.raises(SystemExit) as exc:
            run("extract", "--in", str(example_form), "--n", "1", flag, "1")
        assert exc.value.code == 2

    def test_eval_rejects_lower_half_plane(self, example_form, capsys):
        # one rule, owned by the evaluator, so one message for both points
        errs = []
        for tau in ("0.3-0.7j", "nanj"):
            assert run("eval", "--in", str(example_form), "--tau", tau) == 3
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert "tau must be finite and lie in the upper half-plane" in errs[0]

    @pytest.mark.parametrize("tau", ["nanj", "0.5+infj", "inf+1j"])
    def test_eval_rejects_a_point_that_is_not_finite(self, example_form, capsys, tau):
        assert run("eval", "--in", str(example_form), "--tau", tau) == 3
        assert "finite" in capsys.readouterr().err

    def test_eval_of_a_file_holding_nan_exits_3(self, tmp_path, capsys):
        # such a file printed f(...) = nan+nanj and exited 0
        path = tmp_path / "g.json"
        data = harmonic_eisenstein_level_one(10).to_json()
        data["c_plus"][2] = [math.nan, 0.0]
        path.write_text(json.dumps(data))
        assert run("eval", "--in", str(path), "--tau", "0.1+0.8j") == 3
        assert "c_plus[2] must be finite, got (nan+0j)" in capsys.readouterr().err

    def test_eval_past_the_double_range_exits_3(self, tmp_path, capsys):
        # v^3 of c-(0) v^3 overflows at 1e300, where the CLI printed nan+nanj
        # and exited 0; the suite makes a RuntimeWarning an error
        save_form(harmonic_eisenstein_level_one(10), tmp_path / "f.json")
        assert run("eval", "--in", str(tmp_path / "f.json"), "--tau", "1e300j") == 3
        assert "height 1e+300 is past the double range" in capsys.readouterr().err
        assert run("eval", "--in", str(tmp_path / "f.json"), "--tau", "1e100j") == 0
        value = re.search(r"= (\S+)j", capsys.readouterr().out).group(1)
        assert complex(value + "j") == pytest.approx(1e300 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("level", [4, 9, 12, 16])
    def test_cusps_json_reads_kappa_from_the_character(self, capsys, level):
        # kappa is cusp_parameter's for every character, and 0.0 without one
        reps = cusps(level)
        assert run("cusps", "--level", str(level)) == 0
        data = json.loads(capsys.readouterr().out)["cusps"]
        assert [c["kappa"] for c in data] == [0.0] * len(reps)
        kappas = []
        for i, chi in enumerate(enumerate_characters(level)):
            assert run("cusps", "--level", str(level), "--character", str(i)) == 0
            data = json.loads(capsys.readouterr().out)["cusps"]
            assert [c["repr"] for c in data] == [rho.label() for rho in reps]
            for c, rho in zip(data, reps):
                assert c["kappa"] == cusp_parameter(level, chi, rho)
                kappas.append(c["kappa"])
        assert any(kappas)

    def test_cusps_json(self, capsys):
        assert run("cusps", "--level", "6") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["N"] == 6
        assert len(data["cusps"]) == 4
        labels = {c["repr"] for c in data["cusps"]}
        assert "inf" in labels
        widths = {c["repr"]: c["width"] for c in data["cusps"]}
        assert widths["0/1"] == 6

    def test_dim(self, capsys):
        assert run("dim", "--level", "4", "--character", "triv") == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_json_bit_exact_round_trip(self, example_form, tmp_path):
        form = load_form(example_form)
        again = tmp_path / "copy.json"
        from maassforms.forms import save_form

        save_form(form, again)
        form2 = load_form(again)
        assert np.array_equal(form.c_plus, form2.c_plus)
        assert np.array_equal(form.c_minus, form2.c_minus)
        assert form.c_minus_zero == form2.c_minus_zero


class TestFlags:
    @pytest.mark.parametrize("command", ["example", "extract"])
    def test_a_samples_flag_is_a_usage_error(self, example_form, tmp_path, command):
        # the samples per line come from the heights and the data
        args = {"example": ["--level", "1", "--weight", "-2", "--nmax", "8",
                            "--out", str(tmp_path / "f.json")],
                "extract": ["--in", str(example_form), "--n", "1"]}[command]
        with pytest.raises(SystemExit) as exc:
            run(command, *args, "--samples", "512")
        assert exc.value.code == 2

    def test_no_flag_sets_a_value_the_library_derives_from_the_data(self):
        # the samples per line of example and extract, and verify-fe's Mellin
        # cut-off T; a prefix would still reach an option by abbreviation
        derived = ("--samples", "--T")
        (commands,) = (a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
        assert {"example", "extract", "verify-fe"} <= set(commands.choices)
        for name, sub in commands.choices.items():
            offered = [o for o in sub._option_string_actions if o.startswith(derived)]
            assert offered == [], name


class TestSelfcheck:
    def test_selfcheck_passes(self, capsys):
        assert run("selfcheck") == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_each_check_prints_its_time(self, capsys):
        assert run("selfcheck") == 0
        out = capsys.readouterr().out.splitlines()
        lines = [ln for ln in out if ln.startswith("[PASS]")]
        assert len(lines) == len(out) - 1  # all but the closing "all checks passed"
        for line in lines:
            assert re.search(r" \(\d+\.\d{3} s\)$", line), line

    def test_evaluator_is_checked_against_the_term_sum(self, capsys):
        assert run("selfcheck") == 0
        out = capsys.readouterr().out.splitlines()
        names = [ln.split("]", 1)[1].split(":")[0].split(" (")[0].strip() for ln in out[:-1]]
        assert names.index("evaluator vs term sum") == names.index("operator identities") + 1
        line = out[names.index("evaluator vs term sum")]
        assert re.match(r"\[PASS\] evaluator vs term sum: worst rel to sum \|term\| \d\.\d\de-\d\d \(", line)
        assert float(line.split("|term| ")[1].split(" ")[0]) < 1e-12


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self, tmp_path):
        # `python -m maassforms` from the source tree, without an install;
        # main's exit code reaches the shell
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

        def module(*argv):
            return subprocess.run([sys.executable, "-m", "maassforms", *argv], env=env,
                                  cwd=tmp_path, capture_output=True, text=True, timeout=120)

        done = module("--help")
        assert done.returncode == 0 and "verify-fe" in done.stdout
        done = module("example", "--level", "4", "--weight", "-2", "--cusp", "bogus",
                      "--character", "triv", "--nmax", "4", "--out", "x.json")
        assert done.returncode == 2 and "cusp" in done.stderr
