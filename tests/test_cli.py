"""Command-line interface: outputs, exit-code vocabulary, file round trips."""

import json
import math
import re

import numpy as np
import pytest

from helpers import oldform_pair
from maassforms.cli import main
from maassforms.eisenstein import harmonic_eisenstein_level_one
from maassforms.forms import FormExpansion, load_form, save_form


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

    @pytest.mark.parametrize("cutoff, want", [("1", 3), ("0.5", 3), ("0", 3), (None, 5)])
    def test_mellin_cutoff_must_exceed_one(self, tmp_path, capsys, cutoff, want):
        # g = f with c+(3) x 1.5 is no partner of f.  With T = 1 the Mellin
        # integrals over [1, T] vanish and the pair would PASS (residual
        # 2e-5); below 1 they run backwards.  Each such T exits 3 naming T,
        # and the default T FAILs the pair (residual 2.2)
        f = harmonic_eisenstein_level_one(40)
        cp = f.c_plus.copy()
        cp[3] *= 1.5
        g = FormExpansion(f.weight, f.level, f.character, f.alpha, f.n_max, cp,
                          f.c_minus_zero, f.c_minus)
        save_form(f, tmp_path / "f.json")
        save_form(g, tmp_path / "g.json")
        code = run(
            "verify-fe", "--f", str(tmp_path / "f.json"), "--g", str(tmp_path / "g.json"),
            "--grid=-1:1:5,0.5:2:3", "--tol", "1e-4", *(["--T", cutoff] if cutoff else []),
        )
        assert code == want
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        if want == 3:
            assert "cut-off T must be a finite number > 1" in captured.err

    GRID = "--grid=-1.5:1.5:4,0.5:2:2"  # no pole of the completed series

    def run_pair(self, tmp_path, f, g, *flags):
        save_form(f, tmp_path / "f.json")
        save_form(g, tmp_path / "g.json")
        return run("verify-fe", "--f", str(tmp_path / "f.json"), "--g", str(tmp_path / "g.json"),
                   self.GRID, *flags)

    def test_zero_padded_form_gets_a_notice(self, tmp_path, capsys):
        # a length-40 level-1 lift padded to n_max 280 at level 7, against
        # its partner 7^{-1} F(7 tau): the default T = max(4, sqrt(n_max))
        # trusts the padding, and the run fails
        _, g = oldform_pair(7)
        lift = harmonic_eisenstein_level_one(40)
        cp, cm = np.zeros(281, dtype=complex), np.zeros(280, dtype=complex)
        cp[:41], cm[:40] = lift.c_plus, lift.c_minus
        padded = FormExpansion(-2, 7, g.character, lift.alpha, 280, cp, lift.c_minus_zero, cm)
        assert self.run_pair(tmp_path, padded, g) == 5
        out = capsys.readouterr().out
        assert (
            "notice: the last nonzero coefficient of f is at n = 40, below n_max/2 "
            "(n_max = 280); the default T = max(4, sqrt(280)) = 16.73 assumes the full length"
        ) in out
        assert out.count("notice:") == 1

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
        assert report.quadrature_T == math.sqrt(40)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [float(r[4]) for r in rows] == [report.tail_bound] * 2

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

    def test_eval_and_extract(self, example_form, capsys):
        assert run("eval", "--in", str(example_form), "--tau", "0.3+0.7j") == 0
        out = capsys.readouterr().out
        assert "f(" in out and "tail" in out
        assert run("extract", "--in", str(example_form), "--n", "1") == 0
        out = capsys.readouterr().out
        assert "c+(1)" in out

    def test_extract_overflowing_heights_exits_4(self, example_form, capsys):
        # Gamma(3, -4 pi 3 v1) overflows at v1 = 20
        code = run("extract", "--in", str(example_form), "--n", "3", "--v0", "10", "--v1", "20")
        assert code == 4
        assert "double range" in capsys.readouterr().err

    def test_extract_overflowing_condition_exits_4(self, example_form, capsys):
        # Gamma(3, -4 pi 3 v1) fits at v1 = 10, but (1 + G)^2 does not
        code = run("extract", "--in", str(example_form), "--n", "3", "--v0", "5", "--v1", "10")
        assert code == 4
        assert "double range" in capsys.readouterr().err

    def test_eval_rejects_lower_half_plane(self, example_form):
        assert run("eval", "--in", str(example_form), "--tau", "0.3-0.7j") == 3

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
