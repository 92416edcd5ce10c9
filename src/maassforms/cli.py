"""Command-line front end.

Exit codes: 0 success, 2 usage (bad flag values), 3 semantic precondition
(e.g. character parity vs weight), 4 numerical conditioning failure,
5 verification failure (the computation ran; the checked property fails the
tolerance).  All file output is UTF-8 JSON/CSV written atomically, numbers
with 17 significant digits so values round-trip bit-exactly.  What the
library works out from the data has no flag: example and extract print the
heights and samples per line they took (extract reads mode n at the heights
forms.mode_heights(n), 1/(2 max(1, |n|)) and twice that), verify-fe the
Mellin cut-off T.

File formats
    form JSON      {"weight": k, "level": N, "character": {...}, "alpha": a,
                    "n_max": M, "c_plus": [[re, im], ...],
                    "c_minus_zero": [re, im], "c_minus": [[re, im], ...]}
                   (coefficient indices implicit by position; c_minus[i] is
                   the coefficient at n = -(i+1))
    character JSON {"modulus": q, "exponents": [...], "generators": [...]}
    cusp JSON      {"N": ..., "cusps": [{"repr": "a/c"|"inf", "width": t,
                    "kappa": kap, "scaling": [[a, b], [c, d]]}]}
    residual CSV   re_s, im_s, lambda_residual, omega_residual, tail_bound
                   (tail_bound is an upper bound on the dropped [T, inf)
                   Mellin integrand of f's pair, the twisted pair when --psi
                   is given, read from its terms: f's F != 0 terms at T,
                   the smaller of the sides' max(4, sqrt(last nonzero |n|)))

Grid SPEC for verify-fe: "re0:re1:steps,im0:im1:steps" (inclusive rectangular
grid); points at the four poles of the completed series are excluded with a
notice.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
import time

import numpy as np

from . import characters, eisenstein, forms, lseries, modgroup, specfun

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_CONDITIONING = 4
EXIT_VERIFICATION = 5


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _fail(message: str, code: int):
    raise CliError(message, code)


def _emit(path: str | None, text: str) -> None:
    """Write text to path atomically, or print it when no path is given."""
    if path:
        forms.atomic_write(path, text)
        print(f"wrote {path}")
    else:
        print(text, end="")


def _parse_character(level: int, label: str):
    try:
        return characters.character_by_label(level, label)
    except ValueError as exc:
        _fail(f"character: {exc}", EXIT_USAGE)


def _parse_cusp(level: int, repr_str: str):
    """The representative in modgroup.cusps(level) of the cusp that repr_str
    names: "inf", "oo" or "infinity" (read as 1/0), any a/c, or an integer a
    (read as a/1), each found by cusp_equivalent.  The representatives are
    pairwise inequivalent, so a representative's own label finds itself."""
    cs = modgroup.cusps(level)
    text = "1/0" if repr_str in ("inf", "oo", "infinity") else repr_str
    if "/" in text or text.lstrip("-").isdigit():
        a_str, _, c_str = text.partition("/")
        try:
            a, cden = int(a_str), int(c_str or "1")
        except ValueError:
            _fail(f"cusp: cannot parse {repr_str!r}", EXIT_USAGE)
        g = math.gcd(a, cden)
        if g == 0:
            _fail(f"cusp: {repr_str!r} is not a cusp", EXIT_USAGE)
        a, cden = a // g, cden // g
        for c in cs:
            if modgroup.cusp_equivalent(level, a, cden, c.a, c.c):
                return c
    _fail(
        f"cusp: {repr_str!r} not recognized for level {level}; "
        f"known representatives: {[c.label() for c in cs]}",
        EXIT_USAGE,
    )


def _parse_psi(spec: str):
    try:
        mod_str, label = spec.split(":", 1)
        modulus = int(mod_str)
    except ValueError:
        _fail(f"--psi expects MODULUS:LABEL, got {spec!r}", EXIT_USAGE)
    psi = _parse_character(modulus, label)
    if not psi.is_primitive:
        _fail(f"--psi {spec}: character is not primitive", EXIT_USAGE)
    return psi


def _parse_grid(spec: str):
    try:
        re_part, im_part = spec.split(",")
        re0, re1, rn = re_part.split(":")
        im0, im1, imn = im_part.split(":")
        res = np.linspace(float(re0), float(re1), int(rn))
        ims = np.linspace(float(im0), float(im1), int(imn))
    except ValueError:
        _fail(f"--grid expects 're0:re1:steps,im0:im1:steps', got {spec!r}", EXIT_USAGE)
    return [complex(r, i) for r in res for i in ims]


def _fmt(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


# ---------------------------------------------------------------------------
# commands


def cmd_example(args) -> int:
    if args.weight > -1:
        _fail("--weight must be a negative integer", EXIT_USAGE)
    chi = _parse_character(args.level, args.character)
    if chi.parity != (-1) ** args.weight:
        _fail(
            f"character parity {chi.parity} does not match (-1)^k = {(-1) ** args.weight}",
            EXIT_PRECONDITION,
        )
    rho = _parse_cusp(args.level, args.cusp)
    heights = None
    if args.v0 is not None or args.v1 is not None:
        if args.v0 is None or args.v1 is None:
            _fail("--v0 and --v1 must be given together", EXIT_USAGE)
        heights = (args.v0, args.v1)
    try:
        form, witness = eisenstein.f_expansion(
            args.level,
            chi,
            args.weight,
            rho,
            args.nmax,
            bound=args.bound,
            heights=heights,
            full_output=True,
        )
    except forms.IllConditionedError as exc:
        _fail(f"extraction conditioning failure: {exc}", EXIT_CONDITIONING)
    forms.save_form(form, args.out)
    tail = eisenstein.coset_tail_estimate(args.weight, args.bound)
    modes = [(f"c+({n})", form.c_plus[n], witness["c_plus"][n]) for n in range(form.n_max + 1)]
    modes.append(("c-(0)", form.c_minus_zero, witness["c_minus_zero"]))
    modes += [
        (f"c-({-n})", form.c_minus[n - 1], witness["c_minus"][n - 1])
        for n in range(1, form.n_max + 1)
    ]
    relative = [(w / abs(x) if x else math.inf, label) for label, x, w in modes]
    worst, worst_label = max(relative)
    print(f"wrote {args.out}")
    print(f"coset tail estimate (bound {args.bound}): {tail:.3e}")
    print(f"sample lines: heights {witness['heights']}, {witness['samples']} samples each")
    print(
        f"extraction witness (bound {args.bound} vs {args.bound // 2}): "
        f"worst relative {worst:.2e} at {worst_label}"
    )
    # the error is within 2 witnesses, so once 4 witnesses reach |x| the
    # bound 2w / (|x| - 2w) on the relative error no longer stays below 1;
    # a witness under the coset tail is the samples' own truncation error,
    # which resolves a datum that is zero (e.g. c-(0) away from infinity)
    unresolved = [
        label for label, x, w in modes if 4.0 * w >= abs(x) and w > tail
    ]
    if unresolved:
        print(
            f"notice: unresolved modes (witness >= |coefficient| / 4 and > the "
            f"coset tail): {', '.join(unresolved)}"
        )
    print(f"c+(0) = {_fmt(complex(form.c_plus[0]))}   c-(0) = {_fmt(form.c_minus_zero)}")
    return EXIT_OK


def cmd_verify_fe(args) -> int:
    if not 0.0 <= args.tol < math.inf:  # NaN too: no residual compares above it
        _fail(f"--tol must be a finite number >= 0, got {args.tol}", EXIT_USAGE)
    form_f = forms.load_form(args.f)
    form_g = forms.load_form(args.g)
    grid = _parse_grid(args.grid)
    psi = None
    if args.psi is not None:
        psi = _parse_psi(args.psi)
        if math.gcd(psi.modulus, form_f.level) != 1:
            _fail(
                f"--psi conductor {psi.modulus} is not coprime to the level {form_f.level}",
                EXIT_USAGE,
            )
    report = lseries.fe_residuals(form_f, form_g, grid, psi=psi)
    if report.excluded:
        print(f"notice: excluded pole points {[_fmt(s) for s in report.excluded]}")
    if not report.grid:
        _fail("--grid leaves no point to check once the poles are excluded", EXIT_USAGE)
    if args.out:
        forms.atomic_write(args.out, report.to_csv())
        print(f"wrote {args.out}")
    # the CSV's tail_bound: a bound on f's F != 0 terms at T, read from its terms
    print(f"tail bound at T = {report.quadrature_T:.4g}: {report.tail_bound:.6e}")
    if report.tail_bound > args.tol:
        print("notice: the tail bound exceeds the tolerance; residuals cannot certify the pair")
    print(f"max residual: {report.max_residual:.6e} (tolerance {args.tol:g})")
    if not report.max_residual <= args.tol:  # NaN fails too
        why = "is not a number" if math.isnan(report.max_residual) else "above tolerance"
        print(f"FAIL: functional equation residual {why}")
        return EXIT_VERIFICATION
    print("PASS")
    return EXIT_OK


def cmd_q_expansion(args) -> int:
    out = args.operator(forms.load_form(args.infile))
    _emit(args.out, json.dumps(out.to_json(), indent=1) + "\n")
    return EXIT_OK


def cmd_twist(args) -> int:
    form = forms.load_form(args.infile)
    psi = _parse_psi(args.psi)
    out = forms.twist(form, psi)
    forms.save_form(out, args.out)
    print(f"wrote {args.out} (level {out.level}, character modulus {out.character.modulus})")
    return EXIT_OK


def cmd_eval(args) -> int:
    form = forms.load_form(args.infile)
    try:
        tau = complex(args.tau)
    except ValueError:
        _fail(f"--tau expects a complex literal like 0.3+0.7j, got {args.tau!r}", EXIT_USAGE)
    value = forms.evaluate(form, tau)
    tail = forms.evaluate_tail_bound(form, tau.imag)
    print(f"f({_fmt(tau)}) = {_fmt(value)}")
    print(f"truncation tail bound: {tail:.3e}")
    return EXIT_OK


def cmd_extract(args) -> int:
    form = forms.load_form(args.infile)
    heights = forms.mode_heights(args.n)
    samples = forms.line_samples(args.n, heights, form.n_max, k=form.weight)
    try:
        cp, cm = forms.extract_coefficients(forms.to_terms(form).eval, form.weight, args.n, samples)
    except forms.IllConditionedError as exc:
        _fail(str(exc), EXIT_CONDITIONING)
    print(f"sample lines: heights {heights}, {samples} samples each")
    print(f"c+({args.n}) = {_fmt(cp)}")
    print(f"c-({args.n}) = {_fmt(cm)}")
    return EXIT_OK


def cmd_cusps(args) -> int:
    chi = _parse_character(args.level, args.character) if args.character else None
    cs = modgroup.cusps(args.level)
    payload = {
        "N": args.level,
        "cusps": [
            {
                "repr": c.label(),
                "width": c.width,
                "kappa": 0.0 if chi is None else modgroup.cusp_parameter(args.level, chi, c),
                "scaling": [[c.scaling.a, c.scaling.b], [c.scaling.c, c.scaling.d]],
            }
            for c in cs
        ],
    }
    _emit(args.out, json.dumps(payload, indent=1) + "\n")
    return EXIT_OK


def cmd_dim(args) -> int:
    chi = _parse_character(args.level, args.character)
    print(eisenstein.dim_eisenstein(args.level, chi))
    return EXIT_OK


def cmd_selfcheck(args) -> int:
    """Run the built-in checks; each line carries the wall time of its check
    (the time since the previous line)."""
    failures = 0
    start = time.perf_counter()

    def check(name: str, ok: bool, detail: str = ""):
        nonlocal failures, start
        now = time.perf_counter()
        tag = "PASS" if ok else "FAIL"
        print(f"[{tag}] {name}" + (f": {detail}" if detail else "") + f" ({now - start:.3f} s)")
        failures += 0 if ok else 1
        start = now

    rng = np.random.default_rng(20240915)

    # gamma recurrence and incomplete gamma recurrence
    worst = 0.0
    for _ in range(40):
        s = complex(rng.uniform(0.2, 20), rng.uniform(-20, 20))
        worst = max(
            worst,
            abs(specfun.gamma_complex(s + 1) - s * specfun.gamma_complex(s))
            / abs(specfun.gamma_complex(s + 1)),
        )
    check("gamma recurrence", worst < 1e-11, f"worst rel {worst:.2e}")

    worst = 0.0
    for nu in range(1, 8):
        for x in (0.1, 1.0, 10.0):
            lhs = specfun.inc_gamma(nu + 1, x)
            rhs = nu * specfun.inc_gamma(nu, x) + x**nu * math.exp(-x)
            worst = max(worst, abs(lhs - rhs) / abs(lhs))
    check("incomplete gamma recurrence", worst < 1e-10, f"worst rel {worst:.2e}")

    # Mellin inversion round trip, nu = 1..3
    worst = 0.0
    for nu in (1, 2, 3):
        for x in (0.5, 1.0, 2.0):
            got = specfun.invert_on_line(lambda s: specfun.w_nu(nu, s), x, 2.0, 200.0).real
            want = specfun.inc_gamma(nu, 2 * x) * math.exp(x)
            worst = max(worst, abs(got - want))
    check("Mellin line inversion", worst < 1e-6, f"worst abs {worst:.2e}")

    # character orthogonality and Gauss sums
    ok = True
    for q in (5, 8, 12):
        chars = characters.enumerate_characters(q)
        for i, c1 in enumerate(chars):
            for c2 in chars[i + 1 :]:
                tot = sum(c1(a) * np.conj(c2(a)) for a in range(q))
                ok = ok and abs(tot) < 1e-10
    check("character orthogonality", ok)
    ok = True
    for m in range(2, 13):
        for psi in characters.enumerate_characters(m):
            if psi.is_primitive:
                ok = ok and abs(abs(characters.gauss_sum(psi)) ** 2 - m) < 1e-9 * m
    check("Gauss sum modulus", ok)

    # cusp count vs dimension formula
    ok = True
    for n in range(1, 25):
        ok = ok and len(modgroup.cusps(n)) == eisenstein.dim_eisenstein(
            n, characters.trivial_character(n)
        )
    check("cusp count = Eisenstein dimension", ok)

    # operator identities on a random expansion
    from .forms import laplacian_op, lowering_op, raising_op, to_terms, xi_op

    ok = True
    for k in (-1, -2, -3):
        cp = rng.normal(size=7) + 1j * rng.normal(size=7)
        cm = rng.normal(size=6) + 1j * rng.normal(size=6)
        form = forms.FormExpansion(
            k, 1, characters.trivial_character(1), 1.0, 6, cp, complex(rng.normal()), cm
        )
        ts = to_terms(form)
        for _ in range(5):
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.4, 1.5))
            lhs = -laplacian_op(ts, k).eval(tau)
            rhs = lowering_op(raising_op(ts, k), k + 2).eval(tau) + k * ts.eval(tau)
            ok = ok and abs(lhs - rhs) < 1e-9
            sh = forms.shadow(form)
            ok = ok and abs(xi_op(ts, k).eval(tau) - sh.evaluate(tau)) < 1e-9
    check("operator identities", ok)

    # the evaluator against a plain loop over the terms, at Fricke-image
    # heights down to 0.02 and off the imaginary axis
    lift = eisenstein.harmonic_eisenstein_level_one(400)
    nu = 1 - lift.weight
    taus = [0.02j, 0.05j, 0.3j, 1.0j, 0.25 + 0.02j, -0.4 + 0.1j, 0.5 + 0.7j, 0.1 + 2.0j]
    got = forms.evaluate(lift, np.array(taus))
    worst = 0.0
    for tau, value in zip(taus, got):
        v = tau.imag
        terms = [lift.c_minus_zero * v**nu]
        for n in range(lift.n_max + 1):
            terms.append(lift.c_plus[n] * cmath.exp(2j * math.pi * n * tau))
        for m in range(1, lift.n_max + 1):
            gam = specfun.inc_gamma(nu, 4 * math.pi * m * v)
            if gam:
                terms.append(lift.c_minus[m - 1] * gam * cmath.exp(-2j * math.pi * m * tau))
        worst = max(worst, abs(value - sum(terms)) / sum(map(abs, terms)))
    check("evaluator vs term sum", worst < 1e-12, f"worst rel to sum |term| {worst:.2e}")

    # functional equation on the built-in reference pair + sensitivity
    ref = eisenstein.harmonic_eisenstein_level_one(40)
    grid = [complex(r, i) for r in (-1.0, 0.5) for i in (0.0, 1.5)]
    rep = lseries.fe_residuals(ref, ref, grid)
    check("reference functional equation", rep.max_residual < 1e-8,
          f"max residual {rep.max_residual:.2e}")
    cp = ref.c_plus.copy()
    cp[2] += 0.1
    bad = forms.FormExpansion(
        ref.weight, ref.level, ref.character, ref.alpha, ref.n_max,
        cp, ref.c_minus_zero, ref.c_minus,
    )
    rep_bad = lseries.fe_residuals(ref, bad, grid)
    check("perturbation sensitivity", rep_bad.max_residual > 1e-3,
          f"max residual {rep_bad.max_residual:.2e}")

    if failures:
        print(f"{failures} check(s) failed")
        return EXIT_VERIFICATION
    print("all checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="maassforms",
        description="harmonic Maass forms of polynomial growth: examples, "
        "operators, and functional-equation verification",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("example", help="construct a harmonic Eisenstein lift and write its JSON")
    ex.add_argument("--level", type=int, required=True)
    ex.add_argument("--weight", type=int, required=True)
    ex.add_argument("--cusp", default="inf")
    ex.add_argument("--character", default="triv")
    ex.add_argument("--nmax", type=int, required=True)
    ex.add_argument("--bound", type=int, default=60)
    ex.add_argument("--v0", type=float, default=None)
    ex.add_argument("--v1", type=float, default=None)
    ex.add_argument("--out", required=True)
    ex.set_defaults(func=cmd_example)

    vf = sub.add_parser("verify-fe", help="residuals of the completed-series functional equations")
    vf.add_argument("--f", required=True)
    vf.add_argument("--g", required=True)
    vf.add_argument("--psi", default=None, help="MODULUS:LABEL twisting character")
    vf.add_argument("--grid", default="-1:1:5,0:2:3")
    vf.add_argument("--tol", type=float, default=1e-4)
    vf.add_argument("--out", default=None)
    vf.set_defaults(func=cmd_verify_fe)

    for name, operator, what in (
        ("shadow", forms.shadow, "the shadow"),
        ("bol", forms.bol, "the iterated-derivative image"),
    ):
        qe = sub.add_parser(name, help=f"q-expansion of {what}")
        qe.add_argument("--in", dest="infile", required=True)
        qe.add_argument("--out", default=None)
        qe.set_defaults(func=cmd_q_expansion, operator=operator)

    tw = sub.add_parser("twist", help="coefficientwise character twist")
    tw.add_argument("--in", dest="infile", required=True)
    tw.add_argument("--psi", required=True)
    tw.add_argument("--out", required=True)
    tw.set_defaults(func=cmd_twist)

    ev = sub.add_parser("eval", help="evaluate a form at a point")
    ev.add_argument("--in", dest="infile", required=True)
    ev.add_argument("--tau", required=True)
    ev.set_defaults(func=cmd_eval)

    xt = sub.add_parser(
        "extract",
        help="recover (c+(n), c-(n)) from the evaluator",
        description="Recover (c+(n), c-(n)) of a stored form from its evaluator, "
        "by period integrals at the heights v0 = 1/(2 max(1, |n|)) and v1 = 2 v0, "
        "where mode n weighs e^{-pi} and e^{-2 pi}.  The heights and the samples "
        "per line are worked out from n and the form, and printed.",
    )
    xt.add_argument("--in", dest="infile", required=True)
    xt.add_argument("--n", type=int, required=True, help="the mode to read")
    xt.set_defaults(func=cmd_extract)

    cu = sub.add_parser("cusps", help="cusp data of Gamma_0(N) as JSON")
    cu.add_argument("--level", type=int, required=True)
    cu.add_argument("--character", default=None)
    cu.add_argument("--out", default=None)
    cu.set_defaults(func=cmd_cusps)

    dm = sub.add_parser("dim", help="dimension of the Eisenstein span")
    dm.add_argument("--level", type=int, required=True)
    dm.add_argument("--character", default="triv")
    dm.set_defaults(func=cmd_dim)

    sc = sub.add_parser("selfcheck", help="run the built-in property suite")
    sc.set_defaults(func=cmd_selfcheck)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (forms.IllConditionedError, specfun.QuadratureError) as exc:
        print(f"numerical conditioning error: {exc}", file=sys.stderr)
        return EXIT_CONDITIONING
    except ValueError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
