"""Command-line front end.

Exit codes: 0 success, 2 usage (bad flag values), 3 semantic precondition
(e.g. character parity vs weight), 4 numerical conditioning failure,
5 verification failure (the computation ran; the checked property fails the
tolerance).  All file output is UTF-8 JSON/CSV written atomically, numbers
with 17 significant digits so values round-trip bit-exactly.

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
                   (tail_bound is the dropped [T, inf) Mellin integrand of
                   f's pair, the twisted pair when --psi is given)

Grid SPEC for verify-fe: "re0:re1:steps,im0:im1:steps" (inclusive rectangular
grid); points at the four poles of the completed series are excluded with a
notice.
"""

from __future__ import annotations

import argparse
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
    cs = modgroup.cusps(level)
    for c in cs:
        if c.label() == repr_str or (repr_str in ("inf", "oo", "infinity") and c.is_infinity):
            return c
    # accept any a/c string, or a bare integer a as a/1, and reduce it to a
    # representative
    if "/" in repr_str or repr_str.lstrip("-").isdigit():
        a_str, _, c_str = repr_str.partition("/")
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
            samples=args.samples,
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
        # twisted continuation runs at level N m^2; the balanced Mellin and
        # form-truncation tails meet at e^{-2 pi sqrt(n_max) / (m sqrt N)},
        # which is the attainable residual floor for this expansion length
        big = form_f.level * psi.modulus**2
        floor = math.exp(-2.0 * math.pi * math.sqrt(form_f.n_max) / math.sqrt(big))
        print(f"truncation floor for n_max = {form_f.n_max} at level {big}: ~{floor:.1e}")
        if floor > args.tol:
            print(
                "notice: the floor exceeds the tolerance; residuals cannot "
                "certify the pair at this expansion length"
            )
    # the default T trusts n_max, so a zero-padded form overshoots it
    for side, form in (("f", form_f), ("g", form_g)):
        last = max(np.flatnonzero((form.c_plus[1:] != 0) | (form.c_minus != 0)) + 1, default=0)
        if last < form.n_max / 2:
            print(
                f"notice: the last nonzero coefficient of {side} is at n = {last}, below n_max/2 "
                f"(n_max = {form.n_max}); the default T = max(4, sqrt({form_f.n_max})) = "
                f"{max(4.0, math.sqrt(form_f.n_max)):.4g} assumes the full length"
            )
    report = lseries.fe_residuals(form_f, form_g, grid, T=args.T, psi=psi)
    if report.excluded:
        print(f"notice: excluded pole points {[_fmt(s) for s in report.excluded]}")
    if not report.grid:
        _fail("--grid leaves no point to check once the poles are excluded", EXIT_USAGE)
    if args.out:
        forms.atomic_write(args.out, report.to_csv())
        print(f"wrote {args.out}")
    print(f"max residual: {report.max_residual:.6e} (tolerance {args.tol:g})")
    if report.max_residual > args.tol:
        print("FAIL: functional equation residual above tolerance")
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
    if tau.imag <= 0:
        _fail("tau must lie in the upper half-plane", EXIT_PRECONDITION)
    value = forms.evaluate(form, tau)
    tail = forms.evaluate_tail_bound(form, tau.imag)
    print(f"f({_fmt(tau)}) = {_fmt(value)}")
    print(f"truncation tail bound: {tail:.3e}")
    return EXIT_OK


def cmd_extract(args) -> int:
    form = forms.load_form(args.infile)
    try:
        cp, cm = forms.extract_coefficients(
            forms.to_terms(form).eval, form.weight, 1.0, 0.0, args.n, args.v0, args.v1, args.samples
        )
    except forms.IllConditionedError as exc:
        _fail(str(exc), EXIT_CONDITIONING)
    print(f"c+({args.n}) = {_fmt(cp)}")
    print(f"c-({args.n}) = {_fmt(cm)}")
    return EXIT_OK


def cmd_cusps(args) -> int:
    chi = _parse_character(args.level, args.character) if args.character else None
    cs = modgroup.cusps(args.level, chi)
    payload = {
        "N": args.level,
        "cusps": [
            {
                "repr": c.label(),
                "width": c.width,
                "kappa": c.kappa,
                "scaling": [
                    [int(c.scaling.a), int(c.scaling.b)],
                    [int(c.scaling.c), int(c.scaling.d)],
                ],
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
    ex.add_argument("--samples", type=int, default=256)
    ex.add_argument("--out", required=True)
    ex.set_defaults(func=cmd_example)

    vf = sub.add_parser("verify-fe", help="residuals of the completed-series functional equations")
    vf.add_argument("--f", required=True)
    vf.add_argument("--g", required=True)
    vf.add_argument("--psi", default=None, help="MODULUS:LABEL twisting character")
    vf.add_argument("--grid", default="-1:1:5,0:2:3")
    vf.add_argument("--tol", type=float, default=1e-4)
    vf.add_argument("--T", type=float, default=None)
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

    xt = sub.add_parser("extract", help="recover (c+(n), c-(n)) from the evaluator")
    xt.add_argument("--in", dest="infile", required=True)
    xt.add_argument("--n", type=int, required=True)
    xt.add_argument("--v0", type=float, default=0.4)
    xt.add_argument("--v1", type=float, default=0.8)
    xt.add_argument("--samples", type=int, default=256)
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
