"""Closed-form completed L-series of the level-one harmonic Eisenstein lift,
in mpmath at 30 digits; nothing here reads maassforms.

The lift has weight k = -2, c+(n) = A sigma_3(n) / n^3 and
c-(-n) = (A/2) sigma_3(n) / n^3 with A = -15 / (2 pi^3), so both Dirichlet
series are multiples of zeta(s) zeta(s+3), and with
W_3(s) = 2 Gamma(s) + 4 Gamma(s+1) + 4 Gamma(s+2)

    Lambda_1(s) = (2 pi)^{-s} A zeta(s) zeta(s+3) [Gamma(s) + W_3(s)/2],
    Xi_1(s)     = (2 pi)^{-s} A zeta(s) zeta(s+3) [Gamma(s+1) - W_3(s+1)/2],
    Omega_1(s)  = -2 Xi_1(s) + k Lambda_1(s).

A twist by a quadratic psi mod q multiplies c+(n) by psi(n) and c-(-n) by
psi(-n): zeta becomes L(s, psi) = q^{-s} sum_a psi(a) zeta(s, a/q), the
level q^2 turns (2 pi)^{-s} into (q / 2 pi)^s, and W_3/2 becomes
psi(-1) W_3/2.  The oldform pair (f, g) of level N read from the lift
(tests/helpers.oldform_pair) has Lambda_N(f, s) = N^{s/2} Lambda_1(s) and
Lambda_N(g, s) = N^{(k-s)/2} Lambda_1(s), and likewise for Omega.  On the
imaginary axis the lift truncated at n_max reads, past its constant terms,

    f(i t) - c+(0) - c-(0) t^3
        = A sum_{n <= n_max} sigma_3(n) / n^3 [e^{-2 pi n t} + Gamma(3, 4 pi n t) e^{2 pi n t} / 2].
"""

from functools import lru_cache

import mpmath

WEIGHT = -2
DPS = 30


def quadratic_values(q: int) -> tuple[int, ...]:
    """psi(0), ..., psi(q - 1) of the quadratic character mod 4 or mod an odd
    prime q (Euler's criterion)."""
    if q == 4:
        return (0, 1, 0, -1)
    return tuple(0 if a == 0 else (1 if pow(a, (q - 1) // 2, q) == 1 else -1) for a in range(q))


@lru_cache(maxsize=None)
def lift_lambda_omega(s: complex, psi: tuple[int, ...] = (1,)) -> tuple[complex, complex]:
    """(Lambda, Omega) at s of the lift twisted by psi, given as its values
    psi(0..q-1); the default (1,) is the lift itself at level 1."""
    q = len(psi)
    with mpmath.workdps(DPS):
        s = mpmath.mpc(s)

        def l_series(w):
            if q == 1:
                return mpmath.zeta(w)
            return mpmath.power(q, -w) * mpmath.fsum(
                psi[a] * mpmath.zeta(w, mpmath.mpf(a) / q) for a in range(1, q) if psi[a]
            )

        def w3(z):
            return 2 * mpmath.gamma(z) + 4 * mpmath.gamma(z + 1) + 4 * mpmath.gamma(z + 2)

        a = -15 / (2 * mpmath.pi ** 3)
        front = mpmath.power(q / (2 * mpmath.pi), s) * a * l_series(s) * l_series(s + 3)
        lam = front * (mpmath.gamma(s) + psi[-1] * w3(s) / 2)
        xi = front * (mpmath.gamma(s + 1) - psi[-1] * w3(s + 1) / 2)
        return complex(lam), complex(-2 * xi + WEIGHT * lam)


def oldform_lambda_omega(level: int, side: str, s: complex) -> tuple[complex, complex]:
    """(Lambda_N, Omega_N) at s of the f or g side of the level-N oldform
    pair: the lift's values times N^{s/2} or N^{(k-s)/2}."""
    scale = complex(mpmath.power(level, (s if side == "f" else WEIGHT - s) / 2))
    return tuple(scale * v for v in lift_lambda_omega(complex(s)))


def lift_axis_value(t: float, n_max: int) -> float:
    """f(i t) - c+(0) - c-(0) t^3 of the lift truncated at n_max."""
    with mpmath.workdps(DPS):
        t = mpmath.mpf(t)
        total = mpmath.fsum(
            sum(d ** 3 for d in range(1, n + 1) if n % d == 0) / mpmath.mpf(n) ** 3
            * (mpmath.exp(-2 * mpmath.pi * n * t)
               + mpmath.gammainc(3, 4 * mpmath.pi * n * t) * mpmath.exp(2 * mpmath.pi * n * t) / 2)
            for n in range(1, n_max + 1)
        )
        return float(-15 / (2 * mpmath.pi ** 3) * total)
