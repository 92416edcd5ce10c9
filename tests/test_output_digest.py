"""tools/output_digest.py: its canonical text changes with every bit of an
output, so two checkouts that print the same digests gave the same bits.
Every bit-for-bit claim about a change rests on this."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from maassforms.lseries import ResidualReport

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"
_spec = importlib.util.spec_from_file_location("output_digest", _TOOL)
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)
canonical = output_digest.canonical

X = 0.1 + 0.7  # 0.7999999999999999, one ulp below 0.8
# pairs of floats that compare equal or nearly so: each must read apart
FLOAT_PAIRS = [(0.0, -0.0), (X, 0.8), (X, math.nextafter(X, math.inf)), (1e-300, 1e-300 * (1 + 2**-52))]


def report(residual: float, s: complex) -> ResidualReport:
    return ResidualReport(grid=[s], lambda_residuals=[residual], omega_residuals=[0.5],
                          quadrature_T=4.0, tail_bound=1e-20)


@pytest.mark.parametrize("a, b", FLOAT_PAIRS)
def test_a_float_an_array_and_a_report_separate_signed_zeros_and_one_ulp(a, b):
    assert canonical(a) != canonical(b)
    assert canonical(np.array([1.0, a])) != canonical(np.array([1.0, b]))
    assert canonical(report(a, 0.5 + 1j)) != canonical(report(b, 0.5 + 1j))
    assert canonical(report(1.0, complex(a, 1.0))) != canonical(report(1.0, complex(b, 1.0)))


@pytest.mark.parametrize("a, b", FLOAT_PAIRS)
def test_each_part_of_a_complex_number_counts(a, b):
    for z, w in ((complex(a, 1.0), complex(b, 1.0)), (complex(1.0, a), complex(1.0, b))):
        assert canonical(z) != canonical(w)
        assert canonical(np.array([z])) != canonical(np.array([w]))


def test_the_two_parts_of_a_complex_number_do_not_swap():
    z, w = complex(0.25, 0.5), complex(0.5, 0.25)
    assert canonical(z) != canonical(w)
    assert canonical(np.array([z, 1j])) != canonical(np.array([w, 1j]))
    assert canonical(report(1.0, z)) != canonical(report(1.0, w))


def test_equal_bits_give_equal_text():
    assert canonical(0.1 + 0.2) == canonical(0.30000000000000004)
    assert canonical(np.array([X, -0.0])) == canonical(np.array([X, -0.0]))
    assert canonical(report(X, 0.5 - 0.0j)) == canonical(report(X, 0.5 - 0.0j))
