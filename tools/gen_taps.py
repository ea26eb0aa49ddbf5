"""Write the table of Daubechies low-pass taps, each correctly rounded to a double.

    python3 tools/gen_taps.py [--out PATH]

The taps follow the minimum-phase factorization of Daubechies, Ten Lectures
on Wavelets (1992), section 6.1, in 50-digit arithmetic. The float roots of
P_(m-1)(y) = sum_(j<m) C(m-1+j, j) y^j from np.roots are polished by Newton
steps at 50 digits until a step is below 1e-25 |y|, and each must leave
|P(y)| <= 1e-40. Each root y gives the reciprocal pair of zeros of
z^2 - (2 - 4y) z + 1, and the one inside the unit disk is kept. ((1+z)/2)^m times the product of the kept factors, scaled to 1 at
z = 1 and by sqrt 2, gives the taps, in the order of the published tables
(h(0) = (1+sqrt(3))/(4 sqrt(2)) for order 2). Each tap is rounded once, by
float(), and written by float.hex.

The output, src/wavebounds/daub_taps.txt by default, holds one line per order
m = 1..MAX_ORDER: m, then its 2m taps. tests/test_daub_filters.py checks every
committed tap against reference_taps.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from wavebounds.special_math import MAX_ORDER, p_coefficients  # noqa: E402

DIGITS = 50
ROOT_TOL = mp.mpf("1e-40")  # the largest |P_(m-1)(y)| a polished root may leave
MAX_NEWTON_STEPS = 50
OUT = Path(__file__).resolve().parents[1] / "src" / "wavebounds" / "daub_taps.txt"
HEADER = (
    "# Daubechies low-pass taps, written by tools/gen_taps.py: one line per order m,\n"
    "# then h(0..2m-1), each the correctly rounded double of the exact tap, in float.hex.\n"
)


def polished_roots(m: int) -> list:
    """The m-1 roots of P_(m-1)(y), polished at DIGITS digits; call inside mp.workdps(DIGITS).

    Raises ArithmeticError unless each root leaves |P(y)| <= ROOT_TOL and the
    m-1 roots are distinct.
    """
    coeffs = list(reversed(p_coefficients(m)))  # leading first
    deriv = [c * (m - 1 - i) for i, c in enumerate(coeffs[:-1])]
    settled = mp.mpf(10) ** (-DIGITS // 2)  # a step this small leaves y exact to DIGITS digits
    roots = []
    for start in np.roots(coeffs):
        y = mp.mpc(complex(start))
        for _ in range(MAX_NEWTON_STEPS):
            step = mp.polyval(coeffs, y) / mp.polyval(deriv, y)
            y -= step
            if abs(step) <= settled * abs(y):
                break
        if not abs(mp.polyval(coeffs, y)) <= ROOT_TOL:
            raise ArithmeticError(f"order {m}: Newton from {start} left |P(y)| > {ROOT_TOL}")
        roots.append(y)
    for i, y in enumerate(roots):
        if any(abs(y - other) <= mp.mpf("1e-10") for other in roots[:i]):
            raise ArithmeticError(f"order {m}: two starts polished to the same root {y}")
    return roots


def inside_zero(y):
    """The zero inside the unit disk of z^2 - (2 - 4y) z + 1, whose two zeros are reciprocal.

    The larger-modulus zero, (1-2y) +/- 2 sqrt(y(y-1)) with the sign that
    adds, is formed without cancellation and inverted.
    """
    a, b = 1 - 2 * y, 2 * mp.sqrt(y * (y - 1))
    return 1 / (a + b if abs(a + b) >= abs(a - b) else a - b)


def taps_from_zeros(m: int, zeros: list) -> list:
    """The 2m taps h(0..2m-1) from the m-1 kept zeros; call inside mp.workdps(DIGITS)."""
    factor = [mp.mpc(1)]  # prod (z - z_k) over the kept zeros, increasing powers
    for z in zeros:
        factor = [-z * factor[0]] + [lo - z * hi for lo, hi in zip(factor, factor[1:])] + [factor[-1]]
    total = mp.fsum(factor)
    lowpass = [mp.binomial(m, j) / mp.mpf(2) ** m for j in range(m + 1)]
    coeffs = [
        mp.fsum(lowpass[i] * factor[n - i] for i in range(m + 1) if 0 <= n - i < m)
        for n in range(2 * m)
    ]
    return [(mp.sqrt(2) * c / total).real for c in reversed(coeffs)]


def reference_taps(m: int) -> list:
    """The 2m taps h(0..2m-1) of order m as DIGITS-digit mpf values."""
    with mp.workdps(DIGITS):
        return taps_from_zeros(m, [inside_zero(y) for y in polished_roots(m)])


def table_text() -> str:
    lines = [HEADER]
    for m in range(1, MAX_ORDER + 1):
        lines.append(" ".join([str(m)] + [float(t).hex() for t in reference_taps(m)]) + "\n")
    return "".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=OUT)
    args = parser.parse_args(argv)
    args.out.write_text(table_text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
