"""Small exact univariate polynomial toolkit.

Coefficient lists are dense, ascending in degree, over Fraction; degrees stay
tiny.  The rank-two equivalence rule for omega = 0 reads the rational roots
of its sextic off one Sturm chain of the squarefree part, with no search
bound: a rational root's denominator divides the primitive leading
coefficient L, so every rational root lies on the lattice (1 / L) Z, and an
interval narrower than 1 / |L| holds at most one lattice point, the one
candidate tested exactly.  The flat orbit screen reads its binary cubic's
root pattern off closed forms.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import ZERO, ONE, clear_denominators

Poly = list[Fraction]


def ptrim(p: Poly) -> Poly:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def pdeg(p: Poly) -> int:
    p = ptrim(p)
    return len(p) - 1 if p else -1


def padd(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return ptrim([(p[i] if i < len(p) else ZERO) + (q[i] if i < len(q) else ZERO) for i in range(n)])


def pscale(p: Poly, c: Fraction) -> Poly:
    return ptrim([c * x for x in p])


def pmul(p: Poly, q: Poly) -> Poly:
    p, q = ptrim(p), ptrim(q)
    if not p or not q:
        return []
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return ptrim(out)


def pdivmod(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    p, q = ptrim(p), ptrim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quo = [ZERO] * max(0, len(p) - len(q) + 1)
    rem = list(p)
    while len(rem) >= len(q) and ptrim(rem):
        shift = len(rem) - len(q)
        factor = rem[-1] / q[-1]
        quo[shift] = factor
        for i, b in enumerate(q):
            rem[shift + i] -= factor * b
        rem = rem[:-1]
    return ptrim(quo), ptrim(rem)


def pmonic(p: Poly) -> Poly:
    p = ptrim(p)
    if not p:
        return []
    lead = p[-1]
    return [x / lead for x in p]


def pgcd(p: Poly, q: Poly) -> Poly:
    p, q = ptrim(p), ptrim(q)
    while q:
        _, r = pdivmod(p, q)
        p, q = q, r
    return pmonic(p)


def pderiv(p: Poly) -> Poly:
    return ptrim([Fraction(i) * p[i] for i in range(1, len(p))])


def interpolate(points: list[tuple[Fraction, Fraction]]) -> Poly:
    """Lagrange interpolation through distinct exact nodes."""
    result: Poly = []
    for i, (xi, yi) in enumerate(points):
        term = [yi]
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            term = pscale(pmul(term, [-xj, ONE]), 1 / (xi - xj))
        result = padd(result, term)
    return result


def _sturm_chain(p: Poly) -> list[list[int]]:
    """The Sturm chain of the squarefree part of ``p`` (degree >= 1), each
    member scaled by a positive rational to coprime integers."""
    g = pgcd(p, pderiv(p))
    if pdeg(g) >= 1:
        p, _ = pdivmod(p, g)  # the squarefree part carries the same distinct roots
    chain = [p, pderiv(p)]
    while pdeg(chain[-1]) > 0:
        _, rem = pdivmod(chain[-2], chain[-1])
        chain.append(pscale(rem, -ONE))
    out = []
    for c in chain:
        ints, _ = clear_denominators(c)
        g = math.gcd(*ints)
        out.append([x // g for x in ints])
    return out


def _scaled_value(c: list[int], x: Fraction) -> int:
    """d^k c(n / d) for x = n / d and k = deg c: an integer of the sign of c(x)."""
    n, d = x.numerator, x.denominator
    acc, dk = 0, 1
    for coeff in reversed(c):
        acc = acc * n + coeff * dk
        dk *= d
    return acc


def _variations(chain: list[list[int]], x: Fraction) -> int:
    """Sign changes along the chain at x, zeros dropped.  By Sturm's theorem
    V(lo) - V(hi) is the number of distinct roots in (lo, hi], also when lo or
    hi is a root."""
    signs = [v > 0 for v in (_scaled_value(c, x) for c in chain) if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _root_bound(c: list[int]) -> Fraction:
    """An integer B with every real root of ``c`` in (-B, B) (Cauchy)."""
    return Fraction(2 + max(map(abs, c[:-1])) // abs(c[-1]))


def _isolate(chain: list[list[int]], width: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Intervals (lo, hi] narrower than ``width``, each holding exactly one
    real root of the chain's first member, found by bisection."""
    bound = _root_bound(chain[0])
    stack = [(-bound, bound, _variations(chain, -bound), _variations(chain, bound))]
    out = []
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        if v_lo - v_hi == 1 and hi - lo < width:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        v_mid = _variations(chain, mid)
        stack += [(mid, hi, v_mid, v_hi), (lo, mid, v_lo, v_mid)]
    return out


def rational_roots(p: Poly) -> list[tuple[Fraction, int]]:
    """All rational roots with multiplicities, ordered by (|numerator|,
    denominator), the positive one first, so zero comes first.

    Each real root of the squarefree part is isolated in an interval
    (lo, hi] narrower than 1 / |L|, and the one lattice point floor(hi L) / L
    in it, if any, is tested exactly (see the module docstring); zero lies on
    that lattice like any other root.
    """
    p = ptrim(p)
    if not p:
        raise ValueError("zero polynomial has every root")
    if pdeg(p) < 1:
        return []
    chain = _sturm_chain(p)
    lead = abs(chain[0][-1])
    found = []
    for lo, hi in _isolate(chain, Fraction(1, lead)):
        x = Fraction(math.floor(hi * lead), lead)
        if x > lo and _scaled_value(chain[0], x) == 0:
            found.append(x)
    roots = []
    for x in sorted(found, key=lambda x: (abs(x.numerator), x.denominator, x < 0)):
        mult = 0
        while True:
            quo, rem = pdivmod(p, [-x, ONE])
            if rem:
                break
            p, mult = quo, mult + 1
        roots.append((x, mult))
    return roots


def count_real_roots(p: Poly) -> int:
    """Number of distinct real roots, by Sturm's theorem."""
    p = ptrim(p)
    if pdeg(p) < 1:
        return 0
    chain = _sturm_chain(p)
    bound = _root_bound(chain[0])
    return _variations(chain, -bound) - _variations(chain, bound)


def binary_cubic_pattern(cubic: tuple[Fraction, Fraction, Fraction, Fraction]) -> str:
    """Root-multiplicity pattern of a binary cubic given by its coefficients.

    ``cubic`` holds the coefficients of X^3, X^2 Y, X Y^2, Y^3.  A root is a
    direction in the projective line over the reals, so a root at infinity
    of either dehomogenization counts too.  Patterns:

    - "zero"          identically zero
    - "triple"        one direction of multiplicity 3
    - "double_simple" multiplicities [2, 1]
    - "three_simple"  three distinct real directions
    - "one_real"      one real direction plus a complex pair

    The sign of the discriminant separates three real directions, a complex
    pair and a repeated direction; a repeated one is triple exactly when the
    Hessian vanishes, which makes the cubic the cube of a linear form.
    Scaling the cubic by a positive factor changes neither, so the cubic may
    be given by integer numerators over a common denominator, which keeps
    the test on integers; rational coefficients work as they are.
    """
    a, b, c, d = cubic
    if a == b == c == d == 0:
        return "zero"
    disc = b * b * c * c - 4 * a * c ** 3 - 4 * b ** 3 * d - 27 * a * a * d * d + 18 * a * b * c * d
    if disc > 0:
        return "three_simple"
    if disc < 0:
        return "one_real"
    if b * b == 3 * a * c and b * c == 9 * a * d and c * c == 3 * b * d:
        return "triple"
    return "double_simple"
