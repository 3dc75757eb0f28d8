"""Independent exact reference for checking the program's answers.

Nothing here imports ``affinestrata``: the pullback, Ricci tensors, the
catalog formulas and the family parametrizations are written out again in
tensor form, so a defect in the program cannot also hide in the check.

Coefficients are ordered G_11^1, G_11^2, G_12^1, G_12^2, G_22^1, G_22^2.
"""

from __future__ import annotations

import math
from fractions import Fraction

ONE = Fraction(1)
ZERO = Fraction(0)

# (k, i, j) index of each coefficient slot, 0-based
_SLOTS = ((0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1))


def _integral(values) -> tuple[list[int], int]:
    """Integers n_i and a common denominator d with values = n / d."""
    fracs = [Fraction(v) for v in values]
    d = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (d // f.denominator) for f in fracs], d


def _tensor(ints):
    g = [[[0, 0], [0, 0]] for _ in range(2)]
    for value, (k, i, j) in zip(ints, _SLOTS):
        g[k][i][j] = g[k][j][i] = value
    return g


def pullback(coeffs, t) -> tuple:
    """Coefficients of the same connection in coordinates y = T x:
    G'^k_ij = T^k_c G^c_ab S^a_i S^b_j with S = T^-1.  The 1/x1 profile of a
    Type B model is preserved by shears, so this serves both types.

    Computed on integers: with G = g / dg and T = u / du, S = adj(u) du / det(u),
    so G' = du / (dg det(u)^2) * u g(adj u, adj u)."""
    g, dg = _integral(coeffs)
    (u00, u01, u10, u11), du = _integral((t[0][0], t[0][1], t[1][0], t[1][1]))
    det = u00 * u11 - u01 * u10
    if det == 0:
        raise ZeroDivisionError("singular matrix")
    u = ((u00, u01), (u10, u11))
    adj = ((u11, -u01), (-u10, u00))
    g = _tensor(g)
    # h^c_ij = g^c_ab adj^a_i adj^b_j, contracted one index at a time
    half = [[[sum(g[c][a][b] * adj[b][j] for b in range(2)) for j in range(2)] for a in range(2)] for c in range(2)]
    h = [[[sum(adj[a][i] * half[c][a][j] for a in range(2)) for j in range(2)] for i in range(2)] for c in range(2)]
    den = dg * det * det
    return tuple(Fraction(du * (u[k][0] * h[0][i][j] + u[k][1] * h[1][i][j]), den) for k, i, j in _SLOTS)


def _ricci(coeffs, profile: bool):
    """d^2 rho for G = g / d with constant coefficients, or d^2 (x1)^2 rho
    for the 1/x1 profile, where d_i G = -delta_i1 G / x1 adds the terms
    linear in g:  rho_jk = [-g^1_jk + delta_j1 g^i_ik] d + g^m_jk g^i_im - g^m_ik g^i_jm."""
    ints, d = _integral(coeffs)
    g = _tensor(ints)
    rows = []
    for j in range(2):
        row = []
        for k in range(2):
            value = sum(g[m][j][k] * g[i][i][m] - g[m][i][k] * g[i][j][m] for i in range(2) for m in range(2))
            if profile:
                value += d * (-g[0][j][k] + (g[0][0][k] + g[1][1][k] if j == 0 else 0))
            row.append(value)
        rows.append(tuple(row))
    return tuple(rows), d


def ricci_a(coeffs):
    rows, d = _ricci(coeffs, profile=False)
    return tuple(tuple(Fraction(x, d * d) for x in row) for row in rows)


def ricci_b(coeffs):
    """(x1)^2 rho of the 1/x1-profile model."""
    rows, d = _ricci(coeffs, profile=True)
    return tuple(tuple(Fraction(x, d * d) for x in row) for row in rows)


def sym_rank(r) -> int:
    """Rank of the symmetric part of a 2x2 matrix (scaled by 2, so integer
    input stays integer)."""
    s11, s22 = 2 * r[0][0], 2 * r[1][1]
    s12 = r[0][1] + r[1][0]
    if s11 == s12 == s22 == 0:
        return 0
    return 1 if s11 * s22 == s12 * s12 else 2


def b_stratum(coeffs) -> str:
    """The classify report's stratum kind for a Type B model."""
    r, _ = _ricci(coeffs, profile=True)
    if all(x == 0 for row in r for x in row):
        return "flat_families"
    if sym_rank(r) == 0:
        return "alternating_families"
    return "unstratified"


def a_stratum(coeffs) -> str:
    if all(x == 0 for x in coeffs):
        return "cone_point"
    rank = sym_rank(_ricci(coeffs, profile=False)[0])
    return ("flat_chart", "rank1", "rank2")[rank]


# -- catalog ----------------------------------------------------------------

FLAT_A = {
    "M0_0": (0, 0, 0, 0, 0, 0),
    "M1_0": (1, 0, 0, 1, 0, 0),
    "M2_0": (-1, 0, 0, 0, 0, 1),
    "M3_0": (0, 0, 0, 0, 0, 1),
    "M4_0": (0, 0, 0, 0, 1, 0),
    "M5_0": (1, 0, 0, 1, -1, 0),
}

RANK1_FAMILIES = ("M1_1", "M2_1", "M3_1", "M4_1", "M5_1")


def rank1_model(family: str, params) -> tuple:
    if family == "M1_1":
        return (-1, 0, 1, 0, 0, 2)
    (p,) = params
    if family == "M2_1":
        return (-1, 0, p, 0, 0, 1 + 2 * p)
    if family == "M3_1":
        return (0, 0, p, 0, 0, 1 + 2 * p)
    if family == "M4_1":
        return (0, 0, 1, 0, p, 2)
    if family == "M5_1":
        return (1, 0, 0, 0, 1 + p * p, 2 * p)
    raise KeyError(family)


def catalog_model(entry_id: str, params=()) -> tuple:
    if entry_id in FLAT_A:
        return tuple(Fraction(x) for x in FLAT_A[entry_id])
    return tuple(Fraction(x) for x in rank1_model(entry_id, params))


def rank1_key(family: str, params) -> tuple:
    """The canonical representative of a rank-one family point: the
    parameter identifications c1 ~ -1 - c1 (M2_1), c ~ -c (M5_1) and
    c ~ 1 for c != 0 (M4_1) are real orbit symmetries of the families."""
    if family == "M1_1":
        return ()
    (p,) = params
    if family == "M2_1":
        return (max(p, -1 - p),)
    if family == "M4_1":
        return (ZERO if p == 0 else ONE,)
    if family == "M5_1":
        return (abs(p),)
    return (p,)


# -- Type B family parametrizations -----------------------------------------


def u_family(name: str, params) -> tuple:
    x, y = params
    if name == "U1":
        head = 1 + x * y * y
        return (head, -y * head, x * y, -x * y * y, x, -x * y)
    if name == "U2":
        return (x, y, ZERO, ZERO, ZERO, ZERO)
    if name == "U3":
        return (x, y, ZERO, 1 + x, ZERO, ZERO)
    raise KeyError(name)


def v_family(name: str, params) -> tuple:
    x, y, z = params
    if name == "V1":
        return (y, z, x, ZERO, ZERO, x)
    if name == "V2":
        return (1 - 2 * x * z + y * z * z, z * (1 - x * z + y * z * z), x - y * z, -y * z * z, y, x + y * z)
    raise KeyError(name)


# classify's membership label for each family; the parameters are recovered
# unchanged
B_MEMBERSHIP = {"U1": "B1", "U2": "B2", "U3": "B3", "V1": "D1", "V2": "D2"}
