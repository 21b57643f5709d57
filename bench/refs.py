"""Reference computations the benchmark checks enorbits against.

Nothing here imports enorbits.  Labels are plain pairs ``(parts, q)`` with
``parts`` a nonincreasing tuple, matrices are lists of rows of ints or
Fractions, and every formula is written from its definition:

- a marker ``q`` is 0 or a running total ``d_1 + ... + d_j`` of the
  multiplicities of the distinct parts, so a partition with ``r`` distinct
  parts carries ``r + 1`` labels;
- the k-th enhanced number of ``lam[q]`` is ``lam_1 + ... + lam_k`` plus
  ``lam_{k+1}``, less one when ``k + 1 <= q``;
- ``lo <= up`` in the closure order when ``lo`` is dominated by ``up`` and
  every enhanced number of ``lo`` is at most the one of ``up``;
- the orbit of ``lam[q]`` has dimension ``n^2 - sum (lam^t_i)^2 + n - q``;
- there are ``p^(n^2 - n)`` nilpotent n x n matrices over F_p
  (Fine and Herstein, 1958).
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction


# --- partitions and labels --------------------------------------------


def partitions(n):
    """Every partition of n as a nonincreasing tuple, largest first."""
    out = []

    def grow(prefix, rest, cap):
        if rest == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(rest, cap), 0, -1):
            grow(prefix + [part], rest - part, part)

    grow([], n, n)
    return out


def transpose(parts):
    return tuple(sum(1 for a in parts if a > i) for i in range(parts[0] if parts else 0))


def markers(parts):
    """0 and the running totals of the multiplicities of the distinct parts."""
    out = [0]
    for i in range(1, len(parts) + 1):
        if i == len(parts) or parts[i] != parts[i - 1]:
            out.append(i)
    return out


def labels(n):
    return [(parts, q) for parts in partitions(n) for q in markers(parts)]


def label_count(n):
    """Sum over the partitions of n of (number of distinct parts + 1)."""
    return sum(len(set(parts)) + 1 for parts in partitions(n))


def label_text(label):
    parts, q = label
    return ",".join(map(str, parts)) + f"[{q}]"


def enhanced_numbers(label):
    parts, q = label
    n = sum(parts)
    padded = list(parts) + [0] * (n + 1 - len(parts))
    return tuple(
        sum(padded[:k]) + padded[k] - (1 if k + 1 <= q else 0) for k in range(n + 1)
    )


def dominated(mu, lam):
    """Every prefix sum of mu is at most the one of lam."""
    s_mu = s_lam = 0
    for a, b in itertools.zip_longest(mu, lam, fillvalue=0):
        s_mu += a
        s_lam += b
        if s_mu > s_lam:
            return False
    return True


def order_leq(lo, up):
    return dominated(lo[0], up[0]) and all(
        a <= b for a, b in zip(enhanced_numbers(lo), enhanced_numbers(up))
    )


def nilpotent_orbit_dim(parts):
    """Dimension of the conjugation orbit of type parts: n^2 - sum (lam^t_i)^2."""
    n = sum(parts)
    return n * n - sum(c * c for c in transpose(parts))


def orbit_dim(label):
    parts, q = label
    return nilpotent_orbit_dim(parts) + sum(parts) - q


# --- counts over F_p ---------------------------------------------------


def gl_order(n, p):
    out = 1
    for i in range(n):
        out *= p ** n - p ** i
    return out


def nilpotent_count(n, p):
    return p ** (n * n - n)


def matmul_mod(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def brute_nilpotent_count(n, p):
    """Count nilpotent matrices by enumeration: X^n = 0."""
    count = 0
    for digits in itertools.product(range(p), repeat=n * n):
        x = [list(digits[i * n:(i + 1) * n]) for i in range(n)]
        power = x
        for _ in range(n - 1):
            power = matmul_mod(power, x, p)
        count += all(e == 0 for row in power for e in row)
    return count


# --- exact matrices ----------------------------------------------------


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def matvec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def jordan_pair(label):
    """(J_lam, u_q): superdiagonal Jordan blocks in the order of the parts,
    and u_q the last basis vector of block q + 1 (zero when q is the number
    of parts).  J maps each block's last basis vector down its chain, so
    u_q generates block q + 1."""
    parts, q = label
    n = sum(parts)
    x = [[0] * n for _ in range(n)]
    starts = [sum(parts[:i]) for i in range(len(parts))]
    for start, a in zip(starts, parts):
        for i in range(a - 1):
            x[start + i][start + i + 1] = 1
    u = [0] * n
    if q < len(parts):
        u[starts[q] + parts[q] - 1] = 1
    return x, u


def shears(rng, n, count):
    """``count`` seeded elementary shears (i, j, c): I + c E_ij, i != j,
    c = +-1."""
    out = []
    while len(out) < count:
        i, j = rng.randrange(n), rng.randrange(n)
        c = rng.choice((-1, 1))
        if i != j:
            out.append((i, j, c))
    return out


def shear_product(n, ops, p=None):
    """The product of the shears and its inverse, in exact integers (mod p
    when p is given).  (I + c E_ij)^-1 = I - c E_ij, so the inverse is the
    product of the inverted shears in reverse order."""
    g, g_inv = identity(n), identity(n)
    for i, j, c in ops:
        step = identity(n)
        step[i][j] = c
        inverse = identity(n)
        inverse[i][j] = -c
        g = matmul(g, step)
        g_inv = matmul(inverse, g_inv)
    if p is not None:
        g = [[e % p for e in row] for row in g]
        g_inv = [[e % p for e in row] for row in g_inv]
    return g, g_inv


def moved_pair(label, rng, p=None):
    """A seeded element of the orbit of ``label``: (g J g^-1, g u + X' v)
    with v in [-2, 2]^n.

    Over F_p, g is a product of n seeded shears.  Over Q, g = S U: U is a
    product of n shears fixed by the label alone, and S a seeded diagonal
    sign matrix of determinant 1 (itself a product of shears).  Conjugating
    by S only flips signs, and elimination meets the same numbers up to
    sign, so over Q every seed gives the classifiers the same arithmetic
    to do, apart from what v changes.
    """
    x, u = jordan_pair(label)
    n = len(x)
    if p is None:
        g, g_inv = shear_product(n, shears(random.Random(label_text(label)), n, n))
        signs = [rng.choice((-1, 1)) for _ in range(n)]
        signs[0] *= math.prod(signs)  # determinant 1
        g = [[s * e for e in row] for s, row in zip(signs, g)]
        g_inv = [[e * s for e, s in zip(row, signs)] for row in g_inv]
    else:
        g, g_inv = shear_product(n, shears(rng, n, n), p)
    x2 = matmul(matmul(g, x), g_inv)
    v = [rng.randint(-2, 2) for _ in range(n)]
    w2 = [a + b for a, b in zip(matvec(g, u), matvec(x2, v))]
    if p is not None:
        x2 = [[e % p for e in row] for row in x2]
        w2 = [e % p for e in w2]
    return x2, w2


# --- GL_2 on binary quadratic forms ------------------------------------
# A form is a coefficient triple (c0, c1, c2) of c0 x^2 + c1 xy + c2 y^2,
# with x = e_1 and y = e_2, so a matrix [[a, b], [c, d]] sends x to
# a x + c y and y to b x + d y.

GL2_REPRESENTATIVES = {
    "O1": ([[0, 0], [0, 0]], (0, 0, 0)),
    "O2": ([[0, 0], [0, 0]], (0, 0, 1)),
    "O3": ([[0, 0], [0, 0]], (1, 0, 1)),
    "O4": ([[0, 1], [0, 0]], (0, 0, 0)),
    "O5": ([[0, 1], [0, 0]], (0, 0, 1)),
}


def _linear_images(m):
    (a, b), (c, d) = m
    return (a, c), (b, d)  # images of x and of y as (coeff of x, coeff of y)


def _times(f, g):
    """Product of two linear forms as a quadratic coefficient triple."""
    return (f[0] * g[0], f[0] * g[1] + f[1] * g[0], f[1] * g[1])


def _combine(terms):
    return tuple(sum(t[i] for t in terms) for i in range(3))


def sym2_group(g, form):
    """g acting on a form by substituting x -> g x and y -> g y."""
    gx, gy = _linear_images(g)
    c0, c1, c2 = form
    return _combine(
        [tuple(c0 * e for e in _times(gx, gx)),
         tuple(c1 * e for e in _times(gx, gy)),
         tuple(c2 * e for e in _times(gy, gy))]
    )


def sym2_derivation(m, form):
    """m acting on a form by the product rule d(uv) = (m u) v + u (m v)."""
    mx, my = _linear_images(m)
    x, y = (1, 0), (0, 1)
    c0, c1, c2 = form
    parts = [
        (c0, _combine([_times(mx, x), _times(x, mx)])),
        (c1, _combine([_times(mx, y), _times(x, my)])),
        (c2, _combine([_times(my, y), _times(y, my)])),
    ]
    return _combine([tuple(c * e for e in image) for c, image in parts])


def inverse2(g):
    (a, b), (c, d) = g
    det = Fraction(a * d - b * c)
    return [[d / det, -b / det], [-c / det, a / det]]


def moved_gl2(label, rng):
    """A seeded element of the GL_2 orbit ``label``: (g x g^-1, g.w + x'.v)."""
    x, w = GL2_REPRESENTATIVES[label]
    while True:
        g = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        if g[0][0] * g[1][1] - g[0][1] * g[1][0]:
            break
    v = tuple(rng.randint(-2, 2) for _ in range(3))
    x2 = matmul(matmul(g, x), inverse2(g))
    w2 = tuple(a + b for a, b in zip(sym2_group(g, w), sym2_derivation(x2, v)))
    return x2, w2
