"""Sixth-order Magnus exponent of one step of a linear ODE dY/dt = A(t) Y,
and a batched exponential for the exponents of many steps.

With A sampled at the three Gauss nodes t0 + h * GAUSS_NODES of the step
[t0, t0 + h], exp(magnus6(...)) maps Y(t0) to Y(t0 + h) up to O(h^7)
(Blanes, Casas & Ros, BIT 40, 434 (2000)). The exponent stays in the Lie
algebra of the generator, so a product of such exponentials keeps every
invariant the exact flow keeps (unit determinant, symplectic form) up to
rounding. Callers hold their generators in any representation and pass the
commutator that goes with it; h may be an array that broadcasts against
the generators, so many steps are formed at once. expm_taylor
exponentiates a whole stack of real exponents with batched products only.
"""

import math

import numpy as np

__all__ = ["GAUSS_NODES", "magnus6", "expm_taylor"]

GAUSS_NODES = 0.5 + np.sqrt(0.15) * np.array([-1.0, 0.0, 1.0])  # Gauss-Legendre on [0, 1]

# theta_m of Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011), Table 3.1:
# the largest 1-norm of X at which the degree-m Taylor polynomial of exp(X)
# has a backward error below 2^-53. Only the degrees m = q^2 and q(q + 1),
# where Paterson-Stockmeyer needs the fewest products, are listed.
_THETA = {2: 2.58e-8, 4: 3.4e-4, 6: 9.07e-3, 9: 0.0896, 12: 0.3, 16: 0.781,
          20: 1.44, 25: 2.43, 30: 3.54}


def magnus6(a1, a2, a3, h, bracket):
    """Omega of one step from A at the three Gauss nodes; bracket(X, Y) = [X, Y]."""
    b1, b2 = h * a2, (np.sqrt(15.0) * h / 3.0) * (a3 - a1)
    b3 = (10.0 * h / 3.0) * (a3 - 2.0 * a2 + a1)
    c1 = bracket(b1, b2)
    c2 = bracket(b1, 2.0 * b3 + c1) / -60.0
    return b1 + b3 / 12.0 + bracket(-20.0 * b1 - b3 + c1, b2 + c2) / 240.0


def _degree(norm):
    """(m, q, s): Taylor degree, Paterson-Stockmeyer block size and squarings
    with the fewest products q + m/q - 2 + s such that norm / 2^s <= theta_m."""
    best = None
    for m, theta in _THETA.items():
        q = math.isqrt(m - 1) + 1
        s = math.ceil(math.log2(norm / theta)) if norm > theta else 0
        cost = (q + m // q - 2 + s, s)
        if best is None or cost < best[0]:
            best = cost, (m, q, s)
    return best[1]


def expm_taylor(X):
    """exp of every matrix of a real stack X of shape (b, n, n) by one
    scaling-and-squaring Taylor polynomial.

    One degree m and one squaring count s serve the whole stack, chosen from
    its largest 1-norm, so every slice meets the 2^-53 backward-error bound of
    theta_m. The polynomial sum_i Y^i / i! of Y = X / 2^s is evaluated by
    Paterson-Stockmeyer: the powers Y .. Y^q, the blocks B_k = sum_i
    c_(kq+i) Y^i (i < q, with c_m Y^q added to the last) as one product with
    the coefficient table, and Horner's rule in Y^q; the result is squared
    s times.
    """
    n = X.shape[-1]
    norm = float((np.ones(n) @ np.abs(X)).max(initial=0.0))  # column sums
    if not np.isfinite(norm):
        raise ValueError("expm_taylor: the stack has a non-finite entry")
    m, q, s = _degree(norm)
    r = m // q
    P = np.empty((q,) + X.shape)  # P[i] = Y^(i + 1)
    np.multiply(X, 0.5 ** s, out=P[0])
    for i in range(1, q):
        np.matmul(P[i - 1], P[0], out=P[i])
    C = np.zeros((r, q + 1))  # C[k, i]: coefficient of Y^i in B_k
    C[:, :q] = [[1.0 / math.factorial(k * q + i) for i in range(q)] for k in range(r)]
    C[-1, q] = 1.0 / math.factorial(m)
    blocks = (C[:, 1:] @ P.reshape(q, -1)).reshape((r,) + X.shape)
    blocks[..., np.arange(n), np.arange(n)] += C[:, :1, None]
    E = blocks[r - 1]
    for k in range(r - 2, -1, -1):
        E = E @ P[q - 1]
        E += blocks[k]
    for _ in range(s):
        E = E @ E
    return E
