"""Sixth-order Magnus exponent of one step of a linear ODE dY/dt = A(t) Y.

With A sampled at the three Gauss nodes t0 + h * GAUSS_NODES of the step
[t0, t0 + h], exp(magnus6(...)) maps Y(t0) to Y(t0 + h) up to O(h^7)
(Blanes, Casas & Ros, BIT 40, 434 (2000)). The exponent stays in the Lie
algebra of the generator, so a product of such exponentials keeps every
invariant the exact flow keeps (unit determinant, symplectic form) up to
rounding. Callers hold their generators in any representation and pass the
commutator that goes with it; h may be an array that broadcasts against
the generators, so many steps are formed at once.
"""

import numpy as np

__all__ = ["GAUSS_NODES", "magnus6"]

GAUSS_NODES = 0.5 + np.sqrt(0.15) * np.array([-1.0, 0.0, 1.0])  # Gauss-Legendre on [0, 1]


def magnus6(a1, a2, a3, h, bracket):
    """Omega of one step from A at the three Gauss nodes; bracket(X, Y) = [X, Y]."""
    b1, b2 = h * a2, (np.sqrt(15.0) * h / 3.0) * (a3 - a1)
    b3 = (10.0 * h / 3.0) * (a3 - 2.0 * a2 + a1)
    c1 = bracket(b1, b2)
    c2 = bracket(b1, 2.0 * b3 + c1) / -60.0
    return b1 + b3 / 12.0 + bracket(-20.0 * b1 - b3 + c1, b2 + c2) / 240.0
