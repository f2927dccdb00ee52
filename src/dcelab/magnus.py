"""Sixth-order Magnus propagation of a real linear ODE dY/dt = A(t) Y.

With A sampled at the three Gauss nodes t0 + h * GAUSS_NODES of the step
[t0, t0 + h], exp(magnus6(...)) maps Y(t0) to Y(t0 + h) up to O(h^7)
(Blanes, Casas & Ros, BIT 40, 434 (2000)). The exponent stays in the Lie
algebra of the generator, so a product of such exponentials keeps every
invariant the exact flow keeps (unit determinant, symplectic form) up to
rounding; h may be an array that broadcasts against the generators, so
many steps are formed at once. expm_taylor, the package's one dense
exponential, takes real or complex stacks with batched products only.
propagate, the one driver, is a step-doubling product of such steps with
whole periods taken as powers of one monodromy matrix; the coupled-mode
field (bogoliubov) and the lab-frame gate branches (gate) both call it.
"""

import math

import numpy as np

__all__ = ["GAUSS_NODES", "magnus6", "expm_taylor", "propagate"]

GAUSS_NODES = 0.5 + np.sqrt(0.15) * np.array([-1.0, 0.0, 1.0])  # Gauss-Legendre on [0, 1]

_BATCH = 64  # Magnus steps per batched exponential; bounds the memory of one batch

# theta_m of Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011), Table 3.1:
# the largest 1-norm of X at which the degree-m Taylor polynomial of exp(X)
# has a backward error below 2^-53. Only the degrees m = q^2 and q(q + 1),
# where Paterson-Stockmeyer needs the fewest products, are listed.
_THETA = {2: 2.58e-8, 4: 3.4e-4, 6: 9.07e-3, 9: 0.0896, 12: 0.3, 16: 0.781,
          20: 1.44, 25: 2.43, 30: 3.54}


def _bracket(x, y):
    return x @ y - y @ x


def magnus6(a1, a2, a3, h):
    """Omega of one step from the matrices A at the three Gauss nodes."""
    b1, b2 = h * a2, (np.sqrt(15.0) * h / 3.0) * (a3 - a1)
    b3 = (10.0 * h / 3.0) * (a3 - 2.0 * a2 + a1)
    c1 = _bracket(b1, b2)
    c2 = _bracket(b1, 2.0 * b3 + c1) / -60.0
    return b1 + b3 / 12.0 + _bracket(-20.0 * b1 - b3 + c1, b2 + c2) / 240.0


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
    """exp of every matrix of a real or complex stack X of shape (b, n, n) by
    one scaling-and-squaring Taylor polynomial.

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
    P = np.empty((q,) + X.shape, dtype=X.dtype)  # P[i] = Y^(i + 1)
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


def propagate(A, t_a, t_b, Y0, rtol, omega_max, period=None, samples=()):
    """Y(t_b) and the list of Y at each sample of dY/dt = A(t) Y, Y(t_a) = Y0.

    A maps an array of times to real (..., n, n) generators; A.balance is
    the diagonal similarity applied to each step exponent (_exponentials).
    omega_max, the fastest rotation of the flow, sets the base step grid and
    rtol the step-doubling tolerance (_propagate); samples are sorted,
    distinct times in (t_a, t_b). With a period shorter than the span, the
    fundamental matrix M over one period is checked symplectic to 1e3 * rtol
    and whole periods are its powers, so the cost does not grow with the
    span; a sample is the one-period product at its offset times M^j Y0.
    """
    samples = np.asarray(samples, dtype=float)
    if period is None or t_b - t_a <= period:
        at_edges, sampled = _propagate(A, np.array([t_a, t_b]), Y0, rtol, omega_max, samples)
        return at_edges[-1], sampled

    # periodic generator: propagator over k periods + s is Phi(t_a + s) M^k
    k = int((t_b - t_a) // period)
    s = (t_b - t_a) - k * period
    edges = np.unique([t_a, t_a + s, t_a + period])
    periods = np.minimum((samples - t_a) // period, k).astype(int)
    at_edges, Phis = _propagate(A, edges, np.eye(len(Y0)), rtol, omega_max,
                                samples - periods * period)
    M = at_edges[-1]
    _check_symplectic(M, rtol)
    Y = np.linalg.matrix_power(M, k) @ Y0
    if t_a + s > t_a:
        Y = at_edges[np.searchsorted(edges[1:], t_a + s)] @ Y
    sampled, MY, power = [], Y0, 0  # MY = M^power Y0
    for p, Phi in zip(periods, Phis):
        while power < p:
            MY, power = M @ MY, power + 1
        sampled.append(Phi @ MY)
    return Y, sampled


def _exponentials(A, t0, h):
    """exp(Omega_j) of the sixth-order Magnus steps [t0_j, t0_j + h_j], one batched exponential.

    Each exponent is exponentiated balanced, as D^-1 exp(D Omega D^-1) D
    with D = diag(A.balance), which is exact and keeps the Taylor degree
    low with no squaring on the base grid.
    """
    exponent = magnus6(*np.moveaxis(A(t0[:, None] + h[:, None] * GAUSS_NODES), 1, 0),
                       h[:, None, None])
    d = A.balance
    exponent *= d[:, None] / d
    E = expm_taylor(exponent)
    E *= d / d[:, None]
    return E


def _propagate(A, edges, Y0, rtol, omega_max, samples):
    """Magnus product for dY/dt = A(t) Y from edges[0], with every edge a step boundary.

    Each edge interval starts at 10 steps per period of omega_max, and all
    step counts double until the estimate |Y_2n - Y_n| / 63 of the error of
    the finer product (sixth order: halving the step divides the error by
    64), taken over the states at every edge, is at most rtol * max|Y|.
    Four doublings without that raise RuntimeError. Steps are exponentiated
    _BATCH at a time and applied to the state in turn; of the states passed,
    each stage keeps only those at the edges and at the boundary nearest
    each time in samples (ties go to the later one). Returns the states at
    edges[1:] and at the samples, each one partial step from its kept
    boundary, with the partial steps exponentiated _BATCH at a time.
    """
    lengths = np.diff(edges)
    base = np.ceil(10.0 * omega_max * lengths / (2.0 * np.pi)).astype(int)
    last = None
    for doubling in range(5):
        counts = base << doubling
        t0 = np.concatenate([a + d * np.arange(c) / c for a, d, c in zip(edges, lengths, counts)])
        h = np.repeat(lengths / counts, counts)
        ends = np.cumsum(counts)  # boundary j, after step j - 1, of each of edges[1:]
        times = np.append(t0, edges[-1])
        near = np.clip(np.searchsorted(times, samples), 1, len(t0))
        near -= samples - times[near - 1] < times[near] - samples
        keep = set(ends.tolist()) | set(near.tolist())
        Y, kept = Y0, {0: Y0}
        for start in range(0, len(t0), _BATCH):
            for j, e in enumerate(_exponentials(A, t0[start:start + _BATCH],
                                                h[start:start + _BATCH]), start + 1):
                Y = e @ Y
                if j in keep:
                    kept[j] = Y
        at_edges = np.array([kept[j] for j in ends])
        if last is not None:
            estimate = np.abs(at_edges - last).max() / 63.0
            if estimate <= rtol * np.abs(at_edges).max():
                break
        last = at_edges
    else:
        raise RuntimeError(
            f"Magnus product not converged: step-doubling estimate {estimate:.2e} "
            f"> rtol {rtol:.1e} * max|Y| at {len(t0)} steps; rtol is below the rounding floor "
            "of this generator or it is too rough for the step grid")
    step = samples - times[near]
    sampled = [kept[j] for j in near]
    partial = np.flatnonzero(step)
    for start in range(0, len(partial), _BATCH):
        idx = partial[start:start + _BATCH]
        for i, e in zip(idx, _exponentials(A, times[near[idx]], step[idx])):
            sampled[i] = e @ sampled[i]
    return at_edges, sampled


def _check_symplectic(M, rtol):
    """M^T J M = J for a one-period matrix in canonical variables (Q, P)."""
    N = M.shape[0] // 2
    J = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(N))
    defect = float(np.abs(M.T @ J @ M - J).max())
    bound = 1e3 * rtol
    if not defect <= bound:
        raise RuntimeError(
            f"one-period monodromy matrix is not symplectic: |M^T J M - J| = "
            f"{defect:.2e} > {bound:.2e} (1e3 * rtol); a product of Magnus steps is "
            "symplectic up to rounding, so either the bound is below the rounding floor "
            "(loosen rtol) or the generator is not Hamiltonian")
