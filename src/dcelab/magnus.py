"""Sixth-order Magnus propagation of a real linear ODE dY/dt = A(t) Y.

The package has one such system, the canonical field A = [[lam Mhat, I],
[-W, lam Mhat]] with W diagonal: the coupled modes of bogoliubov, and at
N = 1 with Mhat = 0 the lab-frame quadratures of one gate branch in gate.
With A sampled at the three Gauss nodes t0 + h * GAUSS_NODES of the step
[t0, t0 + h], the exponential of the sixth-order Magnus exponent Omega maps
Y(t0) to Y(t0 + h) up to O(h^7) (Blanes, Casas & Ros, BIT 40, 434 (2000)).
field_exponent, the one former of these exponents, builds Omega from the
N x N blocks of A for many steps at once. Omega stays in the Lie algebra
of the generator, so a product of such exponentials keeps every invariant
the exact flow keeps (unit determinant, symplectic form) up to rounding.
expm_taylor, the package's one dense exponential, takes real stacks and
uses batched products only, written into a workspace: one flat float64
scratch array that each exponent from field_exponent carries for the
batches of its propagation. The exponent forms each batch's Omega in the
same memory map: its temporaries in the workspace's stacks 1 onward, dead
before expm_taylor writes there, and Omega in one stack past the
workspace, so no batch allocates or first-touches a stack of its own. A
stack an exponent or expm_taylor returns lies in that memory and is valid
until the next batch on it, so one exponent serves one thread at a time;
callers without a workspace get a throwaway one. propagate, the one
driver, is a step-doubling product of such steps with whole periods taken
as powers of one monodromy matrix. Its steps are formed and exponentiated
in batches of at most 64 and at most 2^15 / n^2 steps for n x n step
matrices (_batch), each batch's step starts and lengths computed from the
edges and step counts, so each (b, n, n) stack of a batch takes at most
256 KiB (n <= 181) and the working memory is bounded per batch, not by N
times the batch or by the number of steps. propagate
tests the period on the coefficients lam and w the field is built from, and
when lam is odd and w even about t_a + T/4 (then also about t_a + 3T/4), as
for a harmonic wall started at its crest or a lab-frame branch driven at a
phase theta that is a multiple of pi, the field is reversible there: the
monodromy matrix and every state within the period are assembled from two
quarter-period products by reflection (Hairer, Lubich & Wanner, Geometric
Numerical Integration, ch. V; Magnus & Winkler, Hill's Equation), which
halves the steps per period.
"""

import functools
import math
import mmap

import numpy as np

__all__ = ["GAUSS_NODES", "field_exponent", "expm_taylor", "propagate"]

GAUSS_NODES = 0.5 + np.sqrt(0.15) * np.array([-1.0, 0.0, 1.0])  # Gauss-Legendre on [0, 1]

_BATCH = 64  # most Magnus steps per batched exponential
_BATCH_ENTRIES = 2**15  # float64 entries of one (b, n, n) stack: 256 KiB

# theta_m of Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011), Table 3.1:
# the largest 1-norm of X at which the degree-m Taylor polynomial of exp(X)
# has a backward error below 2^-53. Only the degrees m = q^2 and q(q + 1),
# where Paterson-Stockmeyer needs the fewest products, are listed.
_THETA = {2: 2.58e-8, 4: 3.4e-4, 6: 9.07e-3, 9: 0.0896, 12: 0.3, 16: 0.781,
          20: 1.44, 25: 2.43, 30: 3.54}

# stacks of X's size in expm_taylor's workspace: the product stack and, at the
# highest degree, q powers and m // q blocks
_STACKS = 1 + max(q + m // q for m in _THETA for q in [math.isqrt(m - 1) + 1])


def field_exponent(coefficients, Mhat, omega0):
    """The step exponent (t0, h) -> Omega of propagate for the canonical field
    dY/dt = A(t) Y, A = [[lam Mhat, I], [-W, lam Mhat]] with W = diag(w),
    formed from its N x N blocks.

    coefficients maps an array of times t, such as the Gauss nodes t0 + h *
    GAUSS_NODES of b steps of shape (b, 3), to lam of t's shape and w of
    that shape plus (N,); it is kept as exponent.coefficients, where
    propagate tests its symmetries. Mhat is the constant antisymmetric (N, N)
    coupling. omega0, of shape (N,), sets exponent.balance = (omega0^1/2,
    omega0^-1/2): the similarity D = diag(balance) is symplectic and turns
    the off-diagonal blocks I and -W into omega-sized ones, so with omega0
    near sqrt(w) the balanced exponent has a 1-norm of order omega h instead
    of omega^2 h. exponent.workspace is the expm_taylor workspace its
    batches of up to _batch(2N) steps are exponentiated in (_exponentials):
    up to _BATCH steps while N <= 11, fewer above, so that no stack of the
    workspace or of the exponent's own temporaries exceeds 256 KiB. It is
    mapped once per exponent together with one more (b, 2N, 2N) stack, past
    its _STACKS, that holds Omega; Omega's ten (b, N, N) temporaries lie in
    the workspace's stacks 1 onward, which hold only dead data until
    expm_taylor has read Omega, so a batch allocates no stack. The Omega
    returned is valid until the next call; a call of more than _batch(2N)
    steps forms it in a map of its own.

    The sixth-order Magnus exponent of a step combines b1 = h A_2, b2 = s
    (A_3 - A_1) and b3 = r (A_3 - 2 A_2 + A_1), A_j = A(t_j), s = sqrt(15) h
    / 3, r = 10 h / 3, into Omega = b1 + b3 / 12 + [v, u] / 240 with c1 =
    [b1, b2], c2 = -[b1, 2 b3 + c1] / 60, v = -20 b1 - b3 + c1 and u = b2 +
    c2. Every b_j is [[a_j Mhat, beta_j I], [-D_j, a_j Mhat]] with D_j
    diagonal and beta_2 = beta_3 = 0, and every bracket is Hamiltonian,
    [[P, B], [C, -P^T]] with B and C symmetric, so each is formed from its
    blocks P, B and C: a bracket of Mhat with a diagonal diag(g) is Mhat *
    (g_j - g_i), with a symmetric S it is Mhat S + (Mhat S)^T, and diagonals
    commute. With E = -h D_2, G = [Mhat, a_2 D_1 - a_1 D_2] and K = G - 2 D_3:

        c1 = [[E, 0], [G, -E]],
        c2 = [[X, Y], [Z, -X]],  X = -(a_1 [Mhat, E] + h K) / 60,
             Y = h E / 30,  Z = -(2 a_3 [Mhat, D_1] - 2 E D_1 + a_1 [Mhat, K]) / 60,
        v = [[p Mhat + E, -20 h I], [V, p Mhat - E]],  p = -20 a_1 - a_3,
             V = G + 20 D_1 + D_3,
        u = [[F, Y], [H, -F^T]],  F = a_2 Mhat + X,  H = Z - D_2,
        [v, u] = [[[p Mhat + E, F] - 20 h H - Y V, p [Mhat, Y] + 2 E Y + 40 h X],
                  [V F + (V F)^T + p [Mhat, H] - E H - H E, ...]],

    four batched N x N products in all (Mhat G, Mhat X, V F, Mhat H), where
    dense brackets take six of 2N x 2N.
    """
    N = len(omega0)
    # diagonals of a C-contiguous (b, N, N) stack, and of the blocks (1, 2) and
    # (2, 1) of a (b, 2N, 2N) one, as writable strided slices of its flat rows
    dg = np.s_[:, ::N + 1]
    dg12, dg21 = np.s_[:, N:2 * N * N:2 * N + 1], np.s_[:, 2 * N * N::2 * N + 1]

    def gaps(g, out):  # g_j - g_i for each row of g, so [Mhat, diag(g)] = Mhat * gaps(g)
        return np.subtract(g[:, None, :], g[:, :, None], out=out)

    def swap(S):
        return np.swapaxes(S, -2, -1)

    batch = _batch(2 * N)
    size = batch * 4 * N * N  # entries of one (batch, 2N, 2N) stack
    memory = _mapped((_STACKS + 1) * size)

    def exponent(t0, h):
        b = len(h)
        stack = 4 * N * N * b
        # the workspace's stacks 1 onward hold the temporaries, dead once expm_taylor has
        # read Omega, and the stack past the workspace holds Omega; a call of more than
        # `batch` steps maps its own
        space = memory if b <= batch else _mapped((_STACKS + 1) * stack)
        out = space[len(space) - stack:].reshape(b, 2 * N, 2 * N)
        Dg, Dx, G, X, MG, MX, H, F, VF, MH = space[stack:stack + 10 * b * N * N].reshape(
            10, b, N, N)
        lam, w = coefficients(t0[:, None] + h[:, None] * GAUSS_NODES)
        # b_1, b_2, b_3 as (a_j, diagonal of D_j)
        s, r = np.sqrt(15.0) * h / 3.0, 10.0 * h / 3.0
        a1, a2 = h * lam[:, 1], s * (lam[:, 2] - lam[:, 0])
        a3 = r * (lam[:, 2] - 2.0 * lam[:, 1] + lam[:, 0])
        hv = h[:, None]
        d1, d2 = hv * w[:, 1], s[:, None] * (w[:, 2] - w[:, 0])
        d3 = r[:, None] * (w[:, 2] - 2.0 * w[:, 1] + w[:, 0])
        # the diagonals of E and Y, G = Mhat * gaps(g) and X = Mhat * gaps(x) + h D_3 / 30
        e = -hv * d2
        y = hv * e / 30.0
        g = a2[:, None] * d1 - a1[:, None] * d2
        x = -(a1[:, None] * e + hv * g) / 60.0
        p = (-20.0 * a1 - a3)[:, None, None]
        gaps(g, Dg)
        gaps(x, Dx)
        np.multiply(Mhat, Dg, out=G)
        np.multiply(Mhat, Dx, out=X)
        X.reshape(b, -1)[dg] = hv * d3 / 30.0
        np.matmul(Mhat, G, out=MG)
        np.matmul(Mhat, X, out=MX)
        # H = Z - D_2 = [Mhat, (a_1 D_3 - a_3 D_1) / 30] - a_1 [Mhat, G] / 60 + E D_1 / 30 - D_2
        gaps((a1[:, None] * d3 - a3[:, None] * d1) / 30.0, H)
        H *= Mhat
        S = np.add(MG, swap(MG), out=X)  # X is not needed again
        S *= a1[:, None, None] / 60.0
        H -= S
        H.reshape(b, -1)[dg] += e * d1 / 30.0 - d2
        V = G  # G has a zero diagonal and is not needed again
        V.reshape(b, -1)[dg] = 20.0 * d1 + d3
        Dx += a2[:, None, None]
        np.multiply(Mhat, Dx, out=F)  # a_2 Mhat + X
        F.reshape(b, -1)[dg] = hv * d3 / 30.0
        np.matmul(V, F, out=VF)
        np.matmul(Mhat, H, out=MH)
        # each block is formed in a contiguous slot and copied into Omega once, since
        # numpy buffers every operation on a strided block
        o11, o12, o21, o22 = out[:, :N, :N], out[:, :N, N:], out[:, N:, :N], out[:, N:, N:]
        flat = out.reshape(b, -1)
        # Omega_21 = C / 240 - D_1 - D_3 / 12, C = T + T^T with T = V F + p Mhat H - E H
        MH *= p
        MH += VF
        MH -= np.multiply(e[:, :, None], H, out=F)
        C = np.add(MH, swap(MH), out=VF)
        C /= 240.0
        o21[...] = C
        flat[dg21] -= d1 + d3 / 12.0
        # Omega_12 = B / 240 + h I, B = [Mhat, p Y + 40 h X] + 2 E Y + 40 h^2 D_3 / 30
        u = (p[:, :, 0] * y + 40.0 * hv * x) / 240.0
        U = np.subtract(u[:, None, :], u[:, :, None], out=F)
        U *= Mhat
        o12[...] = U
        flat[dg12] = hv + (4.0 * hv * hv * d3 / 3.0 + 2.0 * e * y) / 240.0
        # Omega_11 = P / 240 + (a_1 + a_3 / 12) Mhat, where P = p (Mhat X + (Mhat X)^T)
        # - 20 h H - Mhat * Q - diag(y (20 d_1 + d_3)) and Q_ij = (e_j - e_i)(a_2 + x_j
        # - x_i) + y_i (g_j - g_i) gathers [E, M], [E, X] and the off-diagonal Y V
        MX *= p
        P = np.add(MX, swap(MX), out=MG)
        H *= 20.0 * hv[:, :, None]
        P -= H
        Q = gaps(e, VF)
        Q *= Dx
        Dg *= y[:, :, None]
        Q += Dg
        Q -= (240.0 * (a1 + a3 / 12.0))[:, None, None]
        Q *= Mhat
        P -= Q
        P /= 240.0
        P.reshape(b, -1)[dg] -= y * (20.0 * d1 + d3) / 240.0
        o11[...] = P
        np.negative(swap(P), out=o22)
        return out
    exponent.balance = np.concatenate([np.sqrt(omega0), 1.0 / np.sqrt(omega0)])
    exponent.coefficients = coefficients
    exponent.workspace = memory[:_STACKS * size]
    return exponent


def _batch(n):
    """Magnus steps per batch for n x n step matrices: min(_BATCH, 2^15 // n^2),
    at least 1, so one (b, n, n) float64 stack takes at most 256 KiB once n^2
    fits in it, and the working memory of a batch does not grow with n."""
    return max(1, min(_BATCH, _BATCH_ENTRIES // (n * n)))


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


def _workspace(size):
    """An expm_taylor workspace for float64 stacks of up to `size` entries:
    _STACKS such stacks, sized for the highest degree so that it never
    regrows, in a memory map of their own (_mapped)."""
    return _mapped(_STACKS * size)


def _mapped(count):
    """A flat float64 array of `count` entries in a private anonymous memory
    map of its own: the OS supplies a page when a batch first reaches it and
    takes every page back when the last view dies. A large np.empty would
    instead be marked for 2 MiB transparent huge pages by numpy, so a part
    touched is resident whole, and once freed it would raise malloc's mmap
    and trim thresholds for every later allocation of the process (3.5 MB
    more peak RSS on the drive benchmark).
    """
    space = mmap.mmap(-1, max(count, 1) * 8, access=mmap.ACCESS_COPY)
    return np.frombuffer(space, np.float64, count)


@functools.cache
def _table(m, q):
    """The Paterson-Stockmeyer coefficient table of degree m and block size q,
    read-only: C[k, i] is the coefficient of Y^i in the block B_k, i <= q."""
    r = m // q
    C = np.zeros((r, q + 1))
    C[:, :q] = [[1.0 / math.factorial(k * q + i) for i in range(q)] for k in range(r)]
    C[-1, q] = 1.0 / math.factorial(m)
    C.flags.writeable = False
    return C


def expm_taylor(X, workspace=None):
    """exp of every matrix of a real stack X of shape (b, n, n) by one
    scaling-and-squaring Taylor polynomial; a stack of another dtype is a
    TypeError.

    One degree m and one squaring count s serve the whole stack, chosen from
    its largest 1-norm, so every slice meets the 2^-53 backward-error bound of
    theta_m. The polynomial sum_i Y^i / i! of Y = X / 2^s is evaluated by
    Paterson-Stockmeyer: the powers Y .. Y^q, the blocks B_k = sum_i
    c_(kq+i) Y^i (i < q, with c_m Y^q added to the last) as one product with
    the coefficient table, and Horner's rule in Y^q; the result is squared
    s times.

    Every array of size b n^2 is a stack of workspace, a flat float64 array
    from _workspace: first the product stack, which holds |X| while the norm
    is taken, with the column sums right after it, then the powers and the
    blocks, their identity terms added on a strided view of the diagonals
    from a coefficient table built once per degree (_table). The Horner and
    squaring products alternate between the product stack and the last
    block, consumed first. Without a workspace, or with one too small for X,
    a throwaway one is made. The stack returned lies in the workspace and is
    valid until the next call on it.
    """
    if X.dtype != np.float64:
        raise TypeError(f"expm_taylor takes real float64 stacks, not {X.dtype}")
    b, n = len(X), X.shape[-1]
    stack = X.size
    if workspace is None or len(workspace) < _STACKS * stack:
        workspace = _workspace(stack)

    def take(first, count):  # `count` stacks of X's shape, from stack `first` on
        return workspace[first * stack:(first + count) * stack].reshape((count,) + X.shape)
    A = np.abs(X, out=take(0, 1)[0])
    sums = np.matmul(np.ones(n), A, out=workspace[stack:stack + b * n].reshape(b, n))
    norm = float(sums.max(initial=0.0))
    if not np.isfinite(norm):
        raise ValueError("expm_taylor: the stack has a non-finite entry")
    m, q, s = _degree(norm)
    r = m // q
    P = take(1, q)  # P[i] = Y^(i + 1)
    np.multiply(X, 0.5 ** s, out=P[0])
    for i in range(1, q):
        np.matmul(P[i - 1], P[0], out=P[i])
    C = _table(m, q)
    blocks = take(1 + q, r)
    np.matmul(C[:, 1:], P.reshape(q, -1), out=blocks.reshape(r, -1))
    blocks.reshape(r, b, n * n)[..., ::n + 1] += C[:, :1, None]  # the identity's coefficients
    E, spare = blocks[r - 1], take(0, 1)[0]
    for k in range(r - 2, -1, -1):
        np.matmul(E, P[q - 1], out=spare)
        spare += blocks[k]
        E, spare = spare, E
    for _ in range(s):
        np.matmul(E, E, out=spare)
        E, spare = spare, E
    return E


def propagate(exponent, t_a, t_b, Y0, rtol, omega_max, period=None, samples=()):
    """Y(t_b) and the list of Y at each sample of dY/dt = A(t) Y, Y(t_a) = Y0.

    exponent maps arrays t0, h of step starts and lengths to the real
    (len(h), n, n) sixth-order Magnus exponents of the steps [t0_j, t0_j +
    h_j]; field_exponent forms them, with exponent.balance, the diagonal
    similarity applied to each of them (_exponentials), exponent.coefficients
    and exponent.workspace. omega_max, the fastest rotation of the flow, sets
    the base step grid and rtol the step-doubling tolerance (_propagate);
    samples are sorted, distinct times in (t_a, t_b). With a period shorter
    than the span, the fundamental matrix M over one period is checked
    symplectic to 1e3 * rtol and whole periods are its powers, so the cost
    does not grow with the span; a sample is the one-period product at its
    offset times M^j Y0. The coefficients must have the period (else
    ValueError), and the one-period products come from two quarter periods
    (_quarters) when lam is odd and w even about t_a + period / 4, so that
    K A(t) K = -A(2 t_r - t) there, else from one product over the period
    (_period); both are tested by _broken_symmetry.
    """
    samples = np.asarray(samples, dtype=float)
    if period is None or t_b - t_a <= period:
        ((at_edges, sampled),) = _propagate(exponent, [np.array([t_a, t_b])], Y0, rtol,
                                            omega_max, [samples])
        return at_edges[-1], sampled

    coefficients = exponent.coefficients
    # cell midpoints of [t_a, t_b - period]: t + period never rounds past t_b
    broken = _broken_symmetry(coefficients, t_a, t_b - period, lambda t: t + period)
    if broken is not None:
        name, gap = broken
        raise ValueError(
            f"period {period:g} is not a period of the field's coefficient {name}: "
            f"|f(t + period) - f(t)| reaches {gap:.2e} on [{t_a:g}, {t_b:g}]; "
            "fix or drop the declared period")
    # reversible about t_a + T/4, and with the period then also about t_a + 3T/4
    c = t_a + period / 4.0
    reversible = _broken_symmetry(coefficients, t_a, c, lambda t: 2.0 * c - t) is None
    # periodic generator: propagator over k periods + s is Phi(t_a + s) M^k
    k = int((t_b - t_a) // period)
    s = (t_b - t_a) - k * period
    periods = np.minimum((samples - t_a) // period, k).astype(int)
    one_period = _quarters if reversible else _period
    M, rest, Phis = one_period(exponent, t_a, period, t_a + s, samples - periods * period,
                               len(Y0), rtol, omega_max)
    _check_symplectic(M, rtol)
    Y = np.linalg.matrix_power(M, k) @ Y0
    if t_a + s > t_a:
        Y = rest @ Y
    sampled, MY, power = [], Y0, 0  # MY = M^power Y0
    for p, Phi in zip(periods, Phis):
        while power < p:
            MY, power = M @ MY, power + 1
        sampled.append(Phi @ MY)
    return Y, sampled


def _broken_symmetry(coefficients, a, b, image):
    """The first of the coefficients lam and w of a canonical field that the
    map t -> image(t) does not keep at the 16 cell midpoints t of [a, b], with
    its largest gap |f(image(t)) - f(t)|, or None when both agree to 1e-8 of
    their largest magnitude. Where image reverses time lam must flip sign."""
    t = a + (b - a) * (np.arange(16) + 0.5) / 16
    there = image(t)
    sign = np.sign(there[-1] - there[0])  # -1 where image reverses time
    for name, parity, here, mapped in zip(("lam", "w"), (sign, 1.0), coefficients(t),
                                          coefficients(there)):
        mapped = parity * mapped
        gap = np.abs(mapped - here).max()
        if gap > 1e-8 * max(np.abs(here).max(), np.abs(mapped).max()):
            return name, gap
    return None


def _period(exponent, t_a, period, edge, times, n, rtol, omega_max):
    """(M, Phi(edge), [Phi(t) for t in times]) of the fundamental matrix Phi(t) =
    Phi(t, t_a), M = Phi(t_a + period), from one Magnus product over the
    period with the remainder edge, in [t_a, t_a + period), a step boundary;
    Phi(edge) is read only for edge > t_a."""
    edges = np.unique([t_a, edge, t_a + period])
    ((at_edges, Phis),) = _propagate(exponent, [edges], np.eye(n), rtol, omega_max, [times])
    return at_edges[-1], at_edges[np.searchsorted(edges[1:], edge)], Phis


def _quarters(exponent, t_a, period, edge, times, n, rtol, omega_max):
    """_period's (M, Phi(edge), [Phi(t) for t in times]) from two quarter-period
    products, for a canonical field (Q, P) reversible about t_a + T/4 and
    t_a + 3T/4; Phi(edge) is again read only for edge > t_a.

    When lam is odd and W even about a reversal point t_r (a wall even about
    it), the generator A = [[lam Mhat, I], [-W, lam Mhat]] obeys, with K =
    diag(I, -I) (P -> -P), K A(t) K = -A(2 t_r - t), so Phi(t_r + tau, t_r) = K
    Phi(t_r - tau, t_r) K. Over a half period [c, c + T/2] with t_r = c + T/4
    and the quarter product V = Phi(t_r, c), that gives Phi(t, c) = K Phi(2 t_r
    - t, c) K H for t >= t_r, H = K V^-1 K V = Phi(c + T/2, c) (_reflect). The
    halves c = t_a and c = t_a + T/2 each take one product over the direct
    quarter [c, t_r], with the mirror of every time past t_r as its sample or
    edge; the second half's matrices are multiplied on the right by the first
    half's H, and M = H_2 H_1. The two products are refined together until
    the step-doubling estimate of M and Phi(edge), the states _period checks,
    meets rtol (_propagate), so the reflection does not loosen the tolerance.
    """
    q = period / 4.0
    sign = np.repeat([1.0, -1.0], n // 2)
    K = sign[:, None] * sign  # K X K = K * X
    segments, locals_, rows, e_at = [], [], [], None
    for g, c in enumerate((t_a, t_a + 2.0 * q)):
        r = c + q
        rows.append(np.flatnonzero((times < t_a + 2.0 * q) == (g == 0)))
        t = times[rows[g]]
        locals_.append(np.where(t > r, 2.0 * r - t, t))
        edges = [c, r]
        if edge > t_a and (edge < t_a + 2.0 * q) == (g == 0):  # the remainder, or its mirror
            e_at = g, min(max(2.0 * r - edge if edge > r else edge, c), r)
            edges.append(e_at[1])
        segments.append(np.unique(edges))

    def whole(g, t, Phi, H):  # Phi(t, t_a) from Phi(t or its mirror, c_g); H = [H_1, H_2]
        if t > segments[g][-1]:
            Phi = (K * Phi) @ H[g]
        return Phi @ H[0] if g else Phi

    def fold(at):  # H = [H_1, H_2] and the states checked, [Phi(edge), M] or [M]
        H = [_reflect(a[-1]) @ a[-1] for a in at]
        checked = [H[1] @ H[0]]
        if e_at is not None:
            g, e = e_at
            state = at[g][np.searchsorted(segments[g][1:], e)] if e > segments[g][0] else np.eye(n)
            checked.insert(0, whole(g, edge, state, H))
        return H, np.array(checked)

    products = _propagate(exponent, segments, np.eye(n), rtol, omega_max, locals_,
                          lambda at: fold(at)[1])
    H, checked = fold([at for at, _ in products])
    Phis = [None] * len(times)
    for g, (_, sampled) in enumerate(products):
        for i, Phi in zip(rows[g], sampled):
            Phis[i] = whole(g, times[i], Phi, H)
    return checked[-1], checked[0], Phis


def _reflect(V):
    """K V^-1 K for a symplectic V in canonical variables (Q, P), K = diag(I, -I).

    With V^-1 = -J V^T J (the J of _check_symplectic) and K J = -J K = S, S =
    [[0, I], [I, 0]], this is S V^T S: V^T with its blocks swapped, no product.
    """
    N = len(V) // 2
    return np.roll(V.T, (N, N), axis=(0, 1))


def _exponentials(exponent, t0, h):
    """exp(Omega_j) of the sixth-order Magnus steps [t0_j, t0_j + h_j], one batched exponential.

    Each exponent Omega_j = exponent(t0, h)[j] is exponentiated balanced, as
    D^-1 exp(D Omega D^-1) D with D = diag(exponent.balance), which is exact
    and keeps the Taylor degree low with no squaring on the base grid. The
    stack returned lies in exponent.workspace and is valid until the next
    batch of the exponent.
    """
    X = exponent(t0, h)
    d = exponent.balance
    X *= d[:, None] / d
    E = expm_taylor(X, exponent.workspace)
    E *= d / d[:, None]
    return E


def _propagate(exponent, segments, Y0, rtol, omega_max, samples, checked=np.concatenate):
    """Magnus products for dY/dt = A(t) Y from Y0 at edges[0] of each array of
    edges in segments, with every edge a step boundary.

    Each edge interval starts at 10 steps per period of omega_max, and all
    step counts double until the estimate |Y_2n - Y_n| / 63 of the error of
    the finer products (sixth order: halving the step divides the error by
    64), taken over checked(the list of each product's states at its
    edges[1:]), by default all those states, is at most rtol * max|Y|. Four
    doublings without that raise RuntimeError. Steps are exponentiated
    _batch(n) at a time, n = len(Y0), and applied to the state in turn
    (_stage), so the working memory is bounded per batch, not by n or the
    step count. Returns, per segment, the states at edges[1:] and at each
    time in its array of samples, each one partial step from the kept
    boundary nearest it, with the partial steps batched the same way.
    """
    base = [np.ceil(10.0 * omega_max * np.diff(edges) / (2.0 * np.pi)).astype(int)
            for edges in segments]
    last, stages = None, []
    for doubling in range(5):
        stages.clear()  # drop the last stage's states before this one keeps its own
        stages += [_stage(exponent, edges, counts << doubling, Y0, times)
                   for edges, counts, times in zip(segments, base, samples)]
        at = checked([at_edges for at_edges, _, _ in stages])
        if last is not None:
            estimate = np.abs(at - last).max() / 63.0
            if estimate <= rtol * np.abs(at).max():
                break
        last = at
    else:
        steps = sum(int(counts.sum()) << doubling for counts in base)
        raise RuntimeError(
            f"Magnus product not converged: step-doubling estimate {estimate:.2e} "
            f"> rtol {rtol:.1e} * max|Y| at {steps} steps; rtol is below the rounding floor "
            "of this generator or it is too rough for the step grid")
    batch = _batch(len(Y0))
    for (_, start, sampled), times in zip(stages, samples):
        step = times - start
        partial = np.flatnonzero(step)
        for i0 in range(0, len(partial), batch):
            idx = partial[i0:i0 + batch]
            for i, e in zip(idx, _exponentials(exponent, start[idx], step[idx])):
                sampled[i] = e @ sampled[i]
    return [(at_edges, sampled) for at_edges, _, sampled in stages]


def _stage(exponent, edges, counts, Y0, samples):
    """One Magnus product from Y0 at edges[0], counts[i] equal steps over
    [edges[i], edges[i + 1]]: the states at edges[1:], and for each sample the
    step boundary nearest it (ties go to the later one) and the state there.
    Of the states passed, only those are kept."""
    ends = np.cumsum(counts)  # boundary j, after step j - 1, of each of edges[1:]
    steps = int(ends[-1])
    # the first step, length and step count of each edge's interval; the last edge's
    # is empty, so that boundary `steps` lies at edges[-1]
    first, length, count = (np.append(ends - counts, steps), np.append(np.diff(edges), 0.0),
                            np.append(counts, 1))

    def grid(j):  # start t0 and length h of the steps j, boundary j's time first
        i = np.searchsorted(ends, j, side="right")
        return edges[i] + length[i] * (j - first[i]) / count[i], length[i] / count[i]

    # the boundary nearest each sample, from the count of boundaries before it that
    # np.searchsorted on all their times would give: estimated in the sample's
    # interval, where rounding puts it at most one boundary off, and corrected
    near = np.zeros(len(samples), dtype=int)
    if len(samples):
        i = np.searchsorted(edges[1:-1], samples, side="right")
        k = np.ceil((samples - edges[i]) / length[i] * count[i])
        near = first[i] + np.clip(k, 0, count[i]).astype(int)
        near += grid(near)[0] < samples
        near -= (near > 0) & (grid(np.maximum(near - 1, 0))[0] >= samples)
        near = np.clip(near, 1, steps)
        near -= samples - grid(near - 1)[0] < grid(near)[0] - samples
    keep = set(ends.tolist()) | set(near.tolist())
    Y, kept, batch = Y0, {0: Y0}, _batch(len(Y0))
    for start in range(0, steps, batch):
        t0, h = grid(np.arange(start, min(start + batch, steps)))
        for j, e in enumerate(_exponentials(exponent, t0, h), start + 1):
            Y = e @ Y
            if j in keep:
                kept[j] = Y
    return np.array([kept[j] for j in ends]), grid(near)[0], [kept[j] for j in near]


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
