"""Standard lattices: U, ADE root lattices, the K3 lattice, reflections.

Each constructor returns a Lattice, that is its Gram matrix in a fixed
basis: e, f for U, the simple roots for the ADE types, and the blocks in
order for K3. Reflections take a Gram matrix and a vector.
"""

from .lattice import Lattice, direct_sum


class UnsupportedRootSystem(ValueError):
    pass


class NotAMinusTwoVector(ValueError):
    pass


def _chain_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def _ade_edges(kind, n):
    if kind == "A":
        if n < 1:
            raise UnsupportedRootSystem("A_n needs n >= 1")
        return _chain_edges(n)
    if kind == "D":
        if n < 4:
            raise UnsupportedRootSystem("D_n needs n >= 4")
        edges = _chain_edges(n - 1)[:-1]  # 1..n-2 chain
        edges.append((n - 3, n - 2))
        edges.append((n - 3, n - 1))
        return edges
    if kind == "E":
        if n not in (6, 7, 8):
            raise UnsupportedRootSystem("E_n needs n in {6,7,8}")
        # numbering with the short branch at node 2, attached to node 4
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]
        if n >= 7:
            edges.append((5, 6))
        if n == 8:
            edges.append((6, 7))
        return edges
    raise UnsupportedRootSystem("kind must be A, D or E")


def cartan_matrix(kind, n):
    """Cartan matrix of the simply laced root system, 2 on the diagonal."""
    C = [[0] * n for _ in range(n)]
    for i in range(n):
        C[i][i] = 2
    for i, j in _ade_edges(kind, n):
        C[i][j] = -1
        C[j][i] = -1
    return C


def root_lattice(kind, n, sign=1):
    """Root lattice in its simple-root basis, Gram = sign * Cartan."""
    if sign not in (1, -1):
        raise ValueError("root lattice sign must be 1 or -1, got %r"
                         % (sign,))
    C = cartan_matrix(kind, n)
    return Lattice([[sign * x for x in row] for row in C])


def hyperbolic_plane(scale=1):
    """U(scale): Gram [[0, s], [s, 0]] in the basis e, f."""
    return Lattice([[0, scale], [scale, 0]])


def k3_lattice():
    """The even unimodular lattice of signature (3, 19): U^3 + E8(-1)^2.

    Basis order: the e, f of each of the three hyperbolic planes, then
    the simple roots of each of the two negated E8 lattices.
    """
    U, E = hyperbolic_plane(), root_lattice("E", 8, -1)
    return direct_sum(U, U, U, E, E)


def reflection_general(gram, v):
    """Matrix of x -> x - 2 (x.v)/(v.v) v acting on row vectors.

    Works for any anisotropic v for which the result is integral (norm +-2
    vectors of an even lattice always qualify); any other v raises
    ValueError.
    """
    gv = [sum(g * x for g, x in zip(row, v)) for row in gram]  # e_i . v
    vv = sum(a * b for a, b in zip(gv, v))
    if vv == 0:
        raise ValueError("no reflection in the isotropic vector %s" % (v,))
    # entry (i, j) is [i == j] - q_ij for 2 (e_i . v) v_j = q_ij (v . v)
    qr = [[divmod(2 * a * b, vv) for b in v] for a in gv]
    if any(r for row in qr for _, r in row):
        raise ValueError("the reflection in %s is not defined over Z" % (v,))
    return [[(i == j) - q for j, (q, _) in enumerate(row)]
            for i, row in enumerate(qr)]


def reflection(gram, v):
    """The reflection x -> x + (v.x) v in a vector of norm exactly -2."""
    n = len(gram)
    vv = sum(v[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))
    if vv != -2:
        raise NotAMinusTwoVector("reflection vector has norm %s, not -2" % vv)
    return reflection_general(gram, v)


def cycle_coxeter_matrix(n):
    """Order-(n+1) rotation on the A_n root lattice.

    Sends the j-th simple root to the (j+1)-st and the last one to minus
    the sum of all of them; characteristic polynomial 1 + x + ... + x^n.
    Preserves both the A_n and the A_n(-1) Gram matrices.
    """
    M = [[0] * n for _ in range(n)]
    for j in range(n - 1):
        M[j][j + 1] = 1
    for c in range(n):
        M[n - 1][c] = -1
    return M

