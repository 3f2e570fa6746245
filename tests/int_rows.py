"""The int-row form the package used at odd p before every row was packed.

A row is a list of Python ints in [0, p).  These are the package's former
`rref_rows`, `complement_rows` and `reduce_row`, and the toy step's former
odd-d row primitives (`ref_int_rows`, with its numpy gate plan); the tests
compare the packed kernels of `_modmath` and the toy steps against them at
every p.
"""

from operator import mul

from spektoy import _modmath as mm
from spektoy import phase_algebra as pa


def ref_rref_rows(rows, n, p):
    """Reduced row echelon form over Z_p of int rows with entries in
    [0, p): (nonzero rows, pivot columns).  rows (each of length n) is
    consumed."""
    m = len(rows)
    r = 0
    pivots = []
    for c in range(n):
        if r >= m:
            break
        i = next((i for i in range(r, m) if rows[i][c]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        top = rows[r]
        if top[c] != 1:
            inv = pow(top[c], -1, p)
            top = rows[r] = [x * inv % p for x in top]
        for j in range(m):
            f = rows[j][c]
            if f and j != r:
                rows[j] = [(x - f * y) % p for x, y in zip(rows[j], top)]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def ref_complement_rows(R, pivots, n, p):
    """Rref basis of {x : R x = 0 mod p} for R in rref with these pivots."""
    basis = []
    for c in range(n):
        if c in pivots:
            continue
        v = [0] * n
        v[c] = 1
        for row, pc in zip(R, pivots):
            v[pc] = -row[c] % p
        basis.append(v)
    return ref_rref_rows(basis, n, p)[0]


def ref_reduce_row(v, R, p):
    """The canonical coset representative of the int row v modulo the row
    space of R, in rref: v's pivot coordinates eliminated."""
    for row in R:
        f = v[row.index(1)]
        if f:
            v = [(x - f * y) % p for x, y in zip(v, row)]
    return v


def ref_subspace(rows, d, n):
    """The subspace of these int rows, eliminated by the reference and
    packed into `Subspace`'s one row form."""
    R, _ = ref_rref_rows([[int(x) % d for x in r] for r in rows], 2 * n, d)
    return pa.Subspace(tuple(map(mm.pack, R)), d, n)


class _IntRows:
    """The row primitives of a toy step on int rows (or V's tuples) with
    entries in [0, d), drop-in for `toy_model._row_form(d, n)`."""

    def __init__(self, d, n):
        self.d, self.n = d, n

    def of(self, V):
        return list(V.gens)

    def subspace(self, rows):
        return pa.Subspace(tuple(map(mm.pack, rows)), self.d, self.n)

    def products(self, rows, a):
        Ja, d = pa.symplectic_row(a), self.d
        return [sum(map(mul, g, Ja)) % d for g in rows]

    def reduce(self, a, rows):
        return ref_reduce_row(list(a), rows, self.d)

    def led_by_one(self, v):
        q = next((c for c, x in enumerate(v) if x), None)
        if q is None:
            return None
        inv = pow(v[q], -1, self.d)
        return q, inv, [x * inv % self.d for x in v]

    def column(self, rows, q):
        return [g[q] for g in rows]

    def subtract(self, rows, factors, top):
        d = self.d
        return [[(y - f * z) % d for y, z in zip(g, top)] if f else g
                for g, f in zip(rows, factors)]

    def moved(self, V, g):
        """(V_new = V S^-1, H, c): H = V_new S on V's pivot columns and
        c = V_new a, as numpy products."""
        d = self.d
        V_new = ref_subspace((V.matrix @ g.Sinv).tolist(), d, self.n)
        N = V_new.matrix
        return V_new, ((N @ g.S)[:, V.pivots] % d).tolist(), (N @ g.a % d).tolist()


def ref_int_rows(d, n):
    return _IntRows(d, n)
