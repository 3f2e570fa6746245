"""All of Sp(2n, Z_d) by breadth-first closure of a standard generator set.

A test reference: the exhaustive covariance search in `ref_fit_covariance`
walks these matrices in BFS order, and the n = 1 property draws sample
from them.  The package itself never enumerates the group.
"""

from functools import lru_cache

import numpy as np

from spektoy import _modmath as mm
from spektoy.phase_algebra import _check_dn, sp_order, symplectic_form


def _site_embed(block: np.ndarray, site: int, n: int, d: int) -> np.ndarray:
    S = np.eye(2 * n, dtype=np.int64)
    S[2 * site : 2 * site + 2, 2 * site : 2 * site + 2] = block
    return mm.modp(S, d)


def _sum_embed(i: int, j: int, n: int, d: int) -> np.ndarray:
    # x_j += x_i, p_i -= p_j: the two-site entangling generator
    S = np.eye(2 * n, dtype=np.int64)
    S[2 * j, 2 * i] = 1
    S[2 * i + 1, 2 * j + 1] = (-1) % d
    return mm.modp(S, d)


def _sp_generators(n: int, d: int) -> list[np.ndarray]:
    fourier = np.array([[0, -1], [1, 0]], dtype=np.int64)
    shear = np.array([[1, 0], [1, 1]], dtype=np.int64)
    gens = []
    for k in range(n):
        gens.append(_site_embed(fourier, k, n, d))
        gens.append(_site_embed(shear, k, n, d))
    for i in range(n):
        for j in range(n):
            if i != j:
                gens.append(_sum_embed(i, j, n, d))
    return gens


@lru_cache(maxsize=8)
def symplectic_matrices(n: int, d: int) -> tuple[np.ndarray, ...]:
    """All of Sp(2n, Z_d), enumerated by breadth-first closure of a
    standard generator set.  The count is asserted against the group-order
    formula, which certifies exhaustiveness.  Order is BFS discovery order
    (identity first), which puts shallow group elements early.
    """
    _check_dn(d, n)
    order = sp_order(n, d)
    gens = _sp_generators(n, d)
    J = symplectic_form(n, d)
    for g in gens:
        assert not np.any(mm.modp(g.T @ J @ g - J, d)), "bad symplectic generator"
    identity = np.eye(2 * n, dtype=np.int64)
    seen = {identity.tobytes()}
    out = [identity]
    frontier = [identity]
    while frontier:
        nxt = []
        for S in frontier:
            for g in gens:
                T = mm.modp(S @ g, d)
                key = T.tobytes()
                if key not in seen:
                    seen.add(key)
                    out.append(T)
                    nxt.append(T)
        frontier = nxt
    if len(out) != order:
        raise AssertionError(
            f"symplectic closure found {len(out)} elements, expected {order}"
        )
    for S in out:
        S.setflags(write=False)
    return tuple(out)
