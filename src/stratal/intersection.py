"""Allowable chains with stratified coefficients, and their exact homology.

Coefficients are fixed to the rationals, realized as the "zero on the
singular set" system: the degree-i basis consists of the regular i-simplices
(those not contained in X_{n-1}), and boundaries drop faces that lie inside
X_{n-1}. A simplex is p-allowable in chain degree i when, for every singular
stratum Y, its largest face labeled Y has dimension at most
i - codim(Y) + p(Y). The intersection chain space in degree i is the kernel
of the non-allowable row block of the boundary restricted to allowable
columns. Betti numbers come from two integer ranks per degree and need no
basis; explicit bases are built only when read, in reduced column echelon
form so that subspace comparisons are deterministic.
"""

from functools import cached_property
from itertools import combinations

from . import linalg
from .complexes import check_orientation
from .perversity import Perversity, dual, perversity_to_json


def _regular_cache(K):
    """Per-degree regular bases, boundaries with singular faces dropped, and
    singular-face profiles. Built once per complex, on first use."""
    if K._regular is not None:
        return K._regular
    n = K.n
    reg = [[s for s in K.simplices(i) if K.levels[s] == n] for i in range(n + 1)]
    bnd = [[{} for _ in reg[0]]]
    for i in range(1, n + 1):
        # the dropped-face boundary is the full boundary restricted to regular rows
        rows = {K.index(s): j for j, s in enumerate(reg[i - 1])}
        full = K.boundary_matrix(i)
        bnd.append([
            {rows[r]: v for r, v in full[K.index(s)].items() if r in rows} for s in reg[i]
        ])
    profiles = {}
    for i in range(n + 1):
        for s in reg[i]:
            prof = {}
            for size in range(1, len(s)):
                for face in combinations(s, size):
                    sid = K.label_of[face]
                    if K.strata[sid].singular:
                        d = size - 1
                        if prof.get(sid, -1) < d:
                            prof[sid] = d
            profiles[s] = prof
    K._regular = (reg, bnd, profiles)
    return K._regular


def _allowed(prof, i, K, p):
    """p-allowability at chain degree i of a simplex with singular-face profile prof."""
    for sid, d in prof.items():
        st = K.strata[sid]
        if d > i - st.codim + p.value(sid, st.codim):
            return False
    return True


def allowable(sigma, i, K, p: Perversity) -> bool:
    """p-allowability of a regular simplex at chain degree i.

    The degree is the chain degree, which exceeds dim(sigma) when boundary
    faces are being checked at their own degree i-1.
    """
    return _allowed(_regular_cache(K)[2][tuple(sigma)], i, K, p)


class StratifiedChainComplex:
    """The intersection chain complex of (K, p): regular bases, allowable
    columns, and the dropped-face boundary; explicit bases only on demand."""

    def __init__(self, K, p: Perversity):
        self.K = K
        reg, bnd, profiles = _regular_cache(K)
        self.reg = reg
        self._bnd = bnd
        self.allowable_indices = [
            [j for j, s in enumerate(reg[i]) if _allowed(profiles[s], i, K, p)]
            for i in range(K.n + 1)
        ]

    @cached_property
    def bases(self):
        """RCEF bases of the chain spaces IC_i over the regular i-simplices,
        built on first access."""
        reg, bnd, allow = self.reg, self._bnd, self.allowable_indices
        bases = []
        for i in range(self.K.n + 1):
            cols_idx = allow[i]
            if i == 0:
                combos = [{j: 1} for j in cols_idx]
            else:
                bad_rows = set(range(len(reg[i - 1]))) - set(allow[i - 1])
                if not bad_rows:
                    combos = [{j: 1} for j in cols_idx]
                else:
                    sub = []
                    for j in cols_idx:
                        col = {r: v for r, v in bnd[i][j].items() if r in bad_rows}
                        sub.append(col)
                    kern = linalg.kernel(sub)
                    combos = [
                        {cols_idx[pos]: v for pos, v in combo.items()} for combo in kern
                    ]
            bases.append(linalg.rcef(combos))
        return bases

    def homology(self):
        """Betti numbers from two ranks per degree.

        With A_i the allowable columns and B_{i-1} the non-allowable rows,
        IC_i is the kernel of ∂_i[B_{i-1}, A_i], so dim IC_i = |A_i| - r_bad
        for r_bad = rank ∂_i[B_{i-1}, A_i]. The boundary on IC_i has kernel
        ker ∂_i[:, A_i], so its rank is rank ∂_i[:, A_i] - r_bad.
        """
        n = self.K.n
        allow = self.allowable_indices
        dims = [len(a) for a in allow]
        ranks = [0] * (n + 2)
        for i in range(1, n + 1):
            allowed_rows = set(allow[i - 1])
            cols = [self._bnd[i][j] for j in allow[i]]
            r_bad = linalg.rank(
                [{r: v for r, v in col.items() if r not in allowed_rows} for col in cols]
            )
            dims[i] -= r_bad
            ranks[i] = linalg.rank(cols) - r_bad
        return tuple(dims[i] - ranks[i] - ranks[i + 1] for i in range(n + 1))


def intersection_betti(K, p: Perversity):
    """Intersection homology ranks with stratified rational coefficients."""
    return StratifiedChainComplex(K, p).homology()


def duality_check(K, p: Perversity):
    """Check dim I^pH_i = dim I^{t-p}H_{n-i} on a compact oriented space.

    Unorientable or bounded inputs yield a not-applicable report (the duality
    hypothesis is unmet), never a failure.
    """
    n = K.n
    report = {
        "space": K.name,
        "perversity": perversity_to_json(p),
        "applicable": True,
        "reason": None,
    }
    if not K.is_closed():
        report["applicable"] = False
        report["reason"] = "space has boundary faces"
        return report
    if check_orientation(K) is None:
        report["applicable"] = False
        report["reason"] = "space is unorientable"
        return report
    q = dual(p, K)
    v_p = intersection_betti(K, p)
    v_q = intersection_betti(K, q)
    report["dual_perversity"] = perversity_to_json(q)
    report["betti"] = list(v_p)
    report["dual_betti"] = list(v_q)
    report["pass"] = all(v_p[i] == v_q[n - i] for i in range(n + 1))
    return report
