"""Allowable chains with stratified coefficients, and their exact homology.

Coefficients are fixed to the rationals, realized as the "zero on the
singular set" system: the degree-i basis consists of the regular i-simplices
(those not contained in X_{n-1}), and boundaries drop faces that lie inside
X_{n-1}. Chains and allowable sets are indexed by the complex's own simplex
indices (`FilteredComplex.index`), so the dropped-face boundary
`FilteredComplex.regular` shares each full boundary column that has no
singular face. A simplex is p-allowable in chain degree i when, for every
singular stratum Y, its largest face labeled Y has dimension at most
i - codim(Y) + p(Y). Those dimensions follow from the simplex's singular
vertices (`FilteredComplex.profile_classes`, read through the simplex's
index), so allowability is decided once per profile and degree, and a
simplex with no singular vertex is allowable in every degree. The
intersection chain space in degree i is the kernel of the non-allowable row
block of the boundary restricted to allowable columns. Betti numbers need no
basis: one reduction per degree, from the top degree down with clearing,
gives both ranks they need (`linalg.chain_ranks`). The simplices with no
singular vertex form a subcomplex that is allowable for every perversity,
so its reduction is derived once per complex on first read
(`FilteredComplex.interior`) and shared by every perversity and by
`betti()`; a query tests and reduces only the near simplices, those with a
singular vertex. Explicit bases are built only when read, in reduced column
echelon form so that subspace comparisons are deterministic, and the
allowable indices they use are likewise built on first read.
"""

from functools import cached_property
from itertools import compress

from . import linalg
from .complexes import check_orientation
from .errors import ConfigurationError
from .perversity import Perversity, dual, perversity_to_json


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
    sigma = tuple(sigma)
    try:
        j = K.index(sigma)
        profiles, of = K.profile_classes[len(sigma) - 1]
        prof = profiles[of[j]]
    except KeyError:
        prof = None
    if prof is None:
        raise ConfigurationError(f"{sigma} is not a regular simplex of {K.name}")
    return _allowed(prof, i, K, p)


class StratifiedChainComplex:
    """The intersection chain complex of (K, p): the regular simplices, the
    allowable indices into `K.simplices(i)`, and the dropped-face boundary;
    explicit bases only on demand."""

    def __init__(self, K, p: Perversity):
        self.K = K
        # per degree, whether each profile class is allowable: decided once
        # per profile, met in simplex order, so that a perversity lacking a
        # stratum fails on the same one as a per-simplex test
        self._ok = [[prof is not None and (not prof or _allowed(prof, i, K, p))
                     for prof in profiles]
                    for i, (profiles, _) in enumerate(K.profile_classes)]

    @cached_property
    def allowable_indices(self):
        """Per degree, the indices of the allowable simplices, built on first read."""
        return [list(compress(range(len(of)), map(ok.__getitem__, of)))
                for ok, (_, of) in zip(self._ok, self.K.profile_classes)]

    @cached_property
    def reg(self):
        """Per degree, the regular simplices: those not in X_{n-1}."""
        return [[s for s, k in zip(self.K.simplices(i), of) if profiles[k] is not None]
                for i, (profiles, of) in enumerate(self.K.profile_classes)]

    @cached_property
    def bases(self):
        """RCEF bases of the chain spaces IC_i, keyed by the complex's indices
        of the regular i-simplices, built on first access."""
        bnd, allow = self.K.regular, self.allowable_indices
        bases = []
        for i, cols_idx in enumerate(allow):
            # IC_i is the kernel of the non-allowable rows; ∂_0 has no entries
            allowed = set(allow[i - 1])
            sub = [{r: v for r, v in bnd[i][j].items() if r not in allowed} for j in cols_idx]
            combos = [{cols_idx[pos]: v for pos, v in combo.items()}
                      for combo in linalg.kernel(sub)]
            bases.append(linalg.rcef(combos))
        return bases

    def homology(self):
        """Betti numbers from one reduction per degree.

        With A_i the allowable columns and B_{i-1} the non-allowable rows,
        IC_i is the kernel of ∂_i[B_{i-1}, A_i], so dim IC_i = |A_i| - r_bad
        for r_bad = rank ∂_i[B_{i-1}, A_i]. The boundary on IC_i has kernel
        ker ∂_i[:, A_i], so its rank is rank ∂_i[:, A_i] - r_bad. The
        interior simplices are allowable for every perversity, so only the
        near ones are tested here, and their reduced boundaries come from the
        complex's shared table (`FilteredComplex.interior`).
        """
        K = self.K
        table = K.interior
        allow, dims = [], []
        for ok, (_, of), (near, _) in zip(self._ok, K.profile_classes, table):
            allow.append([j for j in near if ok[of[j]]])
            dims.append(len(of) - len(near) + len(allow[-1]))
        ranks = [0] * (K.n + 2)
        for i, (r_all, r_bad) in enumerate(linalg.chain_ranks(K.regular, allow, table)):
            dims[i] -= r_bad
            ranks[i] = r_all - r_bad
        return tuple(dims[i] - ranks[i] - ranks[i + 1] for i in range(K.n + 1))


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
