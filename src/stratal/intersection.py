"""Allowable chains with stratified coefficients, and their exact homology.

Coefficients are fixed to the rationals, realized as the "zero on the
singular set" system: the degree-i basis consists of the regular i-simplices
(those not contained in X_{n-1}), and boundaries drop faces that lie inside
X_{n-1}. In chain terms that deletes the X_{n-1} rows of the simplicial
boundary, so this chain model is a partition of the rows of
`FilteredComplex.boundary_matrix`: allowed, dropped (X_{n-1}) and the
non-allowable rest. Chains and allowable sets are indexed by the complex's
own simplex indices (`FilteredComplex.index`), and the complex keeps no
second boundary: the rows are dropped as each query reduces
(`linalg.chain_ranks`), and a column with no singular face enters as it is.
A simplex is p-allowable in chain degree i when, for every singular stratum
Y, its largest face labeled Y has dimension at most i - codim(Y) + p(Y).
Those dimensions follow from the simplex's singular vertices
(`FilteredComplex.profile_classes`, read through the simplex's index), so
allowability is decided once per profile and degree, and a simplex with no
singular vertex is allowable in every degree. The intersection chain space
in degree i is the kernel of the non-allowable row block of the boundary
restricted to allowable columns. Betti numbers need no
basis: one reduction per degree, from the top degree down with clearing,
gives both ranks they need (`linalg.chain_ranks`). The simplices with no
singular vertex form a subcomplex that is allowable for every perversity,
so its reduction is derived once per complex on first read
(`FilteredComplex.interior`) and shared by every perversity and by
`betti()`; a query tests and reduces only the near simplices, those with a
singular vertex, whose columns the complex builds once and keeps
(`FilteredComplex.near_boundary`). Betti numbers depend on the perversity
only through its allowable pattern, whether each profile class is
allowable in each degree, and many perversities share one: every value
p(Y) >= codim(Y) - 1 admits every simplex that meets Y. So each complex
keeps the answer per pattern (`FilteredComplex.ih_memo`), and a perversity
whose pattern that complex has already met is not reduced again.
Explicit bases are built only when read, in reduced column echelon form so
that subspace comparisons are deterministic, and the allowable indices they
use are likewise built on first read.
"""

from functools import cached_property
from itertools import compress

from . import linalg
from .complexes import _betti, check_orientation
from .perversity import Perversity, dual, perversity_to_json


def _allowed(prof, i, K, p):
    """p-allowability at chain degree i of a simplex with singular-face profile prof."""
    for sid, d in prof.items():
        st = K.strata[sid]
        if d > i - st.codim + p.value(sid, st.codim):
            return False
    return True


class StratifiedChainComplex:
    """The intersection chain complex of (K, p): the regular simplices and
    the allowable indices into `K.simplices(i)`, over the complex's boundary
    with the X_{n-1} rows dropped; explicit bases only on demand."""

    def __init__(self, K, p: Perversity):
        self.K = K
        # per degree, whether each profile class is allowable: decided once
        # per profile, met in simplex order, so that a perversity lacking
        # several strata names the first one that a simplex meets
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
        bases = []
        bad = ()
        for i, (cols_idx, (profiles, of)) in enumerate(
                zip(self.allowable_indices, self.K.profile_classes)):
            # IC_i is the kernel of the rows that are neither allowed nor in X_{n-1}
            bnd = self.K.boundary_matrix(i)
            sub = [{r: v for r, v in bnd[j].items() if r in bad} for j in cols_idx]
            # integer ±1 columns with no stored zero, and rcef is canonical
            # for a span, so the raw zero combinations serve
            combos = [{cols_idx[pos]: v for pos, v in combo.items()}
                      for combo in linalg._zero_combinations(sub)]
            bases.append(linalg.rcef(combos))
            bad = {j for j, c in enumerate(of) if profiles[c] is not None}.difference(cols_idx)
        return bases

    def homology(self):
        """Betti numbers from one reduction per degree.

        With ∂_i the complex's boundary with the X_{n-1} rows dropped, A_i
        the allowable columns and B_{i-1} the regular non-allowable rows,
        IC_i is the kernel of ∂_i[B_{i-1}, A_i], so dim IC_i = |A_i| - r_bad
        for r_bad = rank ∂_i[B_{i-1}, A_i]. The boundary on IC_i has kernel
        ker ∂_i[:, A_i], so its rank is rank ∂_i[:, A_i] - r_bad; `betti()`
        reads the same formula (`complexes._betti`) with nothing dropped.
        The interior simplices are allowable for every perversity, so only
        the near ones are tested here, their columns read from the
        complex's `near_boundary`, and the interior's reduced boundaries
        come from the complex's shared table (`FilteredComplex.interior`);
        X_{n-1}, whose simplices are near ones with the profile None, gives
        the dropped rows. The answer is
        kept in the complex's memo under the allowable pattern and returned
        from there for any later perversity with the same pattern.
        """
        K = self.K
        pattern = tuple(map(tuple, self._ok))
        if pattern in K.ih_memo:
            return K.ih_memo[pattern]
        table = K.interior
        allow, sizes = [], []
        for ok, (_, of), (near, _) in zip(self._ok, K.profile_classes, table):
            allow.append([j for j in near if ok[of[j]]])
            sizes.append(len(of) - len(near) + len(allow[-1]))
        drop = [[] for _ in table]
        for s in K.skeleton(K.n - 1):
            drop[len(s) - 1].append(K.index(s))
        K.ih_memo[pattern] = _betti(sizes, linalg.chain_ranks(K.near_boundary, allow, table, drop))
        return K.ih_memo[pattern]


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
