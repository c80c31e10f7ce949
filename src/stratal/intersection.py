"""Allowable chains with stratified coefficients, and their exact homology.

Coefficients are fixed to the rationals, realized as the "zero on the
singular set" system: the degree-i basis consists of the regular i-simplices
(those not contained in X_{n-1}), and boundaries drop faces that lie inside
X_{n-1}. In chain terms that deletes the X_{n-1} rows of the simplicial
boundary, so this chain model is a partition of the rows of
`FilteredComplex.boundary_matrix`: allowed, dropped (X_{n-1}) and the
non-allowable rest. Chains and allowable sets are indexed by the complex's
own simplex indices, the positions in `FilteredComplex.simplices`, and the
complex keeps no second boundary: the rows are dropped as each query reduces
(`linalg.chain_ranks`), and a column with no singular face enters as it is.
A simplex is p-allowable in chain degree i when, for every singular stratum
Y, its largest face labeled Y has dimension at most i - codim(Y) + p(Y),
with p(Y) read from `perversity.resolve`, which refuses a perversity that
does not fit the space before any chain is built.
Those dimensions follow from the simplex's singular vertices
(`FilteredComplex.profile_classes`, read through the simplex's index), so
allowability is decided once per profile and degree, and a simplex with no
singular vertex is allowable in every degree. The intersection chain space
in degree i is the kernel of the non-allowable row block of the boundary
restricted to allowable columns. Betti numbers need no basis, and depend
on the perversity only through its allowable pattern, whether each profile
class is allowable in each degree. So this module decides the pattern, and
the complex's one rank query (`FilteredComplex.betti_of`), which `betti()`
reads too, reduces each pattern once: many perversities share one, since
every value p(Y) >= codim(Y) - 1 admits every simplex that meets Y, and a
perversity whose pattern that complex has already met is not reduced again.
Explicit bases are built only when read, in reduced column echelon form so
that subspace comparisons are deterministic, and the allowable indices they
use are likewise built on first read.
"""

from functools import cached_property
from itertools import compress

from . import linalg
from .complexes import check_orientation
from .perversity import Perversity, dual, perversity_to_json, resolve


def _allowed(prof, i, K, values):
    """Allowability at chain degree i of a simplex with singular-face
    profile prof, under the perversity values of `perversity.resolve`."""
    for sid, d in prof.items():
        if d > i - K.strata[sid].codim + values[sid]:
            return False
    return True


class StratifiedChainComplex:
    """The intersection chain complex of (K, p): the regular simplices and
    the allowable indices into `K.simplices(i)`, over the complex's boundary
    with the X_{n-1} rows dropped; explicit bases only on demand."""

    def __init__(self, K, p: Perversity):
        self.K = K
        values = resolve(p, K)
        # per degree, whether each profile class is allowable: the pattern
        # that `K.betti_of` takes, decided once per profile
        self._ok = tuple(tuple(prof is not None and (not prof or _allowed(prof, i, K, values))
                               for prof in profiles)
                         for i, (profiles, _) in enumerate(K.profile_classes))

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
        for cols_idx, (near, _, columns, singular) in zip(self.allowable_indices, self.K.interior):
            # IC_i is the kernel of the rows that are neither allowed nor in
            # X_{n-1}; an interior column meets only allowed rows, so its
            # block is empty, as is every column of degree 0
            sub = [{r: v for r, v in (columns[j] or {}).items() if r in bad} for j in cols_idx]
            # integer ±1 columns with no stored zero, and rcef is canonical
            # for a span, so the raw zero combinations serve
            combos = [{cols_idx[pos]: v for pos, v in combo.items()}
                      for combo in linalg._zero_combinations(sub)]
            bases.append(linalg.rcef(combos))
            bad = set(near).difference(cols_idx, singular)
        return bases

    def homology(self):
        """Betti numbers of IC, from the complex's one rank query
        (`FilteredComplex.betti_of`) under this allowable pattern, with the
        X_{n-1} rows dropped."""
        return self.K.betti_of(self._ok)


def intersection_betti(K, p: Perversity):
    """Intersection homology ranks with stratified rational coefficients."""
    return StratifiedChainComplex(K, p).homology()


def duality_check(K, p: Perversity):
    """Check dim I^pH_i = dim I^{t-p}H_{n-i} on a compact oriented space.

    Unorientable or bounded inputs yield a not-applicable report (the duality
    hypothesis is unmet), never a failure; p is resolved against K first, on
    every space.
    """
    n = K.n
    q = dual(p, K)
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
    v_p = intersection_betti(K, p)
    v_q = intersection_betti(K, q)
    report["dual_perversity"] = perversity_to_json(q)
    report["betti"] = list(v_p)
    report["dual_betti"] = list(v_q)
    report["pass"] = all(v_p[i] == v_q[n - i] for i in range(n + 1))
    return report
