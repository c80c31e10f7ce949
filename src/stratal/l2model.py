"""Symbolic evaluation of the maximal L2 cohomology of weighted model spaces.

Two constructions are licensed: a cone over a compact space truncates the
link cohomology strictly below the rational cutoff f/2 + 1/(2c), and a
compact global space routes through the simplicial intersection engine via
the weight perversity p_g and its dual.
A cone keeps degree i iff i <= [[f/2 + 1/(2c)]], the integer that
`perversity._cutoff_bracket` computes for p_g too; the rational cutoff
itself (`perversity.cone_cutoff`) is only reported.

The formulas need only `perversity` and `rationals`; the two functions that
route through the simplicial engine, `theorem_predictions` and
`local_model_check`, import it when called (one package-relative import
statement each, the cheapest form), so `cone_report` loads no complex.
"""

from .errors import ConfigurationError
from .perversity import (
    Frozen,
    Record,
    _cutoff_bracket,
    _gm_growth,
    cone_cutoff,
    dual,
    perversity_to_json,
    resolve,
    weight_perversity,
)
from .rationals import format_rational, parse_weight


class ClosedManifold(Frozen):
    """A closed manifold known only through its betti vector: dim + 1 ints
    (never bools, floats or strings), none negative."""

    __slots__ = __match_args__ = ("betti", "dim")

    def __init__(self, betti, dim):
        betti = tuple(betti)
        if len(betti) != dim + 1:
            raise ConfigurationError(
                f"betti vector of length {len(betti)} does not match dim {dim}"
            )
        if any(type(b) is not int for b in betti):
            raise ConfigurationError(f"betti numbers must be integers, got {list(betti)}")
        if any(b < 0 for b in betti):
            raise ConfigurationError("betti numbers cannot be negative")
        self._set(betti, dim)


class Cone(Frozen):
    """Weighted cone over a compact-flavored link (manifold or cone)."""

    __slots__ = __match_args__ = ("c", "link")

    def __init__(self, c, link):
        c = parse_weight(c, "cone weight")
        if not isinstance(link, (ClosedManifold, Cone)):
            raise ConfigurationError(f"malformed cone link: {link!r}")
        self._set(c, link)


class L2Report(Record):
    """Outcome of one cone evaluation: which hypothesis fired and the cutoff."""

    __match_args__ = ("max_betti", "cutoff", "hypothesis_used")

    def __init__(self, max_betti, cutoff, hypothesis_used):
        self.max_betti = max_betti
        self.cutoff = cutoff
        self.hypothesis_used = hypothesis_used

    def to_json(self):
        return {
            "max_betti": list(self.max_betti),
            "cutoff": format_rational(self.cutoff),
            "hypothesis_used": self.hypothesis_used,
        }


def _cutoff_hypothesis(f, c):
    # In the undecided band the finite-dimensionality clause always applies
    # to representable inputs, so the sharp cutoff is available throughout.
    if c < 1:
        return "weight below one"
    if f % 2 == 0:
        return "even link"
    return "odd link, finite-dimensional link cohomology"


def cone_max_cohomology(link_betti, f: int, c):
    """Truncate the link vector strictly below f/2 + 1/(2c), keeping degree i
    iff i <= [[f/2 + 1/(2c)]]; degrees 0..f+1.

    The link vector is a ClosedManifold's: f+1 entries, none negative.
    Disconnected links enter through the total betti vector of the disjoint
    union; the truncation acts componentwise on that sum.
    """
    c = parse_weight(c, "cone weight")
    link = ClosedManifold(link_betti, f)
    top = _cutoff_bracket(f, c)
    return tuple(b if i <= top else 0 for i, b in enumerate(link.betti + (0,)))


def cone_report(link_betti, f: int, c) -> L2Report:
    c = parse_weight(c, "cone weight")
    return L2Report(
        max_betti=cone_max_cohomology(link_betti, f, c),
        cutoff=cone_cutoff(f, c),
        hypothesis_used=_cutoff_hypothesis(f, c),
    )


def eval_max(expr):
    """Recursive maximal L2 cohomology of a model space expression."""
    if isinstance(expr, ClosedManifold):
        return expr.betti
    if isinstance(expr, Cone):
        # the vector of a space of dimension f has f + 1 entries
        link = eval_max(expr.link)
        return cone_max_cohomology(link, len(link) - 1, expr.c)
    raise ConfigurationError(f"not a space expression: {expr!r}")


def _is_classical(p, K):
    """Whether p, resolved on K's strata (`perversity.resolve`), is a
    classical Goresky-MacPherson perversity there: no codimension-one
    stratum, one value per codimension, and those values pass
    `perversity._gm_growth`, the rule that `is_gm_perversity` applies too;
    codimensions without a stratum are the gaps it lets a GM perversity
    fill."""
    values = resolve(p, K)
    by_codim = {}
    for s in K.singular_strata():
        v = values[s.id]
        if s.codim == 1 or by_codim.setdefault(s.codim, v) != v:
            return False
    return _gm_growth(by_codim)


def theorem_predictions(K):
    """Predicted max/min L2 cohomology of a compact weighted space.

    The maximal side is the intersection cohomology for the dual weight
    perversity, the minimal side for the weight perversity itself; the report
    also notes when plain (non-stratified) coefficients would already do.
    """
    from . import intersection

    p_g = weight_perversity(K)
    q_g = dual(p_g, K)
    max_betti = intersection.intersection_betti(K, q_g)
    min_betti = intersection.intersection_betti(K, p_g)
    classical = _is_classical(p_g, K)
    skeleta_equal = not any(s.level == K.n - 1 for s in K.strata.values())
    return {
        "space": K.name,
        "p_g": perversity_to_json(p_g),
        "q_g": perversity_to_json(q_g),
        "max_betti": list(max_betti),
        "min_betti": list(min_betti),
        "classical_gm": classical,
        "top_two_skeleta_equal": skeleta_equal,
        "cor_z_applies": classical and skeleta_equal,
    }


def fredholm_indices(max_betti, min_betti):
    """Indices of the even-to-odd operators determined by the two vectors."""
    if len(max_betti) != len(min_betti):
        raise ConfigurationError("max and min vectors must have equal length")
    ind_max = sum(max_betti[i] for i in range(0, len(max_betti), 2))
    ind_max -= sum(min_betti[i] for i in range(1, len(min_betti), 2))
    ind_min = sum(min_betti[i] for i in range(0, len(min_betti), 2))
    ind_min -= sum(max_betti[i] for i in range(1, len(max_betti), 2))
    return ind_max, ind_min


def local_model_check(K_link, c):
    """Compare the analytic cone truncation with the simplicial engine.

    The analytic side truncates the link's maximal-cohomology vector (its
    intersection cohomology for the dual weight perversity, which on a
    manifold is its betti vector) at f/2 + 1/(2c); the simplicial side
    builds the closed cone, derives the weight perversity of its full
    stratum set, and computes the dual-side intersection cohomology. The
    report lists both vectors degreewise.
    """
    from . import complexes, intersection

    c = parse_weight(c, "cone weight")
    link_max = intersection.intersection_betti(K_link, dual(weight_perversity(K_link), K_link))
    analytic = cone_report(link_max, K_link.n, c)
    C = complexes.cone(K_link, c)
    p_g = weight_perversity(C)
    q_g = dual(p_g, C)
    simplicial = intersection.intersection_betti(C, q_g)
    return {
        "link": K_link.name,
        "weight": format_rational(c),
        "cutoff": format_rational(analytic.cutoff),
        "hypothesis_used": analytic.hypothesis_used,
        "analytic": list(analytic.max_betti),
        "simplicial": list(simplicial),
        "pass": list(analytic.max_betti) == list(simplicial),
    }
