"""Symbolic evaluation of the maximal L2 cohomology of weighted model spaces.

Three constructions are licensed: a cone over a compact space truncates the
link cohomology strictly below the rational cutoff f/2 + 1/(2c); a cylinder
copies the base cohomology; and a compact global space routes through the
simplicial intersection engine via the weight perversity p_g and its dual.
Cutoff comparisons are exact rational comparisons against integer degrees.
"""

from dataclasses import dataclass
from fractions import Fraction

from .complexes import cone
from .errors import ConfigurationError
from .intersection import intersection_betti
from .perversity import dual, perversity_to_json, weight_perversity
from .rationals import format_rational


@dataclass(frozen=True)
class ClosedManifold:
    """A closed manifold known only through its betti vector."""

    betti: tuple
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "betti", tuple(int(b) for b in self.betti))
        if len(self.betti) != self.dim + 1:
            raise ConfigurationError(
                f"betti vector of length {len(self.betti)} does not match dim {self.dim}"
            )
        if any(b < 0 for b in self.betti):
            raise ConfigurationError("betti numbers cannot be negative")


@dataclass(frozen=True)
class Cone:
    """Weighted cone over a compact-flavored link (manifold or cone)."""

    c: Fraction
    link: object

    def __post_init__(self):
        object.__setattr__(self, "c", Fraction(self.c))
        if self.c <= 0:
            raise ConfigurationError("cone weight must be positive")
        if isinstance(self.link, Cylinder):
            raise ConfigurationError("the link of a cone must be compact-flavored")
        if not isinstance(self.link, (ClosedManifold, Cone)):
            raise ConfigurationError(f"malformed cone link: {self.link!r}")


@dataclass(frozen=True)
class Cylinder:
    base: object

    def __post_init__(self):
        if not isinstance(self.base, (ClosedManifold, Cone, Cylinder)):
            raise ConfigurationError(f"malformed cylinder base: {self.base!r}")


def expr_dim(expr) -> int:
    if isinstance(expr, ClosedManifold):
        return expr.dim
    if isinstance(expr, (Cone, Cylinder)):
        inner = expr.link if isinstance(expr, Cone) else expr.base
        return expr_dim(inner) + 1
    raise ConfigurationError(f"not a space expression: {expr!r}")


@dataclass
class L2Report:
    """Outcome of one cone evaluation: which hypothesis fired and the cutoff."""

    max_betti: tuple
    cutoff: Fraction
    hypothesis_used: str

    def to_json(self):
        return {
            "max_betti": list(self.max_betti),
            "cutoff": format_rational(self.cutoff),
            "hypothesis_used": self.hypothesis_used,
        }


def _cutoff(f, c):
    """The cone truncation cutoff f/2 + 1/(2c) for link dimension f, weight c."""
    return Fraction(f, 2) + Fraction(1, 2) / c


def _cutoff_hypothesis(f, c):
    # In the undecided band the finite-dimensionality clause always applies
    # to representable inputs, so the sharp cutoff is available throughout.
    if c < 1:
        return "weight below one"
    if f % 2 == 0:
        return "even link"
    return "odd link, finite-dimensional link cohomology"


def cone_max_cohomology(link_betti, f: int, c):
    """Truncate the link vector strictly below f/2 + 1/(2c); degrees 0..f+1.

    The link vector is a ClosedManifold's: f+1 entries, none negative.
    Disconnected links enter through the total betti vector of the disjoint
    union; the truncation acts componentwise on that sum.
    """
    c = Fraction(c)
    if c <= 0:
        raise ConfigurationError("cone weight must be positive")
    link = ClosedManifold(link_betti, f)
    cutoff = _cutoff(f, c)
    return tuple(b if i < cutoff else 0 for i, b in enumerate(link.betti + (0,)))


def cone_report(link_betti, f: int, c) -> L2Report:
    c = Fraction(c)
    return L2Report(
        max_betti=cone_max_cohomology(link_betti, f, c),
        cutoff=_cutoff(f, c),
        hypothesis_used=_cutoff_hypothesis(f, c),
    )


def cylinder_max_cohomology(base_betti):
    """A metric cylinder copies its base cohomology, one degree longer."""
    return tuple(list(base_betti) + [0])


def eval_max(expr):
    """Recursive maximal L2 cohomology of a model space expression."""
    if isinstance(expr, ClosedManifold):
        return expr.betti
    if isinstance(expr, Cone):
        link = eval_max(expr.link)
        return cone_max_cohomology(link, expr_dim(expr.link), expr.c)
    if isinstance(expr, Cylinder):
        return cylinder_max_cohomology(eval_max(expr.base))
    raise ConfigurationError(f"not a space expression: {expr!r}")


def _is_classical(p, K):
    """Whether the per-stratum p is a classical Goresky-MacPherson
    perversity on K's strata: one value per codimension, no codimension-one
    stratum, 0 at codimension 2, and between consecutive codimensions that
    carry a value (codimension 2 always does) a rise of at least 0 and at
    most the codimension gap, so the growth rule can fill the gaps."""
    anchors = {2: 0}
    for s in K.singular_strata():
        v = p.values[s.id]
        if s.codim == 1 or anchors.setdefault(s.codim, v) != v:
            return False
    anchored = sorted(anchors.items())
    return all(0 <= v2 - v1 <= k2 - k1
               for (k1, v1), (k2, v2) in zip(anchored, anchored[1:]))


def theorem_predictions(K):
    """Predicted max/min L2 cohomology of a compact weighted space.

    The maximal side is the intersection cohomology for the dual weight
    perversity, the minimal side for the weight perversity itself; the report
    also notes when plain (non-stratified) coefficients would already do.
    """
    p_g = weight_perversity(K)
    q_g = dual(p_g, K)
    max_betti = intersection_betti(K, q_g)
    min_betti = intersection_betti(K, p_g)
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

    The analytic side truncates the link's maximal-cohomology vector at
    f/2 + 1/(2c); the simplicial side builds the closed cone, derives the
    weight perversity of its full stratum set, and computes the dual-side
    intersection cohomology. The report lists both vectors degreewise.
    """
    c = Fraction(c)
    if K_link.singular_strata():
        link_max = theorem_predictions(K_link)["max_betti"]
    else:
        link_max = list(K_link.betti())
    f = K_link.n
    analytic = cone_max_cohomology(link_max, f, c)
    C = cone(K_link, c)
    p_g = weight_perversity(C)
    q_g = dual(p_g, C)
    simplicial = intersection_betti(C, q_g)
    return {
        "link": K_link.name,
        "weight": format_rational(c),
        "cutoff": format_rational(_cutoff(f, c)),
        "hypothesis_used": _cutoff_hypothesis(f, c),
        "analytic": list(analytic),
        "simplicial": list(simplicial),
        "pass": list(analytic) == list(simplicial),
    }
