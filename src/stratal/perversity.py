"""Perversity values, constructions, duals, and the weight maps.

A perversity is either a function of stratum codimension (the classical
Goresky-MacPherson shape, extended to arbitrary integers) or an arbitrary
integer function on singular strata. Metric weights c_Y > 0 are exact
rationals; the bracket function [[x]] (greatest integer strictly below x) is
the only nonlinearity, and it is evaluated exactly. No floats anywhere: the
bracket is discontinuous at integers and float rounding would corrupt the
resulting perversities. The bracket of the cone cutoff, which gives p_g and
the L2 cone truncation, is one integer floor division (`_cutoff_bracket`);
Fractions appear only where weights are read or written.

`Record` and `Frozen` are the small value-type bases that `l2model` and
`verify` reuse; they live here because both modules already import this one.
"""

from fractions import Fraction

from .errors import ConfigurationError, RealizabilityError
from .rationals import format_rational, parse_int, parse_weight

BY_CODIM = "by-codim"
PER_STRATUM = "per-stratum"


class Record:
    """Value semantics over the field names in `__match_args__`: a keyword
    repr, and equality between instances of one class, field by field.

    Like a plain dataclass it is unhashable and mutable; `Frozen` adds the
    hash and forbids assignment."""

    __slots__ = ()
    __match_args__ = ()

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented


class Frozen(Record):
    """An immutable, hashable Record. A subclass lists its fields in both
    `__slots__` and `__match_args__` and sets them once, through `_set`."""

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class Perversity(Frozen):
    """An integer-valued perversity.

    kind "by-codim": values maps codimension k >= 1 (an int) to an integer.
    kind "per-stratum": values maps a stratum id to an integer.
    A value is an int, never a bool, a float or a Fraction; negative values
    are legitimate, and nothing is clamped. These rules are checked here, for
    every perversity, read from JSON or built in code.

    Either kind writes a function on the singular strata of a space, a
    general perversity in Friedman's sense. A perversity is built without a
    space; `resolve` evaluates it on one, and is the only check against it.
    """

    __slots__ = __match_args__ = ("kind", "values")

    def __init__(self, kind, values):
        values = dict(values)
        if kind not in (BY_CODIM, PER_STRATUM):
            raise ConfigurationError(f"unknown perversity kind {kind!r}")
        if any(type(v) is not int for v in values.values()):
            raise ConfigurationError("perversity values must map keys to integers")
        if kind == BY_CODIM and any(type(k) is not int or k < 1 for k in values):
            raise ConfigurationError("by-codim perversity keys must be codimensions >= 1")
        self._set(kind, values)

    def __hash__(self):
        # Frozen's hash would hash the values dict; Record gives the equality
        return hash((self.kind, tuple(sorted(self.values.items(), key=repr))))


def bracket(x) -> int:
    """Greatest integer strictly less than x, for positive rational x, read
    exactly: a float, a bool or x <= 0 raises ConfigurationError."""
    x = parse_weight(x, "bracket argument")
    if x.denominator == 1:
        return x.numerator - 1
    return x.numerator // x.denominator


def zero_perversity(n) -> Perversity:
    return Perversity(BY_CODIM, {k: 0 for k in range(1, n + 1)})


def top_perversity(n) -> Perversity:
    """t(k) = k - 2 on codimensions 1..n (codimension-one strata included)."""
    if n < 1:
        raise ConfigurationError("ambient dimension must be at least 1")
    return Perversity(BY_CODIM, {k: k - 2 for k in range(1, n + 1)})


def middle_perversities(n):
    """(lower, upper) middle perversities on codimensions 1..n.

    upper(k) = floor((k-1)/2) and lower = t - upper, so at link dimension
    l = k - 1 the upper value is l/2 for even l and (l-1)/2 for odd l.
    """
    if n < 1:
        raise ConfigurationError("ambient dimension must be at least 1")
    upper = Perversity(BY_CODIM, {k: (k - 1) // 2 for k in range(1, n + 1)})
    lower = Perversity(BY_CODIM, {k: (k - 2) - (k - 1) // 2 for k in range(1, n + 1)})
    return lower, upper


NAMED_PERVERSITIES = ("zero", "top", "lower-middle", "upper-middle")


def named_perversity(name, n) -> Perversity:
    """One of NAMED_PERVERSITIES on codimensions 1..n.

    A 0-dimensional space has no codimensions: there zero is the empty
    per-stratum perversity, and the others raise. A negative n raises.
    """
    if n < 0:
        raise ConfigurationError(f"ambient dimension cannot be negative, got {n}")
    if name == "zero":
        return zero_perversity(n) if n >= 1 else Perversity(PER_STRATUM, {})
    if name == "top":
        return top_perversity(n)
    if name in ("lower-middle", "upper-middle"):
        return middle_perversities(n)[name == "upper-middle"]
    raise ConfigurationError(
        f"unknown perversity name {name!r}; use one of {NAMED_PERVERSITIES}"
    )


def resolve(p: Perversity, K, what="perversity"):
    """p's value on each singular stratum of the complex K, keyed by stratum
    id in `K.singular_strata()` order: the one place where a perversity
    meets a space. Before any chain work it refuses, with a
    ConfigurationError, a per-stratum id that is not a singular stratum of
    K, a by-codim key above `K.n` and a singular stratum that p gives no
    value; `what` names p in the first two messages. A by-codim key at most
    `K.n` that no stratum has is accepted, so that the named perversities
    fit every space of their dimension. O(singular strata): no simplex is
    read."""
    strata = K.singular_strata()
    by_codim = p.kind == BY_CODIM
    values = {s.id: p.values.get(s.codim if by_codim else s.id) for s in strata}
    if by_codim and p.values and max(p.values) > K.n:
        over = next(k for k in p.values if k > K.n)
        raise ConfigurationError(
            f"{what} names codimension {over}, above the dimension {K.n} of the space")
    if not by_codim and not values.keys() >= p.values.keys():
        unknown = next(sid for sid in p.values if sid not in values)
        raise ConfigurationError(f"{what} names unknown singular stratum {unknown!r}; "
                                 f"known: {sorted(values)}")
    if None in values.values():  # a value is an int, never None
        s = next(s for s in strata if values[s.id] is None)
        where = f"at codimension {s.codim}" if by_codim else f"on stratum {s.id!r}"
        raise ConfigurationError(f"perversity has no value {where}")
    return values


def dual(p: Perversity, K=None) -> Perversity:
    """The complementary perversity t - p (an involution).

    Given the complex K, p is first resolved against it (`resolve`). A
    by-codim p dualizes on its own domain; a per-stratum p needs K and
    dualizes on its singular strata, bar the empty one (zero on a
    0-dimensional space), which has no value to dualize and is its own dual.
    """
    values = None if K is None else resolve(p, K)
    if p.kind == BY_CODIM:
        return Perversity(BY_CODIM, {k: k - 2 - v for k, v in p.values.items()})
    if values is None:
        if p.values:
            raise ConfigurationError("dualizing a per-stratum perversity needs codimensions")
        return p
    return Perversity(PER_STRATUM, {sid: K.strata[sid].codim - 2 - v for sid, v in values.items()})


def cone_cutoff(l, c):
    """The cone truncation cutoff l/2 + 1/(2c) for link dimension l and weight
    c, as the rational that `l2model.cone_report` prints. Its bracket is
    `_cutoff_bracket`."""
    return Fraction(l, 2) + Fraction(1, 2) / c


def _cutoff_bracket(l, c) -> int:
    """[[l/2 + 1/(2c)]] for an integer l and a weight c already read by
    `parse_weight`, in integer arithmetic: with c = a/b in lowest terms the
    cutoff is (l*a + b) / (2a), and the greatest integer strictly below N/D,
    for integers N and D > 0, is (N - 1) // D. The weight perversity and the
    L2 cone truncation both read it."""
    a = c.numerator
    return (l * a + c.denominator - 1) // (2 * a)


def perversity_from_weights(strata, weights) -> Perversity:
    """The general perversity attached to a weighted conic metric.

    `strata` is a list of (stratum_id, link_dim) pairs; `weights` maps
    stratum_id to a positive rational. Link dimension zero always gives 0
    (the weight is metrically inert on codimension-one strata); any other l
    gives [[l/2 + 1/(2c)]] (`_cutoff_bracket`), which is l/2 + [[1/(2c)]] for
    even l and (l-1)/2 + [[1/2 + 1/(2c)]] for odd l.
    """
    out = {}
    for sid, l in strata:
        if sid not in weights:
            raise ConfigurationError(f"stratum {sid!r} has no weight")
        c = parse_weight(weights[sid], f"weight for stratum {sid!r}")
        out[sid] = 0 if l == 0 else _cutoff_bracket(l, c)
    return Perversity(PER_STRATUM, out)


def weight_perversity(K) -> Perversity:
    """The weight perversity p_g of a weighted space: perversity_from_weights
    over every singular stratum of K and its link dimension."""
    strata = [(s.id, s.link_dim) for s in K.singular_strata()]
    missing = sorted(sid for sid, _ in strata if sid not in K.weights)
    if missing:
        raise ConfigurationError(f"strata without weights: {missing}")
    return perversity_from_weights(strata, K.weights)


def weights_from_perversity(p: Perversity, strata):
    """Weights realizing p exactly, for p at or above the upper middle.

    Canonical deterministic choice: with excess n = p(Y) - upper_middle(Y),
    even links get c = 1/(2n+1) and odd links get c = 1/(2n) (or c = 1 when
    the excess is zero). Round-trips through perversity_from_weights. A
    listed stratum that p gives no value raises ConfigurationError.
    """
    out = {}
    for sid, l in strata:
        v = p.values.get(l + 1 if p.kind == BY_CODIM else sid)
        if v is None:  # a value is an int, never None
            where = f"at codimension {l + 1}" if p.kind == BY_CODIM else f"on stratum {sid!r}"
            raise ConfigurationError(f"perversity has no value {where}")
        if l == 0:
            if v != 0:
                raise RealizabilityError(
                    f"stratum {sid!r} has link dimension 0 but perversity {v} != 0"
                )
            out[sid] = Fraction(1)
            continue
        floor_mid = l // 2
        excess = v - floor_mid
        if excess < 0:
            raise RealizabilityError(
                f"stratum {sid!r}: perversity {v} is below the upper middle {floor_mid}"
            )
        if l % 2 == 0:
            out[sid] = Fraction(1, 2 * excess + 1)
        else:
            out[sid] = Fraction(1, 2 * excess) if excess >= 1 else Fraction(1)
    return out


def _gm_growth(values) -> bool:
    """The Goresky-MacPherson growth rule on a map codimension -> value over
    codimensions >= 2: 0 at codimension 2 (taken as 0 when not listed), and
    from each listed codimension k to the next listed k' a rise of at least
    0 and at most k' - k. On all of 2..n this reads p(2) = 0 and
    p(k) <= p(k+1) <= p(k) + 1; a codimension not listed is a gap that a GM
    perversity can fill."""
    anchored = sorted({2: 0, **values}.items())
    return anchored[0][1] == 0 and all(
        0 <= v2 - v1 <= k2 - k1 for (k1, v1), (k2, v2) in zip(anchored, anchored[1:]))


def is_gm_perversity(p: Perversity) -> bool:
    """True iff p is a classical Goresky-MacPherson perversity: `_gm_growth`
    over the by-codim domain {2..n}, which must have no gap. A value at
    codimension 1 is ignored.
    """
    if p.kind != BY_CODIM:
        raise ConfigurationError("classicality is a by-codim notion")
    keys = sorted(k for k in p.values if k >= 2)
    if keys != list(range(2, len(keys) + 2)):
        raise ConfigurationError("by-codim perversity must cover codimensions 2..n")
    return _gm_growth({k: p.values[k] for k in keys})


def hunsicker_shift_check(f: int, c) -> bool:
    """Consistency of the one-stratum edge reduction.

    For a single stratum with link dimension f and weight c, the dual of the
    weight perversity must equal the lower middle shifted down by [[1/(2c)]]
    for even f and by [[1/2 + 1/(2c)]] for odd f.

    The shift is taken with the Fraction `bracket` on purpose, not with the
    integer `_cutoff_bracket` that `perversity_from_weights` uses, so that the
    two sides of the check stay independent computations.
    """
    if f < 1:
        raise ConfigurationError("the edge reduction needs link dimension >= 1")
    c = parse_weight(c, "weight for stratum 'Y'")
    p = perversity_from_weights([("Y", f)], {"Y": c})
    q_val = (f + 1) - 2 - p.values["Y"]
    lower_mid = (f + 1 - 2) // 2
    if f % 2 == 0:
        shift = bracket(Fraction(1, 2) / c)
    else:
        shift = bracket(Fraction(1, 2) + Fraction(1, 2) / c)
    return q_val == lower_mid - shift


def perversity_to_json(p: Perversity) -> dict:
    return {"kind": p.kind, "values": {str(k): v for k, v in p.values.items()}}


def perversity_from_json(doc) -> Perversity:
    """A perversity from its JSON form, which holds 'kind' and 'values' and
    no other key; `Perversity` checks the values and keys."""
    if not isinstance(doc, dict) or "kind" not in doc or "values" not in doc:
        raise ConfigurationError("perversity document needs 'kind' and 'values'")
    for key in doc:
        if key not in ("kind", "values"):
            raise ConfigurationError(f"perversity document key {key!r} is not one of kind, values")
    kind, raw = doc["kind"], doc["values"]
    if not isinstance(raw, dict):
        raise ConfigurationError("perversity values must map keys to integers")
    if kind == BY_CODIM:
        values = {parse_int(k, "by-codim key", ConfigurationError): v for k, v in raw.items()}
    else:
        values = {str(k): v for k, v in raw.items()}
    if len(values) < len(raw):  # 2 and "2" name one codimension
        raise ConfigurationError("perversity values give one key twice")
    return Perversity(kind, values)


def weights_to_json(weights) -> dict:
    """Stratum weights in their wire form: "p/q" strings in stratum-id order."""
    return {str(sid): format_rational(c) for sid, c in sorted(weights.items())}
