"""Pinned `describe()` reports and weights of built complexes.

Each entry is the first 16 hex digits of the sha256 of `describe()` (as
sorted-key JSON) and of `repr(sorted(K.weights.items()))`. The digests were
recorded before the stratum member lists were dropped: they guard the
member counts that `describe()` takes from the vertex labels, and the
weights that the constructions carry through one vertex of each weighted
stratum. A mismatch is a regression to fix, not a value to re-record.
"""

import hashlib
import json
from fractions import Fraction as F

from stratal import complexes as cx
from stratal import corpus

# the constructions of perfbench's build-ladder workload, with fixed weights
_LADDER = (
    ("susp(t2)", "suspension", "t2", ((F(1, 2), F(3)),)),
    ("susp(susp t2)", "suspension", "susp(t2)", ((F(2, 7), F(5)),)),
    ("sd(susp(susp t2))", "barycentric_subdivide", "susp(susp t2)", ()),
    ("sd(susp t2)", "barycentric_subdivide", "susp(t2)", ()),
    ("cone(sd(susp t2))", "cone", "sd(susp t2)", (F(9, 4),)),
    ("sd2(susp t2)", "barycentric_subdivide", "sd(susp t2)", ()),
)


def _not_full(name, weights):
    """The corpus document with both ends of its first edge added to X_0 and
    to every listed level, so that X_0 is not full and the document loads
    subdivided; `weights` are keyed by the ids of the subdivision's strata."""
    doc = cx.to_document(corpus.load_space(name))
    a, b = doc["maximal_simplices"][0][:2]
    skeleta = {j: level + [[a], [b]] for j, level in doc.get("skeleta", {}).items()}
    return {**doc, "skeleta": {"0": [[a], [b]], **skeleta}, "weights": weights}


_NOT_FULL = {
    "not full cone_cone_s1": ("cone_cone_s1",
                              {"s0:(0)": "2/5", "s1:(apex)": "7/3", "s0:(apex')": "4"}),
    "not full susp_s0": ("susp_s0", {"s0:(0)": "3/4", "s0:(south)": "6"}),
}


def _complexes():
    for name in corpus.SPACE_NAMES:
        K = corpus.load_space(name)
        yield name, K
        yield f"sd {name}", cx.barycentric_subdivide(K)
        yield f"cone {name}", cx.cone(K, F(2, 3))
        yield f"susp {name}", cx.suspension(K, (F(1, 2), 3))
    built = {"t2": corpus.load_space("t2_7")}
    for key, ctor, src, args in _LADDER:
        built[key] = getattr(cx, ctor)(built[src], *args)
        yield key, built[key]
    for key, (name, weights) in _NOT_FULL.items():
        yield key, cx.load(json.dumps(_not_full(name, weights)))


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _pins(K):
    return (_digest(json.dumps(K.describe(), sort_keys=True)),
            _digest(repr(sorted(K.weights.items()))))


PINS = {
    "cone_cone_s1": ("21e7f50e1939130e", "3cb9a1d30e62c3ce"),
    "sd cone_cone_s1": ("ff7138424b3c42ea", "48bcd0af3478b71c"),
    "cone cone_cone_s1": ("fd73da31a90903db", "0002058351ed4254"),
    "susp cone_cone_s1": ("8a511725c4e2f5b1", "dac27482a024de09"),
    "cone_s1_c_half": ("c4672a9a9b01996b", "a729a260bb73bcc9"),
    "sd cone_s1_c_half": ("b41fd1b90b33aa32", "c16656c1a7e5eb9b"),
    "cone cone_s1_c_half": ("bdd94b506a515cb4", "a6d42dffad073e77"),
    "susp cone_s1_c_half": ("df419c15796f2571", "d014b2d97a26b7d8"),
    "cone_t2": ("5e666680df6550a6", "3a1f697fa0a1fdf6"),
    "sd cone_t2": ("2a6747bcd3999f43", "ccb05f2e32eea7d7"),
    "cone cone_t2": ("43bd424e878bfddc", "79aea7c7d73ec60c"),
    "susp cone_t2": ("47cbb65de0ceea95", "8b8edc273a8c514d"),
    "mobius": ("51d6f84628c1e59d", "4f53cda18c2baa0c"),
    "sd mobius": ("b3fc50cdb60fc1ed", "4f53cda18c2baa0c"),
    "cone mobius": ("956288a0e221cd5c", "6d8ce81cddec5169"),
    "susp mobius": ("c5eae8a624ff7ac6", "a29e41f88c6e5adf"),
    "point": ("ef93f1d2eab1c7f7", "4f53cda18c2baa0c"),
    "sd point": ("e689b0d32c6bdb8c", "4f53cda18c2baa0c"),
    "cone point": ("c48634f47af9ee4c", "6d8ce81cddec5169"),
    "susp point": ("0fd1ca8f63cdd3af", "a29e41f88c6e5adf"),
    "s0": ("1cc3390b5bf8fd59", "4f53cda18c2baa0c"),
    "sd s0": ("fd3f6097a065ccfb", "4f53cda18c2baa0c"),
    "cone s0": ("4af5e0eed5ded2d3", "6d8ce81cddec5169"),
    "susp s0": ("6c8ddff09f37536a", "a29e41f88c6e5adf"),
    "s1_hex": ("726e7c530d4096ae", "4f53cda18c2baa0c"),
    "sd s1_hex": ("abda50b38d026da5", "4f53cda18c2baa0c"),
    "cone s1_hex": ("983a4fda631ce138", "6d8ce81cddec5169"),
    "susp s1_hex": ("16df7059e79a7f7f", "a29e41f88c6e5adf"),
    "s2": ("5adb8448941e75ca", "4f53cda18c2baa0c"),
    "sd s2": ("c8d61ba068e79022", "4f53cda18c2baa0c"),
    "cone s2": ("4b838394ad52afaa", "6d8ce81cddec5169"),
    "susp s2": ("4ed4a71c171afa5a", "a29e41f88c6e5adf"),
    "susp_s0": ("a14cdef9a983c539", "2ab9a66f11acc99e"),
    "sd susp_s0": ("6f447695f706716e", "bea84050e36ade4e"),
    "cone susp_s0": ("0523ad62a0d7ed50", "d949b7a1e754e337"),
    "susp susp_s0": ("6b0482d99fc18e22", "9f8aef7459582445"),
    "susp_s2": ("0af0e420f09f1da1", "2ab9a66f11acc99e"),
    "sd susp_s2": ("a252647d46f640dc", "bea84050e36ade4e"),
    "cone susp_s2": ("0682288cdf3ba15a", "d949b7a1e754e337"),
    "susp susp_s2": ("3f09ebc22f6afd2d", "9f8aef7459582445"),
    "susp_t2": ("4c4fc4d7b2259c84", "2ab9a66f11acc99e"),
    "sd susp_t2": ("a5262147d4b2c87f", "bea84050e36ade4e"),
    "cone susp_t2": ("645508d8560fdbe2", "d949b7a1e754e337"),
    "susp susp_t2": ("f229fd043f610855", "9f8aef7459582445"),
    "t2_7": ("8230f04da071079e", "4f53cda18c2baa0c"),
    "sd t2_7": ("9d5dcd6cc0578518", "4f53cda18c2baa0c"),
    "cone t2_7": ("90bdf242dfee2a33", "6d8ce81cddec5169"),
    "susp t2_7": ("c325e1845b7e9e66", "a29e41f88c6e5adf"),
    "susp(t2)": ("c325e1845b7e9e66", "a29e41f88c6e5adf"),
    "susp(susp t2)": ("98628208953672ab", "9f5dff8c54247fc0"),
    "sd(susp(susp t2))": ("0b5a0c648bed0a81", "8b03dba38526a048"),
    "sd(susp t2)": ("6a95d386048f0f9b", "397c411ae8a778f9"),
    "cone(sd(susp t2))": ("04704c70efc43789", "f273bfa6c30d37f2"),
    "sd2(susp t2)": ("59932fa0e03987ff", "882d9b79d73199d9"),
    "not full cone_cone_s1": ("0882387def7e4d06", "1f9cb125e4d930ba"),
    "not full susp_s0": ("9afa3d5daa42e09a", "b66e82af7cd07870"),
}


def test_describe_and_weights_are_pinned():
    got = {key: _pins(K) for key, K in _complexes()}
    assert got == PINS
