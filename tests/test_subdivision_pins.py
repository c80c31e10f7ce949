"""Pinned documents and f-vectors of barycentric subdivisions.

Each entry is the first 16 hex digits of the sha256 of
`json.dumps(to_document(sd(K)), sort_keys=True)` and the subdivision's
`counts()`, for the subdivision of every corpus space, the three
subdivision rungs of perfbench's build-ladder workload (with the weights of
`test_describe_pins`), and the two documents that are not full and so load
subdivided. The document holds the vertex ids, the top simplices in order,
the maximal simplices of each skeleton and the weights, so it pins the
vertex numbering and the order of every list. The digests were recorded
before the subdivision listed its faces by chain shapes; a mismatch is a
regression to fix, not a value to re-record.
"""

import hashlib
import json

import pytest
from test_describe_pins import _LADDER, _NOT_FULL, _not_full

from stratal import complexes as cx
from stratal import corpus


def _subdivisions():
    for name in corpus.SPACE_NAMES:
        yield f"sd {name}", cx.barycentric_subdivide(corpus.load_space(name))
    built = {"t2": corpus.load_space("t2_7")}
    for key, ctor, src, args in _LADDER:
        built[key] = getattr(cx, ctor)(built[src], *args)
        if ctor == "barycentric_subdivide":
            yield key, built[key]
    for key, (name, weights) in _NOT_FULL.items():
        yield key, cx.load(json.dumps(_not_full(name, weights)))


def _pin(K):
    text = json.dumps(cx.to_document(K), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16], K.counts()


PINS = {
    "sd cone_cone_s1": ("ef33e9c1e4aab476", (51, 230, 324, 144)),
    "sd cone_s1_c_half": ("709bcec3f3d52c48", (25, 60, 36)),
    "sd cone_t2": ("24f511e5daf4a2d3", (85, 462, 714, 336)),
    "sd mobius": ("a5b43dd840177dce", (20, 50, 30)),
    "sd point": ("83febbe7443f965a", (1,)),
    "sd s0": ("8e2c93ddd05474f5", (2,)),
    "sd s1_hex": ("a23b6f6bc29a649e", (12, 12)),
    "sd s2": ("7157ff2a2c7d4249", (14, 36, 24)),
    "sd susp_s0": ("d920f05628c1f46b", (8, 8)),
    "sd susp_s2": ("69d306244661335e", (44, 236, 384, 192)),
    "sd susp_t2": ("f7fa59aaf4cf79a7", (128, 798, 1344, 672)),
    "sd t2_7": ("3fa6e1816a30144b", (42, 126, 84)),
    "sd(susp(susp t2))": ("070d8f6df6b07c7c", (386, 4502, 14196, 16800, 6720)),
    "sd(susp t2)": ("4fc07cc888a9e3f4", (128, 798, 1344, 672)),
    "sd2(susp t2)": ("9f39497a9d8171e8", (2942, 19068, 32256, 16128)),
    "not full cone_cone_s1": ("89b39a4096845c9b", (51, 230, 324, 144)),
    "not full susp_s0": ("25072c988df395d3", (8, 8)),
}


@pytest.fixture(scope="module")
def subdivisions():
    return dict(_subdivisions())


def test_subdivision_documents_are_pinned(subdivisions):
    assert {key: _pin(K) for key, K in subdivisions.items()} == PINS
