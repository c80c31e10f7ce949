"""Bundled desk-scale spaces and their generators.

The corpus ships as data files so verification runs are hermetic; the
generators below rebuild those files bit-for-bit (`stratal corpus-build`).
`load_space` reads a bundled space by its name. The readers of a whole
directory and the writer take the directory as an argument, and read the
bundled one when that argument is None; nothing else names a directory.
The generators make the unfiltered spaces with `build` and the others by
cone and suspension; a space file is read by `load`. A directory's spaces
are known by their document names, so two files that hold one name (or
both omit it) are refused, naming both files.
"""

import json
from fractions import Fraction
from pathlib import Path

from .complexes import build, cone, load, suspension, to_document
from .errors import SpaceFormatError


def point():
    return build("point", [0], [(0,)])


def two_points():
    return build("s0", [0, 1], [(0,), (1,)])


def circle():
    return build("s1_hex", list(range(6)), [tuple(sorted((i, (i + 1) % 6))) for i in range(6)])


def sphere2():
    return build("s2", [0, 1, 2, 3], [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def torus7():
    tris = [tuple(sorted((i % 7, (i + 1) % 7, (i + 3) % 7))) for i in range(7)]
    tris += [tuple(sorted((i % 7, (i + 2) % 7, (i + 3) % 7))) for i in range(7)]
    return build("t2_7", list(range(7)), tris)


def mobius5():
    tris = [tuple(sorted((i % 5, (i + 1) % 5, (i + 2) % 5))) for i in range(5)]
    return build("mobius", list(range(5)), tris)


def _named(K, name):
    K.name = name
    return K


_BUILDERS = {
    "point": point,
    "s0": two_points,
    "s1_hex": circle,
    "s2": sphere2,
    "t2_7": torus7,
    "mobius": mobius5,
    "cone_s1_c_half": lambda: _named(cone(circle(), Fraction(1, 2)), "cone_s1_c_half"),
    "cone_t2": lambda: _named(cone(torus7(), Fraction(1)), "cone_t2"),
    "cone_cone_s1": lambda: _named(
        cone(_named(cone(circle(), Fraction(1)), "cone_s1"), Fraction(1)), "cone_cone_s1"
    ),
    "susp_t2": lambda: _named(suspension(torus7(), (Fraction(1), Fraction(1))), "susp_t2"),
    "susp_s2": lambda: _named(suspension(sphere2(), (Fraction(1), Fraction(1))), "susp_s2"),
    "susp_s0": lambda: _named(suspension(two_points(), (Fraction(1), Fraction(1))), "susp_s0"),
}

SPACE_NAMES = sorted(_BUILDERS)


def generate_space(name):
    if name not in _BUILDERS:
        raise SpaceFormatError(f"unknown corpus space {name!r}; known: {SPACE_NAMES}")
    return _BUILDERS[name]()


def corpus_dir(directory=None) -> Path:
    """`directory`, or the bundled data when it is None."""
    if directory is None:
        return Path(__file__).parent / "corpus_data"
    return Path(directory)


def write_corpus(target=None):
    """Regenerate all bundled space files; byte-stable across runs."""
    target = corpus_dir(target)
    target.mkdir(parents=True, exist_ok=True)
    written = []
    for name in SPACE_NAMES:
        doc = to_document(generate_space(name))
        path = target / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        written.append(str(path))
    return written


def load_space(name):
    """The bundled space `name`, the stem of a file in the bundled directory;
    a name with a directory part names no bundled space."""
    path = corpus_dir() / f"{name}.json"
    if path.name != f"{name}.json" or not path.is_file():
        raise SpaceFormatError(f"corpus space {name!r} not found under {corpus_dir()}")
    return load(path)


def load_corpus(directory=None):
    directory = corpus_dir(directory)
    spaces, files = {}, {}
    for path in sorted(directory.glob("*.json")):
        K = load(path)
        # a space is listed and checked by its name, so a second would hide the first
        if K.name in files:
            raise SpaceFormatError(f"{files[K.name]} and {path} both hold a space named {K.name!r}")
        spaces[K.name], files[K.name] = K, path
    if not spaces:
        raise SpaceFormatError(f"no corpus spaces under {directory}")
    return spaces


def corpus_listing(directory=None):
    spaces = load_corpus(directory)
    return [spaces[name].describe() for name in sorted(spaces)]
