from itertools import combinations

import pytest

from stratal import corpus


def _face_profiles(K):
    """Singular-face profiles by definition, the reference for
    `FilteredComplex.regular`: every proper face of each regular simplex is
    looked up in `label_of`, and each singular stratum keeps the dimension
    of its largest face."""
    out = {}
    for s in K.all_simplices():
        if K.levels[s] != K.n:
            continue
        prof = {}
        for size in range(1, len(s)):
            for face in combinations(s, size):
                sid = K.label_of[face]
                if K.strata[sid].singular:
                    prof[sid] = max(prof.get(sid, -1), size - 1)
        out[s] = prof
    return out


@pytest.fixture(scope="session")
def face_profiles():
    return _face_profiles


@pytest.fixture(scope="session")
def spaces():
    return corpus.load_corpus()


@pytest.fixture(scope="session")
def t2(spaces):
    return spaces["t2_7"]


@pytest.fixture(scope="session")
def s2(spaces):
    return spaces["s2"]


@pytest.fixture(scope="session")
def s1(spaces):
    return spaces["s1_hex"]


@pytest.fixture(scope="session")
def s0(spaces):
    return spaces["s0"]


@pytest.fixture(scope="session")
def susp_t2(spaces):
    return spaces["susp_t2"]


@pytest.fixture(scope="session")
def cone_t2(spaces):
    return spaces["cone_t2"]


@pytest.fixture(scope="session")
def mobius(spaces):
    return spaces["mobius"]
