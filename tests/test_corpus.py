"""Corpus integrity: contents, regeneration determinism, weight stability."""

import hashlib

from stratal import corpus


def test_listing_contents(spaces):
    assert len(spaces) >= 8
    assert "susp_t2" in spaces and "cone_s1_c_half" in spaces
    assert len(spaces["susp_t2"].singular_strata()) == 2


def test_rebuild_matches_bundled_files(tmp_path):
    corpus.write_corpus(tmp_path)
    bundled = corpus.corpus_dir()
    for path in sorted(bundled.glob("*.json")):
        rebuilt = tmp_path / path.name
        assert rebuilt.exists()
        assert hashlib.sha256(rebuilt.read_bytes()).hexdigest() == hashlib.sha256(
            path.read_bytes()
        ).hexdigest()


def test_second_load_is_stable(spaces):
    from stratal.complexes import load, to_document

    for name in ("susp_t2", "cone_cone_s1", "cone_s1_c_half"):
        K = spaces[name]
        doc = to_document(K)
        K2 = load(doc)
        assert K2.weights == K.weights
        assert to_document(K2) == doc


def test_generate_space_names_cover_files():
    assert set(corpus.SPACE_NAMES) == {
        p.stem for p in corpus.corpus_dir().glob("*.json")
    }


def test_corpus_dir_owns_the_directory_fallback(tmp_path):
    bundled = corpus.corpus_dir()
    assert bundled.name == "corpus_data"
    assert corpus.corpus_dir(None) == bundled
    assert corpus.corpus_dir(str(tmp_path)) == tmp_path
    assert corpus.corpus_dir(bundled) == bundled
