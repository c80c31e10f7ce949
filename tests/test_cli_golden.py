"""Golden CLI reports: pinned exit code and stdout of a fixed command set.

Each digest is the first 16 hex digits of the sha256 of the exit code and the
stdout of `cli.main(argv)`, run in-process. The digests were recorded before
the code they guard was refactored: a mismatch means a report changed, and is
a regression to fix, not a value to re-record. `corpus-list` is left out
because its report names the corpus directory.
"""

import hashlib
import json
import random

import pytest

from stratal import cli
from stratal import hilbert as hb
from stratal.corpus import SPACE_NAMES
from stratal.verify import SUITES

IH_SPECS = ("zero", "top", "lower-middle", "upper-middle", "from-weights")
CONE_LINKS = ("1", "2", "1,1", "1,0,1", "1,2,1", "1,0,0,1", "1,3,3,1")
CONE_WEIGHTS = ("1/4", "1/3", "1/2", "1", "2", "7/3")
PERVERSITY_SPECS = ("zero", "top", "lower-middle", "upper-middle",
                    "gm:0,1,1", "gm:0,0,1,2", "gm:1", "gm:0,2", "gm:")


def _commands():
    cmds = []
    for space in SPACE_NAMES:
        for spec in IH_SPECS:
            cmds.append(("ih", "--space", space, "--perversity", spec,
                         "--cobetti", "--emit-generators"))
    for space in SPACE_NAMES:
        cmds.append(("predict", "--space", space))
        cmds.append(("perversity", "--space", space))
    for suite in sorted(SUITES):
        cmds.append(("verify", "--suite", suite))
    cmds.append(("hilbert", "--complex", "{complex}"))
    cmds.append(("hilbert", "--complex", "{complex}", "--decompose", "{degree}",
                 "--vector", "{vector}"))
    for link in CONE_LINKS:
        for c in CONE_WEIGHTS:
            cmds.append(("cone", "--link-betti", link,
                         "--link-dim", str(link.count(",")), "--weight", c))
    for dim in range(6):
        for spec in PERVERSITY_SPECS:
            cmds.append(("perversity", "--dim", str(dim), "--spec", spec))
            cmds.append(("perversity", "--dim", str(dim), "--spec", spec, "--dual"))
    return cmds


def _hilbert_inputs(directory):
    """A seeded random complex (its entries are ints) as dense JSON rows,
    with a vector in its widest degree."""
    rng = random.Random(7)
    C = hb.random_complex(rng)
    rows = []
    for i in range(len(C.dims) - 1):
        dense = [[0] * C.dims[i] for _ in range(C.dims[i + 1])]
        for j, col in enumerate(C.maps[i + 1].cols):
            for r, v in col.items():
                dense[r][j] = v
        rows.append(dense)
    degree = max(range(len(C.dims)), key=lambda i: C.dims[i])
    vector = [rng.randint(-3, 3) for _ in range(C.dims[degree])]
    complex_path = directory / "complex.json"
    vector_path = directory / "vector.json"
    complex_path.write_text(json.dumps({"dims": list(C.dims), "differentials": rows}))
    vector_path.write_text(json.dumps(vector))
    return {"{complex}": str(complex_path), "{vector}": str(vector_path),
            "{degree}": str(degree)}


def _digest(argv, capsys):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def hilbert_inputs(tmp_path_factory):
    return _hilbert_inputs(tmp_path_factory.mktemp("golden"))


PINNED = {
    "ih --space cone_cone_s1 --perversity zero --cobetti --emit-generators": "0b469e24e4cb5b78",
    "ih --space cone_cone_s1 --perversity top --cobetti --emit-generators": "2cb7e90576db7d37",
    "ih --space cone_cone_s1 --perversity lower-middle --cobetti --emit-generators": "5c4ceef3b14eacd1",
    "ih --space cone_cone_s1 --perversity upper-middle --cobetti --emit-generators": "f6a7aa20b712537a",
    "ih --space cone_cone_s1 --perversity from-weights --cobetti --emit-generators": "58eaf049a18beeac",
    "ih --space cone_s1_c_half --perversity zero --cobetti --emit-generators": "88694223901a3a6b",
    "ih --space cone_s1_c_half --perversity top --cobetti --emit-generators": "680467ddd2ac620d",
    "ih --space cone_s1_c_half --perversity lower-middle --cobetti --emit-generators": "680467ddd2ac620d",
    "ih --space cone_s1_c_half --perversity upper-middle --cobetti --emit-generators": "88694223901a3a6b",
    "ih --space cone_s1_c_half --perversity from-weights --cobetti --emit-generators": "d7a489048e6ed679",
    "ih --space cone_t2 --perversity zero --cobetti --emit-generators": "170e450b346803c0",
    "ih --space cone_t2 --perversity top --cobetti --emit-generators": "d7e594a73842a9bc",
    "ih --space cone_t2 --perversity lower-middle --cobetti --emit-generators": "8969f667bde955b4",
    "ih --space cone_t2 --perversity upper-middle --cobetti --emit-generators": "d9786125d2feb348",
    "ih --space cone_t2 --perversity from-weights --cobetti --emit-generators": "2b4880ef8b43562f",
    "ih --space mobius --perversity zero --cobetti --emit-generators": "a76635148a1ecd51",
    "ih --space mobius --perversity top --cobetti --emit-generators": "089f21cd90850822",
    "ih --space mobius --perversity lower-middle --cobetti --emit-generators": "089f21cd90850822",
    "ih --space mobius --perversity upper-middle --cobetti --emit-generators": "a76635148a1ecd51",
    "ih --space mobius --perversity from-weights --cobetti --emit-generators": "1a71de035cc4a7cb",
    "ih --space point --perversity zero --cobetti --emit-generators": "5dffa8dd82a78f62",
    "ih --space point --perversity top --cobetti --emit-generators": "53c234e5e8472b6a",
    "ih --space point --perversity lower-middle --cobetti --emit-generators": "53c234e5e8472b6a",
    "ih --space point --perversity upper-middle --cobetti --emit-generators": "53c234e5e8472b6a",
    "ih --space point --perversity from-weights --cobetti --emit-generators": "5dffa8dd82a78f62",
    "ih --space s0 --perversity zero --cobetti --emit-generators": "80841a6d5c41d373",
    "ih --space s0 --perversity top --cobetti --emit-generators": "53c234e5e8472b6a",
    "ih --space s0 --perversity lower-middle --cobetti --emit-generators": "53c234e5e8472b6a",
    "ih --space s0 --perversity upper-middle --cobetti --emit-generators": "53c234e5e8472b6a",
    "ih --space s0 --perversity from-weights --cobetti --emit-generators": "80841a6d5c41d373",
    "ih --space s1_hex --perversity zero --cobetti --emit-generators": "ca2dcbf7d414ffe4",
    "ih --space s1_hex --perversity top --cobetti --emit-generators": "46dcecfccb41dbca",
    "ih --space s1_hex --perversity lower-middle --cobetti --emit-generators": "46dcecfccb41dbca",
    "ih --space s1_hex --perversity upper-middle --cobetti --emit-generators": "ca2dcbf7d414ffe4",
    "ih --space s1_hex --perversity from-weights --cobetti --emit-generators": "daed7123ab16f6b6",
    "ih --space s2 --perversity zero --cobetti --emit-generators": "362887d1f13d31f2",
    "ih --space s2 --perversity top --cobetti --emit-generators": "b93c14f76b9ea9bf",
    "ih --space s2 --perversity lower-middle --cobetti --emit-generators": "b93c14f76b9ea9bf",
    "ih --space s2 --perversity upper-middle --cobetti --emit-generators": "362887d1f13d31f2",
    "ih --space s2 --perversity from-weights --cobetti --emit-generators": "99559d8c47d89b30",
    "ih --space susp_s0 --perversity zero --cobetti --emit-generators": "39a68998d31ffb8b",
    "ih --space susp_s0 --perversity top --cobetti --emit-generators": "f0e5e1f08dddd703",
    "ih --space susp_s0 --perversity lower-middle --cobetti --emit-generators": "f0e5e1f08dddd703",
    "ih --space susp_s0 --perversity upper-middle --cobetti --emit-generators": "39a68998d31ffb8b",
    "ih --space susp_s0 --perversity from-weights --cobetti --emit-generators": "b8f3f16b582f9999",
    "ih --space susp_s2 --perversity zero --cobetti --emit-generators": "ec9fc1ea8c004be5",
    "ih --space susp_s2 --perversity top --cobetti --emit-generators": "5ff282e4a02d145b",
    "ih --space susp_s2 --perversity lower-middle --cobetti --emit-generators": "74f24d50286a849d",
    "ih --space susp_s2 --perversity upper-middle --cobetti --emit-generators": "ac3a3039e8b2cf8d",
    "ih --space susp_s2 --perversity from-weights --cobetti --emit-generators": "18ded6ac95346546",
    "ih --space susp_t2 --perversity zero --cobetti --emit-generators": "a2a54bf4336279f6",
    "ih --space susp_t2 --perversity top --cobetti --emit-generators": "4f7f118f09957413",
    "ih --space susp_t2 --perversity lower-middle --cobetti --emit-generators": "c399c8be000ae2b5",
    "ih --space susp_t2 --perversity upper-middle --cobetti --emit-generators": "de8d6200ef2d039b",
    "ih --space susp_t2 --perversity from-weights --cobetti --emit-generators": "12d8adfc84d4b3e7",
    "ih --space t2_7 --perversity zero --cobetti --emit-generators": "9437d1e9cc701530",
    "ih --space t2_7 --perversity top --cobetti --emit-generators": "97da64153c85bbb8",
    "ih --space t2_7 --perversity lower-middle --cobetti --emit-generators": "97da64153c85bbb8",
    "ih --space t2_7 --perversity upper-middle --cobetti --emit-generators": "9437d1e9cc701530",
    "ih --space t2_7 --perversity from-weights --cobetti --emit-generators": "8d5500cabb04a629",
    "predict --space cone_cone_s1": "ec91413b5941c7f5",
    "perversity --space cone_cone_s1": "be75ee059eb48ec6",
    "predict --space cone_s1_c_half": "2ad6c4aa56b1d838",
    "perversity --space cone_s1_c_half": "b11ec87b9d71929e",
    "predict --space cone_t2": "c43d64688505cbd6",
    "perversity --space cone_t2": "43300c333f789d6b",
    "predict --space mobius": "a76e32a17433f0ce",
    "perversity --space mobius": "f9387d66f9e26363",
    "predict --space point": "6712b7366760d47e",
    "perversity --space point": "3169b6cdc9bbb4db",
    "predict --space s0": "f280ce9442ec93b6",
    "perversity --space s0": "51b7692b3a1b4d83",
    "predict --space s1_hex": "ceb8a10eb1a2bc34",
    "perversity --space s1_hex": "c564ca4f1ed7e9f5",
    "predict --space s2": "a571264ce2f828f8",
    "perversity --space s2": "66391189c57962aa",
    "predict --space susp_s0": "027b27721013490d",
    "perversity --space susp_s0": "0c2a9a62ce371321",
    "predict --space susp_s2": "f0d8fc729c73da10",
    "perversity --space susp_s2": "ef55774d0c75e0e9",
    "predict --space susp_t2": "b96e5cc2a67691a2",
    "perversity --space susp_t2": "8bb6dcbfd138302e",
    "predict --space t2_7": "c6b3f810719b7342",
    "perversity --space t2_7": "c9105602960188fe",
    "verify --suite cone-local": "76cd8165ee9258eb",
    "verify --suite degeneration": "ab4237ebafceb363",
    # the suite draws one random value per stratum in stratum order, which is
    # the order of each stratum's least member simplex
    "verify --suite duality": "22a4e7c93e5eb1af",
    "verify --suite hilbert": "5a078b181704ef2c",
    "verify --suite hunsicker": "55af1ccb6df7f9de",
    "verify --suite mil": "cd9e7f1c6fff2270",
    "verify --suite realizability": "334e32e25f34b5dd",
    "verify --suite ris-consistency": "6e618406b38a6cb3",
    "hilbert --complex {complex}": "6263ca5f3c57e378",
    "hilbert --complex {complex} --decompose {degree} --vector {vector}": "93c4f8ce1f36ba67",
    "cone --link-betti 1 --link-dim 0 --weight 1/4": "a928a3c3a44ed51e",
    "cone --link-betti 1 --link-dim 0 --weight 1/3": "94293e94e6ff5894",
    "cone --link-betti 1 --link-dim 0 --weight 1/2": "d3d4422b7841fad7",
    "cone --link-betti 1 --link-dim 0 --weight 1": "5892b57c8ecee73e",
    "cone --link-betti 1 --link-dim 0 --weight 2": "0c57f0dd67ba6489",
    "cone --link-betti 1 --link-dim 0 --weight 7/3": "3837591f6af38b22",
    "cone --link-betti 2 --link-dim 0 --weight 1/4": "8e0bd17d9327d097",
    "cone --link-betti 2 --link-dim 0 --weight 1/3": "268dfdacdcca188c",
    "cone --link-betti 2 --link-dim 0 --weight 1/2": "bb65ebd6d1c25dec",
    "cone --link-betti 2 --link-dim 0 --weight 1": "1746e65abce4a3c2",
    "cone --link-betti 2 --link-dim 0 --weight 2": "287ee46aec89f446",
    "cone --link-betti 2 --link-dim 0 --weight 7/3": "65f2d1c51f8a3940",
    "cone --link-betti 1,1 --link-dim 1 --weight 1/4": "44568551712d13e7",
    "cone --link-betti 1,1 --link-dim 1 --weight 1/3": "6bd21654fd51b6e8",
    "cone --link-betti 1,1 --link-dim 1 --weight 1/2": "cc4507623d83203b",
    "cone --link-betti 1,1 --link-dim 1 --weight 1": "6e3f00d61549546c",
    "cone --link-betti 1,1 --link-dim 1 --weight 2": "535cb85f906840fc",
    "cone --link-betti 1,1 --link-dim 1 --weight 7/3": "90faea80b00e17d9",
    "cone --link-betti 1,0,1 --link-dim 2 --weight 1/4": "09e7c7f9d16ecec1",
    "cone --link-betti 1,0,1 --link-dim 2 --weight 1/3": "c8961c0b672c1465",
    "cone --link-betti 1,0,1 --link-dim 2 --weight 1/2": "badf3c9a94a4f323",
    "cone --link-betti 1,0,1 --link-dim 2 --weight 1": "56c7626cfa790362",
    "cone --link-betti 1,0,1 --link-dim 2 --weight 2": "c96ceb86bafbef6b",
    "cone --link-betti 1,0,1 --link-dim 2 --weight 7/3": "9c599975fb756ea8",
    "cone --link-betti 1,2,1 --link-dim 2 --weight 1/4": "64ceda3c6c702446",
    "cone --link-betti 1,2,1 --link-dim 2 --weight 1/3": "899a917c1a81ef31",
    "cone --link-betti 1,2,1 --link-dim 2 --weight 1/2": "471640aaa79b8c41",
    "cone --link-betti 1,2,1 --link-dim 2 --weight 1": "17258b7dbe748046",
    "cone --link-betti 1,2,1 --link-dim 2 --weight 2": "f2e58e9428009d01",
    "cone --link-betti 1,2,1 --link-dim 2 --weight 7/3": "053a4de894a200a1",
    "cone --link-betti 1,0,0,1 --link-dim 3 --weight 1/4": "f6bcca86f93a4d3b",
    "cone --link-betti 1,0,0,1 --link-dim 3 --weight 1/3": "ac85599a43029175",
    "cone --link-betti 1,0,0,1 --link-dim 3 --weight 1/2": "4a34cef73e3e8019",
    "cone --link-betti 1,0,0,1 --link-dim 3 --weight 1": "fa2f7a15bb5af007",
    "cone --link-betti 1,0,0,1 --link-dim 3 --weight 2": "694c821f9709881f",
    "cone --link-betti 1,0,0,1 --link-dim 3 --weight 7/3": "c96a0b4a0ce26484",
    "cone --link-betti 1,3,3,1 --link-dim 3 --weight 1/4": "c41dbca5ff755534",
    "cone --link-betti 1,3,3,1 --link-dim 3 --weight 1/3": "ef9103d9f787c480",
    "cone --link-betti 1,3,3,1 --link-dim 3 --weight 1/2": "2dbf742746d9d2f8",
    "cone --link-betti 1,3,3,1 --link-dim 3 --weight 1": "353160b5a728e0cc",
    "cone --link-betti 1,3,3,1 --link-dim 3 --weight 2": "deeee0abb6063132",
    "cone --link-betti 1,3,3,1 --link-dim 3 --weight 7/3": "dca708ab92456ff9",
    "perversity --dim 0 --spec zero": "ab757c79180ad230",
    "perversity --dim 0 --spec zero --dual": "53c234e5e8472b6a",
    "perversity --dim 0 --spec top": "53c234e5e8472b6a",
    "perversity --dim 0 --spec top --dual": "53c234e5e8472b6a",
    "perversity --dim 0 --spec lower-middle": "53c234e5e8472b6a",
    "perversity --dim 0 --spec lower-middle --dual": "53c234e5e8472b6a",
    "perversity --dim 0 --spec upper-middle": "53c234e5e8472b6a",
    "perversity --dim 0 --spec upper-middle --dual": "53c234e5e8472b6a",
    "perversity --dim 0 --spec gm:0,1,1": "309ff025fa2ebc3a",
    "perversity --dim 0 --spec gm:0,1,1 --dual": "7ed60b522d4c62ee",
    "perversity --dim 0 --spec gm:0,0,1,2": "7be20aae9cff6a7e",
    "perversity --dim 0 --spec gm:0,0,1,2 --dual": "c02be680847db00e",
    "perversity --dim 0 --spec gm:1": "f2abedfbd6c51ceb",
    "perversity --dim 0 --spec gm:1 --dual": "abf80c4ddcfd0c58",
    "perversity --dim 0 --spec gm:0,2": "3141305660cb556a",
    "perversity --dim 0 --spec gm:0,2 --dual": "adaa316add973930",
    "perversity --dim 0 --spec gm:": "b642563018d56d75",
    "perversity --dim 0 --spec gm: --dual": "b642563018d56d75",
    "perversity --dim 1 --spec zero": "c73a4f56443899f4",
    "perversity --dim 1 --spec zero --dual": "ddf2266b0fde13f8",
    "perversity --dim 1 --spec top": "ddf2266b0fde13f8",
    "perversity --dim 1 --spec top --dual": "c73a4f56443899f4",
    "perversity --dim 1 --spec lower-middle": "ddf2266b0fde13f8",
    "perversity --dim 1 --spec lower-middle --dual": "c73a4f56443899f4",
    "perversity --dim 1 --spec upper-middle": "c73a4f56443899f4",
    "perversity --dim 1 --spec upper-middle --dual": "ddf2266b0fde13f8",
    "perversity --dim 1 --spec gm:0,1,1": "309ff025fa2ebc3a",
    "perversity --dim 1 --spec gm:0,1,1 --dual": "7ed60b522d4c62ee",
    "perversity --dim 1 --spec gm:0,0,1,2": "7be20aae9cff6a7e",
    "perversity --dim 1 --spec gm:0,0,1,2 --dual": "c02be680847db00e",
    "perversity --dim 1 --spec gm:1": "f2abedfbd6c51ceb",
    "perversity --dim 1 --spec gm:1 --dual": "abf80c4ddcfd0c58",
    "perversity --dim 1 --spec gm:0,2": "3141305660cb556a",
    "perversity --dim 1 --spec gm:0,2 --dual": "adaa316add973930",
    "perversity --dim 1 --spec gm:": "b642563018d56d75",
    "perversity --dim 1 --spec gm: --dual": "b642563018d56d75",
    "perversity --dim 2 --spec zero": "1392cf9dee871b59",
    "perversity --dim 2 --spec zero --dual": "8e55c0b4b9fd3c9c",
    "perversity --dim 2 --spec top": "8e55c0b4b9fd3c9c",
    "perversity --dim 2 --spec top --dual": "1392cf9dee871b59",
    "perversity --dim 2 --spec lower-middle": "8e55c0b4b9fd3c9c",
    "perversity --dim 2 --spec lower-middle --dual": "1392cf9dee871b59",
    "perversity --dim 2 --spec upper-middle": "1392cf9dee871b59",
    "perversity --dim 2 --spec upper-middle --dual": "8e55c0b4b9fd3c9c",
    "perversity --dim 2 --spec gm:0,1,1": "309ff025fa2ebc3a",
    "perversity --dim 2 --spec gm:0,1,1 --dual": "7ed60b522d4c62ee",
    "perversity --dim 2 --spec gm:0,0,1,2": "7be20aae9cff6a7e",
    "perversity --dim 2 --spec gm:0,0,1,2 --dual": "c02be680847db00e",
    "perversity --dim 2 --spec gm:1": "f2abedfbd6c51ceb",
    "perversity --dim 2 --spec gm:1 --dual": "abf80c4ddcfd0c58",
    "perversity --dim 2 --spec gm:0,2": "3141305660cb556a",
    "perversity --dim 2 --spec gm:0,2 --dual": "adaa316add973930",
    "perversity --dim 2 --spec gm:": "b642563018d56d75",
    "perversity --dim 2 --spec gm: --dual": "b642563018d56d75",
    "perversity --dim 3 --spec zero": "b4023f63f8afc9a2",
    "perversity --dim 3 --spec zero --dual": "0b06b710c4076b5a",
    "perversity --dim 3 --spec top": "0b06b710c4076b5a",
    "perversity --dim 3 --spec top --dual": "b4023f63f8afc9a2",
    "perversity --dim 3 --spec lower-middle": "85f0ae1de5b719ba",
    "perversity --dim 3 --spec lower-middle --dual": "a7ffe88ee6a52130",
    "perversity --dim 3 --spec upper-middle": "a7ffe88ee6a52130",
    "perversity --dim 3 --spec upper-middle --dual": "85f0ae1de5b719ba",
    "perversity --dim 3 --spec gm:0,1,1": "309ff025fa2ebc3a",
    "perversity --dim 3 --spec gm:0,1,1 --dual": "7ed60b522d4c62ee",
    "perversity --dim 3 --spec gm:0,0,1,2": "7be20aae9cff6a7e",
    "perversity --dim 3 --spec gm:0,0,1,2 --dual": "c02be680847db00e",
    "perversity --dim 3 --spec gm:1": "f2abedfbd6c51ceb",
    "perversity --dim 3 --spec gm:1 --dual": "abf80c4ddcfd0c58",
    "perversity --dim 3 --spec gm:0,2": "3141305660cb556a",
    "perversity --dim 3 --spec gm:0,2 --dual": "adaa316add973930",
    "perversity --dim 3 --spec gm:": "b642563018d56d75",
    "perversity --dim 3 --spec gm: --dual": "b642563018d56d75",
    "perversity --dim 4 --spec zero": "1749486e3ab2259f",
    "perversity --dim 4 --spec zero --dual": "02177206bf368a2f",
    "perversity --dim 4 --spec top": "02177206bf368a2f",
    "perversity --dim 4 --spec top --dual": "1749486e3ab2259f",
    "perversity --dim 4 --spec lower-middle": "846e16bb2747f3c1",
    "perversity --dim 4 --spec lower-middle --dual": "d4784ecc553b72d4",
    "perversity --dim 4 --spec upper-middle": "d4784ecc553b72d4",
    "perversity --dim 4 --spec upper-middle --dual": "846e16bb2747f3c1",
    "perversity --dim 4 --spec gm:0,1,1": "309ff025fa2ebc3a",
    "perversity --dim 4 --spec gm:0,1,1 --dual": "7ed60b522d4c62ee",
    "perversity --dim 4 --spec gm:0,0,1,2": "7be20aae9cff6a7e",
    "perversity --dim 4 --spec gm:0,0,1,2 --dual": "c02be680847db00e",
    "perversity --dim 4 --spec gm:1": "f2abedfbd6c51ceb",
    "perversity --dim 4 --spec gm:1 --dual": "abf80c4ddcfd0c58",
    "perversity --dim 4 --spec gm:0,2": "3141305660cb556a",
    "perversity --dim 4 --spec gm:0,2 --dual": "adaa316add973930",
    "perversity --dim 4 --spec gm:": "b642563018d56d75",
    "perversity --dim 4 --spec gm: --dual": "b642563018d56d75",
    "perversity --dim 5 --spec zero": "2957b929637ce7b6",
    "perversity --dim 5 --spec zero --dual": "92b3b194a9a64e5d",
    "perversity --dim 5 --spec top": "92b3b194a9a64e5d",
    "perversity --dim 5 --spec top --dual": "2957b929637ce7b6",
    "perversity --dim 5 --spec lower-middle": "c2c4473a29a623a7",
    "perversity --dim 5 --spec lower-middle --dual": "321b936f6c37bb5a",
    "perversity --dim 5 --spec upper-middle": "321b936f6c37bb5a",
    "perversity --dim 5 --spec upper-middle --dual": "c2c4473a29a623a7",
    "perversity --dim 5 --spec gm:0,1,1": "309ff025fa2ebc3a",
    "perversity --dim 5 --spec gm:0,1,1 --dual": "7ed60b522d4c62ee",
    "perversity --dim 5 --spec gm:0,0,1,2": "7be20aae9cff6a7e",
    "perversity --dim 5 --spec gm:0,0,1,2 --dual": "c02be680847db00e",
    "perversity --dim 5 --spec gm:1": "f2abedfbd6c51ceb",
    "perversity --dim 5 --spec gm:1 --dual": "abf80c4ddcfd0c58",
    "perversity --dim 5 --spec gm:0,2": "3141305660cb556a",
    "perversity --dim 5 --spec gm:0,2 --dual": "adaa316add973930",
    "perversity --dim 5 --spec gm:": "b642563018d56d75",
    "perversity --dim 5 --spec gm: --dual": "b642563018d56d75",
}


@pytest.mark.parametrize("argv", _commands(), ids=" ".join)
def test_cli_report_pinned(argv, hilbert_inputs, capsys):
    concrete = [hilbert_inputs.get(a, a) for a in argv]
    assert _digest(concrete, capsys) == PINNED[" ".join(argv)]
