"""Exact bigraded values, pinned by the SHA-1 of the sorted term list.

Outside type A the Molien series has no second route yet, and its other
tests see only the (1,1)-value, the exponent window and y = 1.  A
builder that paired one class's x-factor with another class's y-factor
can keep all three, so these digests are what catch it.  They were recorded
before the series builders were rewritten around packed sums of products,
which now run over memoised packed fake degrees; the digests of A2-A7,
B6-B8, C7 and D3, D6-D8 and A9 were recorded before the class sums moved
onto packed rows of the graded characters, whose flag rows take 8-byte
digits from A9, B7 and D8 on.

The q-hook fake degrees are pinned per n, one digest over every lam of n,
as they were before the q-hook moved onto the dense quotient q_quotient.

The exceptional class data, the multiset of (det(1 - t w), class size)
over the rows of _class_rows, was pinned while det(1 - t w) still came from
Faddeev-LeVerrier, before it moved to traces of powers and then to
cyclotomic exponents read from the traces up to ord(w).
"""

import hashlib

import pytest

from nilcone.kostka import fake_degree_qhook
from nilcone.partitions import Partition, partitions_of
from nilcone.springer import springer_fiber_series
from nilcone.laurent import q_quotient
from nilcone.weyl import _class_rows, pn_series_molien, weyl_type

MOLIEN = {
    ("A", 2): "40f1d3ef4a4116b587e7eb4efa8c8d439c78337b",
    ("A", 3): "cf530c5942cc7cdb2e939bad26099169d1e16109",
    ("A", 4): "563875cb1022cc9a75e715437c5cb353694ec599",
    ("A", 5): "3b94dcfa0be749f5886e85427b1a44b95ddacb46",
    ("A", 6): "37e2f3c21f6084e3163e7cd3349c8481557cf546",
    ("A", 7): "b7bd4be0f2cc586bc526346d98d7b12506d41347",
    ("A", 9): "310561187e48386658ac6f0947f812e835b331b6",
    ("B", 2): "064f8df29de77f325f44831c7ed574eadd2079e2",
    ("B", 3): "1e7a2ed8c72144adf977270efba3d26281417cec",
    ("B", 4): "bf6142574359712197baa0d6e582985cfb45b17f",
    ("B", 5): "7e1d6544595885760e79774e67c687410da0160e",
    ("B", 6): "e7252455fca812455170d4efaca045f985570ec7",
    ("B", 7): "61bb2a934ae3ab630a84e61dc30d09f77ecefbd6",
    ("B", 8): "41673c00622f3e26a09429e8874e258606c6003b",
    ("C", 3): "1e7a2ed8c72144adf977270efba3d26281417cec",
    ("C", 7): "61bb2a934ae3ab630a84e61dc30d09f77ecefbd6",
    ("D", 3): "cf530c5942cc7cdb2e939bad26099169d1e16109",
    ("D", 4): "d06aca55662f48b8c9d18c735a9b1f3959df15f9",
    ("D", 5): "3d8a794857a92c42b3cb92b6ae66533ea07baad4",
    ("D", 6): "b4e5239dc8eddf7435a6730451d9dd96b19cee20",
    ("D", 7): "86eeb5b73b40fa8239d8fca82b8d9c7b0f1f5012",
    ("D", 8): "3461637152dffd45561b059876f28aad53e41a06",
    ("G2", 2): "18e6adbca831caef70db92cba13f23b90b819582",
    ("F4", 4): "9375caa41612d0678385c820fc240ed7c1f75dc5",
    ("E6", 6): "9f4757b6be30053c058558f9b464b571dddff432",
}

CLASS_FACTORS = {
    ("G2", 2): "4e807e9a60c99074586d2fc301feb064106c34ed",
    ("F4", 4): "a07dc6a25d5e036762147ae1827998ec31ee2565",
    ("E6", 6): "b08c97a594a4d470c0c8cb519bdc3e86e66eb837",
}

POINT = "60c100f9df3fae9cadaa82611aa2ecd0c4db1ba3"  # the series 1

SPRINGER = {
    (1,): POINT,
    (2,): POINT,
    (1, 1): "b8fb32bbee03f17816526084eb052d862afee08b",
    (3,): POINT,
    (2, 1): "349ad0ac9a5d1efb73f3aa5786c1cd938be62247",
    (1, 1, 1): "40f1d3ef4a4116b587e7eb4efa8c8d439c78337b",
    (4,): POINT,
    (3, 1): "baa2a62418247cbb69fb4ff2abadf67f37c6cc74",
    (2, 2): "9f4b5fc434d994a5456cd68f996d271bfb7412a6",
    (2, 1, 1): "b766b15a0c0df73ca99485dd54867875ef07894a",
    (1, 1, 1, 1): "cf530c5942cc7cdb2e939bad26099169d1e16109",
    (5,): POINT,
    (4, 1): "ad91ba768bf38bfb4b6240a67c5cbad35096e284",
    (3, 2): "1bf7b6b2c42799e03ebb49b18af244668737b3f9",
    (3, 1, 1): "d4dcaf92e40f09ad3aac06f628f34e418d2b5e46",
    (2, 2, 1): "c513b873e2ef017f6363f73cdae089ba2c5dfe79",
    (2, 1, 1, 1): "45cb7a5e95557f22033343edb432b09994a03fce",
    (1, 1, 1, 1, 1): "563875cb1022cc9a75e715437c5cb353694ec599",
    (6,): POINT,
    (5, 1): "06efacb811b0474a4eb8c838b0afdc8f64c82289",
    (4, 2): "27a0315e81aef9cea9f65e49305d05cf417218ec",
    (4, 1, 1): "2855477cf9b60ee4143cde654f5ec7e42f6a62bc",
    (3, 3): "e8edcc50c282ec5c271d73d53b4627d86d32f195",
    (3, 2, 1): "66ebd3d5d3c7a7f44fe80cd408c7a00520319ef7",
    (3, 1, 1, 1): "ab6bcdb36135d3179c455982b67d21b54ec367c8",
    (2, 2, 2): "19a31f4a8df3675caa52658165a85d034d72dc53",
    (2, 2, 1, 1): "f0a0e21944acd7ba7c5b9f08c9536545198df276",
    (2, 1, 1, 1, 1): "ae7143e284857abef0a9a4ed282c2c1098c2cca4",
    (1, 1, 1, 1, 1, 1): "3b94dcfa0be749f5886e85427b1a44b95ddacb46",
}


FAKE_DEGREES = {
    0: "9ea3ab5aff23cbdd0297616d8349729f3cbf7519",
    1: "ecc9fd7edfa17748a3279946b4e5b308c743a9dd",
    2: "991bd38eaed67f141728f5a0547e2e66804107e8",
    3: "43dbe71b4eb18abc0c0babe690a06aff178c8086",
    4: "a1c288174c52cfaa9abf184f9caa66cf3a0b8798",
    5: "266567aa01af219ec669f51fe2169c092650e268",
    6: "42672df27e11e95fffb1c262a37ee707d9a41350",
    7: "04580d4956fdd08840e36ef6ef3f5f80bb78c683",
    8: "94ab071009128a9c20259dc62c44724e79c723ac",
    9: "94d40ca565293f703c941a15adaf496fb4e2b896",
    10: "27fc1355f2501f8c6f3d33cdea1b36cbcb68dfca",
    11: "0dc86d6663a70dbe65ae7cb6706cf80f1e290ce3",
    12: "41a5c300f930cef34b2a2c81451ae8abd0c78f80",
}


def digest(poly) -> str:
    return hashlib.sha1(repr(sorted(poly.terms.items())).encode()).hexdigest()


def test_springer_pins_cover_every_phi_up_to_six():
    assert set(SPRINGER) == {phi.parts for n in range(1, 7) for phi in partitions_of(n)}


@pytest.mark.parametrize("family,rank", list(MOLIEN))
def test_molien_series_pinned(family, rank):
    assert digest(pn_series_molien(weyl_type(family, rank))) == MOLIEN[family, rank]


def test_mutating_a_molien_series_leaves_the_next_one_intact():
    # C3 and B3 share their class data; a write into either is refused.
    with pytest.raises(TypeError):
        del pn_series_molien(weyl_type("C", 3)).terms[0, 0]
    with pytest.raises(TypeError):
        pn_series_molien(weyl_type("B", 3)).terms[0, 0] = 5
    assert digest(pn_series_molien(weyl_type("B", 3))) == MOLIEN["B", 3]
    assert digest(pn_series_molien(weyl_type("C", 3))) == MOLIEN["C", 3]


@pytest.mark.parametrize("family,rank", list(CLASS_FACTORS))
def test_exceptional_class_factors_pinned(family, rank):
    rows = sorted(
        (sorted(q_quotient(a, b, "t").terms.items()), size)
        for _, size, a, b in _class_rows(family, rank)
    )
    assert hashlib.sha1(repr(rows).encode()).hexdigest() == CLASS_FACTORS[family, rank]


@pytest.mark.parametrize("parts", list(SPRINGER))
def test_springer_fiber_series_pinned(parts):
    assert digest(springer_fiber_series(Partition(parts)).poly) == SPRINGER[parts]


@pytest.mark.parametrize("n", list(FAKE_DEGREES))
def test_fake_degrees_pinned(n):
    rows = [(lam.parts, sorted(fake_degree_qhook(lam).terms.items())) for lam in partitions_of(n)]
    assert hashlib.sha1(repr(rows).encode()).hexdigest() == FAKE_DEGREES[n]
