import inspect

import pytest

import nilcone

# The export list as it stood when the package became lazy, less
# molien_graded_character (removed with LaurentPoly.div_exact), the
# class-datum view and one-class character that no route read
# (ClassDatum, conjugacy_data, mn_character), and the standard-tableau
# list and major-index series that no verify route reads any more
# (syt_enumerate, syt_major_index_genfun); it changes only on purpose.
EXPORTS = [
    "BiLaurentPoly", "BigradedSeries", "CONVENTION_TAG",
    "ExactDivisionError", "LaurentPoly", "Partition", "ProudfootReport",
    "TruncatedSeries", "WeylType", "charge", "compute_kostka_table",
    "enumeration_counts", "fake_degree_molien",
    "fake_degree_qhook", "hp0_slice_series", "hp0_walg_full_series",
    "ih_orbit_closure", "ih_s3_variety", "kostka_foulkes", "kostka_foulkes_charge",
    "kostka_from_fake_degree", "kostka_g",
    "orbit_dim", "partitions_of", "pn_series", "pn_series_molien", "proudfoot_check",
    "slice_series_typeA_printed", "sn_character_values", "springer_fiber_series",
    "ssyt_enumerate", "weyl_type",
]
SUBMODULES = ["laurent", "partitions", "tableaux", "kostka", "weyl", "springer", "verify", "cli"]


def test_export_list_is_pinned():
    assert nilcone.__all__ == EXPORTS


def test_every_exported_name_resolves():
    missing = [name for name in nilcone.__all__ if not hasattr(nilcone, name)]
    assert missing == []
    assert len(set(nilcone.__all__)) == len(nilcone.__all__)


def test_star_import_binds_the_export_list():
    namespace: dict = {}
    exec("from nilcone import *", namespace)
    assert set(nilcone.__all__) <= set(namespace)


def test_dir_lists_every_export_and_submodule():
    assert set(EXPORTS + SUBMODULES) <= set(dir(nilcone))


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_names_resolve(name):
    module = getattr(nilcone, name)
    assert module.__name__ == f"nilcone.{name}"


def test_exported_name_is_its_home_modules_object():
    assert nilcone.weyl_type is nilcone.weyl.weyl_type
    assert nilcone.Partition is nilcone.partitions.Partition


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        nilcone.no_such_name


# The walk over the export list: every exported callable is called with a
# wrong type for each of its data arguments in turn.  Record classes hold
# what they are given and check nothing, so the walk skips them; the
# exception class and the string constant take no data.
RECORDS = {"BigradedSeries", "ProudfootReport", "WeylType"}
NO_DATA = {"CONVENTION_TAG", "ExactDivisionError"}
P21 = nilcone.Partition((2, 1))
VALID = {
    "lam": P21, "mu": P21, "nu": P21, "phi": P21, "shape": P21, "content": P21,
    "n": 3, "truncation": 4, "word": [1, 2], "wt": nilcone.weyl_type("A", 2),
    "character_values": nilcone.sn_character_values(P21), "family": "A", "rank": 2,
    "coefficients": [1], "terms": {0: 1}, "parts": (2, 1),
}
# a tuple holding a float, so that no sequence argument takes it as data
WRONG = ((0.5,), 0.5, "x")


def data_arguments(fn) -> list[str]:
    """The required parameters, or the first when none is (the term map of
    LaurentPoly and BiLaurentPoly, the parts of a Partition)."""
    params = list(inspect.signature(fn).parameters.values())
    return [p.name for p in params if p.default is p.empty] or [params[0].name]


WALK = [
    (name, arg, bad)
    for name in nilcone.__all__
    if name not in RECORDS | NO_DATA
    for arg in data_arguments(getattr(nilcone, name))
    for bad in WRONG
]


def test_the_walk_skips_only_exported_records():
    assert RECORDS | NO_DATA <= set(nilcone.__all__)
    assert all(isinstance(getattr(nilcone, name), type) for name in RECORDS)
    assert {name for name, _, _ in WALK} == set(nilcone.__all__) - RECORDS - NO_DATA


@pytest.mark.parametrize("name,arg,bad", WALK, ids=[f"{n}-{a}-{type(b).__name__}" for n, a, b in WALK])
def test_a_wrong_type_is_refused_in_words(name, arg, bad):
    """A TypeError that names the type received (or, where a sequence is
    data, the type of its entry), or a ValueError; never an AttributeError
    from deep inside."""
    fn = getattr(nilcone, name)
    args = {a: VALID[a] for a in data_arguments(fn)}
    args[arg] = bad
    with pytest.raises((TypeError, ValueError)) as refused:
        fn(**args)
    if refused.type is TypeError:
        entries = bad if type(bad) is tuple else ()
        kinds = {type(bad).__name__, *(type(x).__name__ for x in entries)}
        assert any(kind in str(refused.value) for kind in kinds), refused.value


P = nilcone.Partition
# one query of every exported function that returns a polynomial, memoised or not
RETURNED = {
    "compute_kostka_table": lambda: nilcone.compute_kostka_table(3)[P((2, 1)), P((1, 1, 1))],
    "fake_degree_molien": lambda: nilcone.fake_degree_molien(
        nilcone.weyl_type("A", 2), nilcone.sn_character_values(P((2, 1)))
    ),
    "fake_degree_qhook": lambda: nilcone.fake_degree_qhook(P((2, 1))),
    "hp0_slice_series": lambda: nilcone.hp0_slice_series(P((2, 1))),
    "ih_orbit_closure": lambda: nilcone.ih_orbit_closure(P((2, 1))),
    "ih_s3_variety": lambda: nilcone.ih_s3_variety(P((2, 1)), P((1, 1, 1))),
    "kostka_foulkes": lambda: nilcone.kostka_foulkes(P((3, 1)), P((2, 1, 1))),
    "kostka_foulkes zero": lambda: nilcone.kostka_foulkes(P((2, 1)), P((3,))),
    "kostka_foulkes_charge": lambda: nilcone.kostka_foulkes_charge(P((3, 1)), P((2, 1, 1))),
    "kostka_from_fake_degree": lambda: nilcone.kostka_from_fake_degree(P((2, 1))),
    "kostka_g": lambda: nilcone.kostka_g(P((2, 1))),
    "pn_series": lambda: nilcone.pn_series(3).poly,
    "pn_series_molien": lambda: nilcone.pn_series_molien(nilcone.weyl_type("B", 2)),
    "proudfoot_check": lambda: nilcone.proudfoot_check(P((2, 1))).ih_dual_series,
    "slice_series_typeA_printed": lambda: nilcone.slice_series_typeA_printed(P((2, 1))).poly,
    "springer_fiber_series": lambda: nilcone.springer_fiber_series(P((2, 1))).poly,
}


@pytest.mark.parametrize("query", RETURNED)
def test_a_returned_polynomial_is_read_only(query):
    """A write into a returned term map raises TypeError, and a rebinding
    of its terms (or of a LaurentPoly's var) AttributeError, so neither
    can reach the memo that the next call reads."""
    value = RETURNED[query]()
    before = dict(value.terms)
    with pytest.raises(TypeError):
        value.terms[next(iter(before), 0)] = 99
    with pytest.raises(AttributeError):
        setattr(value, "terms", {0: 7})
    if isinstance(value, nilcone.LaurentPoly):
        var = value.var
        with pytest.raises(AttributeError):
            setattr(value, "var", "z")
        assert RETURNED[query]().var == var
    assert dict(RETURNED[query]().terms) == before


def test_a_rebound_kostka_polynomial_leaves_the_memo_intact():
    p = nilcone.kostka_foulkes(P((3, 1)), P((2, 1, 1)))
    with pytest.raises(AttributeError, match="LaurentPoly is immutable: cannot assign terms"):
        p.terms = {1: 99}
    again = nilcone.kostka_foulkes(P((3, 1)), P((2, 1, 1)))
    assert again.terms == {1: 1, 2: 1} and str(again) == "t + t^2"


def test_kostka_misses_share_one_zero():
    first = nilcone.kostka_foulkes(P((2, 1)), P((3,)))
    second = nilcone.kostka_foulkes(P((1, 1, 1, 1)), P((2, 2)))
    assert first is second and first == 0 and first.var == "t"
