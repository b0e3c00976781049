import pytest

import nilcone

# The export list as it stood when the package became lazy; it changes only
# on purpose.
EXPORTS = [
    "BiLaurentPoly", "BigradedSeries", "CONVENTION_TAG", "ClassDatum",
    "ExactDivisionError", "LaurentPoly", "Partition", "ProudfootReport",
    "TruncatedSeries", "WeylType", "charge", "compute_kostka_table",
    "conjugacy_data", "enumeration_counts", "fake_degree_molien",
    "fake_degree_qhook", "hp0_slice_series", "hp0_walg_full_series",
    "ih_orbit_closure", "ih_s3_variety", "kostka_foulkes", "kostka_foulkes_charge",
    "kostka_from_fake_degree", "kostka_g", "mn_character", "molien_graded_character",
    "orbit_dim", "partitions_of", "pn_series", "pn_series_molien", "proudfoot_check",
    "slice_series_typeA_printed", "sn_character_values", "springer_fiber_series",
    "ssyt_enumerate", "syt_enumerate", "syt_major_index_genfun", "weyl_type",
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
