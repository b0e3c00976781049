import nilcone


def test_every_exported_name_resolves():
    missing = [name for name in nilcone.__all__ if not hasattr(nilcone, name)]
    assert missing == []
    assert len(set(nilcone.__all__)) == len(nilcone.__all__)


def test_star_import_binds_the_export_list():
    namespace: dict = {}
    exec("from nilcone import *", namespace)
    assert set(nilcone.__all__) <= set(namespace)
