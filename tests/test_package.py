"""The package's public names."""
import dss


def test_every_exported_name_resolves():
    missing = [name for name in dss.__all__ if not hasattr(dss, name)]
    assert missing == []
    assert len(set(dss.__all__)) == len(dss.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from dss import *", namespace)
    assert set(dss.__all__) <= set(namespace)
