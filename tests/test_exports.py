import disksurgery
from disksurgery import primitivity, report, scenarios, surgery, words

MODULES = (words, primitivity, surgery, scenarios, report)


def test_public_names_listed_once():
    assert len(disksurgery.__all__) == len(set(disksurgery.__all__))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from disksurgery import *", namespace)
    assert set(disksurgery.__all__) <= set(namespace)


def test_each_name_comes_from_its_module():
    # A later star import would silently shadow an earlier module's name.
    for module in MODULES:
        for name in module.__all__:
            assert getattr(disksurgery, name) is getattr(module, name), (module.__name__, name)
