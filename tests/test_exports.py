import types

import mexparity
from mexparity import errors, genfun, partitions, series, verify

MODULES = (series, errors, partitions, genfun, verify)


def test_package_exports_exactly_the_module_all_lists():
    public = {
        name
        for name, value in vars(mexparity).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {name for module in MODULES for name in module.__all__}


def test_each_export_is_the_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(mexparity, name) is getattr(module, name), (module.__name__, name)
