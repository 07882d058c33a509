import importlib

import pytest

MODULES = ["algebra", "applications", "channels", "cli", "exceptions", "io", "linalg", "structure"]


@pytest.mark.parametrize("module", ["kidecomp"] + [f"kidecomp.{m}" for m in MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == [], f"{module}.__all__ names undefined attributes: {missing}"
    assert len(set(mod.__all__)) == len(mod.__all__), f"{module}.__all__ repeats a name"



def test_root_publishes_each_library_module_list():
    import kidecomp

    published = ["__version__"]
    for m in MODULES:
        if m != "cli":
            mod = importlib.import_module(f"kidecomp.{m}")
            published += mod.__all__
            assert all(getattr(kidecomp, name) is getattr(mod, name) for name in mod.__all__)
    assert sorted(kidecomp.__all__) == sorted(published)
