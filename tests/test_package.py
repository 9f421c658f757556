"""The package namespace re-exports each layer module's ``__all__``."""

import diachrona as dc


def test_each_public_name_comes_from_one_module():
    # two modules listing one name would leave one shadowing the other
    assert len(dc.__all__) == len(set(dc.__all__))
    for module in dc._MODULES:
        for name in module.__all__:
            assert getattr(dc, name) is getattr(module, name), f"{module.__name__}.{name}"
