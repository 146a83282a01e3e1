import types

import periodic_portfolio


def test_root_exports_exactly_all():
    exported = periodic_portfolio.__all__
    assert len(exported) == len(set(exported))
    missing = [name for name in exported if not hasattr(periodic_portfolio, name)]
    assert missing == []
    public = {
        name
        for name, value in vars(periodic_portfolio).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(exported)
