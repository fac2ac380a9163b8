import heyde


def test_export_list_has_no_duplicates():
    assert len(heyde.__all__) == len(set(heyde.__all__))


def test_every_export_resolves():
    for name in heyde.__all__:
        assert getattr(heyde, name) is not None, name


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from heyde import *", namespace)
    assert set(heyde.__all__) <= namespace.keys()


def test_default_s_scale_is_exported():
    assert "default_s_scale" in heyde.__all__
    assert heyde.default_s_scale is heyde.symmetry.default_s_scale
