import qqdesign


def test_every_exported_name_resolves_once():
    assert len(qqdesign.__all__) == len(set(qqdesign.__all__))
    for name in qqdesign.__all__:
        assert hasattr(qqdesign, name), name


def test_removed_wrappers_are_not_exported():
    for name in ("KernelFactor", "FrequencyVector", "UTypeReport", "McdReport"):
        assert name not in qqdesign.__all__
        assert not hasattr(qqdesign, name)
