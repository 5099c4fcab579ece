import revplast


def test_every_exported_name_resolves():
    missing = [name for name in revplast.__all__ if not hasattr(revplast, name)]
    assert not missing
