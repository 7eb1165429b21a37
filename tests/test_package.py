"""The package's public names."""
import prefnorm


def test_every_exported_name_resolves_once():
    names = prefnorm.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(prefnorm, name)]
    assert missing == []
