"""The package's public name list stays in step with what the package defines."""
import softscore


def test_every_exported_name_resolves_and_is_listed_once():
    names = softscore.__all__
    assert sorted({n for n in names if names.count(n) > 1}) == []
    assert [n for n in names if not hasattr(softscore, n)] == []
