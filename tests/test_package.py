import ghzcert


def test_all_names_resolve_without_duplicates():
    names = ghzcert.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(ghzcert, name)]
    assert not missing
