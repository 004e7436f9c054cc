import diffuniq


def test_public_names_resolve_once():
    names = diffuniq.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(diffuniq, n)] == []


def test_removed_names_stay_gone():
    for name in ("FellerPair", "build_feller", "Budget"):
        assert name not in diffuniq.__all__ and not hasattr(diffuniq, name)
    assert "log_scale" in diffuniq.__all__
