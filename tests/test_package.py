import loccgate


def test_every_exported_name_resolves():
    missing = [name for name in loccgate.__all__ if not hasattr(loccgate, name)]
    assert missing == []
    assert len(set(loccgate.__all__)) == len(loccgate.__all__)
