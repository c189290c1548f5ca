import mixrrm


def test_every_export_resolves():
    for name in mixrrm.__all__:
        assert getattr(mixrrm, name) is not None, name
