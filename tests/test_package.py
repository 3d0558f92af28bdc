import depctx


def test_every_export_resolves():
    assert len(set(depctx.__all__)) == len(depctx.__all__)
    for name in depctx.__all__:
        getattr(depctx, name)  # a stale export raises AttributeError here
    names: dict = {}
    exec("from depctx import *", names)
    del names["__builtins__"]
    assert sorted(names) == sorted(depctx.__all__)
