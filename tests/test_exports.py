import edgewalk


def test_every_public_name_imports():
    namespace = {}
    exec("from edgewalk import *", namespace)
    assert sorted(set(edgewalk.__all__) - namespace.keys()) == []
    assert len(edgewalk.__all__) == len(set(edgewalk.__all__))
