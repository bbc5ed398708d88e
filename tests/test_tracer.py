"""Names that code outside the package looks up on it must resolve, so
that a rename or a deletion fails here and not in a traced run or an
import: the names the benchmark's tracer patches, and `apnlab.__all__`."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.tracer import LEAVES, TRACED, Tracer  # noqa: E402


def test_every_traced_name_resolves_and_is_restored():
    names = TRACED + LEAVES
    before = [getattr(owner, attr) for owner, attr, _ in names]
    # uninstall puts back what getattr returned, a bound method for a
    # classmethod; the class descriptors are put back below
    descriptors = [(owner, attr, vars(owner)[attr])
                   for owner, attr, _ in names if isinstance(owner, type)]
    tracer = Tracer()
    try:
        tracer.install()
        for (owner, attr, _), fn in zip(names, before):
            assert getattr(owner, attr).__wrapped__ == fn
        tracer.uninstall()
        assert [getattr(owner, attr) for owner, attr, _ in names] == before
    finally:
        tracer.uninstall()
        for owner, attr, value in descriptors:
            setattr(owner, attr, value)


def test_every_exported_name_resolves():
    import apnlab

    assert len(set(apnlab.__all__)) == len(apnlab.__all__)
    assert [n for n in apnlab.__all__ if not hasattr(apnlab, n)] == []
