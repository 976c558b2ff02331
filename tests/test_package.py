import dksom

# helpers that only their own tests called, deleted from the package
REMOVED = ("DecaySchedule", "bmu_relational", "verify_equivalence", "verify_triangle_bound")


def test_all_names_resolve():
    assert [name for name in dksom.__all__ if not hasattr(dksom, name)] == []


def test_all_has_no_duplicates():
    assert len(set(dksom.__all__)) == len(dksom.__all__)


def test_removed_helpers_are_not_exported():
    assert [name for name in REMOVED if name in dksom.__all__ or hasattr(dksom, name)] == []
