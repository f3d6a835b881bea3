"""The package's public names."""

import fieldlab


def test_every_exported_name_resolves():
    missing = [name for name in fieldlab.__all__ if not hasattr(fieldlab, name)]
    assert not missing
    assert len(set(fieldlab.__all__)) == len(fieldlab.__all__)


REMOVED = ["EMatrix", "matrix_rank", "is_galois", "density_rank", "mod_is_irreducible",
           "find_split_prime"]


# QMatrix is a container with trace and det; its ring arithmetic is gone
REMOVED_QMATRIX = ["__add__", "__radd__", "__sub__", "__neg__", "__mul__", "__rmul__",
                   "identity", "zero", "column"]


def test_removed_names_stay_removed():
    assert not [name for name in REMOVED if hasattr(fieldlab, name)]
    assert not set(REMOVED) & set(fieldlab.__all__)
    assert not [name for name in REMOVED_QMATRIX if hasattr(fieldlab.QMatrix, name)]
    assert fieldlab.QMatrix.__hash__ is None
