"""The package's public names."""

import fieldlab


def test_every_exported_name_resolves():
    missing = [name for name in fieldlab.__all__ if not hasattr(fieldlab, name)]
    assert not missing
    assert len(set(fieldlab.__all__)) == len(fieldlab.__all__)


REMOVED = ["EMatrix", "matrix_rank", "is_galois", "density_rank", "mod_is_irreducible",
           "find_split_prime", "is_primitive", "PrimitivityReport", "is_normal_generator",
           "NormalReport", "apply", "compose", "conjugate_rank", "regrep",
           "distinct_mod_scalars"]


# QMatrix is a container with det; its ring arithmetic, trace and equality
# are gone
REMOVED_QMATRIX = ["__add__", "__radd__", "__sub__", "__neg__", "__mul__", "__rmul__",
                   "identity", "zero", "column", "trace"]


def test_removed_names_stay_removed():
    assert not [name for name in REMOVED if hasattr(fieldlab, name)]
    assert not set(REMOVED) & set(fieldlab.__all__)
    assert not [name for name in REMOVED_QMATRIX if hasattr(fieldlab.QMatrix, name)]
    assert "__eq__" not in vars(fieldlab.QMatrix)
    assert fieldlab.SolveResult._fields == ("rank", "solution")
    assert fieldlab.SeparabilityReport._fields == ("gram_det", "is_separable")
