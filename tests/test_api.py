"""The public API: the names ``sympjoint`` exports and its one scalar type."""

from fractions import Fraction

import pytest

import sympjoint

EXPORTS = {
    "exact": (
        "BACKEND",
        "ExactMatrix",
        "Rat",
        "SkewMatrix",
        "det",
        "is_symplectic",
        "nullspace",
        "pfaffian",
        "random_symplectic",
        "rank",
        "rat",
        "rat_str",
        "symp",
        "symplectic_J",
    ),
    "field_generators": (
        "BasicSet",
        "basic_set",
        "dim_d",
        "eliminate_entry",
        "generic_jacobian_rank",
        "jacobian_rank",
        "stabilizer_dim",
    ),
    "invariants": (
        "GenericityError",
        "GramTable",
        "PointConfig",
        "all_min_syzygies",
        "config_from_dict",
        "config_to_dict",
        "gram",
        "load_config",
        "q_value",
        "random_config",
        "syzygy_value",
    ),
    "normal_form": (
        "GenericityReport",
        "Signature",
        "canonical",
        "equivalent",
        "genericity",
        "recover_transform",
        "signature",
    ),
    "poly": (
        "FreeModuleElt",
        "MultiPoly",
        "aux_var",
        "avar",
        "contact_var",
        "evaluate",
        "pfaffian_poly",
        "q_poly",
        "verify_pfaffian_expansion",
        "verify_q_reduction",
        "verify_resolution_tower",
        "verify_weyl_reduction",
    ),
    "symmetric": (
        "generator_search",
        "graded_dim",
        "named_generators",
        "poincare_coeffs",
        "q_sequence",
        "reynolds",
        "verify_R8",
    ),
    "variants": (
        "ContactConfig",
        "ContactPoint",
        "asp_invariants",
        "contact_absolute",
        "contact_apply",
        "contact_config_from_dict",
        "contact_config_to_dict",
        "contact_equivalent",
        "contact_lift_symplectic",
        "contact_relative",
        "contact_transform",
        "csp_signature",
        "dim_bbar",
        "load_contact_config",
    ),
}


@pytest.mark.parametrize("name", [n for names in EXPORTS.values() for n in names])
def test_export_is_an_attribute(name):
    assert hasattr(sympjoint, name)


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_export_comes_from_its_module(module):
    source = getattr(sympjoint, module)
    for name in EXPORTS[module]:
        assert getattr(sympjoint, name) is getattr(source, name)


def test_one_scalar_type():
    assert sympjoint.BACKEND == "fraction"
    assert sympjoint.Rat is Fraction


def test_star_import_binds_every_export():
    namespace = {}
    exec("from sympjoint import *", namespace)
    del namespace["__builtins__"]
    exports = {name for names in EXPORTS.values() for name in names}
    assert set(namespace) == exports | set(EXPORTS)
    assert all(namespace[name] is getattr(sympjoint, name) for name in namespace)


def test_dir_lists_every_export():
    assert {name for names in EXPORTS.values() for name in names} | set(EXPORTS) <= set(dir(sympjoint))


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sympjoint.no_such_name
