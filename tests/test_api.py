"""The public API: the names ``sympjoint`` exports and its one scalar type."""

import copy
import dataclasses
import pickle
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
        "dim_bbar",
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


def test_dim_bbar_is_also_read_from_variants():
    # the contact count lives beside dim_d, so `dims` loads no `variants`
    assert sympjoint.variants.dim_bbar is sympjoint.dim_bbar is sympjoint.field_generators.dim_bbar


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


# Each exported record, built twice alike and once different, with one of its
# fields and the repr it had as a frozen dataclass.
RECORDS = {
    "PointConfig": (
        lambda: sympjoint.PointConfig(1, ((1, 0), ("1/2", 3))),
        lambda: sympjoint.PointConfig(1, ((1, 0), ("1/2", 4))),
        ("n", "points"),
        "PointConfig(n=1, points=((Fraction(1, 1), Fraction(0, 1)), (Fraction(1, 2), Fraction(3, 1))))",
    ),
    "BasicSet": (
        lambda: sympjoint.basic_set(3, 1),
        lambda: sympjoint.basic_set(4, 1),
        ("m", "n", "pairs"),
        "BasicSet(m=3, n=1, pairs=((1, 2), (1, 3), (2, 3)))",
    ),
    "GenericityReport": (
        lambda: sympjoint.genericity(sympjoint.PointConfig(1, ((1, 0), (2, 0)))),
        lambda: sympjoint.genericity(sympjoint.PointConfig(1, ((1, 0), (0, 2)))),
        ("generic", "failed_predicates"),
        "GenericityReport(generic=False, failed_predicates=('a12 = 0',))",
    ),
    "ContactPoint": (
        lambda: sympjoint.ContactPoint((1,), (0,), "1/2"),
        lambda: sympjoint.ContactPoint((1,), (0,), "1/3"),
        ("x", "y", "u"),
        "ContactPoint(x=(Fraction(1, 1),), y=(Fraction(0, 1),), u=Fraction(1, 2))",
    ),
    "ContactConfig": (
        lambda: sympjoint.ContactConfig(1, (((1,), (0,), "1/2"), ((0,), (1,), 2))),
        lambda: sympjoint.ContactConfig(1, (((1,), (0,), "1/2"),)),
        ("n", "points"),
        "ContactConfig(n=1, points=(ContactPoint(x=(Fraction(1, 1),), y=(Fraction(0, 1),), u=Fraction(1, 2)),"
        " ContactPoint(x=(Fraction(0, 1),), y=(Fraction(1, 1),), u=Fraction(2, 1))))",
    ),
    "Signature": (
        lambda: sympjoint.signature(sympjoint.PointConfig(1, ((1, 0), (0, 2), (1, 1))), "sp"),
        lambda: sympjoint.signature(sympjoint.PointConfig(1, ((1, 0), (0, 3), (1, 1))), "sp"),
        ("group", "values"),
        "Signature(group='Sp', values=(Fraction(2, 1), Fraction(1, 1), Fraction(-2, 1)))",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_repr_equality_and_hash(name):
    build, build_other, fields, text = RECORDS[name]
    record, twin, other = build(), build(), build_other()
    assert type(record) is getattr(sympjoint, name)
    assert repr(record) == text
    assert record == twin and hash(record) == hash(twin)
    assert hash(record) == hash(tuple([getattr(record, f) for f in fields]))
    assert record != other
    assert record != tuple([getattr(record, f) for f in fields])  # another class is never equal


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_fields_cannot_be_assigned(name):
    record = RECORDS[name][0]()
    for field in RECORDS[name][2]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_survives_pickle_and_copies(name):
    record = RECORDS[name][0]()
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record)
        assert clone == record and repr(clone) == repr(record)


def test_record_binds_keywords_as_its_fields():
    points = ((1, 0), (0, 1))
    assert sympjoint.PointConfig(n=1, points=points) == sympjoint.PointConfig(1, points)
    assert sympjoint.PointConfig(1, points=points) == sympjoint.PointConfig(1, points)
    for bad in ((1,), (1, points, 2)):
        with pytest.raises(TypeError):
            sympjoint.PointConfig(*bad)
    with pytest.raises(TypeError):
        sympjoint.PointConfig(1, points, n=1)
    with pytest.raises(TypeError):
        sympjoint.PointConfig(1, points=points, m=2)


def test_signature_is_one_dataclass():
    cfg = sympjoint.PointConfig(1, ((1, 0), (0, 2), (1, 1)))
    a, b = sympjoint.signature(cfg, "sp"), sympjoint.signature(cfg, "csp")
    assert dataclasses.is_dataclass(sympjoint.Signature)
    assert type(a) is type(b) is sympjoint.Signature
    assert type(sympjoint.csp_signature(sympjoint.gram(cfg), 1)) is sympjoint.Signature
    assert [f.name for f in dataclasses.fields(a)] == ["group", "values"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.group = "CSp"
