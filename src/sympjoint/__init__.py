"""Joint invariants of linear symplectic group actions.

Exact evaluation of the pairwise invariants a_ij on point configurations,
symbolic verification of their Pfaffian syzygies, canonical forms and
signatures deciding equivalence under Sp/CSp/ASp and the contact lift, the
symmetric (unordered) invariant algebra, and floating-point discretizations
recovering the differential invariants as limits of joint ones.

The submodules load on first use: ``import sympjoint`` imports none of them,
and ``sympjoint.X`` imports the module that defines ``X`` the first time it is
read (PEP 562), then keeps it as a plain attribute.
"""

__version__ = "0.1.0"

_EXPORTS = {
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
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_OWNER, *_EXPORTS])


def __getattr__(name):
    if name not in _EXPORTS and name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, is reported by `python -X importtime`
    module = __import__(f"{__name__}.{_OWNER.get(name, name)}", fromlist=["_"])
    if name in _EXPORTS:
        return module
    value = getattr(module, name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
