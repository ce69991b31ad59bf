"""Command-line surface: invariant evaluation, syzygy checks, equivalence
decisions, symmetrization, dimension tables, and discretization sweeps.

Exit codes are stable: 0 success / equivalent, 1 not equivalent or an identity
or convergence check failed, 2 genericity or input error, 64 usage error.
All rationals in JSON output are "p/q" strings; floats appear only in
discretization reports.
"""

import argparse
import json
import sys
from itertools import combinations

from . import discretize as disc
from .exact import rat_str
from .field_generators import dim_d, stabilizer_dim
from .invariants import (
    GenericityError,
    all_min_syzygies,
    gram,
    load_config,
    q_value,
)
from .normal_form import equivalent, genericity, recover_transform, signature
from .poly import (
    verify_pfaffian_expansion,
    verify_q_reduction,
    verify_resolution_tower,
    verify_weyl_reduction,
)
from .symmetric import generator_search, graded_dim, verify_R8
from .variants import dim_bbar, load_contact_config

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(obj):
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _sig_json(sig):
    return {"group": sig.group, "values": [rat_str(v) for v in sig.values]}


def cmd_invariants(args):
    config = load_config(args.config)
    g = gram(config)
    report = genericity(config)
    _emit(
        {
            "n": config.n,
            "m": config.m,
            "pairs": [[i, j, rat_str(g.value(i, j))] for (i, j) in g.pairs()],
            "genericity": {
                "generic": report.generic,
                "failed_predicates": list(report.failed_predicates),
            },
        }
    )
    return EXIT_OK


def cmd_syzygy_check(args):
    out = {}
    ok = True
    if args.config:
        config = load_config(args.config)
        bvals = all_min_syzygies(config)
        nonzero = [list(idx) for idx, v in bvals if v != 0]
        out["minimal_syzygies"] = {
            "count": len(bvals),
            "all_zero": not nonzero,
            "nonzero_at": nonzero,
        }
        ok = ok and not nonzero
        qsize = 4 * config.n + 2
        if config.m >= qsize:
            g = gram(config)
            qnz = []
            total = 0
            for idx in combinations(range(1, config.m + 1), qsize):
                total += 1
                if q_value(g, idx, config.n) != 0:
                    qnz.append(list(idx))
            out["q_syzygies"] = {"count": total, "all_zero": not qnz, "nonzero_at": qnz}
            ok = ok and not qnz
    if args.identities:
        checks = {
            "pfaffian expansion n=1": verify_pfaffian_expansion(1),
            "pfaffian expansion n=2": verify_pfaffian_expansion(2),
            "weyl 8-index reduction": verify_weyl_reduction(),
            "q reduction": verify_q_reduction(),
            "resolution tower m=4": verify_resolution_tower(4)["ok"],
            "resolution tower m=5": verify_resolution_tower(5)["ok"],
        }
        out["identities"] = checks
        ok = ok and all(checks.values())
    _emit(out)
    return EXIT_OK if ok else EXIT_FAIL


def _unordered_equivalent(a, b, group):
    """Brute-force search over point relabelings of the second configuration.

    Plumbing for the S_m-quotient question at desk scale (m <= 6: at most 720
    signature comparisons); relabelings that land on a non-generic ordering
    are skipped.
    """
    if a.m > 6:
        raise ValueError("unordered comparison is limited to m <= 6")
    from itertools import permutations as _perms

    for perm in _perms(range(1, b.m + 1)):
        try:
            if equivalent(a, b.permute(list(perm)), group):
                return True, list(perm)
        except GenericityError:
            continue
    return False, None


def cmd_equiv(args):
    group = args.group
    if group == "contact":
        a = load_contact_config(args.config_a)
        b = load_contact_config(args.config_b)
    else:
        a = load_config(args.config_a)
        b = load_config(args.config_b)
    out = {"group": group}
    if args.unordered:
        if group == "contact":
            raise ValueError("unordered comparison is not provided for the contact group")
        result, perm = _unordered_equivalent(a, b, group)
        out["equivalent"] = result
        out["relabeling"] = perm
        _emit(out)
        return EXIT_OK if result else EXIT_FAIL
    result = equivalent(a, b, group)
    out.update(
        {
            "equivalent": result,
            "signature_a": _sig_json(signature(a, group)),
            "signature_b": _sig_json(signature(b, group)),
        }
    )
    if result and group == "sp" and a.m >= 2 * a.n:
        try:
            witness = recover_transform(a, b)
            out["witness"] = [[rat_str(x) for x in row] for row in witness.data]
        except GenericityError:
            # equivalence was decided through the relabeling fallback; no
            # witness in the original point order then
            out["witness"] = None
    _emit(out)
    return EXIT_OK if result else EXIT_FAIL


def cmd_symmetrize(args):
    out = {
        "m": args.m,
        "n": args.n,
        "maxdeg": args.maxdeg,
        "graded_dims": [graded_dim(args.m, args.n, k, seed=args.seed) for k in range(args.maxdeg + 1)],
        "r8_syzygy": verify_R8(),
    }
    if args.m <= 3:
        gens = generator_search(args.m, args.n, args.maxdeg, seed=args.seed)
        out["generators"] = [str(g) for g in gens]
        out["generator_degrees"] = [g.degree() for g in gens]
    else:
        out["generators"] = None
        out["note"] = "generator search is limited to m <= 3"
    _emit(out)
    return EXIT_OK


def cmd_dims(args):
    import random

    rng = random.Random(args.seed)
    ns = range(1, args.max_n + 1)
    print("d(m,n): transcendence degree of the invariant field")
    header = "  m\\n " + "".join(f"{n:>6}" for n in ns)
    print(header)
    for m in range(2, args.max_m + 1):
        print(f"{m:>5} " + "".join(f"{dim_d(m, n):>6}" for n in ns))
    print()
    print("bbar(m,n): transcendence degree of the contact invariant field")
    print(header)
    for m in range(2, args.max_m + 1):
        print(f"{m:>5} " + "".join(f"{dim_bbar(m, n):>6}" for n in ns))
    print()
    print("stabilizer dimension of a generic k-tuple (exact, random sample)")
    for n in ns:
        dims = []
        for k in range(0, 2 * n + 1):
            pts = [tuple(rng.randint(-9, 9) for _ in range(2 * n)) for _ in range(k)]
            dims.append(stabilizer_dim(pts, n))
        print(f"  n={n}: " + " ".join(f"k={k}:{d}" for k, d in enumerate(dims)))
    return EXIT_OK


_CASE_KINDS = {
    "planar-i2": ("parabola", disc.PlanarCurve),
    "general-i2": ("quartic-r4", disc.GeneralCurve),
    "derivation": ("quartic-r4", disc.GeneralCurve),
    "contact": ("cubic-contact", disc.ContactCurve),
    "function": ("hyperbolic-surface", disc.Surface),
}


def _discretize_reports(case, model, at, steps):
    if case == "planar-i2":
        x = at[0]
        target = disc.planar_i2_target(model, x)
        est = lambda h: disc.planar_I2_estimate(model, x, h, h)
        return {"I2": (est, target)}
    if case == "general-i2":
        t = at[0]
        return {"I2": (lambda h: disc.general_I2_estimate(model, t, h, h), disc.general_i2_target(model, t))}
    if case == "derivation":
        t = at[0]
        return {"grad": (lambda h: disc.derivation_estimate(model, t, h), model.derivation_target(t))}
    if case == "contact":
        x = at[0]
        return {
            "I1": (lambda h: disc.contact_estimates(model, x, h, h)["I1"], model.i1(x)),
            "I2": (lambda h: disc.contact_estimates(model, x, h, h)["I2"], model.i2(x)),
            "grad": (lambda h: disc.contact_estimates(model, x, h, h)["grad"], model.grad_target(x)),
        }
    if len(at) != 2:
        raise ValueError("the function case needs a base point --at x,y")
    x, y = at
    return {
        "I1": (lambda h: disc.function_estimates(model, x, y, h, h)["I1"], model.i1(x, y)),
        "grad1": (lambda h: disc.function_estimates(model, x, y, h, h)["grad1"], (x, y)),
        "grad2": (lambda h: disc.function_estimates(model, x, y, h, h)["grad2"], model.grad2_target(x, y)),
        "I2c": (lambda h: disc.function_estimates(model, x, y, h, h)["I2c"], model.i2c(x, y)),
    }


def cmd_discretize(args):
    cases = disc.standard_cases()
    default_curve, expected_kind = _CASE_KINDS[args.case]
    curve_name = args.curve or default_curve
    if curve_name not in cases:
        raise ValueError(f"unknown curve {curve_name!r}; choose from {sorted(cases)}")
    model = cases[curve_name]["model"]
    if not isinstance(model, expected_kind):
        raise ValueError(f"curve {curve_name!r} does not fit case {args.case!r}")
    at = tuple(float(v) for v in args.at.split(",")) if args.at else cases[curve_name]["at"]
    steps = (
        tuple(float(v) for v in args.steps.split(",")) if args.steps else disc.DEFAULT_STEPS
    )
    quantities = _discretize_reports(args.case, model, at, steps)
    reports = {}
    rows = []
    for name, (est, target) in quantities.items():
        report = disc.convergence_order(est, target, steps)
        reports[name] = report.to_dict()
        reports[name]["target"] = list(target) if isinstance(target, tuple) else target
        for h, err in zip(report.steps, report.errors):
            value = est(h)
            value_str = (
                ";".join(repr(v) for v in value) if isinstance(value, tuple) else repr(value)
            )
            rows.append((name, h, value_str, err))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("quantity,h,estimate,error\n")
            for name, h, value, err in rows:
                fh.write(f"{name},{h!r},{value},{err!r}\n")
    _emit({"case": args.case, "curve": curve_name, "at": list(at), "reports": reports})
    return EXIT_OK if all(r["passed"] for r in reports.values()) else EXIT_FAIL


def build_parser():
    parser = _Parser(prog="sympjoint", description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized samples")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="Gram table and genericity of a configuration")
    p.add_argument("config")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("syzygy-check", help="evaluate syzygies and/or verify identities")
    p.add_argument("config", nargs="?")
    p.add_argument("--identities", action="store_true", help="run the symbolic identity suite")
    p.set_defaults(func=cmd_syzygy_check)

    p = sub.add_parser("equiv", help="decide equivalence of two configurations")
    p.add_argument("config_a")
    p.add_argument("config_b")
    p.add_argument("--group", choices=["sp", "csp", "asp", "contact"], default="sp")
    p.add_argument(
        "--unordered",
        action="store_true",
        help="ignore point order: brute-force relabeling search (m <= 6)",
    )
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("symmetrize", help="graded dimensions and symmetric generators")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--maxdeg", type=int, default=8)
    p.set_defaults(func=cmd_symmetrize)

    p = sub.add_parser("dims", help="dimension and stabilizer tables")
    p.add_argument("--max-m", type=int, default=6)
    p.add_argument("--max-n", type=int, default=2)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("discretize", help="convergence sweep of a discretized invariant")
    p.add_argument("--case", choices=sorted(_CASE_KINDS), required=True)
    p.add_argument("--curve", default=None)
    p.add_argument("--at", default=None, help="evaluation point, comma-separated")
    p.add_argument("--steps", default=None, help="step sizes, comma-separated")
    p.add_argument("--csv", default=None, help="also write (h, estimate, error) rows")
    p.set_defaults(func=cmd_discretize)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GenericityError as exc:
        _emit({"error": "genericity", "detail": str(exc)})
        return EXIT_INPUT
    except (OSError, ValueError, TypeError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
