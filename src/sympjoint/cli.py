"""Command-line surface: invariant evaluation, syzygy checks, equivalence
decisions, symmetrization, dimension tables, and discretization sweeps.

Exit codes are stable: 0 success / equivalent, 1 not equivalent or an identity
or convergence check failed, 2 genericity or input error, 64 usage error.
All rationals in JSON output are "p/q" strings; floats appear only in
discretization reports.  Each command imports the library modules it calls,
so one call loads only what its command uses.
"""

import argparse
import functools
import json
import math
import random
import sys
from itertools import permutations

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_USAGE = 64

# cost guards: the slowest admitted call takes 1-2 s (2-vCPU VM, Python 3.11.7)
_MAX_DIMS_N = 20  # the sampled stabilizer ranks cost about n^6
_MAX_DIMS_M = 10_000  # one table row per m, about 36 us each at n = 20


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(obj):
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _rat_json(name, value):
    """``rat_str(value)``; a numerator or denominator with more digits than
    Python turns into a string raises a ValueError naming the output value."""
    from .exact import rat_str

    try:
        return rat_str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(
            f"output value {name} has more than {limit} digits, Python's limit for an int turned into a string"
        ) from None


def _sig_json(sig, key):
    """JSON of a (group, row, D, relations) signature, as `normal_form._normalize`
    returns it: one `Rat` x / D per printed value of the row (`normal_form._values`),
    then the relations."""
    from .normal_form import _values

    group, *parts = sig
    return {"group": group, "values": [_rat_json(f"{key}[{k}]", v) for k, v in enumerate(_values(*parts))]}


def cmd_invariants(args):
    from .invariants import _failed, gram, load_config

    config = load_config(args.config)
    g = gram(config)
    failed = _failed(g, config.n)
    _emit(
        {
            "n": config.n,
            "m": config.m,
            "pairs": [
                [i, j, _rat_json(f"a{i}{j}" if j < 10 else f"a{i}_{j}", g.value(i, j))] for (i, j) in g.pairs()
            ],
            "genericity": {
                "generic": not failed,
                "failed_predicates": list(failed),
            },
        }
    )
    return EXIT_OK


def cmd_syzygy_check(args):
    from .invariants import _check_vanishing, gram, load_config

    out = {}
    ok = True  # a configuration's syzygies vanish, or `_check_vanishing` raises
    if args.config:
        config = load_config(args.config)
        m, n = config.m, config.n
        _check_vanishing(gram(config), n)
        out["minimal_syzygies"] = {"count": math.comb(m, 2 * n + 2), "all_zero": True, "nonzero_at": []}
        if m >= 4 * n + 2:
            out["q_syzygies"] = {"count": math.comb(m, 4 * n + 2), "all_zero": True, "nonzero_at": []}
    if args.identities:
        from .poly import (
            verify_pfaffian_expansion,
            verify_q_reduction,
            verify_resolution_tower,
            verify_weyl_reduction,
        )

        checks = {
            "pfaffian expansion n=1": verify_pfaffian_expansion(1),
            "pfaffian expansion n=2": verify_pfaffian_expansion(2),
            "weyl 8-index reduction": verify_weyl_reduction(),
            "q reduction": verify_q_reduction(),
            "resolution tower m=4": verify_resolution_tower(4)["ok"],
            "resolution tower m=5": verify_resolution_tower(5)["ok"],
        }
        out["identities"] = checks
        ok = all(checks.values())
    _emit(out)
    return EXIT_OK if ok else EXIT_FAIL


def _unordered_equivalent(a, b, group):
    """Brute-force search over point relabelings of the second configuration.

    Plumbing for the S_m-quotient question at desk scale (m <= 6: at most 720
    signature comparisons).  The first configuration is normalized once, so
    its genericity error propagates; relabelings of the second that land on a
    non-generic ordering are skipped.
    """
    from .invariants import GenericityError
    from .normal_form import _normalize, _same

    if a.m > 6:
        raise ValueError("unordered comparison is limited to m <= 6")
    if (a.n, a.m) != (b.n, b.m):
        raise ValueError("configurations must share (n, m)")
    sig_a, relabel = _normalize(group, a)
    for perm in permutations(range(1, b.m + 1)):
        try:
            sig_b, _ = _normalize(group, b.permute(perm), relabel)
        except GenericityError:
            continue
        if _same(sig_a, sig_b):
            return True, list(perm)
    return False, None


def cmd_equiv(args):
    from .invariants import load_config
    from .normal_form import _relabel_compare, _same, recover_transform

    group = args.group
    if group == "contact":
        from .variants import load_contact_config as load
    else:
        load = load_config
    a, b = load(args.config_a), load(args.config_b)
    out = {"group": group}
    if args.unordered:
        if group == "contact":
            raise ValueError("unordered comparison is not provided for the contact group")
        result, perm = _unordered_equivalent(a, b, group)
        out["equivalent"] = result
        out["relabeling"] = perm
        _emit(out)
        return EXIT_OK if result else EXIT_FAIL
    sig_a, sig_b, perm = _relabel_compare(a, b, group)
    result = _same(sig_a, sig_b)
    out.update(
        equivalent=result, signature_a=_sig_json(sig_a, "signature_a"), signature_b=_sig_json(sig_b, "signature_b")
    )
    if result and group == "sp" and a.m >= 2 * a.n:
        # a map taking the relabeled A onto the relabeled B takes each A_i to B_i
        if perm:
            a, b = a.permute(perm), b.permute(perm)
        witness = recover_transform(a, b)
        out["witness"] = [
            [_rat_json(f"witness[{r}][{c}]", x) for c, x in enumerate(row)] for r, row in enumerate(witness.data)
        ]
    _emit(out)
    return EXIT_OK if result else EXIT_FAIL


def cmd_symmetrize(args):
    from .symmetric import _MAX_SEARCH_DEGREE, _MAX_SEARCH_POINTS, generator_search, graded_dims, verify_R8

    if args.maxdeg < 0:
        raise ValueError(f"--maxdeg must be >= 0, got {args.maxdeg}")
    out = {
        "m": args.m,
        "n": args.n,
        "maxdeg": args.maxdeg,
        "graded_dims": graded_dims(args.m, args.n, args.maxdeg),
        "r8_syzygy": verify_R8(),
    }
    if args.m > _MAX_SEARCH_POINTS:
        out["generators"] = None
        out["note"] = f"generator search is limited to m <= {_MAX_SEARCH_POINTS}"
    elif args.maxdeg > _MAX_SEARCH_DEGREE:
        out["generators"] = None
        out["note"] = f"generator search is limited to maxdeg <= {_MAX_SEARCH_DEGREE}"
    else:
        gens = generator_search(args.m, args.n, args.maxdeg, seed=args.seed)
        out["generators"] = [str(g) for g in gens]
        out["generator_degrees"] = [g.degree() for g in gens]
    _emit(out)
    return EXIT_OK


def cmd_dims(args):
    from .field_generators import dim_bbar, dim_d, stabilizer_dim
    from .invariants import _random_points

    if args.max_m < 2:
        raise ValueError(f"--max-m must be >= 2, got {args.max_m}")
    if args.max_m > _MAX_DIMS_M:
        raise ValueError(f"cost guard: need --max-m <= {_MAX_DIMS_M}, got {args.max_m}")
    if args.max_n < 1:
        raise ValueError(f"--max-n must be >= 1, got {args.max_n}")
    if args.max_n > _MAX_DIMS_N:
        raise ValueError(f"cost guard: need --max-n <= {_MAX_DIMS_N}, got {args.max_n}")
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
            dims.append(stabilizer_dim(_random_points(rng, n, k), n))
        print(f"  n={n}: " + " ".join(f"k={k}:{d}" for k, d in enumerate(dims)))
    return EXIT_OK


# case -> (default curve, name of the model class in `discretize` it needs)
_CASE_KINDS = {
    "planar-i2": ("parabola", "PlanarCurve"),
    "general-i2": ("quartic-r4", "GeneralCurve"),
    "derivation": ("quartic-r4", "GeneralCurve"),
    "contact": ("cubic-contact", "ContactCurve"),
    "function": ("hyperbolic-surface", "Surface"),
}


def _discretize_reports(case, model, at):
    """{quantity: (estimator, target)}; the estimators share one cache of the
    case's estimates keyed by step size, so each step is evaluated once."""
    from . import discretize as disc

    if case == "planar-i2":
        x = at[0]
        estimates = lambda h: {"I2": disc.planar_I2_estimate(model, x, h, h)}
        targets = {"I2": disc.planar_i2_target(model, x)}
    elif case == "general-i2":
        t = at[0]
        estimates = lambda h: {"I2": disc.general_I2_estimate(model, t, h, h)}
        targets = {"I2": disc.general_i2_target(model, t)}
    elif case == "derivation":
        t = at[0]
        estimates = lambda h: {"grad": disc.derivation_estimate(model, t, h)}
        targets = {"grad": model.derivation_target(t)}
    elif case == "contact":
        x = at[0]
        estimates = lambda h: disc.contact_estimates(model, x, h, h)
        targets = {"I1": model.i1(x), "I2": model.i2(x), "grad": model.grad_target(x)}
    else:
        x, y = at
        estimates = lambda h: disc.function_estimates(model, x, y, h, h)
        targets = {
            "I1": model.i1(x, y),
            "grad1": (x, y),
            "grad2": model.grad2_target(x, y),
            "I2c": model.i2c(x, y),
        }
    cached = functools.cache(estimates)  # one evaluation per step size
    return {name: (lambda h, name=name: cached(h)[name], target) for name, target in targets.items()}


def cmd_discretize(args):
    from . import discretize as disc

    cases = disc.standard_cases()
    default_curve, expected_kind = _CASE_KINDS[args.case]
    curve_name = args.curve or default_curve
    if curve_name not in cases:
        raise ValueError(f"unknown curve {curve_name!r}; choose from {sorted(cases)}")
    model = cases[curve_name]["model"]
    if not isinstance(model, getattr(disc, expected_kind)):
        raise ValueError(f"curve {curve_name!r} does not fit case {args.case!r}")
    at = tuple(float(v) for v in args.at.split(",")) if args.at else cases[curve_name]["at"]
    if not all(math.isfinite(v) for v in at):
        raise ValueError(f"evaluation point must be finite, got {args.at!r}")
    arity = 2 if args.case == "function" else 1  # a surface base point, else a curve parameter
    if len(at) != arity:
        raise ValueError(f"--case {args.case} takes {arity} value(s) in --at, got {len(at)}")
    steps = (
        tuple(float(v) for v in args.steps.split(",")) if args.steps else disc.DEFAULT_STEPS
    )
    reports = {}
    try:  # a float ** raises where * would give inf
        quantities = _discretize_reports(args.case, model, at)
        for name, (est, target) in quantities.items():
            reports[name] = disc.convergence_order(est, target, steps).to_dict()
            reports[name]["target"] = list(target) if isinstance(target, tuple) else target
    except OverflowError:
        raise ValueError(f"--case {args.case} --at {','.join(map(repr, at))}: a value overflows the float range") from None
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("quantity,h,estimate,error\n")
            for name, (est, _) in quantities.items():
                for h, err in zip(reports[name]["steps"], reports[name]["errors"]):
                    value = est(h)
                    value_str = (
                        ";".join(repr(v) for v in value) if isinstance(value, tuple) else repr(value)
                    )
                    fh.write(f"{name},{h!r},{value_str},{err!r}\n")
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
    if args.command == "syzygy-check" and not (args.config or args.identities):
        parser.error("syzygy-check needs a config file, --identities, or both")
    try:
        return args.func(args)
    except (OSError, ValueError, TypeError, KeyError, ArithmeticError, RecursionError) as exc:
        # a GenericityError (a ValueError, so caught here) needs `invariants`
        # loaded; a command that never loaded it need not load it to print
        invariants = sys.modules.get("sympjoint.invariants")
        if invariants is not None and isinstance(exc, invariants.GenericityError):
            _emit({"error": "genericity", "detail": str(exc)})
        else:
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
