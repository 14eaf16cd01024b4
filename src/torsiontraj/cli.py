"""Command-line front end.

One subcommand per station: ``singularity`` for trajectory rows,
``link`` for link profiles, ``lattice`` for discriminant packages,
``product`` for Kunneth/Brauer torsion of Enriques x curve, ``transport``
for kernels of relation maps, and ``table`` for the full trajectory
table.  Output is Markdown by default; ``--format json`` and
``--format csv`` are available everywhere, ``--out`` writes to a file.

Each command builds its JSON value and its table rows once, and one
render path, ``_render``, turns them into the chosen format.

Exit codes: 0 on success, 1 on computation refusals (gate failures,
capability limits), 2 on usage errors, which include a path that cannot
be read or written and an input file that is not UTF-8.

The process entry, ``main``, freezes the garbage collector before it
exits, so the exit-time collections skip the objects the run built;
``run``, which tests and in-process callers use, does not.
"""

import argparse
import gc
import json
import sys

from . import serialize
from .abgroup import FGAbGroup, FinAbHom
from .errors import CapabilityError, TorsionTrajError, ValidationError
from .lattice import discriminant_package
from .links import LensSpace, PlumbingBoundary, Seifert, link_profile
from .products import GateRefusal, brauer_comparison, builtin_profile, product_cohomology, product_profile
from .serialize import TABLE_HEADERS
from .trajectory import (
    _KINDS,
    SingularityModel,
    TransportProblem,
    trajectory_row,
    trajectory_table,
    transport_kernel,
)

USAGE_EXIT = 2
REFUSAL_EXIT = 1


def _load_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _emit(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _render(args, data, headers, rows, title=""):
    """The one output path: ``data`` as JSON, or ``rows`` as CSV or Markdown.

    ``headers`` None marks a key-value listing, headed "Field | Value" in
    Markdown and "field,value" in CSV.  ``title`` leads the Markdown only.
    """
    if args.format == "json":
        return serialize.to_json_text(data)
    if args.format == "csv":
        return serialize.csv_table(headers or ("field", "value"), rows)
    return title + serialize.markdown_table(headers or ("Field", "Value"), rows)


def _model_from_args(args):
    which, params = args.which, tuple(args.params)
    if which == "ak":
        if args.k is None:
            raise ValidationError("ak requires --k")
        params = (args.k, *params)
    elif args.k is not None:
        raise ValidationError(f"--k applies only to ak, not {which}")
    if which == "a1":
        if params:
            raise ValidationError(f"a1 takes no parameters, got {params!r}")
        which, params = "ak", (1,)
    if which == "brieskorn":
        return SingularityModel.brieskorn(*params)
    return SingularityModel(which, params)


def cmd_singularity(args):
    row = trajectory_row(_model_from_args(args))
    return _render(args, serialize.row_to_json(row), TABLE_HEADERS, [serialize.row_cells(row)])


# The link kind each option belongs to; another kind refuses it.
_LINK_OPTION_KIND = {"params": "lens", "b": "seifert", "arms": "seifert", "gram": "plumbing"}


def _link_model_from_args(args):
    for option, kind in _LINK_OPTION_KIND.items():
        if getattr(args, option) not in (None, []) and kind != args.link_kind:
            shown = "P Q" if option == "params" else f"--{option}"
            raise ValidationError(f"{shown} applies only to {kind}, not {args.link_kind}")
    if args.link_kind == "lens":
        if len(args.params) != 2:
            raise ValidationError("lens requires two integers P Q")
        return LensSpace(args.params[0], args.params[1])
    if args.link_kind == "seifert":
        if args.b is None or not args.arms:
            raise ValidationError("seifert requires --b and --arms \"a1,b1;a2,b2;...\"")
        arms = []
        for chunk in args.arms.split(";"):
            try:
                alpha, beta = map(int, chunk.split(","))
            except ValueError:
                raise ValidationError(
                    f"--arms entry {chunk!r} is not a pair of integers \"a,b\""
                ) from None
            arms.append((alpha, beta))
        return Seifert(args.b, tuple(arms))
    if args.link_kind == "plumbing":
        if not args.gram:
            raise ValidationError("plumbing requires --gram FILE")
        return PlumbingBoundary(serialize.lattice_from_json(_load_json(args.gram)))
    raise ValidationError(f"unknown link kind {args.link_kind!r}")


def cmd_link(args):
    profile = link_profile(_link_model_from_args(args))
    rows = [(str(k), str(g)) for k, g in sorted(profile.cohomology.items())]
    return _render(args, serialize.profile_to_json(profile), ("degree", "group"), rows,
                   title=f"Profile: {profile.name}\n\n")


def cmd_lattice(args):
    pkg = discriminant_package(serialize.lattice_from_json(_load_json(args.gram)))
    # discriminant_package refuses a singular gram, and |coker(gram)| = |det(gram)|.
    rows = [
        ("discriminant group", str(pkg.group)),
        ("form", serialize.form_display(pkg.form)),
        ("|det(gram)|", str(pkg.group.torsion_order())),
    ]
    return _render(args, serialize.package_to_json(pkg), None, rows)


def cmd_product(args):
    surface = builtin_profile("enriques")
    curve = builtin_profile("curve", genus=args.genus)
    report = product_cohomology(surface, curve, args.degree)
    full = product_profile(surface, curve)
    brauer = brauer_comparison(full)
    refused = isinstance(brauer, GateRefusal)
    if refused and args.format != "json":
        raise CapabilityError(str(brauer))
    data = serialize.report_to_json(report)
    data["h02"] = full.h0q(2)
    data["brauer"] = (
        {"refused": brauer.failed_hypothesis} if refused else serialize.group_to_json(brauer)
    )
    rows = [
        (f"H^{args.degree} total", str(report.total)),
        (f"H^{args.degree} torsion", str(report.total_torsion)),
        ("h^(0,2)", str(full.h0q(2))),
        ("Brauer group", str(brauer)),
    ]
    rows += [(f"H^{a} (x) H^{b}", str(g)) for a, b, g in report.summands]
    rows += [(f"Tor(H^{a}, H^{b})", str(g)) for a, b, g in report.tor_terms]
    return _render(args, data, None, rows)


def cmd_transport(args):
    literals = _load_json(args.packages)
    if not isinstance(literals, list):
        raise ValidationError("packages must be a JSON list of group literals")
    packages = [serialize.group_from_json(g) for g in literals]
    target, matrix = serialize.relation_from_json(_load_json(args.relations))
    source = FGAbGroup.trivial().direct_sum(*packages)
    relation = FinAbHom(source, target, matrix)
    kernel = transport_kernel(TransportProblem(tuple(packages), relation))
    return _render(args, {"kernel": serialize.group_to_json(kernel)}, None,
                   [("kernel", str(kernel))])


def cmd_table(args):
    rows = trajectory_table()
    return _render(args, [serialize.row_to_json(r) for r in rows], TABLE_HEADERS,
                   [serialize.row_cells(r) for r in rows])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="torsiontraj",
        description="Exact torsion invariants of surface singularities",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("md", "json", "csv"), default="md")
    common.add_argument("--out", help="write output to this path instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    sing = add_parser("singularity", help="trajectory row of a local model")
    sing.add_argument("which", choices=("a1", *_KINDS))
    sing.add_argument("params", nargs="*", type=int)
    sing.add_argument("--k", type=int, help="index k for the A_k family")
    sing.set_defaults(func=cmd_singularity)

    link = add_parser("link", help="cohomology profile of a link")
    link.add_argument("link_kind", choices=("lens", "seifert", "plumbing"))
    link.add_argument("params", nargs="*", type=int)
    link.add_argument("--b", type=int, help="Seifert base Euler term")
    link.add_argument("--arms", help='Seifert arms as "a1,b1;a2,b2;..."')
    link.add_argument("--gram", help="JSON file with a lattice literal")
    link.set_defaults(func=cmd_link)

    lattice_cmd = add_parser("lattice", help="discriminant package of a gram matrix")
    lattice_cmd.add_argument("--gram", required=True, help="JSON file with a lattice literal")
    lattice_cmd.set_defaults(func=cmd_lattice)

    product = add_parser("product", help="Kunneth torsion of Enriques x curve")
    product.add_argument("surface", choices=("enriques",))
    product.add_argument("--genus", type=int, required=True)
    product.add_argument("--degree", type=int, default=4)
    product.set_defaults(func=cmd_product)

    transport = add_parser("transport", help="kernel of a transport relation map")
    transport.add_argument("--packages", required=True, help="JSON list of group literals")
    transport.add_argument("--relations", required=True,
                           help='JSON {"target": group, "matrix": [[...]]}')
    transport.set_defaults(func=cmd_transport)

    table = add_parser("table", help="the full trajectory table")
    table.add_argument("what", choices=("trajectory",))
    table.add_argument("--all", action="store_true",
                       help="accepted for compatibility; every built-in row is always included")
    table.set_defaults(func=cmd_table)

    return parser


def run(argv):
    # Exact entries and results have any number of digits, in input and
    # output alike, so the interpreter's int/str digit limit is lifted.
    lift_digit_limit = getattr(sys, "set_int_max_str_digits", None)
    if lift_digit_limit is not None:
        lift_digit_limit(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0
    try:
        _emit(args, args.func(args))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ValidationError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except TorsionTrajError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return REFUSAL_EXIT
    return 0


def main():
    code = run(sys.argv[1:])
    # Freeze what was built, so the exit-time collections skip it.
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    main()
