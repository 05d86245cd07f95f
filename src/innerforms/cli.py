"""Unified command-line front-end.

Exit codes: 0 success, 1 domain errors (e.g. a division degree not dividing
its block), 2 usage errors (bad flags, unparseable group expressions).
All output is deterministic for identical inputs; ``--json`` switches every
subcommand to machine output, and the INNERFORMS_ASCII environment variable
forces ASCII diagram rendering.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .errors import GroupParseError, GroupSpecError, InnerFormsError

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: each command imports the layers it runs
    from .globalize import HasseVector
    from .rootdata import BasedRootDatum

# no catalog tag contains an x, so a tag stops before the x of a product
_GROUP_TOKEN = re.compile(r"(?P<tag>[A-Za-wyz][A-Za-wyz0-9]*)(?:\((?P<args>[^)]*)\))?")


def parse_group_expr(text: str) -> BasedRootDatum:
    """Parse expressions like ``SL(5)``, ``GSpin(8)``, ``E7sc``, ``GL(3)xGL(2)``.

    Products use ``x`` between factors.  Parse errors report the byte offset.
    """
    from .rootdata import LATTICE_RANK, build_catalog_group, check_lattice_rank, datum_product
    text = text.strip()
    if not text:
        raise GroupParseError("empty group expression", 0)
    factors = []
    total_rank = 0
    pos = 0
    while True:
        match = _GROUP_TOKEN.match(text, pos)
        if match is None or match.start() != pos:
            raise GroupParseError(f"expected a group tag in {text!r}", pos)
        tag = match.group("tag")
        args_text = match.group("args")
        if args_text is None:
            if tag in LATTICE_RANK:
                raise GroupParseError(f"tag {tag} needs a parameter list", pos)
            params: list[int] = []
        else:
            try:
                params = [int(x) for x in args_text.split(",")] if args_text else []
            except ValueError:
                raise GroupParseError(
                    f"non-integer parameter in {args_text!r}", pos + len(tag) + 1
                ) from None
        try:
            factors.append(build_catalog_group(tag, params))
            # refuse a long product before building its remaining factors
            total_rank += factors[-1].rank
            check_lattice_rank(total_rank, "the product")
        except GroupSpecError as exc:
            raise GroupParseError(str(exc), pos) from None
        pos = match.end()
        if pos == len(text):
            break
        if text[pos] != "x":
            raise GroupParseError(f"expected 'x' or end of expression in {text!r}", pos)
        pos += 1
    if len(factors) == 1:
        return factors[0]
    return datum_product(factors, name=text)


def parse_removed(datum: BasedRootDatum, text: str) -> list[int]:
    """Removed-root list: 'a4,a6' or '4,6' in 1-based Bourbaki numbering."""
    out = []
    for piece in text.split(","):
        piece = piece.strip().lstrip("a").lstrip("α").lstrip("_")
        if not piece.isdigit():
            raise GroupSpecError(f"bad root label {piece!r} (use e.g. a4)")
        idx = int(piece) - 1
        if idx < 0 or idx >= datum.semisimple_rank:
            raise GroupSpecError(
                f"root index {idx + 1} out of range 1..{datum.semisimple_rank}"
            )
        out.append(idx)
    return sorted(set(out))


def _theta_from_args(datum: BasedRootDatum, args) -> tuple[int, ...]:
    """Theta from ``--remove`` or ``--theta`` (argparse admits at most one); () if neither."""
    if args.remove is not None:
        from .levi import remove_indices
        return remove_indices(datum, parse_removed(datum, args.remove))
    if args.theta is not None:
        if not args.theta.strip():
            return ()
        vals = _int_list(args.theta, "theta list")
        if any(v < 0 or v >= datum.semisimple_rank for v in vals):
            raise GroupSpecError(
                f"theta {sorted(set(vals))} out of range 0..{datum.semisimple_rank - 1}"
            )
        return tuple(sorted(set(vals)))
    return ()


def _int_list(text: str, what: str) -> list[int]:
    """Comma-separated integers, e.g. '2,1,2'; GroupSpecError (a usage error) otherwise."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise GroupSpecError(f"bad {what} {text!r}; expected comma-separated integers") from None


def _emit(args, payload: dict, text: str | None = None) -> None:
    """The one writer of stdout: ``payload`` as JSON under ``--json``, else ``text``
    (by default the payload as ASCII-escaped JSON).

    A closed pipe ends the process quietly with exit 1, as SIGPIPE would; any
    other failure to write raises InnerFormsError (exit 1).
    """
    if args.json or text is None:
        import json
        text = json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=not args.json)
    if sys.stdout is None:
        raise InnerFormsError("cannot write to stdout: it is closed")
    try:
        print(text, flush=True)
    except UnicodeEncodeError as exc:
        raise InnerFormsError(
            f"cannot write to stdout: its encoding {exc.encoding!r} cannot represent the output;"
            " use UTF-8, e.g. PYTHONIOENCODING=utf-8"
        ) from None
    except OSError as exc:
        # point stdout at devnull, so that the flush at shutdown cannot fail
        # again (the idiom of CPython's signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            sys.exit(1)
        raise InnerFormsError(f"cannot write to stdout: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# subcommands


def _cmd_levi(args) -> int:
    from .levi import LeviDescriptor, analyze_levi, is_maximal
    datum = parse_group_expr(args.group)
    theta = _theta_from_args(datum, args)
    desc = LeviDescriptor(datum, theta)
    report = analyze_levi(desc)
    maximal = is_maximal(desc)
    payload = {
        "command": "levi",
        "group": datum.name,
        "theta": list(theta),
        "derived_type": str(report.derived_type),
        "derived_pi1": str(report.derived_pi1),
        "split_component_rank": report.split_component_rank,
        "condition_one": report.condition_one,
        "gl_envelope": list(report.gl_envelope) if report.gl_envelope else None,
        "envelope_exact": report.envelope_exact,
        "central_gl1s": report.central_gl1s,
        "maximal": maximal,
    }
    lines = [
        f"group                 {datum.name}",
        f"theta (0-based)       {list(theta)}",
        f"derived type          {report.derived_type}",
        f"derived pi1           {report.derived_pi1}",
        f"split component rank  {report.split_component_rank}",
        f"sandwich condition    {'yes' if report.condition_one else 'no'}",
        f"GL envelope           {list(report.gl_envelope) if report.gl_envelope else '-'}",
        f"envelope exact        {'yes' if report.envelope_exact else 'no'}",
        f"maximal Levi          {'yes' if maximal else 'no'}",
    ]
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_satake(args) -> int:
    from .levi import LeviDescriptor, analyze_levi
    from .satake import levi_satake_diagram, render_ascii, transfer_levi, type_a_satake
    datum = parse_group_expr(args.group)
    if args.pattern is not None:
        for flag in ("remove", "theta", "degrees"):
            if getattr(args, flag) is not None:
                raise GroupSpecError(f"argument --pattern: not allowed with argument --{flag}")
        pattern = _int_list(args.pattern, "pattern")
        if len(pattern) != 2:
            raise GroupSpecError(f"bad pattern {args.pattern!r}; expected n,d (e.g. 6,3)")
        n, d = pattern
        diagram = type_a_satake(n, d)
        rendered = render_ascii(diagram)
        payload = {
            "command": "satake",
            "pattern": [n, d],
            "black": sorted(diagram.black),
            "diagram": rendered,
        }
        _emit(args, payload, rendered)
        return 0
    theta = _theta_from_args(datum, args)
    desc = LeviDescriptor(datum, theta)
    report = analyze_levi(desc)
    degrees = _int_list(args.degrees, "degree list") if args.degrees else [1] * len(
        report.gl_envelope or ()
    )
    shape = transfer_levi(report, degrees)
    rendered = render_ascii(levi_satake_diagram(desc, degrees))
    payload = {
        "command": "satake",
        "group": datum.name,
        "theta": list(theta),
        "envelope": list(report.gl_envelope or ()),
        "degrees": degrees,
        "factors": [{"m": f.m, "d": f.d, "kind": f.kind} for f in shape.factors],
        "field_note": shape.field_note,
        "diagram": rendered,
    }
    text = "\n".join(
        [
            f"envelope  {list(report.gl_envelope or ())}  (degrees align with this order)",
            f"M' shape  {shape}",
            "diagram:",
            rendered,
        ]
    )
    _emit(args, payload, text)
    return 0


def _cmd_appendix(args) -> int:
    from .appendix import catalog_json, catalog_markdown
    _emit(args, catalog_json(), catalog_markdown())
    return 0


def _cmd_weyl(args) -> int:
    from .weyl import ENUMERATION_RANK_BOUND, find_w_theta, reduced_roots, weyl_group_order
    datum = parse_group_expr(args.group)
    theta = _theta_from_args(datum, args)
    word, image = find_w_theta(datum, theta)
    if datum.semisimple_rank <= ENUMERATION_RANK_BOUND:
        order = weyl_group_order(datum)
        order_note = None
    else:
        order = None
        order_note = f"not enumerated (semisimple rank > {ENUMERATION_RANK_BOUND})"
    rr = reduced_roots(datum, theta)
    payload = {
        "command": "weyl",
        "group": datum.name,
        "theta": list(theta),
        "order": order,
        "order_note": order_note,
        "w_word": list(word.letters),
        "image_of_theta": list(image),
        "reduced_roots": [
            {"direction": list(r.direction), "preimages": [list(v) for v in r.preimages]}
            for r in rr
        ],
    }
    _emit(args, payload)  # the text form is the same JSON, ASCII-escaped
    return 0


def _cmd_kottwitz(args) -> int:
    from .kottwitz import dual_center_positive_dimensional, kottwitz_group
    datum = parse_group_expr(args.group)
    group = kottwitz_group(datum)
    payload = {
        "command": "kottwitz",
        "group": datum.name,
        "invariant_factors": list(group.invariant_factors),
        "order": group.order,
        "dual_center_positive_dimensional": dual_center_positive_dimensional(datum),
    }
    note = (
        "  (dual center has positive dimension; A(G) is its component group)"
        if payload["dual_center_positive_dimensional"]
        else ""
    )
    _emit(args, payload, f"A({datum.name}) = {group} (order {group.order}){note}")
    return 0


def _cmd_inner_forms(args) -> int:
    from .kottwitz import inner_form_classes_gl
    from .levi import LeviDescriptor, analyze_levi
    datum = parse_group_expr(args.group)
    # G is GL_n exactly when theta = Delta is a sandwich Levi that is its own
    # envelope with a single GL factor: one GL_n (n > 1) or one central GL_1
    whole = analyze_levi(LeviDescriptor(datum, tuple(range(datum.semisimple_rank))))
    if not whole.envelope_exact or len(whole.gl_envelope) + whole.central_gl1s != 1:
        raise GroupSpecError("inner-forms expects a GL(n) group")
    n = datum.rank
    classes = inner_form_classes_gl(n)
    payload = {
        "command": "inner-forms",
        "n": n,
        "classes": [
            {
                "label": c.label,
                "d": c.d,
                "m": c.matrix_size,
                "invariant": f"{c.invariant_numerator}/{c.d}",
                "description": c.describe(),
            }
            for c in classes
        ],
    }
    lines = [f"inner forms of GL_{n}: {len(classes)} classes"]
    for c in classes:
        lines.append(f"  j={c.label:<3d} d={c.d:<3d} {c.describe()}")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_globalize(args) -> int:
    from .globalize import plan_globalization
    plan = plan_globalization(args.prime, args.places, args.class_order, args.class_residue)
    payload = {
        "command": "globalize",
        "base_prime": plan.base_prime,
        "tower_primes": list(plan.tower_primes),
        "degree": plan.degree,
        "places": [p.id for p in plan.places],
        "s_places": [p.id for p in plan.s_places],
        "s_multiple_of": plan.s_multiple_of,
        "cocycle": {p.id: str(v) for p, v in plan.cocycle.entries},
        "assertion": "F_v = F for all planned places, by the split-prime tower",
    }
    lines = [
        f"base prime        {plan.base_prime}",
        f"tower primes      {list(plan.tower_primes)}",
        f"field degree      {plan.degree} over the base number field",
        f"places            {[p.id for p in plan.places]}",
        f"S (non-split)     {[p.id for p in plan.s_places]}  (|S| multiple of {plan.s_multiple_of})",
        f"cocycle           {payload['cocycle'] or 'trivial'}",
    ]
    _emit(args, payload, "\n".join(lines))
    return 0


_INV_ITEM = re.compile(r"^(?P<place>[A-Za-z0-9_.@-]+)=(?P<num>-?\d+)/(?P<den>\d+)$")


def _parse_invariants(text: str) -> HasseVector:
    from fractions import Fraction

    from .globalize import HasseVector, PlaceLabel
    entries = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        match = _INV_ITEM.match(piece)
        if match is None:
            raise GroupSpecError(
                f"bad invariant {piece!r}; expected PLACE=a/b (e.g. v1=1/2)"
            )
        label = match.group("place")
        if label.startswith(("inf", "real")):
            place = PlaceLabel(id=label, kind="real")
        elif label.startswith(("cplx", "complex")):
            place = PlaceLabel(id=label, kind="complex")
        else:
            prime = 2
            if "@" in label:
                _, _, ptext = label.partition("@")
                if not ptext.isdigit():
                    raise GroupSpecError(f"bad prime {ptext!r} in place {label!r}")
                prime = int(ptext)
            place = PlaceLabel(id=label, kind="finite", prime=prime)
        den = int(match.group("den"))
        if den == 0:
            raise GroupSpecError(f"invariant {piece!r} has denominator 0")
        entries.append((place, Fraction(int(match.group("num")), den)))
    return HasseVector.from_items(entries)


def _cmd_division_algebra(args) -> int:
    from .globalize import global_division_algebra
    invariants = _parse_invariants(args.inv)
    report = global_division_algebra(args.n, invariants)
    payload = {
        "command": "division-algebra",
        "n": report.n,
        "valid": report.valid,
        "message": report.message,
        "local": [
            {"place": p.id, "m": m, "d": d} for p, m, d in report.local_data
        ],
        "non_split_places": [p.id for p in report.non_split_places],
    }
    lines = [report.message]
    for p, m, d in report.local_data:
        lines.append(f"  {p.id}: GL_{m}(D_{d})")
    _emit(args, payload, "\n".join(lines))
    return 0 if report.valid else 1


def _cmd_lj(args) -> int:
    from .grothendieck import lj_map, parse_virtual
    if args.n < 1 or args.d < 1:
        raise GroupSpecError(f"lj needs --n and --d of at least 1, got {args.n} and {args.d}")
    text = args.element
    if text is None or text == "-":
        if sys.stdin is None:
            raise GroupSpecError("no --element given and stdin is closed")
        text = sys.stdin.read()
    element = parse_virtual(text, n=args.n)
    image = lj_map(element, args.d)
    payload = {
        "command": "lj",
        "n": args.n,
        "d": args.d,
        "element": element.render(),
        "image": image.render(),
    }
    _emit(args, payload, image.render())
    return 0


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="innerforms",
        description="Levi subgroup calculus and inner-form transfer bookkeeping",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="machine output")
        return p

    def add_theta(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--remove", help="roots removed from Delta, e.g. a4 or a4,a6")
        group.add_argument("--theta", help="0-based theta indices, e.g. 0,1,3")

    p = add("levi", _cmd_levi, help="analyze a standard Levi subgroup")
    p.add_argument("group")
    add_theta(p)

    p = add("satake", _cmd_satake, help="inner-form transfer and diagram of a Levi")
    p.add_argument("--group", required=True)
    add_theta(p)
    p.add_argument("--degrees", help="division degree per envelope factor, e.g. 2,1,2")
    p.add_argument("--pattern", help="render the GL pattern n,d instead (e.g. 6,3)")

    add("appendix-a", _cmd_appendix, help="regenerate the worked catalog")

    p = add("weyl", _cmd_weyl, help="Weyl data: order, w_theta, reduced roots")
    p.add_argument("group")
    add_theta(p)

    p = add("kottwitz", _cmd_kottwitz, help="the finite group A(G)")
    p.add_argument("group")

    p = add("inner-forms", _cmd_inner_forms, help="inner-form classes of GL(n)")
    p.add_argument("group")

    p = add("globalize", _cmd_globalize, help="plan a number field and cocycle")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--places", type=int, required=True)
    p.add_argument("--class-order", type=int, default=1, dest="class_order")
    p.add_argument("--class-residue", type=int, default=1, dest="class_residue")

    p = add("division-algebra", _cmd_division_algebra, help="global algebra existence")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--inv", required=True, help="e.g. v1=1/2,v2=1/3,v3=1/6")

    p = add("lj", _cmd_lj, help="transfer a virtual element to the inner side")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--element", help="term grammar; omit or '-' to read stdin")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GroupSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InnerFormsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
