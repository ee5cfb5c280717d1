"""Command-line interface.

Exit codes: 0 all checks pass, 1 a mathematical failure or negative
result (with a replayable witness), 2 bad input: a usage error, an
unreadable or malformed file, a bad ``--rel`` literal or corpus name,
algebras of different signatures, an unwritable output path, or a
carrier over ``--max-size`` or over the subpower engine's limit.  Any
other exception is a fault in the program and propagates.  Output is
deterministic: identical inputs and flags produce byte-identical
reports.

Each handler returns ``(records, exit_code)``.  A record is ``(key,
value, human)``: ``--kv`` prints ``key=value`` (booleans as
``true``/``false``), the human format prints ``human``, and a ``None``
key or human leaves the record out of that format.
"""

import argparse
import functools
import os
import sys

from .algebras import load_algebra, save_algebra
from .closure import (
    AXIOM_DESCRIPTIONS,
    AXIOM_KEYS,
    SubvarietySpec,
    birkhoff_congruence,
    check_axioms,
    closure_effective,
    closure_goursat,
)
from .corpus import DEFAULT_NAMES, entry_by_name
from .distributivity import dist_report
from .errors import (
    CarrierBoundError,
    GoursatHypothesisError,
    NotCongruenceError,
    ParseError,
    SignatureMismatchError,
)
from .permutability import (
    FOUND,
    NONE,
    _CLONE_CAP,
    _MIN_CLONE_CAP,
    find_hm_terms,
    find_maltsev_term,
    goursat_join_check,
)
from .relations import _CARRIER_BOUND, Partition, _integer_token, con_lattice, require_congruence
from .terms import load_identities, render


def _bound(least):
    def parse(text):
        value = _integer_token(text)
        if isinstance(value, str):
            raise argparse.ArgumentTypeError(f"invalid int value: {value!r}")
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    return parse


def _common_flags(sp, max_size=False, clone_cap=False):
    sp.add_argument("--kv", action="store_true", help="machine-readable key=value output")
    if max_size:
        sp.add_argument("--max-size", type=_bound(1), default=_CARRIER_BOUND, metavar="N",
                        help="carrier bound for lattice enumeration (default %(default)s)")
    if clone_cap:
        sp.add_argument("--clone-cap", type=_bound(_MIN_CLONE_CAP), default=_CLONE_CAP,
                        metavar="N", help="cap on the clone tables kept (default %(default)s); "
                        "the round that crosses it is still evaluated in full")


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="goursat",
        description="Finite universal-algebra workbench: congruence lattices, "
        "closure operators, permutability and distributivity checks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("con", help="congruence lattice of an algebra")
    sp.add_argument("algebra")
    sp.add_argument("--dot", metavar="PATH", help="write the Hasse diagram as DOT")
    _common_flags(sp, max_size=True)
    sp.set_defaults(handler=cmd_con)

    sp = sub.add_parser("perm", help="permutability levels of all congruence pairs")
    sp.add_argument("algebra")
    _common_flags(sp, max_size=True)
    sp.set_defaults(handler=cmd_perm)

    sp = sub.add_parser("closure", help="congruence closures for a subvariety")
    sp.add_argument("algebra")
    sp.add_argument("--variety", required=True, metavar="IDS",
                    help="identity file axiomatizing the subvariety")
    sp.add_argument("--rel", metavar="LITERAL",
                    help="partition literal such as '0 2|1 3'; default sweeps all congruences")
    _common_flags(sp, max_size=True)
    sp.set_defaults(handler=cmd_closure)

    sp = sub.add_parser("axioms", help="closure-operator axiom suite over algebras")
    sp.add_argument("algebras", nargs="+")
    sp.add_argument("--variety", required=True, metavar="IDS")
    _common_flags(sp, max_size=True)
    sp.set_defaults(handler=cmd_axioms)

    sp = sub.add_parser("dist", help="congruence distributivity report")
    sp.add_argument("algebra")
    sp.add_argument("--variety", metavar="IDS",
                    help="subvariety for the closed-meet axiom (default: whole category)")
    _common_flags(sp, max_size=True)
    sp.set_defaults(handler=cmd_dist)

    sp = sub.add_parser("terms", help="search for permutability term witnesses")
    sp.add_argument("algebra")
    sp.add_argument("--search", choices=["maltsev", "hm"], required=True)
    _common_flags(sp, clone_cap=True)
    sp.set_defaults(handler=cmd_terms)

    sp = sub.add_parser("corpus", help="built-in algebra corpus")
    csub = sp.add_subparsers(dest="action", required=True)
    lp = csub.add_parser("list", help="list the built-in entries")
    _common_flags(lp)
    lp.set_defaults(handler=cmd_corpus_list)
    dp = csub.add_parser("dump", help="write a built-in algebra as a .alg file")
    dp.add_argument("name")
    dp.add_argument("path")
    _common_flags(dp)
    dp.set_defaults(handler=cmd_corpus_dump)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        records, code = args.handler(args)
    except (ParseError, SignatureMismatchError, OSError, CarrierBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.kv:
        lines = [f"{key}={_text(value)}" for key, value, _ in records if key is not None]
    else:
        lines = [human for _, _, human in records if human is not None]
    sys.stdout.write("\n".join(lines) + "\n")
    return code


def _text(value):
    return str(value).lower() if isinstance(value, bool) else str(value)


def _plain(key, value):
    """A record whose human line is the key and the value."""
    return key, value, f"{key} {value}"


def _result(ok):
    return "status", "pass" if ok else "fail", f"result {'PASS' if ok else 'FAIL'}"


def _argument(parse, *args):
    """Parse a command-line argument, reporting a bad one as a ParseError."""
    try:
        return parse(*args)
    except (KeyError, ValueError) as exc:
        raise ParseError(exc.args[0]) from None


def _load_spec(args, sig):
    idents = tuple(load_identities(args.variety, sig))
    return SubvarietySpec(sig, idents, name=os.path.basename(args.variety))


def _dot_text(lat):
    lines = ["digraph con {", "  rankdir=BT;"]
    for i, p in enumerate(lat.congruences):
        lines.append(f'  n{i} [label="{p.to_literal()}"];')
    for lo, hi in sorted(lat.covers()):
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_con(args):
    alg = load_algebra(args.algebra)
    lat = con_lattice(alg, max_size=args.max_size)
    records = [_plain("algebra", alg.name), _plain("size", alg.n), _plain("congruences", len(lat))]
    records += [
        (f"con.{i}", p.to_literal(), f"  {p.to_literal()}") for i, p in enumerate(lat.congruences)
    ]
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(_dot_text(lat))
        records.append(("dot", args.dot, f"dot written to {args.dot}"))
    return records, 0


def cmd_perm(args):
    alg = load_algebra(args.algebra)
    cons = con_lattice(alg, max_size=args.max_size).congruences
    records = [_plain("algebra", alg.name), _plain("congruences", len(cons))]
    ok = True
    for i in range(len(cons)):
        for j in range(i, len(cons)):
            verdict = goursat_join_check(alg, cons[i], cons[j])
            level, ok = verdict.note, ok and bool(verdict)
            if verdict.ok is None:
                joinres = "skipped"
            elif verdict.ok:
                joinres = "pass"
            else:
                joinres = f"fail witness={verdict.witness}"
            pair = f"  pair [{cons[i].to_literal()}] [{cons[j].to_literal()}]"
            records.append((f"perm.{i}.{j}", level, f"{pair} level={level} join-formula={joinres}"))
            records.append((f"goursat_join.{i}.{j}", joinres, None))
    records.append(_result(ok))
    return records, 0 if ok else 1


def cmd_closure(args):
    alg = load_algebra(args.algebra)
    spec = _load_spec(args, alg.sig)
    if args.rel is not None:
        targets = [_argument(Partition.from_literal, args.rel, alg.n)]
        try:
            require_congruence(alg, targets[0])
        except NotCongruenceError as exc:
            failure = f"not-a-congruence: {exc}"
            return [("failure", failure, f"FAIL {failure}"), ("status", "fail", None)], 1
    else:
        targets = con_lattice(alg, max_size=args.max_size).congruences
    # built once the targets are read, so a carrier over --max-size is refused first
    delta_bar = birkhoff_congruence(alg, spec)
    records = [
        _plain("algebra", alg.name),
        _plain("variety", spec.name),
        _plain("delta_bar", delta_bar.to_literal()),
    ]
    ok = True
    for idx, s in enumerate(targets):
        eff = closure_effective(alg, s, spec)
        try:
            gour = closure_goursat(alg, s, spec)
            gtext = gour.closure.to_literal()
            agree = gour.closure == eff.closure
        except GoursatHypothesisError as exc:
            gtext = f"violation: {exc}"
            agree = False
        ok = ok and agree
        flags = f"agree={_text(agree)} closed={_text(eff.closed)} dense={_text(eff.dense)}"
        records += [
            (f"closure.{idx}.input", s.to_literal(), f"input {s.to_literal()}"),
            (f"closure.{idx}.effective", eff.closure.to_literal(),
             f"  effective {eff.closure.to_literal()}"),
            (f"closure.{idx}.goursat", gtext, f"  goursat   {gtext}"),
            (f"closure.{idx}.agree", agree, f"  {flags}"),
            (f"closure.{idx}.closed", eff.closed, None),
            (f"closure.{idx}.dense", eff.dense, None),
        ]
    records.append(_result(ok))
    return records, 0 if ok else 1


def _named(parts):
    return " ".join(f"{name}=[{value}]" for name, value in parts)


def cmd_axioms(args):
    algs = [load_algebra(path) for path in args.algebras]
    for path, alg in zip(args.algebras, algs):
        if alg.sig != algs[0].sig:
            raise SignatureMismatchError(f"{args.algebras[0]} and {path} have different signatures")
    spec = _load_spec(args, algs[0].sig)
    max_size = args.max_size
    report = check_axioms(algs, spec, max_size=max_size)
    records = [
        _plain("variety", spec.name),
        ("algebras", ",".join(a.name for a in algs), f"algebras {', '.join(a.name for a in algs)}"),
        ("bounds.max_carrier", max_size, f"bounds max_carrier={max_size}"),
    ]
    for key in AXIOM_KEYS:
        verdict = report.entries[key]
        tag = verdict.status
        records.append((f"axiom.{key}", tag, f"({key}) {AXIOM_DESCRIPTIONS[key]}: {tag.upper()}"))
        if verdict.witness:
            witness = _named(verdict.witness.items())
            records.append((f"axiom.{key}.witness", witness, f"    witness {witness}"))
        if verdict.note and verdict.ok is None:
            records.append((None, None, f"    reason {verdict.note}"))
    records += [_plain("note", note) for note in report.notes]
    records.append(_result(report.ok))
    return records, 0 if report.ok else 1


def cmd_dist(args):
    alg = load_algebra(args.algebra)
    spec = _load_spec(args, alg.sig) if args.variety else None
    report = dist_report(alg, spec, max_size=args.max_size)

    def text(verdict, *names):
        """The status, then the witness partitions by name; a quotient map shows its kernel."""
        if not verdict.witness:
            return verdict.status
        parts = (getattr(w, "kernel", w).to_literal() for w in verdict.witness)
        return f"{verdict.status} {_named(zip(names, parts))}"

    lattice = text(report.lattice_distributive, "a", "b", "c")
    image_meet = text(report.image_meet, "quotient", "r", "s")
    axiom7 = text(report.axiom7, "quotient", "r", "s")
    closure_meet = text(report.closure_meet, "r", "s")
    records = [
        _plain("algebra", alg.name),
        _plain("variety", report.spec_name),
        ("lattice_distributive", lattice, f"lattice distributive: {lattice}"),
        ("image_meet", image_meet, f"image meet preservation: {image_meet}"),
        ("axiom7", axiom7, f"axiom (7) closed-meet image: {axiom7}"),
        ("closure_meet", closure_meet, f"closure-meet identity: {closure_meet}"),
        ("agree", report.agree, f"verdicts agree: {_text(report.agree)}"),
        _result(report.ok),
    ]
    return records, 0 if report.ok else 1


def cmd_terms(args):
    alg = load_algebra(args.algebra)
    if args.search == "maltsev":
        outcome = find_maltsev_term(alg, cap=args.clone_cap)
    else:
        outcome = find_hm_terms(alg, cap=args.clone_cap)
    records = [_plain("algebra", alg.name), _plain("search", args.search)]
    if outcome.status == FOUND:
        if args.search == "maltsev":
            terms_out = [("term", render(outcome.witness.term))]
        else:
            p, q = outcome.witness
            terms_out = [("term.p", render(p.term)), ("term.q", render(q.term))]
        records.append(_plain("result", "found"))
        records += [(k, v, f"  {k} {v}") for k, v in terms_out]
        records.append(("explored", outcome.explored, f"  explored {outcome.explored} tables"))
        return records, 0
    if outcome.status == NONE:
        text = f"none (fixpoint reached, {outcome.explored} tables)"
    else:
        text = f"inconclusive (cap {args.clone_cap} reached)"
    records.append(("result", outcome.status, f"result {text}"))
    records.append(("explored", outcome.explored, None))
    return records, 1


def cmd_corpus_list(args):
    records = []
    for name in DEFAULT_NAMES:
        entry = entry_by_name(name)
        size, tags, specs = entry.algebra.n, ",".join(entry.tags), ",".join(entry.spec_names)
        records.append((
            "entry",
            f"{name} size={size} tags={tags} specs={specs}",
            f"{name}  size={size}  tags={tags}  specs={specs}",
        ))
    return records, 0


def cmd_corpus_dump(args):
    entry = _argument(entry_by_name, args.name)
    save_algebra(entry.algebra, args.path)
    return [_plain("wrote", args.path)], 0


if __name__ == "__main__":
    sys.exit(main())
