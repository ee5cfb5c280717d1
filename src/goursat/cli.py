"""Command-line interface.

Exit codes: 0 all checks pass, 1 a mathematical failure or negative
result (with a replayable witness), 2 usage or parse errors.  Output is
deterministic: identical inputs and flags produce byte-identical reports.
"""

import argparse
import os
import sys
from dataclasses import dataclass
from typing import Optional

from .algebras import load_algebra, save_algebra
from .closure import (
    AXIOM_DESCRIPTIONS,
    AXIOM_KEYS,
    Bounds,
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
    NotPermutableError,
    ParseError,
)
from .permutability import (
    FOUND,
    NEITHER,
    NONE,
    find_hm_terms,
    find_maltsev_term,
    goursat_join_check,
    permutability_level,
)
from .relations import Partition, con_lattice
from .terms import load_identities, render
from .verdict import NOT_APPLICABLE


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    inputs: tuple = ()
    variety: Optional[str] = None
    rel: Optional[str] = None
    dot: Optional[str] = None
    search: Optional[str] = None
    kv: bool = False
    max_size: int = 64
    clone_cap: int = 200_000


def _common_flags(sp):
    sp.add_argument("--kv", action="store_true", help="machine-readable key=value output")
    sp.add_argument("--max-size", type=int, default=64, metavar="N",
                    help="carrier bound for lattice enumeration (default 64)")
    sp.add_argument("--clone-cap", type=int, default=200_000, metavar="N",
                    help="table cap for clone generation (default 200000)")


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
    _common_flags(sp)
    sp.set_defaults(handler=cmd_con)

    sp = sub.add_parser("perm", help="permutability levels of all congruence pairs")
    sp.add_argument("algebra")
    _common_flags(sp)
    sp.set_defaults(handler=cmd_perm)

    sp = sub.add_parser("closure", help="congruence closures for a subvariety")
    sp.add_argument("algebra")
    sp.add_argument("--variety", required=True, metavar="IDS",
                    help="identity file axiomatizing the subvariety")
    sp.add_argument("--rel", metavar="LITERAL",
                    help="partition literal such as '0 2|1 3'; default sweeps all congruences")
    _common_flags(sp)
    sp.set_defaults(handler=cmd_closure)

    sp = sub.add_parser("axioms", help="closure-operator axiom suite over algebras")
    sp.add_argument("algebras", nargs="+")
    sp.add_argument("--variety", required=True, metavar="IDS")
    _common_flags(sp)
    sp.set_defaults(handler=cmd_axioms)

    sp = sub.add_parser("dist", help="congruence distributivity report")
    sp.add_argument("algebra")
    sp.add_argument("--variety", metavar="IDS",
                    help="subvariety for the closed-meet axiom (default: whole category)")
    _common_flags(sp)
    sp.set_defaults(handler=cmd_dist)

    sp = sub.add_parser("terms", help="search for permutability term witnesses")
    sp.add_argument("algebra")
    sp.add_argument("--search", choices=["maltsev", "hm"], required=True)
    _common_flags(sp)
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


def _config(args):
    inputs = []
    for attr in ("algebra", "name", "path"):
        value = getattr(args, attr, None)
        if value is not None:
            inputs.append(value)
    inputs.extend(getattr(args, "algebras", []) or [])
    return RunConfig(
        subcommand=args.subcommand,
        inputs=tuple(inputs),
        variety=getattr(args, "variety", None),
        rel=getattr(args, "rel", None),
        dot=getattr(args, "dot", None),
        search=getattr(args, "search", None),
        kv=args.kv,
        max_size=args.max_size,
        clone_cap=args.clone_cap,
    )


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    cfg = _config(args)
    if cfg.max_size < 1 or cfg.clone_cap < 3:
        print("error: bounds must be positive (--clone-cap at least 3)", file=sys.stderr)
        return 2
    try:
        return args.handler(cfg)
    except NotCongruenceError as exc:
        print(f"FAIL not-a-congruence: {exc}")
        return 1
    except (NotPermutableError, GoursatHypothesisError) as exc:
        print(f"FAIL: {exc}")
        return 1
    except (ParseError, OSError, KeyError, ValueError, CarrierBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _emit(lines):
    sys.stdout.write("\n".join(lines) + "\n")


def _load_spec(cfg, sig):
    idents = tuple(load_identities(cfg.variety, sig))
    return SubvarietySpec(sig, idents, name=os.path.basename(cfg.variety))


def _dot_text(lat):
    lines = ["digraph con {", "  rankdir=BT;"]
    for i, p in enumerate(lat.congruences):
        lines.append(f'  n{i} [label="{p.to_literal()}"];')
    for lo, hi in sorted(lat.covers()):
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_con(cfg):
    alg = load_algebra(cfg.inputs[0])
    lat = con_lattice(alg, max_size=cfg.max_size)
    if cfg.kv:
        lines = [f"algebra={alg.name}", f"size={alg.n}", f"congruences={len(lat)}"]
        lines += [f"con.{i}={p.to_literal()}" for i, p in enumerate(lat.congruences)]
    else:
        lines = [f"algebra {alg.name}", f"size {alg.n}", f"congruences {len(lat)}"]
        lines += [f"  {p.to_literal()}" for p in lat.congruences]
    if cfg.dot:
        with open(cfg.dot, "w", encoding="utf-8") as fh:
            fh.write(_dot_text(lat))
        lines.append(f"dot={cfg.dot}" if cfg.kv else f"dot written to {cfg.dot}")
    _emit(lines)
    return 0


def cmd_perm(cfg):
    alg = load_algebra(cfg.inputs[0])
    lat = con_lattice(alg, max_size=cfg.max_size)
    cons = lat.congruences
    lines = (
        [f"algebra={alg.name}", f"congruences={len(cons)}"]
        if cfg.kv
        else [f"algebra {alg.name}", f"congruences {len(cons)}"]
    )
    ok = True
    for i in range(len(cons)):
        for j in range(i, len(cons)):
            level = permutability_level(alg, cons[i], cons[j])
            if level == NEITHER:
                ok = False
                joinres = "skipped"
            else:
                verdict = goursat_join_check(alg, cons[i], cons[j])
                joinres = "pass" if verdict.ok else f"fail witness={verdict.witness}"
                ok = ok and verdict.ok
            if cfg.kv:
                lines.append(f"perm.{i}.{j}={level}")
                lines.append(f"goursat_join.{i}.{j}={joinres}")
            else:
                lines.append(
                    f"  pair [{cons[i].to_literal()}] [{cons[j].to_literal()}] "
                    f"level={level} join-formula={joinres}"
                )
    lines.append(
        f"status={'pass' if ok else 'fail'}" if cfg.kv else f"result {'PASS' if ok else 'FAIL'}"
    )
    _emit(lines)
    return 0 if ok else 1


def cmd_closure(cfg):
    alg = load_algebra(cfg.inputs[0])
    spec = _load_spec(cfg, alg.sig)
    delta_bar = birkhoff_congruence(alg, spec)
    if cfg.rel is not None:
        targets = [Partition.from_literal(cfg.rel, alg.n)]
    else:
        targets = list(con_lattice(alg, max_size=cfg.max_size).congruences)
    lines = (
        [f"algebra={alg.name}", f"variety={spec.name}", f"delta_bar={delta_bar.to_literal()}"]
        if cfg.kv
        else [
            f"algebra {alg.name}",
            f"variety {spec.name}",
            f"delta_bar {delta_bar.to_literal()}",
        ]
    )
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
        flags = (
            f"agree={str(agree).lower()} closed={str(eff.closed).lower()} "
            f"dense={str(eff.dense).lower()}"
        )
        if cfg.kv:
            lines += [
                f"closure.{idx}.input={s.to_literal()}",
                f"closure.{idx}.effective={eff.closure.to_literal()}",
                f"closure.{idx}.goursat={gtext}",
                f"closure.{idx}.agree={str(agree).lower()}",
                f"closure.{idx}.closed={str(eff.closed).lower()}",
                f"closure.{idx}.dense={str(eff.dense).lower()}",
            ]
        else:
            lines += [
                f"input {s.to_literal()}",
                f"  effective {eff.closure.to_literal()}",
                f"  goursat   {gtext}",
                f"  {flags}",
            ]
    lines.append(
        f"status={'pass' if ok else 'fail'}" if cfg.kv else f"result {'PASS' if ok else 'FAIL'}"
    )
    _emit(lines)
    return 0 if ok else 1


def _witness_text(witness):
    if isinstance(witness, dict):
        return " ".join(f"{k}=[{v}]" for k, v in witness.items())
    return str(witness)


def cmd_axioms(cfg):
    algs = [load_algebra(path) for path in cfg.inputs]
    spec = _load_spec(cfg, algs[0].sig)
    report = check_axioms(algs, spec, Bounds(max_carrier=cfg.max_size))
    lines = []
    if cfg.kv:
        lines.append(f"variety={spec.name}")
        lines.append(f"algebras={','.join(a.name for a in algs)}")
        lines.append(f"bounds.max_carrier={report.bounds.max_carrier}")
    else:
        lines.append(f"variety {spec.name}")
        lines.append(f"algebras {', '.join(a.name for a in algs)}")
        lines.append(f"bounds max_carrier={report.bounds.max_carrier}")
    for key in AXIOM_KEYS:
        status = report.entries[key]
        tag = status.status
        if cfg.kv:
            lines.append(f"axiom.{key}={tag}")
            if status.witness:
                lines.append(f"axiom.{key}.witness={_witness_text(status.witness)}")
        else:
            lines.append(f"({key}) {AXIOM_DESCRIPTIONS[key]}: {tag.upper()}")
            if status.witness:
                lines.append(f"    witness {_witness_text(status.witness)}")
            if status.note and tag == NOT_APPLICABLE:
                lines.append(f"    reason {status.note}")
    for note in report.notes:
        lines.append(f"note={note}" if cfg.kv else f"note {note}")
    ok = report.ok
    lines.append(
        f"status={'pass' if ok else 'fail'}" if cfg.kv else f"result {'PASS' if ok else 'FAIL'}"
    )
    _emit(lines)
    return 0 if ok else 1


def cmd_dist(cfg):
    alg = load_algebra(cfg.inputs[0])
    spec = _load_spec(cfg, alg.sig) if cfg.variety else None
    report = dist_report(alg, spec, max_size=cfg.max_size)

    def vtext(verdict):
        if verdict.ok:
            return "pass"
        qm, r, s = verdict.witness
        return (
            f"fail quotient=[{qm.kernel.to_literal()}] r=[{r.to_literal()}] "
            f"s=[{s.to_literal()}]"
        )

    lattice = report.lattice_distributive
    if lattice.ok:
        ltext = "pass"
    else:
        a, b, c = lattice.witness
        ltext = f"fail a=[{a.to_literal()}] b=[{b.to_literal()}] c=[{c.to_literal()}]"
    cm = report.closure_meet
    cm_text = cm.status if not cm.witness else (
        f"{cm.status} r=[{cm.witness[0].to_literal()}] s=[{cm.witness[1].to_literal()}]"
    )
    if cfg.kv:
        lines = [
            f"algebra={alg.name}",
            f"variety={report.spec_name}",
            f"lattice_distributive={ltext}",
            f"image_meet={vtext(report.image_meet)}",
            f"axiom7={vtext(report.axiom7)}",
            f"closure_meet={cm_text}",
            f"agree={str(report.agree).lower()}",
            f"status={'pass' if report.ok else 'fail'}",
        ]
    else:
        lines = [
            f"algebra {alg.name}",
            f"variety {report.spec_name}",
            f"lattice distributive: {ltext}",
            f"image meet preservation: {vtext(report.image_meet)}",
            f"axiom (7) closed-meet image: {vtext(report.axiom7)}",
            f"closure-meet identity: {cm_text}",
            f"verdicts agree: {str(report.agree).lower()}",
            f"result {'PASS' if report.ok else 'FAIL'}",
        ]
    _emit(lines)
    return 0 if report.ok else 1


def cmd_terms(cfg):
    alg = load_algebra(cfg.inputs[0])
    if cfg.search == "maltsev":
        outcome = find_maltsev_term(alg, cap=cfg.clone_cap)
    else:
        outcome = find_hm_terms(alg, cap=cfg.clone_cap)
    lines = (
        [f"algebra={alg.name}", f"search={cfg.search}"]
        if cfg.kv
        else [f"algebra {alg.name}", f"search {cfg.search}"]
    )
    if outcome.status == FOUND:
        if cfg.search == "maltsev":
            terms_out = [("term", render(outcome.witness.term))]
        else:
            p, q = outcome.witness
            terms_out = [("term.p", render(p.term)), ("term.q", render(q.term))]
        if cfg.kv:
            lines.append("result=found")
            lines += [f"{k}={v}" for k, v in terms_out]
            lines.append(f"explored={outcome.explored}")
        else:
            lines.append("result found")
            lines += [f"  {k} {v}" for k, v in terms_out]
            lines.append(f"  explored {outcome.explored} tables")
        _emit(lines)
        return 0
    if outcome.status == NONE:
        text = f"none (fixpoint reached, {outcome.explored} tables)"
    else:
        text = f"inconclusive (cap {cfg.clone_cap} reached)"
    lines.append(f"result={outcome.status}" if cfg.kv else f"result {text}")
    if cfg.kv:
        lines.append(f"explored={outcome.explored}")
    _emit(lines)
    return 1


def cmd_corpus_list(cfg):
    lines = []
    for name in DEFAULT_NAMES:
        entry = entry_by_name(name)
        if cfg.kv:
            lines.append(
                f"entry={name} size={entry.algebra.n} tags={','.join(entry.tags)} "
                f"specs={','.join(entry.spec_names)}"
            )
        else:
            lines.append(
                f"{name}  size={entry.algebra.n}  tags={','.join(entry.tags)}  "
                f"specs={','.join(entry.spec_names)}"
            )
    _emit(lines)
    return 0


def cmd_corpus_dump(cfg):
    entry = entry_by_name(cfg.inputs[0])
    save_algebra(entry.algebra, cfg.inputs[1])
    _emit([f"wrote {cfg.inputs[1]}"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
