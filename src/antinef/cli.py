"""Command-line front end.

Every command is a thin wrapper: it parses documents, calls exactly one
library operation, and serializes the result.  Exit codes: 0 success,
1 input/schema error, 2 mathematical precondition violated, 3 internal
theorem violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional

from . import corpus, oracle
from .birational import (
    Tower,
    contract,
    contract_all,
    edge_point,
    free_point,
    relative_canonical,
    transported,
)
from .errors import InputError, LatticeError, PreconditionError
from .formats import (
    GraphDocument,
    coeff_out,
    emit_graph_document,
    emit_tower_document,
    parse_graph_document,
    parse_inline_cycle,
    parse_tower_document,
    TowerDocument,
    vertex_id,
)
from .graph import Cycle, DualGraph, validate_graph, zero_cycle
from .ideals import (
    IdealRep,
    colon_and_core,
    cone_model,
    core_monotone_check,
    good_closure,
    includes,
    is_good,
    represent,
    singularity_model,
)
from .lattice import (
    antinef_closure,
    arithmetic_genus,
    canonical_cycle,
    colength,
    fundamental_cycle,
    is_rational,
    multiplicity,
)


# --- rendering -------------------------------------------------------------


def _cycle_json(c: Cycle) -> dict:
    return {vid: coeff_out(v) for vid, v in c.coeffs}


def _emit(args, data: dict, order: Optional[list[str]] = None) -> None:
    """Print a result dict as JSON (--json) or as key = value lines."""
    if args.json:
        print(json.dumps(data, indent=None, separators=(",", ":"), sort_keys=False))
        return
    for key in order or data.keys():
        value = data[key]
        if isinstance(value, dict):
            value = ",".join(f"{k}:{v}" for k, v in value.items()) or "0"
        elif isinstance(value, bool):
            value = "true" if value else "false"
        print(f"{key} = {value}")


def _trace(args):
    if not args.trace:
        return None
    return lambda msg: print(f"# {msg}")


def _closure_trace(args):
    if not args.trace:
        return None
    return lambda vid, coeff: print(f"# raise {vid} -> {coeff}")


# --- input plumbing --------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path!r}: {exc}") from None


def _graph_doc(args) -> GraphDocument:
    if getattr(args, "graph", None):
        return parse_graph_document(_read(args.graph))
    raise InputError("this command needs --graph FILE")


def _tower_doc(args) -> TowerDocument:
    if getattr(args, "tower", None):
        return parse_tower_document(_read(args.tower))
    raise InputError("this command needs --tower FILE")


def _graph_cycle(spec: str, doc: GraphDocument) -> Cycle:
    if spec in doc.cycles:
        return doc.cycles[spec]
    return parse_inline_cycle(spec, doc.graph)


def _tower_cycle(spec: str, doc: TowerDocument, level: Optional[int]) -> tuple[int, Cycle]:
    if spec in doc.cycles:
        lv, c = doc.cycles[spec]
        if level is not None and level != lv:
            raise InputError(f"cycle {spec!r} is declared at level {lv}, not {level}")
        return lv, c
    t = doc.tower
    lv = t.height if level is None else level
    return lv, parse_inline_cycle(spec, t.graph(lv))


def _doc_cohom(doc_model: Optional[dict], cycles: dict, base: DualGraph) -> Optional[Cycle]:
    if not doc_model or "cohom_cycle" not in doc_model:
        return None
    name = doc_model["cohom_cycle"]
    if name not in cycles:
        raise InputError(f"model.cohom_cycle names unknown cycle {name!r}")
    c = cycles[name]
    if isinstance(c, tuple):  # tower document: (level, cycle)
        level, c = c
        if level != 0:
            raise InputError("model.cohom_cycle must be declared at level 0")
    if c.graph != base:
        raise InputError("model.cohom_cycle must live on the base graph")
    return c


def _minimalize(g: DualGraph, c: Cycle) -> tuple[Tower, Cycle]:
    """Contract rational (-1)-curves down to a minimal resolution, keeping the
    cohomological cycle consistent; returns the tower with g on top and the
    cycle on the bottom graph.  A curve may go only if transport along its
    re-insertion gives back C's coefficient on it."""
    cc = c.as_dict()
    tower = contract_all(g, lambda h, vid: cc.get(vid, 0) == transported(cc, h.adjacency[vid]))
    return tower, c.restricted_to(tower.levels[0])


def _build_ideal(args, z_spec: str) -> IdealRep:
    """Assemble an ideal representation from --graph or --tower input."""
    h1 = getattr(args, "h1", None)
    if getattr(args, "tower", None):
        doc = _tower_doc(args)
        base = doc.tower.levels[0]
        margs = doc.model or {}
        c_base = _doc_cohom(doc.model, doc.cycles, base)
        model = singularity_model(
            base, pg=margs.get("pg"), gorenstein=margs.get("gorenstein", False), c_base=c_base
        )
        level, z = _tower_cycle(z_spec, doc, getattr(args, "level", None))
        return represent(model, doc.tower, level, z, h1=h1)
    doc = _graph_doc(args)
    g = doc.graph
    margs = doc.model or {}
    c_top = _doc_cohom(doc.model, doc.cycles, g) or zero_cycle(g)
    tower, c_base = _minimalize(g, c_top)
    model = singularity_model(
        tower.levels[0],
        pg=margs.get("pg"),
        gorenstein=margs.get("gorenstein", False),
        c_base=c_base if not c_base.is_zero else None,
    )
    z = _graph_cycle(z_spec, doc)
    return represent(model, tower, tower.height, z, h1=h1)


# --- commands ---------------------------------------------------------------


def cmd_validate(args) -> int:
    doc = _graph_doc(args)
    report = validate_graph(doc.graph)
    _emit(
        args,
        {
            "connected": report.connected,
            "negative_definite": report.negative_definite,
            "adjunction_ok": report.adjunction_ok,
            "ok": report.ok,
            "failures": list(report.failures),
        },
    )
    return 0 if report.ok else 2


def cmd_fundamental_cycle(args) -> int:
    doc = _graph_doc(args)
    zf = fundamental_cycle(doc.graph, on_step=_closure_trace(args))
    _emit(args, {"fundamental_cycle": _cycle_json(zf)})
    return 0


def cmd_canonical_cycle(args) -> int:
    doc = _graph_doc(args)
    zk = canonical_cycle(doc.graph)
    _emit(args, {"canonical_cycle": _cycle_json(zk)})
    return 0


def cmd_is_rational(args) -> int:
    doc = _graph_doc(args)
    _emit(args, {"rational": is_rational(doc.graph)})
    return 0


def cmd_antinef_closure(args) -> int:
    doc = _graph_doc(args)
    d = _graph_cycle(args.cycle, doc)
    z = antinef_closure(d, on_step=_closure_trace(args))
    _emit(args, {"closure": _cycle_json(z)})
    return 0


def cmd_pa(args) -> int:
    doc = _graph_doc(args)
    z = _graph_cycle(args.cycle, doc)
    _emit(args, {"pa": coeff_out(arithmetic_genus(z))})
    return 0


def cmd_multiplicity(args) -> int:
    doc = _graph_doc(args)
    z = _graph_cycle(args.cycle, doc)
    _emit(args, {"multiplicity": coeff_out(multiplicity(z))})
    return 0


def cmd_colength(args) -> int:
    doc = _graph_doc(args)
    z = _graph_cycle(args.cycle, doc)
    _emit(args, {"colength": colength(z, pg=args.pg, h1=args.h1)})
    return 0


def _parse_center(raw: str, new_id: str):
    new_id = vertex_id(new_id, "--new-id")
    ids = [part.strip() for part in raw.split(",") if part.strip()]
    if len(ids) == 1:
        return free_point(ids[0], new_id)
    if len(ids) == 2:
        return edge_point(ids[0], ids[1], new_id)
    raise InputError(f"--center wants one or two vertex ids, got {raw!r}")


def cmd_blowup(args) -> int:
    center = _parse_center(args.center, args.new_id)
    if getattr(args, "tower", None):
        doc = _tower_doc(args)
        t = doc.tower.blow_up(center)
        sys.stdout.write(emit_tower_document(dataclasses.replace(doc, tower=t)))
        return 0
    doc = _graph_doc(args)
    from .birational import blowup as _blowup

    g2, _ = _blowup(doc.graph, center)
    sys.stdout.write(emit_graph_document(GraphDocument(name=g2.name, graph=g2)))
    return 0


def cmd_contract(args) -> int:
    doc = _graph_doc(args)
    lower, _ = contract(doc.graph, args.vertex)
    sys.stdout.write(emit_graph_document(GraphDocument(name=lower.name, graph=lower)))
    return 0


def cmd_pullback(args) -> int:
    doc = _tower_doc(args)
    lv, c = _tower_cycle(args.cycle, doc, args.from_level)
    to = doc.tower.height if args.to_level is None else args.to_level
    out = doc.tower.pullback(c, lv, to)
    _emit(args, {"level": to, "cycle": _cycle_json(out)})
    return 0


def cmd_pushforward(args) -> int:
    doc = _tower_doc(args)
    lv, c = _tower_cycle(args.cycle, doc, args.from_level)
    to = 0 if args.to_level is None else args.to_level
    out = doc.tower.pushforward(c, lv, to)
    _emit(args, {"level": to, "cycle": _cycle_json(out)})
    return 0


def cmd_relative_canonical(args) -> int:
    doc = _tower_doc(args)
    top = doc.tower.height if args.top is None else args.top
    k = relative_canonical(doc.tower, top_level=top, bottom_level=args.bottom)
    _emit(args, {"level": top, "cycle": _cycle_json(k)})
    return 0


def cmd_pg_test(args) -> int:
    ideal = _build_ideal(args, args.cycle)
    _emit(
        args,
        {
            "pg_numeric": ideal.pg_numeric,
            "pg": ideal.model.pg,
            "h1": ideal.h1,
            "cohom_cycle": _cycle_json(ideal.c),
        },
    )
    return 0


def cmd_colon_core(args) -> int:
    ideal = _build_ideal(args, args.cycle)
    rep = colon_and_core(ideal, trace=_trace(args))
    _emit(
        args,
        {
            "Y": _cycle_json(rep.y),
            "colon": _cycle_json(rep.colon_cycle),
            "core": _cycle_json(rep.core_cycle),
            "good": rep.good,
            "iterations": rep.iterations_to_good,
        },
    )
    return 0


def cmd_good_test(args) -> int:
    ideal = _build_ideal(args, args.cycle)
    _emit(args, {"good": is_good(ideal)})
    return 0


def cmd_good_closure(args) -> int:
    ideal = _build_ideal(args, args.cycle)
    closed = good_closure(ideal)
    _emit(args, {"level": closed.level, "cycle": _cycle_json(closed.z), "good": True})
    return 0


def cmd_core_monotone(args) -> int:
    i1 = _build_ideal(args, args.cycle)
    i2 = _build_ideal(args, args.cycle2)
    if not includes(i2, i1):
        raise PreconditionError("--cycle2 must dominate --cycle coefficientwise")
    _emit(args, {"monotone": core_monotone_check(i1, i2)})
    return 0


def cmd_cone(args) -> int:
    model, ideal, stats = cone_model(args.e, args.g, args.a)
    _emit(
        args,
        {
            "colength": stats.colength,
            "colength_expected": stats.colength_expected,
            "mu": stats.mu,
            "mu_expected": stats.mu_expected,
            "mult_gap": stats.mult_gap,
            "mult_gap_expected": stats.mult_gap_expected,
            "all_ok": stats.all_ok,
        },
    )
    return 0 if stats.all_ok else 3


def _search_bound(args, z: Optional[Cycle] = None) -> oracle.SearchBound:
    """The oracle's search box: the default for z, else --max-coeff; with
    --max-search, that many candidates at most."""
    bound = oracle.default_bound(z) if z is not None else oracle.SearchBound(max_coeff=args.max_coeff)
    if args.max_search is not None:
        bound = dataclasses.replace(bound, max_candidates=args.max_search)
    return bound


def cmd_oracle_max_y(args) -> int:
    doc = _graph_doc(args)
    z = _graph_cycle(args.cycle, doc)
    c = _graph_cycle(args.cohom, doc) if args.cohom else zero_cycle(doc.graph)
    y = oracle.enumerate_max_Y(z, c, bound=_search_bound(args, z))
    if y is None:
        _emit(args, {"max_y": None})
        return 3
    _emit(args, {"max_y": _cycle_json(y)})
    return 0


def cmd_oracle_zf(args) -> int:
    doc = _graph_doc(args)
    zf = oracle.fundamental_cycle_bruteforce(doc.graph, _search_bound(args))
    _emit(args, {"fundamental_cycle": _cycle_json(zf)})
    return 0


def cmd_oracle_negdef(args) -> int:
    doc = _graph_doc(args)
    _emit(args, {"negative_definite": oracle.negdef_bruteforce(doc.graph, _search_bound(args))})
    return 0


def cmd_corpus_list(args) -> int:
    entries = corpus.names()
    if args.json:
        print(json.dumps(entries))
    else:
        for name in entries:
            print(name)
    return 0


def cmd_corpus_show(args) -> int:
    entry = corpus.get(args.name)
    if entry.tower is not None and args.as_tower:
        cycles = {
            name: (entry.tower.height, c) for name, c in entry.cycles.items()
        }
        doc = TowerDocument(name=entry.name, tower=entry.tower, cycles=cycles, model=entry.model_args or None)
        sys.stdout.write(emit_tower_document(doc))
        return 0
    doc = GraphDocument(
        name=entry.name, graph=entry.graph, cycles=entry.cycles, model=entry.model_args or None
    )
    sys.stdout.write(emit_graph_document(doc))
    return 0


def cmd_corpus_verify(args) -> int:
    from . import verify  # the acceptance suite loads only for this command

    results = verify.run_all(
        seed=verify.DEFAULT_SEED if args.seed is None else args.seed,
        samples=verify.DEFAULT_SAMPLES if args.samples is None else args.samples,
    )
    if args.json:
        print(json.dumps([dataclasses.asdict(r) for r in results]))
    else:
        width = max(len(name) for name in verify.CRITERIA)
        for name, r in zip(verify.CRITERIA, results):
            print(f"{'PASS' if r.ok else 'FAIL'}  {name:<{width}}  {r.detail}")
    return 0 if all(r.ok for r in results) else 3


# --- parser ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are input errors (exit 1)
        self.print_usage(sys.stderr)
        raise InputError(message)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--trace", action="store_true", help="step-by-step log")

    p = _Parser(prog="antinef", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, fn, *, graph=False, tower=False, cyc=False, parents=(common,), help=None):
        sp = sub.add_parser(name, parents=list(parents), help=help)
        if graph:
            sp.add_argument("--graph", metavar="FILE", help="graph document (JSON)")
        if tower:
            sp.add_argument("--tower", metavar="FILE", help="tower document (JSON)")
        if cyc:
            sp.add_argument("--cycle", required=True, metavar="NAME|INLINE", help='named cycle or inline "E0:2,E1:3"')
        sp.set_defaults(fn=fn)
        return sp

    add("validate", cmd_validate, graph=True, help="check graph invariants")
    add("fundamental-cycle", cmd_fundamental_cycle, graph=True)
    add("canonical-cycle", cmd_canonical_cycle, graph=True)
    add("is-rational", cmd_is_rational, graph=True)
    add("antinef-closure", cmd_antinef_closure, graph=True, cyc=True)
    add("pa", cmd_pa, graph=True, cyc=True, help="arithmetic genus of a cycle")
    add("multiplicity", cmd_multiplicity, graph=True, cyc=True)
    sp = add("colength", cmd_colength, graph=True, cyc=True)
    sp.add_argument("--pg", type=int, default=0)
    sp.add_argument("--h1", type=int, default=0)

    sp = add("blowup", cmd_blowup, graph=True, tower=True)
    sp.add_argument("--center", required=True, metavar="V|A,B", help="one curve (free point) or two (edge point)")
    sp.add_argument("--new-id", required=True)
    sp = add("contract", cmd_contract, graph=True)
    sp.add_argument("--vertex", required=True)

    for name, fn in [("pullback", cmd_pullback), ("pushforward", cmd_pushforward)]:
        sp = add(name, fn, tower=True, cyc=True)
        sp.add_argument("--from", dest="from_level", type=int, default=None)
        sp.add_argument("--to", dest="to_level", type=int, default=None)
    sp = add("relative-canonical", cmd_relative_canonical, tower=True)
    sp.add_argument("--top", type=int, default=None)
    sp.add_argument("--bottom", type=int, default=0)

    for name, fn in [
        ("pg-test", cmd_pg_test),
        ("colon-core", cmd_colon_core),
        ("good-test", cmd_good_test),
        ("good-closure", cmd_good_closure),
    ]:
        sp = add(name, fn, graph=True, tower=True, cyc=True)
        sp.add_argument("--level", type=int, default=None, help="level of an inline cycle on a tower")
        sp.add_argument("--h1", type=int, default=None)
    sp = add("core-monotone", cmd_core_monotone, graph=True, tower=True, cyc=True)
    sp.add_argument("--cycle2", required=True, metavar="NAME|INLINE")
    sp.add_argument("--level", type=int, default=None)
    sp.add_argument("--h1", type=int, default=None)

    sp = add("cone", cmd_cone)
    sp.add_argument("--e", type=int, required=True)
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--a", type=int, required=True)

    osub = sub.add_parser("oracle", parents=[common]).add_subparsers(
        dest="oracle_command", required=True, parser_class=_Parser
    )

    def oadd(name, fn, cyc=False):
        sp = osub.add_parser(name, parents=[common])
        sp.add_argument("--graph", metavar="FILE", required=True)
        if cyc:
            sp.add_argument("--cycle", required=True, metavar="NAME|INLINE")
            sp.add_argument("--cohom", default=None, metavar="NAME|INLINE")
        else:
            sp.add_argument("--max-coeff", type=int, default=6)
        sp.add_argument("--max-search", type=int, default=None, metavar="N")
        sp.set_defaults(fn=fn)

    oadd("max-y", cmd_oracle_max_y, cyc=True)
    oadd("zf", cmd_oracle_zf)
    oadd("negdef", cmd_oracle_negdef)

    csub = sub.add_parser("corpus", parents=[common]).add_subparsers(
        dest="corpus_command", required=True, parser_class=_Parser
    )
    sp = csub.add_parser("list", parents=[common])
    sp.set_defaults(fn=cmd_corpus_list)
    sp = csub.add_parser("show", parents=[common])
    sp.add_argument("name")
    sp.add_argument("--as-tower", action="store_true", help="emit the tower document when one exists")
    sp.set_defaults(fn=cmd_corpus_show)
    sp = csub.add_parser("verify", parents=[common])
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.set_defaults(fn=cmd_corpus_verify)

    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except LatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
