"""Command-line front end.

Every command is one entry of the table ``COMMANDS``: it reads at most one
document, makes one library call and prints the result.  Exit codes: 0
success, 1 input/schema error, 2 mathematical precondition violated, 3
internal theorem violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Optional, Sequence

from .errors import InputError, LatticeError, PreconditionError
from .formats import (
    GraphDocument,
    coeff_map,
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

# lattice, birational, ideals, oracle and corpus load inside the commands
# that use them, so that a call imports only what its command runs
if TYPE_CHECKING:
    from .birational import Tower
    from .ideals import IdealRep
    from .oracle import SearchBound


# --- the document of one call --------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path!r}: {exc}") from None


def _tower_cycle(doc: TowerDocument, spec: str, level: Optional[int]) -> tuple[int, Cycle]:
    """A named cycle of the document with its level, or an inline one on the
    graph at level (default: the top)."""
    if spec in doc.cycles:
        lv, c = doc.cycles[spec]
        if level is not None and level != lv:
            raise InputError(f"cycle {spec!r} is declared at level {lv}, not {level}")
        return lv, c
    lv = doc.tower.height if level is None else level
    return lv, parse_inline_cycle(spec, doc.tower.graph(lv))


def _doc_cohom(doc: GraphDocument | TowerDocument) -> Optional[Cycle]:
    """The cycle that model.cohom_cycle names; on a tower, one at level 0."""
    name = (doc.model or {}).get("cohom_cycle")
    if name is None:
        return None
    if name not in doc.cycles:
        raise InputError(f"model.cohom_cycle names unknown cycle {name!r}")
    c = doc.cycles[name]
    if isinstance(doc, TowerDocument):
        level, c = c
        if level != 0:
            raise InputError("model.cohom_cycle must be declared at level 0")
    return c


def _minimalize(g: DualGraph, c: Cycle) -> tuple[Tower, Cycle]:
    """Contract rational (-1)-curves down to a minimal resolution, keeping the
    cohomological cycle consistent; returns the tower with g on top and the
    cycle on the bottom graph.  A curve may go only if transport along its
    re-insertion gives back C's coefficient on it.  The transport rule holds
    for an effective integral C, so a declared C that is not effective, then
    one that is not integral, is refused before anything is contracted."""
    from .birational import contract_all, transported

    if not c.is_effective:
        raise PreconditionError("cohomological cycle must be effective")
    if not c.is_integral:
        raise PreconditionError("cohomological cycle must be integral")
    cv = c.vec
    tower = contract_all(g, lambda p, attach: cv[p] == transported(cv, attach))
    return tower, c.restricted_to(tower.bottom)


class _Input:
    """The document a call names, read and parsed on first use, once.  First
    use, so that a command's own argument checks (blowup's --center) still
    come before any error in the document."""

    def __init__(self, args: argparse.Namespace, reads: Optional[str]):
        self.args, self.reads = args, reads

    @cached_property
    def doc(self) -> GraphDocument | TowerDocument:
        """--graph or --tower as the command declares; for "either", --tower
        when it is given."""
        if self.reads != "graph" and self.args.tower:
            return parse_tower_document(_read(self.args.tower))
        if self.reads != "tower" and self.args.graph:
            return parse_graph_document(_read(self.args.graph))
        raise InputError(f"this command needs --{'tower' if self.reads == 'tower' else 'graph'} FILE")

    @property
    def graph(self) -> DualGraph:
        return self.doc.graph

    def cycle(self, spec: str) -> Cycle:
        """A named cycle of the graph document, or an inline one on its graph."""
        if spec in self.doc.cycles:
            return self.doc.cycles[spec]
        return parse_inline_cycle(spec, self.graph)

    def ideal_reps(self, *specs: str) -> list[IdealRep]:
        """The ideals of the named or inline cycles on the document's model.
        A graph document is first minimalized: its graph becomes the top of
        the resulting tower and its cycles live on that level, so --level
        with a graph document is an InputError."""
        from . import ideals

        doc, level = self.doc, self.args.level
        c = _doc_cohom(doc)
        if isinstance(doc, GraphDocument):
            if level is not None:
                raise InputError("--level applies to a tower document, not a graph")
            tower, c = _minimalize(doc.graph, c or zero_cycle(doc.graph))
            c = None if c.is_zero else c  # a zero cycle declares none
            cycles = {name: (tower.height, z) for name, z in doc.cycles.items()}
            doc = TowerDocument(doc.name, tower, cycles, doc.model)
        margs = doc.model or {}
        model = ideals.singularity_model(
            doc.tower.bottom, pg=margs.get("pg"), gorenstein=margs.get("gorenstein", False), c_base=c
        )
        return [ideals.represent(model, doc.tower, *_tower_cycle(doc, spec, level), h1=self.args.h1) for spec in specs]


# --- rendering -------------------------------------------------------------------


def _fields(obj, *names: str) -> dict:
    return {name: getattr(obj, name) for name in names}


def _plain(value: Any) -> Any:
    """A cycle as a coefficient map, a rational as coeff_out gives it, a
    tuple as a list."""
    if isinstance(value, Cycle):
        return coeff_map(value)
    if isinstance(value, tuple):
        return list(value)
    return coeff_out(value) if isinstance(value, Fraction) else value


def _emit(args, fields: dict) -> None:
    """Print result fields as JSON (--json) or as key = value lines."""
    fields = {key: _plain(value) for key, value in fields.items()}
    if args.json:
        print(json.dumps(fields, separators=(",", ":")))
        return
    for key, value in fields.items():
        if isinstance(value, dict):
            value = ",".join(f"{k}:{v}" for k, v in value.items()) or "0"
        elif isinstance(value, bool):
            value = "true" if value else "false"
        print(f"{key} = {value}")


def _graph_text(g: DualGraph) -> str:
    return emit_graph_document(GraphDocument(name=g.name, graph=g))


# --- commands that are more than one call ------------------------------------------


def _lattice():
    from . import lattice  # validate runs without it

    return lattice


def _raises(args):
    """--trace of a closure: one line per raise."""
    return (lambda vid, coeff: print(f"# raise {vid} -> {coeff}")) if args.trace else None


def _validate(args, src: _Input):
    report = validate_graph(src.graph)
    fields = _fields(report, "connected", "negative_definite", "adjunction_ok", "ok", "failures")
    return fields, 0 if report.ok else 2


def _blowup(args, src: _Input) -> str:
    from .birational import apply_step, edge_point, free_point

    new_id = vertex_id(args.new_id, "--new-id")
    ids = [part.strip() for part in args.center.split(",") if part.strip()]
    if len(ids) not in (1, 2):
        raise InputError(f"--center wants one or two vertex ids, got {args.center!r}")
    step = free_point(ids[0], new_id) if len(ids) == 1 else edge_point(ids[0], ids[1], new_id)
    if isinstance(src.doc, TowerDocument):
        return emit_tower_document(src.doc._replace(tower=src.doc.tower.blow_up(step)))
    return _graph_text(apply_step(src.graph, step))


def _contract(args, src: _Input) -> str:
    from .birational import contract

    return _graph_text(contract(src.graph, args.vertex)[0])


def _transfer(args, src: _Input, move: Callable[[Cycle, int, int], Cycle], default_to: int) -> dict:
    """Pull back or push forward --cycle (at --from) to --to."""
    lv, c = _tower_cycle(src.doc, args.cycle, args.from_level)
    to = default_to if args.to_level is None else args.to_level
    return {"level": to, "cycle": move(c, lv, to)}


def _relative_canonical(args, src: _Input) -> dict:
    from .birational import relative_canonical

    top = src.doc.tower.height if args.top is None else args.top
    return {"level": top, "cycle": relative_canonical(src.doc.tower, top_level=top, bottom_level=args.bottom)}


def _pg_test(args, src: _Input) -> dict:
    ideal = src.ideal_reps(args.cycle)[0]
    return {"pg_numeric": ideal.pg_numeric, "pg": ideal.model.pg, "h1": ideal.h1, "cohom_cycle": ideal.c}


def _colon_core(args, src: _Input) -> dict:
    from .ideals import colon_and_core

    rep = colon_and_core(src.ideal_reps(args.cycle)[0])
    if args.trace:  # the contraction sequence, in the order the curves go
        for step in reversed(rep.contraction_tower.steps):
            print(f"# contract {step.new_id!r}")
    return {
        "Y": rep.y,
        "colon": rep.colon_cycle,
        "core": rep.core_cycle,
        "good": rep.good,
        "iterations": rep.iterations_to_good,
    }


def _good_test(args, src: _Input) -> dict:
    from .ideals import is_good

    return {"good": is_good(src.ideal_reps(args.cycle)[0])}


def _good_closure(args, src: _Input) -> dict:
    from .ideals import good_closure

    closed = good_closure(src.ideal_reps(args.cycle)[0])
    return {"level": closed.level, "cycle": closed.z, "good": True}


def _core_monotone(args, src: _Input) -> dict:
    from .ideals import core_monotone_check, includes

    i1, i2 = src.ideal_reps(args.cycle, args.cycle2)
    if not includes(i2, i1):
        raise PreconditionError("--cycle2 must dominate --cycle coefficientwise")
    return {"monotone": core_monotone_check(i1, i2)}


def _cone(args, src: _Input):
    from .ideals import cone_model

    stats = cone_model(args.e, args.g, args.a)[2]
    names = "colength", "colength_expected", "mu", "mu_expected", "mult_gap", "mult_gap_expected", "all_ok"
    fields = _fields(stats, *names)
    return fields, 0 if stats.all_ok else 3


def _search_bound(args, z: Optional[Cycle] = None) -> SearchBound:
    """The oracle's search box: the default for z, else --max-coeff; with
    --max-search, that many candidates at most."""
    from . import oracle

    bound = oracle.default_bound(z) if z is not None else oracle.SearchBound(max_coeff=args.max_coeff)
    if args.max_search is not None:
        bound = bound._replace(max_candidates=args.max_search)
    return bound


def _oracle_max_y(args, src: _Input):
    from .oracle import enumerate_max_Y

    z = src.cycle(args.cycle)
    c = src.cycle(args.cohom) if args.cohom else zero_cycle(src.graph)
    y = enumerate_max_Y(z, c, bound=_search_bound(args, z))
    return {"max_y": y}, 0 if y is not None else 3


def _oracle_zf(args, src: _Input) -> dict:
    from .oracle import fundamental_cycle_bruteforce

    return {"fundamental_cycle": fundamental_cycle_bruteforce(src.graph, _search_bound(args))}


def _oracle_negdef(args, src: _Input) -> dict:
    from .oracle import negdef_bruteforce

    return {"negative_definite": negdef_bruteforce(src.graph, _search_bound(args))}


def _corpus_list(args, src: _Input) -> str:
    from . import corpus

    names = corpus.names()
    return json.dumps(names) + "\n" if args.json else "".join(f"{name}\n" for name in names)


def _corpus_show(args, src: _Input) -> str:
    from . import corpus

    entry = corpus.get(args.name)
    model = entry.model_args or None
    if entry.tower is not None and args.as_tower:
        cycles = {name: (entry.tower.height, c) for name, c in entry.cycles.items()}
        return emit_tower_document(TowerDocument(entry.name, entry.tower, cycles, model))
    return emit_graph_document(GraphDocument(entry.name, entry.graph, entry.cycles, model))


def _corpus_verify(args, src: _Input):
    from . import verify  # the acceptance suite loads only for this command

    results = verify.run_all(
        seed=verify.DEFAULT_SEED if args.seed is None else args.seed,
        samples=verify.DEFAULT_SAMPLES if args.samples is None else args.samples,
    )
    if args.json:
        text = json.dumps([r._asdict() for r in results]) + "\n"
    else:
        width = max(len(name) for name in verify.CRITERIA)
        text = "".join(
            f"{'PASS' if r.ok else 'FAIL'}  {name:<{width}}  {r.detail}\n"
            for name, r in zip(verify.CRITERIA, results)
        )
    return text, 0 if all(r.ok for r in results) else 3


# --- the table ---------------------------------------------------------------------


def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    """One extra argument, as ``add_argument`` takes it."""
    return flags, options


class Command(NamedTuple):
    """One command: ``run(args, src)`` turns the parsed arguments and the
    document (``src``, an ``_Input``) into result fields to render or text
    to write, optionally paired with an exit code other than 0."""

    name: str  # a command of a group is "group name", e.g. "oracle zf"
    run: Callable[[argparse.Namespace, _Input], Any]
    reads: Optional[str] = None  # the document: "graph", "tower" or "either"
    cycle: bool = False  # takes --cycle
    args: tuple = ()  # extra arguments, from _arg
    help: Optional[str] = None
    graph_required: bool = False  # --graph is a required option


_IDEAL = dict(reads="either", cycle=True, args=(
    _arg("--level", type=int, default=None, help="level of an inline cycle on a tower"),
    _arg("--h1", type=int, default=None),
))
_TRANSFER = dict(reads="tower", cycle=True, args=(
    _arg("--from", dest="from_level", type=int, default=None),
    _arg("--to", dest="to_level", type=int, default=None),
))
_ORACLE = dict(reads="graph", graph_required=True)
_MAX_SEARCH = _arg("--max-search", type=int, default=None, metavar="N")
_MAX_COEFF = _arg("--max-coeff", type=int, default=6)

COMMANDS: tuple[Command, ...] = (
    Command("validate", _validate, reads="graph", help="check graph invariants"),
    Command("fundamental-cycle",
            lambda a, s: {"fundamental_cycle": _lattice().fundamental_cycle(s.graph, on_step=_raises(a))},
            reads="graph"),
    Command("canonical-cycle", lambda a, s: {"canonical_cycle": _lattice().canonical_cycle(s.graph)}, reads="graph"),
    Command("is-rational", lambda a, s: {"rational": _lattice().is_rational(s.graph)}, reads="graph"),
    Command("antinef-closure",
            lambda a, s: {"closure": _lattice().antinef_closure(s.cycle(a.cycle), on_step=_raises(a))},
            reads="graph", cycle=True),
    Command("pa", lambda a, s: {"pa": _lattice().arithmetic_genus(s.cycle(a.cycle))}, reads="graph", cycle=True,
            help="arithmetic genus of a cycle"),
    Command("multiplicity", lambda a, s: {"multiplicity": _lattice().multiplicity(s.cycle(a.cycle))},
            reads="graph", cycle=True),
    Command("colength", lambda a, s: {"colength": _lattice().colength(s.cycle(a.cycle), pg=a.pg, h1=a.h1)},
            reads="graph", cycle=True, args=(_arg("--pg", type=int, default=0), _arg("--h1", type=int, default=0))),
    Command("blowup", _blowup, reads="either", args=(
        _arg("--center", required=True, metavar="V|A,B", help="one curve (free point) or two (edge point)"),
        _arg("--new-id", required=True),
    )),
    Command("contract", _contract, reads="graph",
            args=(_arg("--vertex", required=True),)),
    Command("pullback", lambda a, s: _transfer(a, s, s.doc.tower.pullback, s.doc.tower.height), **_TRANSFER),
    Command("pushforward", lambda a, s: _transfer(a, s, s.doc.tower.pushforward, 0), **_TRANSFER),
    Command("relative-canonical", _relative_canonical, reads="tower",
            args=(_arg("--top", type=int, default=None), _arg("--bottom", type=int, default=0))),
    Command("pg-test", _pg_test, **_IDEAL),
    Command("colon-core", _colon_core, **_IDEAL),
    Command("good-test", _good_test, **_IDEAL),
    Command("good-closure", _good_closure, **_IDEAL),
    Command("core-monotone", _core_monotone, reads="either", cycle=True,
            args=(_arg("--cycle2", required=True, metavar="NAME|INLINE"), *_IDEAL["args"])),
    Command("cone", _cone, args=(
        _arg("--e", type=int, required=True),
        _arg("--g", type=int, required=True),
        _arg("--a", type=int, required=True),
    )),
    Command("oracle max-y", _oracle_max_y, cycle=True, **_ORACLE,
            args=(_arg("--cohom", default=None, metavar="NAME|INLINE"), _MAX_SEARCH)),
    Command("oracle zf", _oracle_zf, args=(_MAX_COEFF, _MAX_SEARCH), **_ORACLE),
    Command("oracle negdef", _oracle_negdef, args=(_MAX_COEFF, _MAX_SEARCH), **_ORACLE),
    Command("corpus list", _corpus_list),
    Command("corpus show", _corpus_show, args=(
        _arg("name"), _arg("--as-tower", action="store_true", help="emit the tower document when one exists"),
    )),
    Command("corpus verify", _corpus_verify,
            args=(_arg("--seed", type=int, default=None), _arg("--samples", type=int, default=None))),
)


# --- parser and dispatcher -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are input errors (exit 1)
        self.print_usage(sys.stderr)
        raise InputError(message)


class _Retry(Exception):
    """A usage error met by a one-command parser."""


class _OneCommandParser(_Parser):
    def error(self, message):  # the whole table reports it, with its usage line
        raise _Retry


def _build_parser(argv: Sequence[str] = ()) -> _Parser:
    """The parser of the command that argv starts with, holding that command
    alone, or of the whole table when argv starts with none.  A command's
    help and usage do not depend on the other commands; only a usage error,
    which the top-level parser may report, needs the whole table."""
    named = [cmd for cmd in COMMANDS if cmd.name.split() == list(argv[: cmd.name.count(" ") + 1])]
    cls = _OneCommandParser if named else _Parser
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--trace", action="store_true", help="step-by-step log")

    parser = cls(prog="antinef", description=__doc__)
    groups = {"": parser.add_subparsers(dest="command", required=True, parser_class=cls)}
    for cmd in named or COMMANDS:
        group, _, name = cmd.name.rpartition(" ")
        if group not in groups:
            groups[group] = groups[""].add_parser(group, parents=[common]).add_subparsers(
                dest=f"{group}_command", required=True, parser_class=cls
            )
        sp = groups[group].add_parser(name, parents=[common], help=cmd.help)
        if cmd.reads in ("graph", "either"):
            sp.add_argument("--graph", metavar="FILE", required=cmd.graph_required, help="graph document (JSON)")
        if cmd.reads in ("tower", "either"):
            sp.add_argument("--tower", metavar="FILE", help="tower document (JSON)")
        if cmd.cycle:
            sp.add_argument("--cycle", required=True, metavar="NAME|INLINE", help='named cycle or inline "E0:2,E1:3"')
        for flags, options in cmd.args:
            sp.add_argument(*flags, **options)
        sp.set_defaults(cmd=cmd)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        try:
            args = _build_parser(argv).parse_args(argv)
        except _Retry:
            args = _build_parser().parse_args(argv)
        out = args.cmd.run(args, _Input(args, args.cmd.reads))
        result, code = out if isinstance(out, tuple) else (out, 0)
        if isinstance(result, str):
            sys.stdout.write(result)
        else:
            _emit(args, result)
        return code
    except LatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
