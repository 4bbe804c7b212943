"""Command-line front end.

Subcommands::

    analyze FILE                      graded invariants + singular locus
    classify FILE [--assume ...]      representation-type verdict with citations
    semigroup A1,A2,...               Drozd-Roiter lengths for a semigroup ring
    arrangement FILE --reduction F    Drozd-Roiter lengths for a line arrangement
    generate FAMILY [ARGS...]         canonical presentation file for a family
    gb FILE                           reduced Groebner basis (degrevlex)

Global flags: ``--json`` (canonical report serialization), ``--seed N``
(nonnegative linear-parameter seed, default 1), ``--budget-pairs N``,
``--budget-degree N``.
Exit codes: 0 success, 2 input error, 3 budget error.  ``analyze`` keeps
its invariants when the singular locus exceeds a budget: it exits 0 with a
null ``singularity`` section and the reason in ``singularity_skipped``.

The ``arrangement`` input file lists the individual lines as the ideal
generators (one linear form each); the reduction is a linear form in the
same two variables.

Each report subcommand is a handler ``(ns, budgets) -> (source_text,
sections)``, registered on its subparser as ``run``: ``source_text`` is what
the input digest hashes and ``sections`` the report body, in output order,
each section a result object written out by ``report.plain``.  :func:`main`
has one document step (``report.finalize_document``, then render) for all of
them; ``generate`` alone writes a presentation instead of a report.  The
parser is built once, at import, so a process that calls :func:`main`
repeatedly pays for it once.
"""

from __future__ import annotations

import argparse
import sys
import time

from .classifier import classify
from .drozd_roiter import arrangement_dr, line_arrangement, semigroup_closure, semigroup_dr
from .errors import BudgetError, Budgets, DEFAULT_BUDGETS, InputError, ParseError
from .families import catalog_presentation
from .groebner import buchberger
from .invariants import analyze
from .parsing import parse_polynomial, parse_presentation
from .presentation import RingPresentation, render_presentation
from .report import finalize_document, plain, render_json, render_text
from .singularity import singular_locus


def nonnegative_int(text: str) -> int:
    """argparse type of the seed and the budgets: a negative count is no
    budget, and random.Random would seed -3 as 3."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the canonical JSON report")
    common.add_argument("--seed", type=nonnegative_int, default=1, help="seed for linear-parameter search")
    common.add_argument(
        "--budget-pairs", type=nonnegative_int, default=DEFAULT_BUDGETS.pairs, help="S-pair budget"
    )
    common.add_argument(
        "--budget-degree",
        type=nonnegative_int,
        default=DEFAULT_BUDGETS.degree,
        help="S-pair degree budget",
    )

    parser = argparse.ArgumentParser(
        prog="cmtype",
        description="Graded ring invariants and Cohen-Macaulay representation-type classification",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("analyze", parents=[common], help="graded invariants of a presentation")
    p.add_argument("file")
    p.set_defaults(run=_run_analyze)

    p = sub.add_parser("classify", parents=[common], help="representation-type verdict")
    p.add_argument("file")
    p.add_argument(
        "--assume",
        action="append",
        default=[],
        choices=["reduced"],
        help="assert a hypothesis the tool cannot verify",
    )
    p.set_defaults(run=_run_classify)

    p = sub.add_parser("semigroup", parents=[common], help="Drozd-Roiter lengths for <a1,a2,...>")
    p.add_argument("generators", help="comma-separated positive integers with gcd 1")
    p.set_defaults(run=_run_semigroup)

    p = sub.add_parser("arrangement", parents=[common], help="Drozd-Roiter lengths for a line arrangement")
    p.add_argument("file", help="presentation file whose ideal lists the lines")
    p.add_argument("--reduction", required=True, help="linear form nonvanishing on every line")
    p.set_defaults(run=_run_arrangement)

    p = sub.add_parser("generate", parents=[common], help="emit a canonical family presentation")
    p.add_argument("family")
    p.add_argument("args", nargs="*")

    p = sub.add_parser("gb", parents=[common], help="reduced Groebner basis of the ideal")
    p.add_argument("file")
    p.set_defaults(run=_run_gb)

    return parser


def _read_presentation(path: str, require_homogeneous: bool) -> tuple[str, RingPresentation]:
    """The file's text and its parsed presentation; the parser's warnings go to stderr."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    pres = parse_presentation(text, require_homogeneous=require_homogeneous)
    for warning in pres.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return text, pres


def _run_analyze(ns: argparse.Namespace, budgets: Budgets) -> tuple[str, dict]:
    text, pres = _read_presentation(ns.file, require_homogeneous=True)
    bundle = analyze(pres, seed=ns.seed, budgets=budgets)
    sections = {
        "invariants": plain(bundle.invariants),
        "artinian_reduction": plain(bundle.reduction, bundle.presentation.variables),
    }
    # the invariants are done; a singular locus over budget degrades
    # to a null section with the reason instead of discarding them
    try:
        sections["singularity"] = plain(singular_locus(bundle, budgets=budgets))
    except BudgetError as exc:
        sections["singularity"] = None
        sections["singularity_skipped"] = str(exc)
    return text, sections


def _run_classify(ns: argparse.Namespace, budgets: Budgets) -> tuple[str, dict]:
    text, pres = _read_presentation(ns.file, require_homogeneous=True)
    result = classify(pres, frozenset(ns.assume), seed=ns.seed, budgets=budgets)
    return text, {"assumptions": sorted(ns.assume), **plain(result)}


def _run_semigroup(ns: argparse.Namespace, budgets: Budgets) -> tuple[str, dict]:
    try:
        gens = [int(part) for part in ns.generators.split(",") if part.strip()]
    except ValueError:
        raise InputError("semigroup generators must be integers") from None
    semigroup = semigroup_closure(gens)
    sections = {
        "generators": plain(semigroup.generators),
        "frobenius": semigroup.frobenius,
        "report": plain(semigroup_dr(semigroup)),
    }
    return "semigroup:" + ",".join(str(g) for g in semigroup.generators), sections


def _run_arrangement(ns: argparse.Namespace, budgets: Budgets) -> tuple[str, dict]:
    text, pres = _read_presentation(ns.file, require_homogeneous=False)
    try:
        reduction = parse_polynomial(ns.reduction, pres.variables)
    except ParseError as exc:
        raise InputError(f"--reduction: {exc}") from None
    arrangement = line_arrangement(pres.generators, reduction)
    sections = {**plain(arrangement, pres.variables), "report": plain(arrangement_dr(arrangement))}
    return text + "\nreduction:" + ns.reduction, sections


def _run_gb(ns: argparse.Namespace, budgets: Budgets) -> tuple[str, dict]:
    text, pres = _read_presentation(ns.file, require_homogeneous=False)
    basis = buchberger(pres, budgets=budgets)
    return text, {"order": basis.order, "basis": plain(basis.elements, pres.variables)}


PARSER = build_parser()


def main(argv=None) -> int:
    ns = PARSER.parse_args(argv)
    started = time.perf_counter()
    budgets = Budgets(pairs=ns.budget_pairs, degree=ns.budget_degree)

    try:
        if ns.subcommand == "generate":  # a presentation, not a report
            sys.stdout.write(render_presentation(catalog_presentation(ns.family, ns.args)))
            return 0
        source_text, sections = ns.run(ns, budgets)
        doc = finalize_document(
            ns.subcommand, source_text, sections, (time.perf_counter() - started) * 1000.0
        )
        sys.stdout.write(render_json(doc) if ns.json else render_text(doc))
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3


def run() -> None:  # console-script entry point
    raise SystemExit(main())


if __name__ == "__main__":
    run()
