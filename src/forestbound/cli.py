"""Command-line interface.

Subcommands wrap the library over the file formats of
:mod:`forestbound.formats`.  Exit codes: 0 on success, 1 on usage errors,
2 on validation errors (overlapping regions, bad budgets, bad paths, ...),
3 on I/O errors, 4 when ``curve --audit`` finds a step where the curve and
vstar(S_t) on the family as read disagree.  Output is deterministic for
fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import sys

from . import formats, sim
from .bounds import vstar
from .curve import _pvalue_path, fast_curve, naive_curve
from .errors import ForestError, FormatError
from .forest import build_dyadic, complete_family
from .pruning import prune
from .zeta import ZETA_METHODS, ZetaEstimator

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_AUDIT = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="forestbound", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a forest file and print a summary")
    p.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("complete", help="add missing atoms to a family")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)

    p = sub.add_parser("prune", help="remove dominated regions")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--report", help="CSV listing the removed region keys")

    p = sub.add_parser("vstar", help="bound for one selection set")
    p.add_argument("--family", required=True)
    p.add_argument("--sel", required=True, help="selection CSV (hypothesis_index)")

    p = sub.add_parser("curve", help="bound curve along a selection path")
    p.add_argument("--family", required=True)
    p.add_argument("--path", help="path CSV (hypothesis_index)")
    p.add_argument("--pvalues", help="p-value CSV; orders the path by p-value")
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument(
        "--audit",
        action="store_true",
        help="check every V_t against vstar(S_t) on the family as read; "
        "quadratic in m (about 1.2 s at m=2048); exit 4 on a mismatch",
    )

    p = sub.add_parser("gen-dyadic", help="write a dyadic-tree family")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--atom-size", type=int, required=True)
    p.add_argument("--out", dest="outfile", required=True)

    p = sub.add_parser("zeta", help="estimate region budgets")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--zeta", choices=ZETA_METHODS, default="trivial")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--pvalues", help="p-value CSV (required for dkwm)")

    p = sub.add_parser("bench", help="time the curve variants on a scenario")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--zeta", choices=ZETA_METHODS, default="trivial")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--n-repl", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--signal-leaves",
        default="1,5,9,10",
        help="comma-separated atom indices carrying signal",
    )
    p.add_argument(
        "--order",
        choices=("index", "pvalue"),
        default="index",
        help="path order: hypothesis index or increasing p-value",
    )
    p.add_argument("--out-csv", help="also write the report as CSV")

    return parser


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError:
            raise FormatError(f"{path} is not UTF-8 text") from None


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cmd_validate(args) -> int:
    family = formats.parse_forest(_read_text(args.infile))
    print(
        f"m={family.m} atoms={family.n_atoms} regions={len(family)} "
        f"height={family.height} complete={str(family.is_complete).lower()}"
    )
    return EXIT_OK


def _cmd_complete(args) -> int:
    family = formats.parse_forest(_read_text(args.infile))
    _write_text(args.outfile, formats.dump_forest(complete_family(family)))
    return EXIT_OK


def _cmd_prune(args) -> int:
    family = formats.parse_forest(_read_text(args.infile))
    result = prune(family)
    _write_text(args.outfile, formats.dump_forest(result.pruned_family))
    if args.report:
        _write_text(args.report, formats.dump_removed_csv(result.removed))
    print(f"removed={len(result.removed)} vstar_full={result.vstar_full}")
    return EXIT_OK


def _cmd_vstar(args) -> int:
    family = formats.parse_forest(_read_text(args.family))
    selection = formats.parse_path_csv(_read_text(args.sel))
    print(vstar(family, selection))
    return EXIT_OK


def _cmd_curve(args) -> int:
    if (args.path is None) == (args.pvalues is None):
        raise _UsageError("curve needs exactly one of --path or --pvalues")
    family = formats.parse_forest(_read_text(args.family))
    # fast_curve passes every step through every ancestor of its atom, so the
    # curve runs on the pruned family; pruning changes no bound.
    pruned = prune(family).pruned_family
    if args.path is not None:
        path = formats.parse_path_csv(_read_text(args.path))
    else:
        pvalues = formats.parse_pvalues_csv(_read_text(args.pvalues))
        path = _pvalue_path(family.m, pvalues)
    curve = fast_curve(pruned, path)
    if args.audit:
        # vstar on the family as read checks the pruning and the curve at once.
        for t, (got, want) in enumerate(zip(curve, naive_curve(family, path))):
            if got != want:
                print(
                    f"audit error: t={t}: fast_curve gives V_t={got}, "
                    f"vstar(S_t) gives {want}",
                    file=sys.stderr,
                )
                return EXIT_AUDIT
    _write_text(args.outfile, formats.dump_curve_csv(path, curve))
    return EXIT_OK


def _cmd_gen_dyadic(args) -> int:
    try:
        family = build_dyadic(args.height, args.atom_size)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    _write_text(args.outfile, formats.dump_forest(family))
    return EXIT_OK


def _cmd_zeta(args) -> int:
    if args.zeta == "dkwm" and args.pvalues is None:
        raise _UsageError("zeta --zeta dkwm needs --pvalues")
    family = formats.parse_forest(_read_text(args.infile))
    estimator = ZetaEstimator(method=args.zeta, alpha=args.alpha)
    pvalues = None
    if args.pvalues is not None:
        pvalues = formats.parse_pvalues_csv(_read_text(args.pvalues))
    _write_text(args.outfile, formats.dump_forest(estimator.apply(family, pvalues)))
    return EXIT_OK


def _cmd_bench(args) -> int:
    try:
        leaves = frozenset(
            int(x) for x in args.signal_leaves.split(",") if x.strip()
        )
        cfg = sim.ScenarioConfig(
            m=args.m,
            tree_height=args.height,
            signal_leaves=leaves,
            zeta_method=args.zeta,
            alpha=args.alpha,
            n_repl=args.n_repl,
            seed=args.seed,
            order_by_pvalue=(args.order == "pvalue"),
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    report = sim.run_scenario(cfg)
    sys.stdout.write(sim.bench_table(report))
    print(
        f"regions={report.region_count} pruned={report.pruned_region_count}"
    )
    if args.out_csv:
        _write_text(args.out_csv, sim.bench_csv(report))
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "complete": _cmd_complete,
    "prune": _cmd_prune,
    "vstar": _cmd_vstar,
    "curve": _cmd_curve,
    "gen-dyadic": _cmd_gen_dyadic,
    "zeta": _cmd_zeta,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ForestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
