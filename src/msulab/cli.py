"""Command-line interface: measure, generate, experiment, recommend, chi2-scan."""

from __future__ import annotations

import argparse
import functools
import io
import sys
from dataclasses import replace
from pathlib import Path

from . import measures
from .dataset import AttributeBlock, generate_dataset
from .errors import InvalidInputError
from .generators import GeneratorKind, SeededRng
from .harness import (
    DEFAULT_MASTER_SEED,
    config_from_json,
    run_experiment,
)
from .ingest import read_csv, sample_to_csv, write_text_atomic
from .presets import CATALOG, preset
from .samplesize import (
    CardinalityProfile,
    heuristic_sample_size,
    multivariate_cardinality,
    representativeness_report,
)

def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a backstop: sizes past MAX_DATASET_CELLS fail before this
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 1


@functools.cache  # built once a process: parsing reads the parser and never changes it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msulab",
        description=(
            "Correlation measures for categorical data (entropy, information gain, "
            "pairwise and multivariate symmetrical uncertainty), synthetic dataset "
            "generation, Monte Carlo bias experiments, and sample-size recommendations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="evaluate a measure on columns of a CSV file")
    p.add_argument("csv", help="path to a CSV file with a header row")
    which = p.add_mutually_exclusive_group(required=True)
    for name, (metavar, text, _, _) in _MEASURES.items():
        which.add_argument(f"--{name}", metavar=metavar, help=text)
    p.set_defaults(handler=_cmd_measure)

    p = sub.add_parser("generate", help="write a synthetic categorical dataset as CSV")
    p.add_argument("--rule", required=True, choices=("uniform", "mk", "xor"))
    p.add_argument("--m", required=True, type=int, help="number of rows")
    p.add_argument("--cards", help="comma-separated attribute cardinalities (uniform and mk rules)")
    p.add_argument("--class-card", type=int, default=2, dest="class_card")
    p.add_argument("--k", type=float, default=1.0, help="informativeness of mk attributes")
    p.add_argument("--noise", type=float, default=0.05, help="class flip probability for the xor rule")
    p.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("experiment", help="run a Monte Carlo experiment, emit its curve as CSV")
    p.add_argument("preset", nargs="?", help=f"catalog entry ({', '.join(CATALOG)})")
    p.add_argument("--config", help="path to a JSON experiment config")
    p.add_argument("--replicates", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(handler=_cmd_experiment)

    p = sub.add_parser("recommend", help="sample-size recommendation for declared cardinalities")
    p.add_argument("--cards", required=True, help="comma-separated attribute cardinalities")
    p.add_argument("--class-card", type=int, default=2, dest="class_card")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--factor", type=float, default=10.0)
    p.set_defaults(handler=_cmd_recommend)

    p = sub.add_parser("chi2-scan", help="minimal representative m per cell count vs the heuristic")
    p.add_argument("--cells", required=True, help="comma-separated joint-space sizes, e.g. 8,12,15,18")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--factor", type=float, default=10.0)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(handler=_cmd_chi2_scan)

    return parser


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise InvalidInputError(f"{what} must be a comma-separated list of integers: {text!r}") from None
    if not values:
        raise InvalidInputError(f"{what} must not be empty")
    return values


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        write_text_atomic(out_path, text)


# The measures of `msulab measure`, by flag: metavar, help, arity (minimum,
# maximum or None for unbounded) and the call on a sample's column indices.
_MEASURES = {
    "entropy": ("COL", "entropy of one column (bits)", (1, 1), measures.joint_entropy),
    "su": ("COLS", "symmetrical uncertainty of two columns", (2, 2),
           lambda sample, idx: measures.symmetrical_uncertainty(sample, *idx)),
    "ig": ("COLS", "information gain of two columns (bits)", (2, 2),
           lambda sample, idx: measures.information_gain(sample, idx[:1], idx[1:])),
    "tc": ("COLS", "total correlation of two or more columns (bits)", (2, None), measures.total_correlation),
    "msu": ("COLS", "multivariate symmetrical uncertainty of two or more columns", (2, None), measures.msu),
}


def _cmd_measure(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    name = next(n for n in _MEASURES if getattr(args, n) is not None)
    col_names = [c.strip() for c in getattr(args, name).split(",") if c.strip()]
    _, _, (lo, hi), call = _MEASURES[name]
    if len(col_names) < lo or (hi is not None and len(col_names) > hi):
        bound = f"exactly {lo}" if lo == hi else f"at least {lo}"
        parser.error(f"--{name} takes {bound} column(s), got {len(col_names)}")

    data = read_csv(args.csv)
    idx = [data.sample.column_index(c) for c in col_names]
    result = call(data.sample, idx)

    print(f"{name}({','.join(col_names)}) = {result.value:.6f}")
    if result.degenerate:
        print("degenerate: every selected column is constant")

    cards = [data.sample.cardinalities[i] for i in idx]
    profile = CardinalityProfile([(card, 1) for card in cards[1:]], cards[0])
    space = multivariate_cardinality(profile)
    recommended = heuristic_sample_size(profile)
    m = data.sample.n_rows
    status = "meets" if m >= recommended else "is below"
    print(f"note: sample size {m} {status} the recommended {recommended} rows "
          f"(10 x joint value space {space})")
    return 0


def _cmd_generate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.m < 1:
        parser.error("--m must be at least 1")
    if args.rule == "xor":
        if args.cards not in (None, "2,2"):
            parser.error("the xor rule generates exactly two binary attributes; drop --cards")
        blocks = [AttributeBlock(("f1", "f2"), GeneratorKind.XOR_PAIR, 2)]
        if args.class_card != 2:
            parser.error("the xor rule requires --class-card 2")
    else:
        if not args.cards:
            parser.error(f"--cards is required for the {args.rule} rule")
        kind = GeneratorKind.UNIFORM if args.rule == "uniform" else GeneratorKind.KONONENKO
        cards = _parse_int_list(args.cards, "--cards")
        blocks = [
            AttributeBlock((f"f{i}",), kind, card) for i, card in enumerate(cards, start=1)
        ]
    rng = SeededRng(master_seed=args.seed, stream_id=0)
    sample = generate_dataset(
        args.m, args.class_card, blocks, rng, k=args.k, xor_noise=args.noise
    )
    _emit(sample_to_csv(sample), args.out)
    return 0


def _cmd_experiment(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if (args.preset is None) == (args.config is None):
        parser.error("give either a preset name or --config, not both")
    if args.config is not None:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise InvalidInputError(f"cannot read {args.config}: {exc.strerror or exc}") from None
        except UnicodeDecodeError:
            raise InvalidInputError(f"{args.config}: not UTF-8 text") from None
        config = config_from_json(text)
    else:
        config = preset(args.preset)
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    if args.replicates is not None:
        config = replace(config, replicates=args.replicates)

    curve = run_experiment(config)
    for sweep_value, message in curve.errors:
        print(f"warning: point {sweep_value} skipped: {message}", file=sys.stderr)
    if len(curve.errors) == len(curve.sweep_values):
        raise InvalidInputError("every sweep point was skipped; nothing was measured")
    buffer = io.StringIO()
    curve.write_csv(buffer)
    _emit(buffer.getvalue(), args.out)
    return 0


def _cmd_recommend(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    cards = _parse_int_list(args.cards, "--cards")
    profile = CardinalityProfile([(card, 1) for card in cards], args.class_card)
    if profile.has_constant_variables:
        print("warning: a declared cardinality is 1; measures over it are degenerate",
              file=sys.stderr)
    report = representativeness_report(profile, alpha=args.alpha, factor=args.factor)
    print(f"multivariate cardinality: {report.multivariate_cardinality}")
    print(f"heuristic sample size (factor {args.factor:g}): {report.heuristic_m}")
    print(f"chi-squared minimal m* (alpha={report.alpha:g}, df={report.df}, "
          f"critical={report.critical_value:.6f}): {report.chi2_m_star}")
    return 0


def _cmd_chi2_scan(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    lines = ["cells,df,critical_value,m_star,heuristic_m"]
    for k in _parse_int_list(args.cells, "--cells"):
        if k < 2:
            raise InvalidInputError(f"cell count must be at least 2, got {k}")
        report = representativeness_report(CardinalityProfile((), k), args.alpha, args.factor)
        lines.append(f"{k},{report.df},{report.critical_value!r},{report.chi2_m_star},"
                     f"{report.heuristic_m}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
