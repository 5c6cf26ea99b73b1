"""Command-line interface.

Exit codes: 0 success, 2 usage error, 3 not primitive (``primitive``
subcommand), 4 scenario parse/validation failure, 5 oracle node cap or
letter budget hit, 6 surgery on disjoint disks. A valid pair with no
intersection arcs passes ``validate`` (exit 0), but ``surgeries`` and
``closure`` exit 6 on it with ``error: surgery undefined for disjoint
disks``, as surgery needs an arc.
"""

from __future__ import annotations

import argparse
import functools
import sys

from ._kernels import letter_key
from .primitivity import (
    OracleCapExceeded,
    _replay,
    is_primitive,
    oracle_primitives,
)
from .report import render_json, render_text, run_report
from .scenarios import (
    BUILTIN_SCENARIOS,
    ScenarioFormatError,
    builtin_scenario,
    dumps_scenario,
    load_scenario,
    save_scenario,
)
from .surgery import (
    DisjointDisksError,
    InvalidSystemError,
    _outcomes,
    validate_system,
)
from .words import (
    MAX_RANK,
    format_word,
    parse_word,
    unoriented_cyclic_class,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_PRIMITIVE = 3
EXIT_INVALID = 4
EXIT_CAP = 5
EXIT_DISJOINT = 6


def _cmd_reduce(args) -> int:
    # Free reduction needs no rank; without one every index up to MAX_RANK parses.
    word = parse_word(args.word, MAX_RANK if args.rank is None else args.rank)
    print(format_word(word.reduced()))
    return EXIT_OK


def _cmd_primitive(args) -> int:
    word = parse_word(args.word, args.rank)
    verdict = is_primitive(word, args.rank, use_oz=not args.no_oz)
    print(f"word: {format_word(word)}")
    print(f"rank: {args.rank}")
    print(f"verdict: {'primitive' if verdict.primitive else 'not primitive'}")
    print(f"oz fired: {'yes' if verdict.oz_fired else 'no'}")
    print(f"minimal cyclic word: {format_word(verdict.minimal)} "
          f"(length {len(verdict.minimal)})")
    print("certificate:" if verdict.certificate else "certificate: (empty)")
    trail = _replay(word.cyclic(), verdict.certificate)
    for step, (auto, cyclic) in enumerate(zip(verdict.certificate, trail), start=1):
        print(f"  step {step}: {auto.describe()} -> {format_word(cyclic)}"
              f" (length {len(cyclic)})")
    return EXIT_OK if verdict.primitive else EXIT_NOT_PRIMITIVE


def _letter_order(rank):
    """Sort key putting words over ``x1..x_rank`` in the lexicographic order
    of their ``letter_key`` tuples: each letter's key as fixed-width
    big-endian bytes, which compare as the keys do. That is one byte a
    letter up to rank 128, against eight for a tuple of ints, so sorting a
    closure near the oracle's letter budget does not double it.
    """
    width = ((2 * rank - 1).bit_length() + 7) // 8
    codes = [b""] * (2 * rank + 1)  # the code of letter a at index a
    for a in (*range(1, rank + 1), *range(-rank, 0)):
        codes[a] = letter_key(a).to_bytes(width, "big")
    return lambda cyclic: b"".join(map(codes.__getitem__, cyclic.letters))


def _cmd_oracle(args) -> int:
    words = oracle_primitives(args.rank, args.max_len)
    for cyclic in sorted(words, key=_letter_order(args.rank)):
        print(format_word(cyclic))
    return EXIT_OK


def _load_for(args) -> tuple:
    """Scenario argument, a built-in name or a file path: the pair and its label."""
    if args.scenario in BUILTIN_SCENARIOS:
        genus = 3 if args.genus is None else args.genus
        return builtin_scenario(args.scenario, genus), f"{args.scenario} (genus {genus})"
    if args.genus is not None:
        raise ValueError("--genus applies only to built-in scenarios")
    return load_scenario(args.scenario), str(args.scenario)


def _cmd_validate(args) -> int:
    system = load_scenario(args.scenario)
    violations = validate_system(system)
    if violations:
        for violation in violations:
            print(violation)
        return EXIT_INVALID
    print(f"valid: {system.chord_count} intersection arcs, rank {system.rank}")
    return EXIT_OK


def _cmd_surgeries(args) -> int:
    system, _ = _load_for(args)
    for i, outcome in enumerate(_outcomes(system), start=1):
        cyclic = unoriented_cyclic_class(outcome.boundary_word)
        print(f"[{i}] {outcome.choice.describe()} | piece {outcome.piece}"
              f" | arcs left {outcome.inherited_chords}")
        print(f"    word:  {format_word(outcome.boundary_word)}")
        print(f"    class: {format_word(cyclic)}")
    return EXIT_OK


def _cmd_closure(args) -> int:
    system, label = _load_for(args)
    report = run_report(system, label=label)
    rendered = render_json(report) if args.machine else render_text(report)
    sys.stdout.write(rendered)
    return EXIT_OK


def _cmd_scenario(args) -> int:
    system = builtin_scenario(args.builtin, args.genus)
    if args.out is None:
        sys.stdout.write(dumps_scenario(system))
    else:
        try:
            save_scenario(system, args.out)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="disksurgery",
        description="Disk surgery on intersecting handlebody disks and "
                    "free-group primitivity testing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="freely reduce a word")
    p.add_argument("word")
    p.add_argument("--rank", type=int, default=None,
                   help=f"ambient rank (default: every index up to {MAX_RANK})")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("primitive", help="test a word for primitivity")
    p.add_argument("word")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--no-oz", action="store_true",
                   help="disable the rank-2 sign fast path")
    p.set_defaults(func=_cmd_primitive)

    p = sub.add_parser("oracle", help="list all primitive cyclic words up to a length")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("validate", help="check a scenario file's invariants")
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("surgeries", help="list every surgery outcome of a pair")
    p.add_argument("scenario", help="scenario file or built-in name")
    p.add_argument("--genus", type=int, default=None,
                   help="genus for built-in scenarios (default 3)")
    p.set_defaults(func=_cmd_surgeries)

    p = sub.add_parser("closure", help="closure report for a disk pair")
    p.add_argument("scenario", help="scenario file or built-in name")
    p.add_argument("--genus", type=int, default=None,
                   help="genus for built-in scenarios (default 3)")
    p.add_argument("--machine", action="store_true", help="emit JSON")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("scenario", help="emit a built-in scenario file")
    p.add_argument("--builtin", required=True, choices=BUILTIN_SCENARIOS)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_scenario)

    return parser


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Run one command; the parser is built on the first call and reused."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (InvalidSystemError, ScenarioFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OracleCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except DisjointDisksError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISJOINT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
