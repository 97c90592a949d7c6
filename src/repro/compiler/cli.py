"""Command-line source-to-source translator.

Usage::

    python -m repro compile annotated.py            # print translation
    python -m repro compile annotated.py -o out.py  # write translation
    python -m repro compile annotated.py --run      # translate and exec
"""

from __future__ import annotations

import argparse
import sys

from .translate import CompileError, compile_annotated, translate_source


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro compile",
        description="Translate #pragma css annotated Python to runtime calls.",
    )
    parser.add_argument("input", help="annotated source file")
    parser.add_argument("-o", "--output", help="write translated source here")
    parser.add_argument(
        "--run", action="store_true",
        help="execute the translated module (its __name__ is '__main__')",
    )
    args = parser.parse_args(argv)

    with open(args.input, encoding="utf-8") as handle:
        source = handle.read()
    try:
        if args.run:
            compile_annotated(source, "__main__", filename=args.input)
            return 0
        translated = translate_source(source, filename=args.input)
    except CompileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(translated)
    else:
        sys.stdout.write(translated)
    return 0
