"""Offline tools for emitted traces: ``python -m repro.obs``.

Subcommands:

* ``validate TRACE.jsonl`` -- schema-check an emitted JSONL trace (exit 1 on
  problems, each named by line); used by the CI observability smoke job.
* ``timeline TRACE.jsonl [--format text|chrome] [--out PATH]`` -- rebuild the
  session timeline from a JSONL trace and render it as a text report or
  Chrome ``chrome://tracing`` JSON.

A trace that cannot be read (missing, a directory, unreadable, not text) and,
for ``timeline``, one holding a line that is not a trace event, is one
``error: ...`` line on stderr and exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.obs.schema import validate_jsonl
from repro.obs.timeline import TimelineBuilder


def _cmd_validate(args: argparse.Namespace) -> int:
    count, problems = validate_jsonl(args.trace, max_problems=args.max_problems)
    for problem in problems:
        print(f"{args.trace}: {problem}", file=sys.stderr)
    if problems:
        print(f"{args.trace}: INVALID ({count} events, {len(problems)} problems)")
        return 1
    print(f"{args.trace}: OK ({count} events)")
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    builder = TimelineBuilder.from_jsonl(args.trace)
    if args.format == "chrome":
        rendered = json.dumps(builder.to_chrome_json(), indent=2, sort_keys=True)
    else:
        rendered = builder.render_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
            if not rendered.endswith("\n"):
                handle.write("\n")
        print(f"wrote {args.format} timeline to {args.out}")
    else:
        print(rendered, end="" if rendered.endswith("\n") else "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Validate and render JSONL traces emitted by the simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="schema-check a JSONL trace")
    validate.add_argument("trace", help="path to the .jsonl trace file")
    validate.add_argument(
        "--max-problems", type=int, default=20, help="stop reporting after this many"
    )
    validate.set_defaults(func=_cmd_validate)

    timeline = sub.add_parser("timeline", help="render a session timeline")
    timeline.add_argument("trace", help="path to the .jsonl trace file")
    timeline.add_argument(
        "--format", choices=("text", "chrome"), default="text", help="output format"
    )
    timeline.add_argument("--out", help="write to this file instead of stdout")
    timeline.set_defaults(func=_cmd_timeline)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # names the path itself
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # undecodable bytes, or a line `timeline` cannot use
        print(f"error: {args.trace}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
