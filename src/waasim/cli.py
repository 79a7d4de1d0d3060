"""Command-line experiment runner.

Exit codes: 0 success, 2 configuration/validation error, 3 simulation stall.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, SchemaError, StallError, WaasimError
from .experiment import (compare_files, default_templates, load_config,
                         run_experiment)
from .schema import read_file
from .workflow import generate_workload, parse_workflow, serialize_workload


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waasim",
        description="Multi-tenant workflow scheduling simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment sweep from a config file")
    p_run.add_argument("--config", required=True, help="experiment config JSON")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel worker count")
    p_run.add_argument("--out", default=None, help="override the output directory")

    p_cmp = sub.add_parser("compare", help="compare two per-run report JSON files")
    p_cmp.add_argument("report_a")
    p_cmp.add_argument("report_b")

    p_val = sub.add_parser("validate", help="validate a workflow JSON document")
    p_val.add_argument("--workflow", required=True)

    p_gen = sub.add_parser("gen-workload", help="generate a seeded workload JSON")
    p_gen.add_argument("--template", action="append", required=True,
                       choices=[t.name for t in default_templates()],
                       help="template name; repeat for a mixed catalog")
    p_gen.add_argument("--count", type=int, required=True)
    p_gen.add_argument("--rate", type=float, required=True,
                       help="arrival rate in workflows per minute")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--budget-level", type=int, default=None,
                       help="single budget level (1-4); default uses all levels")
    p_gen.add_argument("--out", default=None, help="output file (default stdout)")
    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config)
    manifest = run_experiment(config, jobs=args.jobs, output_dir=args.out)
    out = Path(args.out if args.out is not None else config.output_dir)
    print(f"wrote {len(manifest['runs'])} runs to {out}")
    return 0


def _cmd_compare(args) -> int:
    report = compare_files(args.report_a, args.report_b)
    sys.stdout.write(report.render())
    return 0


def _cmd_validate(args) -> int:
    spec = parse_workflow(read_file(args.workflow, SchemaError))
    entries = len(spec.entry_ids())
    exits = len(spec.exit_ids())
    levels = max(t.level for t in spec.tasks.values()) + 1
    print(f"{spec.id}: {len(spec.tasks)} tasks, {entries} entry / {exits} exit, "
          f"{levels} levels, budget ${spec.budget}")
    return 0


def _cmd_gen_workload(args) -> int:
    templates = {t.name: t for t in default_templates()}
    catalog = []
    for name in args.template:
        tpl = templates[name]
        levels = ([args.budget_level] if args.budget_level is not None
                  else range(1, len(tpl.budgets) + 1))
        spec = tpl.build()
        for level in levels:
            if not 1 <= level <= len(tpl.budgets):
                raise ConfigError(f"--budget-level must be in 1..{len(tpl.budgets)}")
            catalog.append((spec, tpl.budgets[level - 1]))
    try:
        workload = generate_workload(catalog, args.count, args.rate, args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    text = serialize_workload(workload)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {len(workload.workflows)} workflows to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "validate": _cmd_validate,
        "gen-workload": _cmd_gen_workload,
    }
    try:
        return handlers[args.command](args)
    except StallError as exc:
        print(f"error: simulation stalled: {exc}", file=sys.stderr)
        return 3
    except (WaasimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
