"""`bench` command line: run benchmarks, print schedules, validate configs.

Exit codes: 0 success, 1 config error, 2 I/O error, 3 every run diverged.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .benchmark import (
    ConfigError,
    RunConfig,
    emit_csv,
    parse_config,
    run_benchmark,
    summary_text,
)
from .engine import scheduled_eta

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_DIVERGED = 3


def _load_config(path: str) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"not valid UTF-8: {exc}") from exc
    config = parse_config(text)
    for warning in config.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return config


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed: must be >= 0, got {args.seed}")
        config.seed = args.seed
    out_dir = Path(args.out or config.out or ".")

    result = run_benchmark(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    emit_csv(result.records, out_dir / "records.csv")
    (out_dir / "summary.json").write_text(
        json.dumps(
            {
                "run": result.run_id,
                "seed": config.seed,
                "problem": config.problem.name,
                "t_max": config.t_max,
                "optimizers": [dataclasses.asdict(s) for s in result.summaries],
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    if not args.quiet:
        print(summary_text(result))
        print(f"records written to {out_dir / 'records.csv'}")
    return EXIT_DIVERGED if result.all_diverged else EXIT_OK


def _cmd_schedule(args) -> int:
    """Print the first optimizer's per-step learning rate as step,eta_t CSV."""
    config = _load_config(args.config).optimizers[0].config
    print("step,eta_t")
    for t in range(1, config.schedule.t_max + 1):
        print(f"{t},{scheduled_eta(t, config)!r}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    _load_config(args.config)
    print(f"{args.config}: ok")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench", description="Deterministic desk-scale optimizer benchmarks."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run every optimizer in the config")
    run_p.add_argument("config", help="path to a JSON run configuration")
    run_p.add_argument("--out", help="output directory (default: config 'out' or '.')")
    run_p.add_argument("--seed", type=int, help="override the config seed")
    run_p.add_argument("--quiet", action="store_true", help="suppress the summary")
    run_p.set_defaults(fn=_cmd_run)

    sched_p = sub.add_parser(
        "schedule", help="print the first optimizer's step,eta_t curve"
    )
    sched_p.add_argument("config", help="path to a JSON run configuration")
    sched_p.set_defaults(fn=_cmd_schedule)

    val_p = sub.add_parser("validate", help="parse the config and report problems")
    val_p.add_argument("config", help="path to a JSON run configuration")
    val_p.set_defaults(fn=_cmd_validate)

    args = parser.parse_args(argv)
    # UTF-8 whatever the locale, as the config and the output files are, so a label
    # prints as the config spells it; surrogateescape writes a path argument that did
    # not decode back as its bytes
    sys.stdout.reconfigure(encoding="utf-8", errors="surrogateescape")
    try:
        return args.fn(args)
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the pipe; not our error
        sys.stderr.close()
        return EXIT_OK
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # a config that passes validate may still ask for more than this host has
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
