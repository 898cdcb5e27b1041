"""Command-line entry points.

    ssn validate <config.json>          check a config against the schema
    ssn run <config.json>               execute the configured experiment
    ssn predict --model M --features F --out P
                                        batch predictions from a saved model

Exit codes: 0 ok, 1 config error, 2 IO error (a missing or malformed data
or model file, or a run artifact that could not be written; the other cells
still run), 3 numeric failure in every cell (one `error:` line names the
`status` column of `results.csv`). No package error escapes: a cell records
its own, and `predict` reports a bad input as an IO error. `validate` loads
the config exactly as `run` does, so a config that validates also runs;
`run` reads csv data once, before any cell. Cells run one after another in
one process. `validate` and `predict` never import SciPy.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import load_config
from .data import _write_table, parse_numeric_csv
from .errors import ConfigError, ModelFormatError, ParseError
from .experiments import run_experiment
from .network import forward_batch, load_model


def _cmd_config(args) -> int:
    """`validate` and `run`: both load the config the same way."""
    try:
        cfg = load_config(args.config)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.command == "validate":
        print("OK")
        return 0
    try:
        code = run_experiment(cfg)
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if code == 3:
        print(f"error: every cell failed; see the status column of "
              f"{os.path.join(cfg.output_dir, 'results.csv')}", file=sys.stderr)
    return code


def _cmd_predict(args) -> int:
    try:
        net = load_model(args.model)
        _, x = parse_numeric_csv(args.features)
        if x.shape[1] != net.input_dim:
            print(f"error: model expects {net.input_dim} features, "
                  f"{args.features} has {x.shape[1]}", file=sys.stderr)
            return 2
        preds = forward_batch(net, x)
        _write_table(args.out, [f"target_{j}" for j in range(net.task_dim)], preds)
    except ModelFormatError as exc:
        print(f"error: {args.model}: {exc}", file=sys.stderr)
        return 2
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ssn",
        description="Multi-task censored regression with low-rank subspace layers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a config file")
    p_validate.add_argument("config")
    p_validate.set_defaults(func=_cmd_config)

    p_run = sub.add_parser("run", help="run the configured experiment")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_config)

    p_predict = sub.add_parser("predict", help="predict from a saved model")
    p_predict.add_argument("--model", required=True)
    p_predict.add_argument("--features", required=True)
    p_predict.add_argument("--out", required=True)
    p_predict.set_defaults(func=_cmd_predict)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
