"""Command-line entry point: generate / run / select / report."""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import trainer
from .exceptions import BgshiftError, ComparisonError, ConfigError
from .harness import compare_report, load_experiment_config, make_out_dir, run_experiment, training_corpus
from .protocol import select_method_weight
from .scenario import SyntheticConfig, generate_synthetic, save_dataset, split_corpus


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bgshift")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset to disk")
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--num-images", type=int, default=100)
    gen.add_argument("--classes", type=int, default=5)
    gen.add_argument("--height", type=int, default=64)
    gen.add_argument("--width", type=int, default=64)
    gen.add_argument("--blobs", type=int, default=3)

    run = sub.add_parser("run", help="run an experiment from a config file")
    run.add_argument("--config", required=True)
    run.add_argument("--out", default=None)

    sel = sub.add_parser("select", help="method-weight selection on the first incremental step")
    sel.add_argument("--config", required=True)
    sel.add_argument("--method", required=True)
    sel.add_argument("--out", default=None)

    rep = sub.add_parser("report", help="compare two methods in a report")
    rep.add_argument("--report", required=True)
    rep.add_argument("--baseline", required=True)
    rep.add_argument("--target", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    bad = [e for e in extra if not (e.startswith("--") and "=" in e)]
    if bad:
        parser.error(f"unrecognized arguments: {' '.join(bad)}")
    if extra and args.command not in ("run", "select"):  # only these read a config
        parser.error(f"{args.command} takes no --key=value overrides: {' '.join(extra)}")
    try:
        return _dispatch(args, extra)
    except BgshiftError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def _dispatch(args, overrides: list[str]) -> int:
    if args.command == "generate":
        cfg = SyntheticConfig(
            num_fg_classes=args.classes,
            num_images=args.num_images,
            height=args.height,
            width=args.width,
            blobs_per_image=args.blobs,
        )
        samples = generate_synthetic(args.seed, cfg)
        save_dataset(samples, make_out_dir(args.out), args.classes)
        print(f"wrote {len(samples)} samples to {args.out}")
        return 0

    if args.command in ("run", "select"):
        config = load_experiment_config(args.config, overrides)
        if args.out:
            config = replace(config, out_dir=args.out)

    if args.command == "run":
        report = run_experiment(config)
        for method, agg in report["aggregate"].items():
            if agg.get("status") == "ok":
                print(f"{method}: all mIoU = {agg['all_mean']:.4f} (+/- {agg['all_std']:.4f})")
            else:  # no cell of the method is ok; its first one's error says why
                error = next(c["error"] for c in report["cells"] if c["method"] == method)
                print(f"{method}: FAILED: {error}")
        if config.out_dir:
            print(f"report written to {config.out_dir}")
        return 0 if report["ok"] else 2

    if args.command == "select":
        train_config = config.cell_config(args.method, config.seeds[0])
        train_config.method.with_weight(1.0)  # FT/Joint have no weight to select: fail before training
        if len(config.seeds) != 1:
            raise ConfigError(f"seeds {config.seeds}: select trains with one seed")
        if len(config.schedule_sizes) < 2:
            raise ConfigError(f"schedule_sizes {config.schedule_sizes}: select needs an incremental step")
        out = make_out_dir(config.out_dir) if config.out_dir else None  # before any training
        # the selection scores on a held-out part of step 1: no eval corpus
        schedule = config.schedule()
        corpus = training_corpus(config.dataset, config.train.backbone.dtype)
        steps, split_report = split_corpus(corpus, schedule, config.protocol)
        # step 0 unscored: the selection reads only its model and path
        first = trainer.FirstStep(steps, split_report, trainer.run_step(None, steps[0], train_config))
        result = select_method_weight(first, train_config, schedule)
        payload = {"method": args.method, **asdict(result)}
        print(json.dumps(payload, indent=2))
        if out is not None:
            (out / "selection.json").write_text(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    if args.command == "report":
        try:
            report = json.loads(Path(args.report).read_text())
        except (OSError, ValueError) as e:  # ValueError: not UTF-8, or not JSON
            raise ComparisonError(f"cannot read report {args.report}: {e}") from None
        try:
            verdicts = compare_report(report, args.baseline, args.target)
        except ComparisonError as e:
            raise ComparisonError(f"report {args.report}: {e}") from None
        print(json.dumps(verdicts, indent=2))
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
