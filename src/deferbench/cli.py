"""Command line entry points.

Subcommands: generate a dataset, run the full benchmark, re-render SVG
reports from a results table, corrupt a dataset file, and inspect any of the
produced artifacts. Exit code 0 on success, 1 when the experiment itself
fails or a file cannot be read or written, 2 on usage or configuration
errors.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import closing
from dataclasses import replace
from pathlib import Path

from deferbench import data as data_mod
from deferbench import report, sweep
from deferbench.atomic import atomic_open
from deferbench.config import RunConfig, emit_config, load_config
from deferbench.errors import ConfigError, DeferBenchError, FormatError, UsageError
from deferbench.nnet import read_checkpoint
from deferbench.rng import child_seed


def _load_run_config(args) -> RunConfig:
    if args.config and not Path(args.config).is_file():
        raise UsageError(f"{args.config}: no such configuration file")
    cfg = load_config(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "jobs", None) is not None:
        cfg = replace(cfg, jobs=args.jobs)
    return cfg


def _output_file(path) -> Path:
    out = Path(path)
    if not out.parent.is_dir():
        raise UsageError(f"{out.parent}: output directory does not exist")
    return out


def cmd_generate(args) -> int:
    cfg = _load_run_config(args)
    out = _output_file(args.out)
    ds = sweep.prepare_dataset(cfg)
    # a dataset no run could split is refused before it is written
    tagged = data_mod.split(ds, child_seed(cfg.seed, "split"))
    data_mod.write_dataset(out, ds)
    pos = int(ds.labels.sum())
    prevalence = 100.0 * pos / ds.n_samples
    print(f"wrote {out}: {ds.n_samples} samples, {ds.n_features} features")
    print(f"positives={pos} negatives={ds.n_samples - pos} prevalence={prevalence:.2f}%")
    sizes = {name: int(tagged.split_mask(which).sum())
             for which, name in sorted(data_mod.SPLIT_NAMES.items())}
    print(f"split sizes (seed {cfg.seed}): " + " ".join(f"{k}={v}" for k, v in sizes.items()))
    return 0


def _clear_run_outputs(out: Path, data_path) -> None:
    """Remove every file an earlier run wrote into out, so that nothing there
    can disagree with the config.ini this run writes next. That includes the
    temporary files (atomic.atomic_open) of a run killed before it could
    remove them, such as the tables it had open. The dataset file given with
    --data stays."""
    stale = list((out / "report").glob("*.svg"))
    for name in (sweep.RESULTS_NAME, sweep.CLASSIFICATION_NAME, "dataset.dfd1"):
        stale += [out / name, *out.glob(f".{name}.*.tmp")]
    keep = Path(data_path).resolve() if data_path else None
    for path in stale:
        if path.is_file() and path.resolve() != keep:
            path.unlink()


def cmd_run(args) -> int:
    """Run the plan and write its tables and report into OUT.

    The plan yields each method's result in plan order as soon as it and
    every earlier one have finished (sweep.run_plan); its rows go straight
    into results.csv and classification.csv, which stay temporary files
    until the plan ends, so an interrupted or failed run leaves neither.
    Only the report's three plotted columns (report.Figures) and the
    failure lines outlive a result, not its rows.
    """
    cfg = _load_run_config(args)
    data_path = args.data
    if data_path is not None:
        if not Path(data_path).is_file():
            raise UsageError(f"{data_path}: no such dataset file")
        ds = data_mod.read_dataset(data_path)
        # the file's own image shape, not the generator's, bounds the blur levels
        cfg.corruption.check_images(ds.spatial_shape, str(data_path))
    else:
        ds = sweep.prepare_dataset(cfg)
    # a dataset no task can use (labels that are not 0/1, a class too small
    # to split) stops the run here, before it writes anything; each process
    # that runs tasks builds its own data from the dataset file
    data_mod.split(ds, child_seed(cfg.seed, "split"))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _clear_run_outputs(out, data_path)
    with atomic_open(out / "config.ini", "w", encoding="utf-8") as fh:
        fh.write(emit_config(cfg))
    if data_path is None:
        data_path = out / "dataset.dfd1"
        data_mod.write_dataset(data_path, ds)
    del ds  # the tasks read the file back; keep no second copy while they train

    figures, failures, n_points, n_rows = report.Figures(), [], 0, 0
    with (
        sweep.open_tables(out) as (results, classification),
        closing(sweep.run_plan(cfg, data_path=data_path)) as plan,
    ):
        for result in plan:
            sweep.write_results_csv(results, result.points)
            sweep.write_classification_csv(classification, result.classification)
            figures.add(result.points)
            n_points += len(result.points)
            n_rows += len(result.classification)
            if result.failure is not None:
                failures.append(f"seed {result.seed_index} {result.method}: {result.failure}")
            del result  # so its rows are not held while the plan runs the next task
    try:
        report.write_report(out, figures)
    except FormatError as exc:
        # only a fully failed plan leaves nothing to plot; keep the results
        # table and the failure listing
        if not failures:
            raise
        print(f"report skipped: {exc}", file=sys.stderr)

    print(f"wrote {out / sweep.RESULTS_NAME}: {n_points} rows")
    print(f"wrote {out / sweep.CLASSIFICATION_NAME}: {n_rows} rows")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


def cmd_report(args) -> int:
    out = Path(args.out)
    results_path = Path(args.results) if args.results else out / sweep.RESULTS_NAME
    if not results_path.is_file():
        raise UsageError(f"{results_path}: no such results file")
    figures = report.Figures(sweep.read_results_csv(results_path))
    written = report.write_report(out, figures)
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_corrupt(args) -> int:
    cfg = _load_run_config(args)
    if not Path(args.data).is_file():
        raise UsageError(f"{args.data}: no such dataset file")
    out = _output_file(args.out)
    ds = data_mod.read_dataset(args.data)
    spec = data_mod.CorruptionSpec(
        kind=args.kind,
        level=args.level,
        noise_sigmas=cfg.corruption.noise_sigmas,
        blur_sigmas=cfg.corruption.blur_sigmas,
    )
    corrupted = data_mod.corrupt(ds, spec, cfg.seed)
    data_mod.write_dataset(out, corrupted)
    print(f"wrote {out}: {spec.kind} level {spec.level} (parameter {spec.parameter})")
    return 0


def _inspect_dataset(path: Path) -> None:
    ds = data_mod.read_dataset(path)
    print("kind=dataset")
    print(f"samples={ds.n_samples}")
    print(f"features={ds.n_features}")
    print(f"spatial_shape={','.join(map(str, ds.spatial_shape))}")
    print(f"positives={int(ds.labels.sum())}")
    print(f"negatives={int((1 - ds.labels).sum())}")
    print(f"feature_min={float(ds.features.min())!r}")
    print(f"feature_max={float(ds.features.max())!r}")


def _inspect_checkpoint(path: Path) -> None:
    config, params, sections = read_checkpoint(path)
    print("kind=weights")
    print(f"param_count={params.shape[0]}")
    for line in config.to_text().splitlines():
        print(f"config.{line}")
    for name in sorted(sections):
        print(f"section.{name}={sections[name].shape[0]}")


def _inspect_table(path: Path, kind: str, read) -> None:
    records = read(path)
    methods = sorted({r.method for r in records})
    conditions = sorted({sweep.Condition(r.condition, r.level).label for r in records})
    seeds = sorted({r.seed for r in records})
    print(f"kind={kind}")
    print(f"rows={len(records)}")
    print(f"methods={','.join(methods)}")
    print(f"conditions={','.join(conditions)}")
    print(f"seeds={','.join(map(str, seeds))}")
    failed = sum(1 for r in records if r.status.startswith("failed"))
    print(f"failed_rows={failed}")


# kind -> (header columns, reader) of each table inspect describes
_TABLES = {
    "results": (sweep.RESULTS_COLUMNS, sweep.read_results_csv),
    "classification": (sweep.CLASSIFICATION_COLUMNS, sweep.read_classification_csv),
}


def cmd_inspect(args) -> int:
    path = Path(args.path)
    if path.is_dir():
        raise UsageError(f"{path}: is a directory; inspect reads files")
    if not path.exists():
        raise UsageError(f"{path}: no such file")
    with open(path, "rb") as fh:
        head = fh.readline(1024)  # a magic number or a table's header line
    if head.startswith(b"DFD1"):
        _inspect_dataset(path)
        return 0
    if head.startswith(b"DFB1"):
        _inspect_checkpoint(path)
        return 0
    for kind, (columns, read) in _TABLES.items():
        if head.rstrip(b"\r\n") == ",".join(columns).encode():
            _inspect_table(path, kind, read)
            return 0
    raise FormatError(
        f"{path}: not a format inspect reads (a DFD1 dataset, a DFB1 weight file, "
        "or a results or classification table)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deferbench",
        description="Benchmark learned and uncertainty-thresholded deferral strategies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, jobs=False):
        p.add_argument("--config", metavar="PATH", help="INI configuration file")
        p.add_argument("--seed", type=int, metavar="N", help="root seed override")
        if jobs:
            p.add_argument("--jobs", type=int, metavar="N", help="parallel worker processes")

    p = sub.add_parser("generate", help="write a synthetic dataset file")
    add_common(p)
    p.add_argument("--out", required=True, metavar="FILE", help="dataset file to write")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run", help="run the full benchmark")
    add_common(p, jobs=True)
    p.add_argument("--out", required=True, metavar="DIR", help="output directory")
    p.add_argument("--data", metavar="FILE", help="existing dataset file (default: generate)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="render SVG reports from a results table")
    p.add_argument("--out", required=True, metavar="DIR", help="directory for report/")
    p.add_argument("--results", metavar="FILE", help="results table (default: OUT/results.csv)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("corrupt", help="corrupt a dataset file")
    add_common(p)
    p.add_argument("--data", required=True, metavar="FILE", help="dataset file to corrupt")
    p.add_argument("--out", required=True, metavar="FILE", help="corrupted dataset to write")
    p.add_argument("--kind", required=True, choices=("noise", "blur"))
    p.add_argument("--level", required=True, type=int, metavar="N")
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("inspect", help="describe a dataset, weight, results or classification file")
    p.add_argument("path", metavar="PATH")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DeferBenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
