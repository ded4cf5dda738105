"""Command-line interface for the causality decoding pipeline.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from . import gridio, pipeline
from .causality import tf_cgc_map
from .errors import ConfigError, DataError, NumericError
from .images import CausalityImage, export_image

log = logging.getLogger("tfcgc")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


def _schema(*tables):
    """section -> config key -> (table, field, item of a per-item key or None),
    from the ``_key`` metadata of the tables' fields."""
    schema: dict[str, dict] = {}
    for table in tables:
        for f in dataclasses.fields(table):
            if "section" in f.metadata:
                keys = f.metadata["keys"]
                for item, key in enumerate(keys or [f.name]):
                    section = schema.setdefault(f.metadata["section"], {})
                    section[key] = (table, f, item if keys else None)
    return schema


_TABLES = (pipeline.RunConfig, pipeline.SynthSpec)
_SCHEMA = _schema(*_TABLES)


def _read_config_file(path) -> dict:
    """{table: {field: value}} for the keys a config file (if any) sets; a
    per-item key (``band_low``) replaces its item of the field's default."""
    values: dict = {table: {} for table in _TABLES}
    if not path:
        return values
    parser = configparser.ConfigParser()
    try:
        read = parser.read([str(path)])
    except configparser.Error as exc:  # its text names the file and line
        detail = " ".join(str(exc).split())
        raise ConfigError(f"malformed config file: {detail}") from exc
    if not read:
        raise DataError(f"cannot read config file: {path}")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            table, f, item = _SCHEMA[section][key]
            try:
                value = f.metadata["parse"](raw)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for {section}.{key}: {raw!r} ({exc})"
                ) from exc
            if item is not None:
                items = list(values[table].get(f.name, f.default))
                items[item] = value
                value = tuple(items)
            values[table][f.name] = value
    return values


def build_run_config(args) -> pipeline.RunConfig:
    fields = _read_config_file(args.config)[pipeline.RunConfig]
    flags = dict(seed=args.seed, threads=args.threads, out_dir=args.out,
                 manifest=getattr(args, "manifest", None))
    fields.update((name, value) for name, value in flags.items() if value is not None)
    return pipeline.RunConfig(**fields)


def _cmd_synth(args) -> int:
    seed = args.seed if args.seed is not None else 0
    if seed < 0:
        raise ConfigError(f"--seed must be at least 0, got {seed}")
    out = args.out or "synth_data"
    spec = pipeline.SynthSpec(**_read_config_file(args.config)[pipeline.SynthSpec])
    samples = spec.sampling_rate * spec.trial_seconds
    if not np.isfinite(samples):
        raise ConfigError(
            f"[synth] trial_seconds {spec.trial_seconds:g} at sampling_rate "
            f"{spec.sampling_rate:g} makes trials of {samples:g} samples"
        )
    samples = round(samples)
    if samples <= pipeline.BANDPASS_PAD:  # no other command could read them
        raise ConfigError(
            f"[synth] trial_seconds {spec.trial_seconds:g} at sampling_rate "
            f"{spec.sampling_rate:g} makes trials of {samples} samples, the "
            f"band-pass needs at least {pipeline.BANDPASS_PAD + 1}"
        )
    sets = [
        pipeline.synth_generate(dataclasses.replace(spec, split=split), seed=seed + i)
        for i, split in enumerate(("train", "test"))
    ]
    merged = dataclasses.replace(sets[0], trials=sets[0].trials + sets[1].trials)
    manifest = pipeline.save_trials(merged, out)
    log.info("wrote %d trials to %s", len(merged), manifest)
    print(manifest)
    return EXIT_OK


def _cmd_causality(args) -> int:
    config = build_run_config(args)
    if args.source == args.sink:
        raise ConfigError(f"--source and --sink must differ, both are {args.sink}")
    if not 0 < args.fs < np.inf:  # NaN too
        raise ConfigError(f"--fs must be finite and positive, got {args.fs:g}")
    config.cgc_config().freq_grid(args.fs)
    data, names = pipeline._load_trial_csv(args.trial)
    electrodes = list(config.electrodes)
    missing = [e for e in electrodes if e not in names]
    if missing:
        raise DataError(f"channels missing from trial: {missing}")
    sel = [names.index(e) for e in electrodes]
    signals = data[sel]
    if args.source not in electrodes or args.sink not in electrodes:
        raise DataError("source/sink must be configured electrodes")
    src = electrodes.index(args.source)
    snk = electrodes.index(args.sink)
    conditioning = [i for i in range(len(electrodes)) if i not in (src, snk)]
    cgc_map = tf_cgc_map(
        signals, src, snk, conditioning, args.fs, config.cgc_config()
    )
    out = args.out or f"cgc_{args.source}_to_{args.sink}.grid"
    gridio.write_grid(
        out,
        {"values": cgc_map.values},
        axes={"time": cgc_map.time_axis, "freq": cgc_map.freq_axis},
        meta={
            "source": args.source,
            "sink": args.sink,
            "sampling_rate": args.fs,
        },
    )
    log.info("map %s -> %s: %s", args.source, args.sink, cgc_map.values.shape)
    print(out)
    return EXIT_OK


def _band_passed(config, split=None) -> pipeline.TrialSet:
    """The manifest's trials (of ``split`` only, if given), band-passed."""
    trials = pipeline.load_trials(config.manifest)
    return pipeline.bandpass(trials.subset(split) if split else trials, *config.band)


def _cmd_image(args) -> int:
    config = build_run_config(args)
    filtered = _band_passed(config)
    images, labels, ids, groups = pipeline.trial_images(filtered, config)
    out = args.out or "images"
    os.makedirs(out, exist_ok=True)
    gridio.write_grid(
        os.path.join(out, "images.grid"),
        {"images": images, "labels": labels.astype(float)},
        meta={"trial_ids": ids},
    )
    for tid, rows in zip(ids, groups):
        for j, row in enumerate(rows):
            export_image(
                CausalityImage(images[row]),
                os.path.join(out, f"{tid}_crop{j}.pgm"),
            )
    print(os.path.join(out, "images.grid"))
    return EXIT_OK


def _cmd_train(args) -> int:
    config = build_run_config(args)
    ensemble, _, _ = pipeline.decode(config, _band_passed(config, "train"))
    out = args.out or "model"
    os.makedirs(out, exist_ok=True)
    manifest = gridio.save_ensemble(os.path.join(out, "model"), ensemble)
    print(manifest)
    return EXIT_OK


def _cmd_eval(args) -> int:
    config = build_run_config(args)
    ensemble = gridio.load_ensemble(args.model)
    test_set = _band_passed(config, "test")
    _, report, _ = pipeline.decode(config, test_set, ensemble, args.model)
    text = json.dumps(report["evaluation"], indent=2, sort_keys=True)
    if args.out:
        gridio.atomic_write(args.out, (text + "\n").encode())
    print(text)
    return EXIT_OK


def _cmd_run(args) -> int:
    config = build_run_config(args)
    report = pipeline.run_pipeline(config)
    if "evaluation" in report:
        ev = report["evaluation"]
        print(f"accuracy: {ev['accuracy']!r} %  kappa: {ev['kappa']!r}")
    else:
        print("training-only run complete")
    return EXIT_OK


def _cmd_gridsearch(args) -> int:
    if args.folds < 2:  # fewer folds leave no split to validate on
        raise ConfigError(f"--folds must be at least 2, got {args.folds}")
    config = build_run_config(args)
    arrays, _, _ = gridio.read_grid(args.images)
    missing = [name for name in ("images", "labels") if name not in arrays]
    if missing:
        raise DataError(f"{args.images}: no {missing[0]!r} array")
    labels = arrays["labels"].astype(int)
    results = pipeline.gridsearch(
        arrays["images"], labels, folds=args.folds, seed=config.seed
    )
    lines = ["temporal_kernel,first_block_filters,block_count,mean_accuracy,folds"]
    for row in results:
        lines.append(
            f"{row['temporal_kernel']},{row['first_block_filters']},"
            f"{row['block_count']},{row['mean_accuracy']!r},{row['folds']}"
        )
    text = "\n".join(lines)
    if args.out:
        gridio.atomic_write(args.out, (text + "\n").encode())
    print(text)
    return EXIT_OK


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfcgc",
        description="Causality-image decoding of two-class motor imagery",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key-value config file")
        p.add_argument("--seed", type=int, help="master random seed")
        p.add_argument("--out", help="output file or directory")
        p.add_argument("--threads", type=int, help="parallel worker count")
        p.add_argument("--verbose", action="store_true")
        p.set_defaults(func=func)
        return p

    command("synth", _cmd_synth, "generate a synthetic two-class fixture")
    p = command("causality", _cmd_causality, "map one directed pair of a trial")
    p.add_argument("--trial", required=True, help="trial CSV file")
    p.add_argument("--source", required=True)
    p.add_argument("--sink", required=True)
    p.add_argument("--fs", type=float, default=250.0)
    p = command("image", _cmd_image, "build and export causality images")
    p.add_argument("--manifest", required=True)
    p = command("train", _cmd_train, "train the boosted classifier")
    p.add_argument("--manifest", required=True)
    p = command("eval", _cmd_eval, "evaluate a saved ensemble")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True, help="ensemble manifest JSON")
    p = command("run", _cmd_run, "full pipeline: train and evaluate")
    p.add_argument("--manifest")
    p = command("gridsearch", _cmd_gridsearch, "cross-validated architecture search")
    p.add_argument("--images", required=True, help="images.grid from `image`")
    p.add_argument("--folds", type=int, default=10)
    return parser


def _message(exc: BaseException) -> str:
    """The error text after the notes that locate it (trial and crop)."""
    return ": ".join([*getattr(exc, "__notes__", ()), str(exc)])


def main(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {_message(exc)}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"data error: {_message(exc)}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numeric failure: {_message(exc)}", file=sys.stderr)
        return EXIT_NUMERIC

if __name__ == "__main__":
    sys.exit(main())
