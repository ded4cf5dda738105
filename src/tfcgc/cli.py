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

from . import boosting, convnet, gridio, pipeline
from .causality import (
    ConditioningError,
    DegenerateSpectrumError,
    DegenerateVarianceError,
    LevelUnachievableError,
    tf_cgc_map,
)
from .identify import EmptyModelError
from .images import CausalityImage, InvalidCropError, export_image
from .pipeline import ConfigError

log = logging.getLogger("tfcgc")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

NUMERIC_ERRORS = (
    EmptyModelError,
    ConditioningError,
    DegenerateVarianceError,
    DegenerateSpectrumError,
    LevelUnachievableError,
    np.linalg.LinAlgError,
    FloatingPointError,
)


#: config file schema: section -> key -> (RunConfig/SynthSpec field, parser)
def _tuple_of(kind):
    def parse(text):
        return tuple(kind(tok.strip()) for tok in text.split(",") if tok.strip())

    return parse


def _bool(text):
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text}")


_RUN_SCHEMA = {
    "data": {
        "manifest": ("manifest", str),
        "band_low": (("band", 0), float),
        "band_high": (("band", 1), float),
        "electrodes": ("electrodes", _tuple_of(str)),
        "crop_seconds": ("crop_seconds", float),
        "stride_seconds": ("stride_seconds", float),
    },
    "causality": {
        "orders": ("orders", _tuple_of(int)),
        "scale": ("scale", int),
        "lags": ("lags", int),
        "forgetting": ("forgetting", float),
        "init_window": ("init_window", int),
        "regularization": ("regularization", float),
        "time_decimation": ("time_decimation", int),
    },
    "classifier": {
        "temporal_kernel": ("temporal_kernel", int),
        "first_block_filters": ("first_block_filters", int),
        "block_count": ("block_count", int),
        "batch_size": ("batch_size", int),
        "max_epochs": ("max_epochs", int),
        "early_stop_patience": ("early_stop_patience", int),
        "chi": ("chi", int),
    },
    "run": {
        "seed": ("seed", int),
        "threads": ("threads", int),
        "out_dir": ("out_dir", str),
        "export_graymaps": ("export_graymaps", _bool),
    },
}

_SYNTH_SCHEMA = {
    "synth": {
        "sampling_rate": ("sampling_rate", float),
        "trial_seconds": ("trial_seconds", float),
        "trials_per_class": ("trials_per_class", int),
        "test_trials_per_class": (None, int),  # handled by the synth command
        "coupling": ("coupling", float),
        "window_low": (("window", 0), float),
        "window_high": (("window", 1), float),
        "oscillation_freq": ("oscillation_freq", float),
        "pole_radius": ("pole_radius", float),
        "noise_scale": ("noise_scale", float),
    }
}


def _read_config_file(path):
    parser = configparser.ConfigParser()
    try:
        read = parser.read([str(path)])
    except configparser.Error as exc:  # its text names the file and line
        detail = " ".join(str(exc).split())
        raise ConfigError(f"malformed config file: {detail}") from exc
    if not read:
        raise pipeline.DataError(f"cannot read config file: {path}")
    known = {**_RUN_SCHEMA, **_SYNTH_SCHEMA}
    values: dict[str, dict[str, object]] = {}
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"unknown config section [{section}]")
        values[section] = {}
        for key, raw in parser.items(section):
            if key not in known[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            _, parse = known[section][key]
            try:
                values[section][key] = parse(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for {section}.{key}: {raw!r} ({exc})"
                ) from exc
    return values


def _apply_schema(values, schema, defaults):
    """Overlay parsed config values onto a dataclass's field dict."""
    fields = dict(defaults)
    for section, keys in schema.items():
        for key, parsed in values.get(section, {}).items():
            target = schema[section][key][0]
            if target is None:
                continue
            if isinstance(target, tuple):
                name, pos = target
                current = list(fields[name])
                current[pos] = parsed
                fields[name] = tuple(current)
            else:
                fields[target] = parsed
    return fields


def build_run_config(args) -> pipeline.RunConfig:
    values = _read_config_file(args.config) if args.config else {}
    fields = _apply_schema(
        values, _RUN_SCHEMA, dataclasses.asdict(pipeline.RunConfig())
    )
    if args.seed is not None:
        fields["seed"] = args.seed
    if args.threads is not None:
        fields["threads"] = args.threads
    if args.out is not None:
        fields["out_dir"] = args.out
    if getattr(args, "manifest", None):
        fields["manifest"] = args.manifest
    fields["band"] = tuple(fields["band"])
    fields["electrodes"] = tuple(fields["electrodes"])
    fields["orders"] = tuple(fields["orders"])
    return pipeline.RunConfig(**fields)


def build_synth_spec(args, split: str) -> pipeline.SynthSpec:
    values = _read_config_file(args.config) if args.config else {}
    fields = _apply_schema(
        values, _SYNTH_SCHEMA, dataclasses.asdict(pipeline.SynthSpec())
    )
    fields["channel_names"] = tuple(fields["channel_names"])
    fields["window"] = tuple(fields["window"])
    fields["split"] = split
    if split == "test":
        n_test = values.get("synth", {}).get("test_trials_per_class")
        if n_test is not None:
            fields["trials_per_class"] = n_test
    return pipeline.SynthSpec(**fields)


def _cmd_synth(args) -> int:
    seed = args.seed if args.seed is not None else 0
    out = args.out or "synth_data"
    sets = []
    for i, split in enumerate(("train", "test")):
        spec = build_synth_spec(args, split)
        sets.append(pipeline.synth_generate(spec, seed=seed + i))
    merged = pipeline.TrialSet(
        sets[0].trials + sets[1].trials,
        sets[0].channel_names,
        sets[0].sampling_rate,
        sets[0].metadata,
    )
    manifest = pipeline.save_trials(merged, out)
    log.info("wrote %d trials to %s", len(merged), manifest)
    print(manifest)
    return EXIT_OK


def _cmd_causality(args) -> int:
    config = build_run_config(args)
    if args.source == args.sink:
        raise ConfigError(f"--source and --sink must differ, both are {args.sink}")
    pipeline.check_frequency_grid(config, args.fs)
    data, names = pipeline._load_trial_csv(args.trial)
    electrodes = list(config.electrodes)
    missing = [e for e in electrodes if e not in names]
    if missing:
        raise pipeline.DataError(f"channels missing from trial: {missing}")
    sel = [names.index(e) for e in electrodes]
    signals = data[sel]
    if args.source not in electrodes or args.sink not in electrodes:
        raise pipeline.DataError("source/sink must be configured electrodes")
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
            "config": gridio.config_hash(config),
        },
    )
    log.info("map %s -> %s: %s", args.source, args.sink, cgc_map.values.shape)
    print(out)
    return EXIT_OK


def _cmd_image(args) -> int:
    config = build_run_config(args)
    trial_set = pipeline.load_trials(config.manifest)
    filtered = pipeline.bandpass(trial_set, *config.band)
    images, labels, ids, groups = pipeline.trial_images(filtered, config)
    out = args.out or "images"
    os.makedirs(out, exist_ok=True)
    gridio.write_grid(
        os.path.join(out, "images.grid"),
        {"images": images, "labels": labels.astype(float)},
        meta={"trial_ids": ids, "config": gridio.config_hash(config)},
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
    trial_set = pipeline.load_trials(config.manifest)
    filtered = pipeline.bandpass(trial_set, *config.band).subset("train")
    if len(filtered) == 0:
        raise pipeline.DataError("no training trials in manifest")
    pipeline.check_architecture(config, filtered.sampling_rate)
    images, labels, _, _ = pipeline.trial_images(filtered, config)
    ensemble = boosting.adaboost_train(
        images,
        labels,
        chi=config.chi,
        base_config=config.convnet_config(),
        seed=config.seed,
    )
    out = args.out or "model"
    os.makedirs(out, exist_ok=True)
    manifest = gridio.save_ensemble(os.path.join(out, "model"), ensemble)
    print(manifest)
    return EXIT_OK


def _cmd_eval(args) -> int:
    config = build_run_config(args)
    ensemble = gridio.load_ensemble(args.model)
    trial_set = pipeline.load_trials(config.manifest)
    filtered = pipeline.bandpass(trial_set, *config.band).subset("test")
    if len(filtered) == 0:
        raise pipeline.DataError("no test trials in manifest")
    pipeline.check_crop_parity(filtered, config)
    images, _, _, groups = pipeline.trial_images(filtered, config)
    payload = pipeline.evaluation_report(ensemble, images, groups, filtered.trials)
    text = json.dumps(payload, indent=2, sort_keys=True)
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
    config = build_run_config(args)
    arrays, _, _ = gridio.read_grid(args.images)
    images = arrays["images"]
    labels = arrays["labels"].astype(int)
    results = pipeline.gridsearch(
        images, labels, folds=args.folds, seed=config.seed
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

    def common(p):
        p.add_argument("--config", help="key-value config file")
        p.add_argument("--seed", type=int, help="master random seed")
        p.add_argument("--out", help="output file or directory")
        p.add_argument("--threads", type=int, help="parallel worker count")
        p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("synth", help="generate a synthetic two-class fixture")
    common(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("causality", help="map one directed pair of a trial")
    common(p)
    p.add_argument("--trial", required=True, help="trial CSV file")
    p.add_argument("--source", required=True)
    p.add_argument("--sink", required=True)
    p.add_argument("--fs", type=float, default=250.0)
    p.set_defaults(func=_cmd_causality)

    p = sub.add_parser("image", help="build and export causality images")
    common(p)
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=_cmd_image)

    p = sub.add_parser("train", help="train the boosted classifier")
    common(p)
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved ensemble")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True, help="ensemble manifest JSON")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("run", help="full pipeline: train and evaluate")
    common(p)
    p.add_argument("--manifest")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("gridsearch", help="cross-validated architecture search")
    common(p)
    p.add_argument("--images", required=True, help="images.grid from `image`")
    p.add_argument("--folds", type=int, default=10)
    p.set_defaults(func=_cmd_gridsearch)
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
    except (ConfigError, pipeline.InstabilityError, convnet.ArchitectureError) as exc:
        print(f"error: {_message(exc)}", file=sys.stderr)
        return EXIT_USAGE
    except (pipeline.DataError, InvalidCropError, gridio.FormatError, OSError) as exc:
        print(f"data error: {_message(exc)}", file=sys.stderr)
        return EXIT_DATA
    except NUMERIC_ERRORS as exc:
        print(f"numeric failure: {_message(exc)}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
