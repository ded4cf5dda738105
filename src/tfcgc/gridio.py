"""Serialization: binary grids, model checkpoints, and ensemble manifests.

Grid files hold one or more named real matrices with their axes in a
versioned binary layout (JSON header + row-major 64-bit payload) so
causality maps and images reload bit-exactly. Checkpoints store a config
block plus named parameter tensors with explicit shapes. All writers go
through a write-temp-then-rename step so readers never observe partial
files.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import sys
import tempfile

import numpy as np

from .errors import DataError

GRID_MAGIC = b"TFCGRID1"
CHECKPOINT_MAGIC = b"TFCCKPT1"


def atomic_write(path, data: bytes) -> None:
    """Write bytes to a temp file in the target directory, then rename."""
    path = str(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-grid-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _pack(magic: bytes, header: dict, arrays: list[np.ndarray]) -> bytes:
    head = json.dumps(header, sort_keys=True).encode()
    parts = [magic, struct.pack("<Q", len(head)), head]
    for arr in arrays:
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return b"".join(parts)


def _unpack(magic: bytes, kind: str, path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a file written by ``_pack``: its header and its named arrays.
    Any departure from that layout, or a version other than 1, is a
    DataError naming the file."""
    with open(str(path), "rb") as fh:
        data = fh.read()
    if data[: len(magic)] != magic:
        raise DataError(f"{path}: bad magic, expected {magic!r}")
    off = len(magic) + 8
    if len(data) < off:
        raise DataError(f"{path}: {len(data)} bytes, too short for a {kind} header")
    (hlen,) = struct.unpack_from("<Q", data, len(magic))
    if hlen > len(data) - off:
        raise DataError(f"{path}: {kind} header of {hlen} bytes runs past the file")
    try:
        header = json.loads(data[off : off + hlen].decode())
    except ValueError as exc:  # not UTF-8, or not JSON
        raise DataError(f"{path}: {kind} header is not JSON ({exc})") from exc
    entries = header.get("entries") if isinstance(header, dict) else None
    if not isinstance(entries, list):
        raise DataError(
            f"{path}: {kind} header is not an object with a list of entries"
        )
    for entry in entries:
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(type(d) is int and d >= 0 for d in entry["shape"])
        ):
            raise DataError(
                f"{path}: {kind} entry {entry!r} needs a name and a shape of "
                "non-negative integers"
            )
    off += hlen
    sizes = [8 * math.prod(entry["shape"]) for entry in entries]
    if len(data) - off != sum(sizes):
        problem = "truncated" if len(data) - off < sum(sizes) else "oversized"
        raise DataError(
            f"{path}: {problem} {kind} payload, {len(data) - off} bytes where the "
            f"header declares {sum(sizes)}"
        )
    if header.get("version") != 1:
        raise DataError(f"{path}: unsupported {kind} version {header.get('version')}")
    arrays = {}
    for entry, size in zip(entries, sizes):
        arr = np.frombuffer(data, dtype="<f8", count=size // 8, offset=off)
        arrays[entry["name"]] = arr.reshape(entry["shape"]).copy()
        off += size
    return header, arrays


def write_grid(path, arrays: dict[str, np.ndarray], axes=None, meta=None) -> None:
    """Write named float64 matrices plus their axes and metadata."""
    axes = {k: np.asarray(v, float).tolist() for k, v in (axes or {}).items()}
    entries = []
    payload = []
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype=float)
        entries.append({"name": name, "shape": list(arr.shape)})
        payload.append(arr)
    header = {
        "kind": "grid",
        "version": 1,
        "entries": entries,
        "axes": axes,
        "meta": meta or {},
    }
    atomic_write(path, _pack(GRID_MAGIC, header, payload))


def read_grid(path) -> tuple[dict[str, np.ndarray], dict, dict]:
    """Read back (arrays, axes, meta) from a grid file."""
    header, arrays = _unpack(GRID_MAGIC, "grid", path)
    axes = {k: np.asarray(v) for k, v in header.get("axes", {}).items()}
    return arrays, axes, header.get("meta", {})


def save_checkpoint(path, config, tensors: dict[str, np.ndarray], extra=None) -> None:
    """Versioned model checkpoint: config block (a dict) plus named tensors."""
    names = sorted(tensors)
    entries = [
        {"name": n, "shape": list(np.asarray(tensors[n]).shape)} for n in names
    ]
    header = {
        "kind": "checkpoint",
        "version": 1,
        "config": config,
        "entries": entries,
        "extra": extra or {},
    }
    payload = [np.asarray(tensors[n], float) for n in names]
    atomic_write(path, _pack(CHECKPOINT_MAGIC, header, payload))


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray], dict]:
    """Read back (config, tensors, extra) from a checkpoint file."""
    header, tensors = _unpack(CHECKPOINT_MAGIC, "checkpoint", path)
    config, extra = header.get("config"), header.get("extra", {})
    if not isinstance(config, dict) or not isinstance(extra, dict):
        raise DataError(f"{path}: checkpoint config and extra must be objects")
    return config, tensors, extra


def save_convnet(path, model) -> None:
    """Checkpoint a convolutional model (parameters + running stats)."""
    tensors = dict(model.params)
    tensors.update({f"running:{k}": v for k, v in model.running.items()})
    save_checkpoint(
        path,
        dataclasses.asdict(model.config),
        tensors,
        extra={"input_shape": list(model.input_shape), "history": model.history},
    )


def load_convnet(path):
    """A convolutional model from its checkpoint; the config must build a
    network and every tensor of that network must be stored, in its shape
    and finite."""
    from . import convnet

    config_block, tensors, extra = load_checkpoint(path)
    try:
        config = convnet.ConvNetConfig(**config_block)
        model = convnet.build_convnet(config, tuple(extra["input_shape"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(
            f"{path}: checkpoint does not build a network ({exc!r})"
        ) from exc
    for store, prefix in ((model.params, ""), (model.running, "running:")):
        for key, initial in store.items():
            name = prefix + key
            if name not in tensors:
                raise DataError(f"{path}: checkpoint has no tensor {name!r}")
            if tensors[name].shape != initial.shape:
                raise DataError(
                    f"{path}: tensor {name!r} has shape {tensors[name].shape}, "
                    f"the network needs {initial.shape}"
                )
            if not np.all(np.isfinite(tensors[name])):
                raise DataError(f"{path}: tensor {name!r} holds NaN or infinity")
            store[key] = tensors[name]
    model.history = extra.get("history", [])
    return model


def save_ensemble(path_prefix, ensemble) -> str:
    """Write an ensemble manifest plus one checkpoint per member.

    Returns the manifest path. Member files live next to the manifest as
    ``<prefix>.member<j>.ckpt``.
    """
    path_prefix = str(path_prefix)
    manifest = {
        "kind": "ensemble",
        "version": 1,
        "best_joint": ensemble.best_joint,
        "validation_accuracy": ensemble.validation_accuracy,
        "n_train": ensemble.n_train,
        "n_val": ensemble.n_val,
        "members": [],
    }
    for j, member in enumerate(ensemble.members, start=1):
        member_path = f"{path_prefix}.member{j}.ckpt"
        save_convnet(member_path, member.model)
        manifest["members"].append(
            {
                "file": os.path.basename(member_path),
                "weight": member.weight,
                "weighted_error": member.weighted_error,
            }
        )
    manifest_path = path_prefix + ".ensemble.json"
    atomic_write(manifest_path, json.dumps(manifest, indent=2).encode())
    return manifest_path


def load_ensemble(manifest_path):
    from .boosting import BoostEnsemble, BoostMember

    manifest_path = str(manifest_path)
    try:
        with open(manifest_path, encoding="ascii") as fh:
            manifest = json.load(fh)
    except ValueError as exc:  # not JSON, or not ASCII
        raise DataError(f"{manifest_path}: not a JSON file ({exc})") from exc
    if (
        not isinstance(manifest, dict)
        or manifest.get("kind") != "ensemble"
        or manifest.get("version") != 1
    ):
        raise DataError(f"{manifest_path}: not a version-1 ensemble manifest")
    try:
        entries = [(e["file"], e["weight"], e["weighted_error"]) for e in manifest["members"]]
        fields = {k: manifest[k] for k in ("best_joint", "validation_accuracy", "n_train", "n_val")}
    except KeyError as exc:
        raise DataError(f"{manifest_path}: ensemble manifest has no {exc} field") from exc
    except TypeError as exc:
        raise DataError(f"{manifest_path}: malformed ensemble manifest ({exc})") from exc
    best = fields["best_joint"]
    if type(best) is not int or not 1 <= best <= len(entries):
        raise DataError(
            f"{manifest_path}: best_joint must be an integer in "
            f"[1, {len(entries)}], the member count, got {best!r}"
        )
    for file, weight, _ in entries:
        if type(weight) not in (int, float) or not abs(weight) <= sys.float_info.max:
            raise DataError(
                f"{manifest_path}: member {file} weight must be a finite number, "
                f"got {weight!r}"
            )
    directory = os.path.dirname(manifest_path) or "."
    paths = [os.path.join(directory, str(file)) for file, _, _ in entries]
    for path in paths:
        if not os.path.isfile(path):
            raise DataError(f"{manifest_path}: no member checkpoint {path}")
    members = [
        BoostMember(load_convnet(path), weight, error)
        for path, (_, weight, error) in zip(paths, entries)
    ]
    return BoostEnsemble(members=members, sample_weight_history=[], **fields)
