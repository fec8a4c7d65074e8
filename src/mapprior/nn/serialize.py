"""Weights file: JSON manifest + contiguous little-endian float32 blob.

Layout: 8-byte magic, uint32 little-endian header length, UTF-8 JSON header
{"format_version", "layers": [{"name", "shape"}...], "meta": {...}}, then the
raw float32 data of every layer in listed order.  Round trips are bit-exact.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .tensor import Tensor

MAGIC = b"LMPW0001"
FORMAT_VERSION = 1


class WeightsFormatError(ValueError):
    pass


def save_weights(path, params: dict, meta: dict | None = None) -> None:
    layers = []
    blobs = []
    for name, p in params.items():
        arr = p.data if isinstance(p, Tensor) else np.asarray(p)
        arr = np.ascontiguousarray(arr, dtype="<f4")
        layers.append({"name": name, "shape": list(arr.shape)})
        blobs.append(arr.tobytes())
    header = json.dumps({
        "format_version": FORMAT_VERSION,
        "layers": layers,
        "meta": meta or {},
    }, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def _is_layer(layer) -> bool:
    return (isinstance(layer, dict) and isinstance(layer.get("name"), str)
            and isinstance(layer.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in layer["shape"]))


def load_weights(path) -> tuple[dict[str, np.ndarray], dict]:
    raw = Path(path).read_bytes()
    if raw[:8] != MAGIC:
        raise WeightsFormatError(f"{path}: bad magic (not a weights file)")
    if len(raw) < 12:
        raise WeightsFormatError(f"{path}: truncated header")
    (header_len,) = struct.unpack("<I", raw[8:12])
    if 12 + header_len > len(raw):
        raise WeightsFormatError(
            f"{path}: header length {header_len} runs past the end of the file")
    try:
        header = json.loads(raw[12 : 12 + header_len].decode())
    except ValueError as exc:
        raise WeightsFormatError(f"{path}: unreadable header: {exc}") from None
    if not isinstance(header, dict):
        raise WeightsFormatError(f"{path}: header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise WeightsFormatError(
            f"{path}: unsupported format version {header.get('format_version')}")
    if not (isinstance(header.get("layers"), list)
            and all(_is_layer(layer) for layer in header["layers"])):
        raise WeightsFormatError(f"{path}: header needs a list of layers, each with "
                                 "a string name and a shape of non-negative ints")
    if not isinstance(header.get("meta", {}), dict):
        raise WeightsFormatError(f"{path}: header meta is not a JSON object")
    params: dict[str, np.ndarray] = {}
    offset = 12 + header_len
    for layer in header["layers"]:
        shape = tuple(layer["shape"])
        count = int(np.prod(shape)) if shape else 1
        end = offset + 4 * count
        if end > len(raw):
            raise WeightsFormatError(f"{path}: truncated blob at layer {layer['name']}")
        arr = np.frombuffer(raw[offset:end], dtype="<f4").reshape(shape)
        params[layer["name"]] = arr.astype(np.float32)
        offset = end
    if offset != len(raw):
        raise WeightsFormatError(f"{path}: {len(raw) - offset} trailing bytes")
    return params, header.get("meta", {})
