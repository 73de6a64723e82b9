"""Model and array persistence: text manifests plus raw little-endian binaries.

A saved model is a directory holding `manifest.txt` (layer specs, shapes,
dtype, seed) and `params.bin` (every parameter tensor concatenated in
declaration order). The manifest is INI text in the format of `eegsr.ini`,
one `[layerN]` section per `LayerSpec`, field by field. `write_arrays` and
`read_arrays` are the one writer and reader of raw binaries: model
parameters, optimizer moments in training checkpoints and epoch archives.
"""
from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

from ..errors import ParseError
from ..ini import from_section, parse_value, read, section_of, write
from .layers import LayerSpec, Model, filter_blocks

FORMAT_VERSION = "1"

_DTYPE_CODES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}


def dtype_code(dtype):
    dtype = np.dtype(dtype)
    for code, dt in _DTYPE_CODES.items():
        if dt == dtype.newbyteorder("<"):
            return code
    raise ValueError(f"unsupported dtype {dtype}; expected float32 or float64")


def dtype_from_code(code):
    try:
        return _DTYPE_CODES[code]
    except KeyError:
        raise ParseError(f"unknown dtype code {code!r}") from None


def write_arrays(path, arrays, dtype):
    """Concatenate arrays into one raw little-endian binary file, each in C order
    whatever its memory order; one that is not C-ordered, such as a
    kernel-row-ordered conv weight, is written a block of filters at a time."""
    dt = _DTYPE_CODES[dtype_code(dtype)]
    with open(path, "wb") as fh:
        for a in arrays:
            for block in [a] if a.flags.c_contiguous else filter_blocks(a):
                fh.write(np.ascontiguousarray(block, dtype=dt))


def read_arrays(path, shapes, dtype):
    """Arrays of the given shapes from a raw binary file, as views of one
    new buffer that the file is read into once its size matches the shapes,
    so that shapes declaring more than the file holds allocate nothing."""
    dt = _DTYPE_CODES[dtype_code(dtype)]
    total = sum(math.prod(s) for s in shapes)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size != total * dt.itemsize:
            found = f"{size} bytes" if size % dt.itemsize else size // dt.itemsize
            raise ParseError(f"{path}: expected {total} values for declared shapes, "
                             f"found {found}")
        raw = np.empty(total, dt)
        fh.readinto(raw)
    out = []
    offset = 0
    for s in shapes:
        n = math.prod(s)
        out.append(raw[offset : offset + n].reshape(s))
        offset += n
    return out


def save_model(directory, model, extra=None):
    """Write a model to a directory; `extra` lands in an [extra] section."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    sections = {"model": {
        "format_version": FORMAT_VERSION,
        "dtype": dtype_code(model.dtype),
        "seed": model.seed,
        "input_shape": model.input_shape,
        "layers": len(model.specs),
    }}
    sections.update((f"layer{i}", section_of(ls)) for i, ls in enumerate(model.specs))
    if extra:
        sections["extra"] = extra
    write(directory / "manifest.txt", sections)
    write_arrays(directory / "params.bin", [t.data for t in model.parameters()], model.dtype)


def load_model(directory):
    """Rebuild a model (and its [extra] dict) from a saved directory."""
    directory = Path(directory)
    manifest = directory / "manifest.txt"
    try:
        sections = read(manifest)
        head = sections["model"]
        if head["format_version"] != FORMAT_VERSION:
            raise ParseError(f"unsupported model format {head['format_version']!r}")
        dtype = dtype_from_code(head["dtype"])
        seed = int(head["seed"])
        input_shape = parse_value(tuple[int, ...], head["input_shape"])
        specs = [from_section(LayerSpec, sections[f"layer{i}"])
                 for i in range(int(head["layers"]))]
        model = Model(specs, input_shape, seed=seed, dtype=dtype, init=False)
    except (IndexError, KeyError, ValueError) as exc:
        raise ParseError(f"{manifest}: corrupt model manifest ({exc})") from exc
    shapes = [t.shape for t in model.parameters()]
    arrays = read_arrays(directory / "params.bin", shapes, dtype)
    model.set_parameters(arrays)
    return model, sections.get("extra", {})
