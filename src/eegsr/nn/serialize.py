"""Model and array persistence: text manifests plus raw little-endian binaries.

A saved model is a directory holding `manifest.txt` (layer specs, shapes,
dtype, seed) and `params.bin` (every parameter tensor concatenated in
declaration order). The same array-file helpers back optimizer moments in
training checkpoints.
"""
from __future__ import annotations

import configparser
from pathlib import Path

import numpy as np

from ..errors import CheckpointError
from .layers import LayerSpec, Model

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
        raise CheckpointError(f"unknown dtype code {code!r}") from None


def write_arrays(path, arrays, dtype):
    """Concatenate arrays into one raw little-endian binary file."""
    dt = _DTYPE_CODES[dtype_code(dtype)]
    with open(path, "wb") as fh:
        for a in arrays:
            fh.write(np.ascontiguousarray(a, dtype=dt).tobytes())


def read_arrays(path, shapes, dtype):
    """Read back arrays of the given shapes from a raw binary file."""
    dt = _DTYPE_CODES[dtype_code(dtype)]
    raw = np.fromfile(path, dtype=dt)
    total = sum(int(np.prod(s)) for s in shapes)
    if raw.size != total:
        raise CheckpointError(
            f"{path}: expected {total} values for declared shapes, found {raw.size}"
        )
    out = []
    offset = 0
    for s in shapes:
        n = int(np.prod(s))
        out.append(raw[offset : offset + n].reshape(s).copy())
        offset += n
    return out


def _spec_to_section(ls):
    return {
        "kind": ls.kind,
        "kernels": str(ls.kernels),
        "kernel_dims": f"{ls.kernel_dims[0]},{ls.kernel_dims[1]}",
        "stride": f"{ls.stride[0]},{ls.stride[1]}",
        "activation": ls.activation,
        "elu_alpha": repr(ls.elu_alpha),
        "dropout_rate": repr(ls.dropout_rate),
        "concat_sources": ",".join(str(s) for s in ls.concat_sources),
    }


def _spec_from_section(sec):
    def int_pair(value):
        a, b = value.split(",")
        return (int(a), int(b))

    sources = tuple(int(s) for s in sec["concat_sources"].split(",") if s != "")
    return LayerSpec(
        kind=sec["kind"],
        kernels=int(sec["kernels"]),
        kernel_dims=int_pair(sec["kernel_dims"]),
        stride=int_pair(sec["stride"]),
        activation=sec["activation"],
        elu_alpha=float(sec["elu_alpha"]),
        dropout_rate=float(sec["dropout_rate"]),
        concat_sources=sources,
    )


def save_model(directory, model, extra=None):
    """Write a model to a directory; `extra` lands in an [extra] section."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp["model"] = {
        "format_version": FORMAT_VERSION,
        "dtype": dtype_code(model.dtype),
        "seed": str(model.seed),
        "input_shape": ",".join(str(d) for d in model.input_shape),
        "layers": str(len(model.specs)),
    }
    for i, ls in enumerate(model.specs):
        cp[f"layer{i}"] = _spec_to_section(ls)
    if extra:
        cp["extra"] = {k: str(v) for k, v in extra.items()}
    with open(directory / "manifest.txt", "w") as fh:
        cp.write(fh)
    write_arrays(directory / "params.bin", [t.data for t in model.parameters()], model.dtype)


def load_model(directory):
    """Rebuild a model (and its [extra] dict) from a saved directory."""
    directory = Path(directory)
    manifest = directory / "manifest.txt"
    if not manifest.is_file():
        raise CheckpointError(f"{directory}: missing manifest.txt")
    cp = configparser.ConfigParser()
    cp.optionxform = str
    try:
        cp.read(manifest)
        head = cp["model"]
        if head["format_version"] != FORMAT_VERSION:
            raise CheckpointError(f"unsupported model format {head['format_version']!r}")
        dtype = dtype_from_code(head["dtype"])
        seed = int(head["seed"])
        input_shape = tuple(int(d) for d in head["input_shape"].split(","))
        specs = [_spec_from_section(cp[f"layer{i}"]) for i in range(int(head["layers"]))]
    except (KeyError, ValueError, configparser.Error) as exc:
        raise CheckpointError(f"{manifest}: corrupt model manifest ({exc})") from exc
    model = Model(specs, input_shape, seed=seed, dtype=dtype, init=False)
    shapes = [t.shape for t in model.parameters()]
    arrays = read_arrays(directory / "params.bin", shapes, dtype)
    model.set_parameters(arrays)
    extra = dict(cp["extra"]) if cp.has_section("extra") else {}
    return model, extra
