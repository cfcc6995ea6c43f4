"""On-disk formats: ATRF field files, PGM exports, key=value run configs.

ATRF layout: magic "ATRF", u32 little-endian format version (1), u8 kind
(0=scalar, 1=displacement, 2=labels), u32 width, u32 height, then the payload:
row-major 64-bit little-endian reals for scalar fields, the ux plane followed
by the uy plane for displacements, and one byte per pixel for labels.
Round-trips are bit-exact.
"""

from __future__ import annotations

import struct
import typing
from dataclasses import dataclass

import numpy as np

from .biomech import CONVENTION_JACOBIAN, CONVENTION_PAPER, EnergyParams
from .errors import (
    BadMagic,
    ConfigError,
    IoFailure,
    ShapeMismatch,
    TruncatedPayload,
    UnsupportedVersion,
)
from .fields import DisplacementField, LabelField, ScalarField
from .solver import SolveOptions
from .training import TrainOptions

MAGIC = b"ATRF"
VERSION = 1
KIND_SCALAR, KIND_DISPLACEMENT, KIND_LABELS = 0, 1, 2

AnyField = ScalarField | DisplacementField | LabelField


def write_field(path, field: AnyField) -> None:
    if isinstance(field, ScalarField):
        kind = KIND_SCALAR
        payload = np.ascontiguousarray(field.values, dtype="<f8").tobytes()
    elif isinstance(field, DisplacementField):
        kind = KIND_DISPLACEMENT
        payload = (np.ascontiguousarray(field.ux, dtype="<f8").tobytes()
                   + np.ascontiguousarray(field.uy, dtype="<f8").tobytes())
    elif isinstance(field, LabelField):
        kind = KIND_LABELS
        payload = np.ascontiguousarray(field.labels, dtype=np.uint8).tobytes()
    else:
        raise ShapeMismatch(f"cannot serialize {type(field).__name__}")
    header = MAGIC + struct.pack("<IBII", VERSION, kind, field.width, field.height)
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(payload)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def read_field(path) -> AnyField:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    if data[:4] != MAGIC:
        raise BadMagic("not an ATRF field file")
    if len(data) < 17:
        raise TruncatedPayload("header truncated")
    version, kind, width, height = struct.unpack_from("<IBII", data, 4)
    if version != VERSION:
        raise UnsupportedVersion(f"format version {version}")
    n = width * height
    payload = data[17:]
    if kind == KIND_SCALAR:
        expected = n * 8
    elif kind == KIND_DISPLACEMENT:
        expected = 2 * n * 8
    elif kind == KIND_LABELS:
        expected = n
    else:
        raise UnsupportedVersion(f"unknown field kind {kind}")
    if len(payload) != expected:
        raise TruncatedPayload(
            f"payload is {len(payload)} bytes, expected {expected}")
    if kind == KIND_SCALAR:
        vals = np.frombuffer(payload, dtype="<f8").reshape(height, width)
        return ScalarField(vals.astype(np.float64))
    if kind == KIND_DISPLACEMENT:
        planes = np.frombuffer(payload, dtype="<f8").reshape(2, height, width)
        return DisplacementField(planes[0].astype(np.float64),
                                 planes[1].astype(np.float64))
    labels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    return LabelField(labels.copy())


def export_pgm(field: ScalarField, path, lo: float, hi: float) -> None:
    """Binary PGM (P5, maxval 255); values map by clamp((v-lo)/(hi-lo))*255,
    rounded half away from zero."""
    if lo >= hi:
        raise ValueError("need lo < hi")
    norm = np.clip((field.values - lo) / (hi - lo), 0.0, 1.0) * 255.0
    pix = np.floor(norm + 0.5).astype(np.uint8)  # norm >= 0, so this is half-away
    try:
        with open(path, "wb") as fh:
            fh.write(f"P5\n{field.width} {field.height}\n255\n".encode("ascii"))
            fh.write(pix.tobytes())
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


# ---------------------------------------------------------------------------
# Run configuration: plain UTF-8 key=value lines, '#' comments.
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Every key a config file may set; the defaults are those of the option
    dataclasses each key is passed on to."""

    convention: str = EnergyParams.convention
    mu_tissue: float = EnergyParams.mu_tissue
    mu_csf: float = EnergyParams.mu_csf
    bulk_ratio: float = EnergyParams.bulk_ratio
    lambda1: float = EnergyParams.lambda1
    lambda2: float = EnergyParams.lambda2
    learning_rate: float | None = None  # the command's options default when unset
    max_iters: int = SolveOptions.max_iters
    epochs: int = TrainOptions.epochs
    batch_size: int = TrainOptions.batch_size
    seed: int = TrainOptions.seed
    brain_only: bool = SolveOptions.brain_only


def _parse_bool(s: str) -> bool:
    return {"true": True, "false": False, "1": True, "0": False}[s.lower()]


# Each value parses with its field's type; `float | None` parses as float.
_PARSERS = {name: _parse_bool if kind is bool else (typing.get_args(kind) or (kind,))[0]
            for name, kind in typing.get_type_hints(RunConfig).items()}


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            setattr(cfg, key, _PARSERS[key](value))
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {value!r}") from exc
    if cfg.convention not in (CONVENTION_JACOBIAN, CONVENTION_PAPER):
        raise ConfigError(f"unknown convention {cfg.convention!r}")
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
