"""The traced run: spans around calls into each atrosim module.

Spans are recorded from the benchmark process only, by rebinding module
attributes while the traced work runs; the package itself is not changed.
atrosim modules import their collaborators by name (``from .fields import
d_dx``), so a wrapper replaces the consumer's binding
(``atrosim.gradients.d_dx``, ``atrosim.solver.loss_and_gradient``), not the
defining module's.

Work counts are computed from array shapes, not measured, and the metric
names say so (``*_computed``):

* conv FLOPs: 2·B·h·w·out·in·k² multiply-adds per layer, from
  ``network.layer_shapes`` and the batch shape; backward is the kernel
  gradient of every layer plus the input gradient of every layer but the first.
* bytes per ``loss_and_gradient`` call: the compulsory traffic of an H·W grid,
  reading ux, uy, mu and g (8 B each) and the background mask (1 B), and
  writing both gradient planes (8 B each): 49·H·W bytes.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path

import atrosim.network as network

STENCILS = ("fields.d_dx", "fields.d_dy", "fields.d_dx_adjoint", "fields.d_dy_adjoint")
LOSS_BYTES_PER_PIXEL = 4 * 8 + 1 + 2 * 8


def conv_flops(weights, batch: int, height: int, width: int) -> tuple[int, int]:
    """(forward, backward) conv FLOPs of one ``forward_batch``/``backward_batch``."""
    levels = len(weights.channels)
    scales = ([2 ** i for i in range(levels)]
              + [2 ** i for i in range(levels - 2, -1, -1)] + [1])
    per_layer = [2 * batch * (height // s) * (width // s) * out_c * in_c * kh * kw
                 for (out_c, in_c, kh, kw), s in
                 zip(network.layer_shapes(weights.in_channels, weights.channels), scales)]
    forward = sum(per_layer)
    return forward, forward + sum(per_layer[1:])


def _tag_grid(args):
    return args[0].shape[0]


def _tag_forward(args):
    w, x = args[0], args[1]
    return [x.shape[0], x.shape[2], conv_flops(w, x.shape[0], x.shape[2], x.shape[3])[0]]


def _tag_backward(args):
    w, dy = args[0], args[2]
    return [dy.shape[0], dy.shape[2], conv_flops(w, dy.shape[0], dy.shape[2], dy.shape[3])[1]]


def _tag_file_size(args):
    try:
        return os.path.getsize(args[0])
    except OSError:
        return 0


def _tag_net_forward(args):
    return args[1].shape[0]


def _tag_command(args):
    return args[0][0] if args[0] else ""


# (module, attribute, span name, tag). The tag is computed from the call's
# positional arguments after the span ends.
PATCHES = [
    ("atrosim.phantom", "make_phantom", "phantom.make_phantom", None),
    ("atrosim.phantom", "make_atrophy", "phantom.make_atrophy", None),
    ("atrosim.phantom", "make_compensated_atrophy", "phantom.make_compensated_atrophy", None),
    ("atrosim.gradients", "LossContext.build", "gradients.LossContext.build", None),
    ("atrosim.gradients", "d_dx", "fields.d_dx", None),
    ("atrosim.gradients", "d_dy", "fields.d_dy", None),
    ("atrosim.gradients", "d_dx_adjoint", "fields.d_dx_adjoint", None),
    ("atrosim.gradients", "d_dy_adjoint", "fields.d_dy_adjoint", None),
    ("atrosim.solver", "solve_displacement", "solver.solve_displacement", None),
    ("atrosim.solver", "loss_and_gradient", "gradients.loss_and_gradient", _tag_grid),
    ("atrosim.solver", "mse_atrophy", "metrics.mse_atrophy", None),
    ("atrosim.training", "train", "training.train", None),
    ("atrosim.training", "loss_and_gradient", "gradients.loss_and_gradient", _tag_grid),
    ("atrosim.training", "forward_batch", "network.forward_batch", _tag_forward),
    ("atrosim.training", "backward_batch", "network.backward_batch", _tag_backward),
    ("atrosim.cli", "cli", "cli.cli", _tag_command),
    ("atrosim.cli", "load_checkpoint", "network.load_checkpoint", None),
    ("atrosim.cli", "net_forward", "network.net_forward", _tag_net_forward),
    ("atrosim.cli", "warp_image", "fields.warp_image", None),
    ("atrosim.cli", "warp_labels", "fields.warp_labels", None),
    ("atrosim.cli", "mse_atrophy", "metrics.mse_atrophy", None),
    ("atrosim.cli", "dice", "metrics.dice", None),
    ("atrosim.fieldio", "read_field", "fieldio.read_field", _tag_file_size),
    ("atrosim.fieldio", "write_field", "fieldio.write_field", _tag_file_size),
]

NAME, START, END, PARENT, RUN, TAG, ERROR = range(7)


class Tracer:
    """Spans kept in memory as ``[name, start, end, parent, run, tag, error]``;
    ``parent`` is the index of the enclosing span or -1, ``run`` the id of the
    round (``"solve/0"``) or set-up (``"setup/solve"``) the span belongs to."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, tag):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if tag is not None:
                    span[TAG] = tag(args)

        return traced

    def install(self) -> None:
        for module_name, attr, name, tag in PATCHES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, leaf)
            fn = getattr(owner, leaf)
            wrapped = self._wrap(fn, name, tag)
            setattr(owner, leaf,
                    staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
            self._saved.append((owner, leaf, raw))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, raw = self._saved.pop()
            setattr(owner, leaf, raw)

    def dump(self, path: Path) -> None:
        """Write the spans out, one JSON list per line, times relative to the first."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s[NAME], s[START] - t0, s[END] - t0,
                                     s[PARENT], s[RUN], s[TAG], s[ERROR]]) + "\n")


def layer_metrics(spans: list[list], overhead_s: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced run."""
    dur = [s[END] - s[START] for s in spans]
    child = defaultdict(float)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]

    def select(name, phase, pred=lambda s: True):
        return [i for i, s in enumerate(spans)
                if s[NAME] == name and s[RUN].split("/")[0] == phase and pred(s)]

    # A layer the program no longer calls reads 0 instead of failing the run.
    def median_ms(idx):
        return 1e3 * statistics.median(dur[i] for i in idx) if idx else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    def self_time(i):
        return dur[i] - child[i]

    m: dict[str, float] = {}
    lg = "gradients.loss_and_gradient"
    lg_solve = select(lg, "solve")
    for size, phase in ((64, "solve"), (128, "solve"), (32, "train")):
        m[f"{lg}.us_{size}"] = 1e3 * median_ms(select(lg, phase, lambda s: s[TAG] == size))
    all_lg = [i for i, s in enumerate(spans) if s[NAME] == lg]
    m[f"{lg}.calls"] = len(all_lg)
    m[f"{lg}.inverted"] = sum(spans[i][ERROR] == "InvertedElement" for i in all_lg)
    lg_solve_s = sum(dur[i] for i in lg_solve)
    m[f"{lg}.gbps_computed"] = ratio(
        sum(LOSS_BYTES_PER_PIXEL * spans[i][TAG] ** 2 for i in lg_solve), lg_solve_s) / 1e9
    lg_set = set(lg_solve)
    stencil = sum(dur[i] for i, s in enumerate(spans)
                  if s[NAME] in STENCILS and s[PARENT] in lg_set)
    m["fields.stencil.share"] = ratio(stencil, lg_solve_s)

    solves = select("solver.solve_displacement", "solve")
    solve_set = set(solves)
    steps = [i for i in lg_solve if spans[i][PARENT] in solve_set]
    m["solver.self_s"] = sum(self_time(i) for i in solves)
    m["solver.rejected_steps"] = sum(spans[i][ERROR] == "InvertedElement" for i in steps)
    m["solver.iterations"] = (len(steps) - m["solver.rejected_steps"]) - len(solves)

    b8 = lambda s: s[TAG][:2] == [8, 32]  # noqa: E731
    fwd = select("network.forward_batch", "train")
    bwd = select("network.backward_batch", "train")
    m["network.forward_batch.ms_b8_32"] = median_ms(select("network.forward_batch", "train", b8))
    m["network.backward_batch.ms_b8_32"] = median_ms(select("network.backward_batch", "train", b8))
    m["network.forward.gflops_computed"] = ratio(
        sum(spans[i][TAG][2] for i in fwd), sum(dur[i] for i in fwd)) / 1e9
    m["network.backward.gflops_computed"] = ratio(
        sum(spans[i][TAG][2] for i in bwd), sum(dur[i] for i in bwd)) / 1e9
    m["network.net_forward.ms_b1_64"] = median_ms(
        select("network.net_forward", "predict", lambda s: s[TAG] == 64))
    m["network.load_checkpoint.ms"] = median_ms(select("network.load_checkpoint", "predict"))

    trains = select("training.train", "train")
    train_set = set(trains)
    m["training.self_s"] = sum(self_time(i) for i in trains)
    m["training.steps"] = len(bwd)
    m["training.skipped_samples"] = sum(
        spans[i][ERROR] == "InvertedElement"
        for i in select(lg, "train", lambda s: s[PARENT] in train_set))

    subjects = {s[RUN] for s in spans if s[RUN].startswith("predict/")}
    for name in ("fields.warp_image", "fields.warp_labels", "fieldio.read_field",
                 "fieldio.write_field", "metrics.mse_atrophy", "metrics.dice"):
        m[f"{name}.ms"] = median_ms(select(name, "predict"))
    for name, key in (("fieldio.read_field", "fieldio.bytes_read"),
                      ("fieldio.write_field", "fieldio.bytes_written")):
        m[key] = ratio(sum(spans[i][TAG] for i in select(name, "predict")), len(subjects))
    cli_self = defaultdict(float)
    for i in select("cli.cli", "predict"):
        cli_self[spans[i][RUN]] += self_time(i)
    m["cli.self_ms"] = 1e3 * statistics.median(cli_self.values()) if cli_self else 0.0

    m["phantom.make_phantom.ms"] = median_ms(select("phantom.make_phantom", "setup"))
    m["phantom.make_atrophy.ms"] = median_ms(select("phantom.make_atrophy", "setup"))
    m["gradients.LossContext.build.ms"] = median_ms(
        [i for i, s in enumerate(spans) if s[NAME] == "gradients.LossContext.build"])

    for phase, seconds in overhead_s.items():
        m[f"trace.overhead_s.{phase}"] = seconds
    m["trace.spans"] = len(spans)
    return m
