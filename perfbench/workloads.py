"""The three closed-loop workloads: one client, no extra threads.

Each workload has the same shape, so one runner drives all three:

* ``setup()`` generates every input from the workload seed and warms up the
  code path (caches filled, lazy set-up done); it returns the state.
* ``round(state, k)`` is one timed operation and returns its raw outputs.
* ``check(state, k, outputs, books)`` runs untimed after the round: it checks
  the outputs, records failures in ``books``, and keeps what the quality
  metrics need.
* ``quality(state)`` turns what ``check`` kept into the deterministic quality
  figures, which depend only on the seed.

Calls into atrosim go through module attributes (``solver.solve_displacement``,
``cli.cli``) so that the traced run can rebind them.  The checks use their own
bindings, imported here, so they are never traced.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import atrosim.cli as cli
import atrosim.fieldio as fieldio
import atrosim.gradients as gradients
import atrosim.network as network
import atrosim.phantom as phantom
import atrosim.solver as solver
import atrosim.training as training
from atrosim.biomech import EnergyParams, total_loss
from atrosim.errors import AtrosimError
from atrosim.fields import (DGM, DisplacementField, LabelField, ScalarField,
                            warp_image, warp_labels)
from atrosim.fieldio import read_field
from atrosim.gradients import loss_and_gradient
from atrosim.metrics import mse_atrophy
from atrosim.network import net_forward
from atrosim.phantom import AtrophySpec, PhantomSpec

PARAMS = EnergyParams()

# Criterion 5's realization bound for a default solve.
SOLVE_MSE_BOUND = 5e-4


def subseed(seed: int, *keys: int) -> int:
    """A generator seed derived from the workload seed and fixed keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Books:
    """Failure accounting: every operation attempted, every one that failed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def count(self, attempted: int, failed: int = 0, problem: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.problems) < 20:
            self.problems.append(problem)

    def op(self, ok: bool, problem: str) -> None:
        self.count(1, 0 if ok else 1, problem)


def _first_or_same(seen: dict, key, value, books: Books, what: str) -> None:
    """Outputs of a repeated input must repeat bit-exactly."""
    if key not in seen:
        seen[key] = value
    elif seen[key] != value:
        books.op(False, f"{what}: output differs from the first run of the same input")


# ---------------------------------------------------------------------------
# solve: the direct Adam solver with default options
# ---------------------------------------------------------------------------

@dataclass
class SolveCase:
    a: ScalarField
    labels: LabelField
    rest_loss: float


class Solve:
    """Default ``solve_displacement`` on compensated-atrophy phantoms.

    One round solves one pair: a 64² phantom, whose loss working set fits a
    2 MiB L2, and a 128² phantom, which spills it.  The first ``PAIRS`` rounds
    use distinct pairs and give the quality figures; later rounds cycle through
    the same pairs again and must reproduce them bit-exactly.
    """

    name = "solve"
    item = "solves"
    items_per_round = 2
    SIZES = (64, 128)
    PAIRS = 5
    min_rounds = PAIRS
    setup_repeats = 5
    trace_rounds = 1

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed

    def setup(self):
        cases = []
        for k in range(self.PAIRS):
            for size in self.SIZES:
                s = subseed(self.seed, 1, k, size)
                labels, _ = phantom.make_phantom(PhantomSpec(size=size, seed=s))
                a = phantom.make_compensated_atrophy(AtrophySpec(seed=s + 1), labels)
                ctx = gradients.LossContext.build(a, labels, PARAMS)
                rest = loss_and_gradient(DisplacementField.zeros(size, size), ctx)[0]
                cases.append(SolveCase(a, labels, rest.total))
        for case in cases[:len(self.SIZES)]:
            solver.solve_displacement(case.a, case.labels, PARAMS,
                                      solver.SolveOptions(max_iters=100))
        return {"cases": cases, "seen": {}, "loss": {}, "mse": {}}

    def round(self, state, k):
        pair = k % self.PAIRS
        outputs = []
        for case in state["cases"][pair * len(self.SIZES):(pair + 1) * len(self.SIZES)]:
            try:
                outputs.append(solver.solve_displacement(
                    case.a, case.labels, PARAMS, solver.SolveOptions()))
            except AtrosimError as exc:
                outputs.append(exc)
        return outputs

    def check(self, state, k, outputs, books):
        pair = k % self.PAIRS
        for j, out in enumerate(outputs):
            key = (pair, j)
            case = state["cases"][pair * len(self.SIZES) + j]
            if isinstance(out, Exception):
                books.op(False, f"solve {key}: {type(out).__name__}: {out}")
                continue
            u, rep = out
            finite = bool(np.isfinite(u.ux).all() and np.isfinite(u.uy).all())
            ok = (finite and rep.mse_atrophy <= SOLVE_MSE_BOUND
                  and rep.final_loss.total < case.rest_loss)
            books.op(ok, f"solve {key}: finite={finite} mse={rep.mse_atrophy:.3e} "
                         f"loss={rep.final_loss.total:.6g} rest={case.rest_loss:.6g}")
            _first_or_same(state["seen"], key,
                           (rep.final_loss.total, rep.mse_atrophy, digest(u.ux, u.uy)),
                           books, f"solve {key}")
            state["loss"].setdefault(key, rep.final_loss.total)
            state["mse"].setdefault(key, rep.mse_atrophy)

    def quality(self, state):
        losses = list(state["loss"].values())
        worst_mse = max(state["mse"].values())
        return {
            "loss_per_subject": sum(losses) / len(losses),
            "mse_digits": -math.log10(worst_mse),
            "named": {
                "solve_loss": (sum(losses), "loss"),
                "solve_mse_atrophy": (worst_mse, "mse"),
            },
        }

    def named_timing(self, round_s, items):
        return {"solve_s": (statistics.median(round_s), "s")}


# ---------------------------------------------------------------------------
# train: the amortizer's training loop
# ---------------------------------------------------------------------------

class Train:
    """One round is one ``train`` call on ``PAIRS`` synthetic 32² pairs for
    ``EPOCHS`` epochs at batch 8 and lr 1e-4, seeded from the workload seed.
    Every round returns the same weights; the held-out evaluation runs once,
    untimed, on subjects generated from separate seeds."""

    name = "train"
    item = "samples"
    SIZE = 32
    PAIRS = 32
    EPOCHS = 3
    items_per_round = PAIRS * EPOCHS
    HELDOUT = 64
    min_rounds = 3
    setup_repeats = 5
    trace_rounds = 1

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.opts = training.TrainOptions(epochs=self.EPOCHS, batch_size=8,
                                          learning_rate=1e-4, seed=seed % 2**31,
                                          params=PARAMS)

    def _pairs(self, key: int, n: int):
        out = []
        for i in range(n):
            s = subseed(self.seed, key, i)
            labels, _ = phantom.make_phantom(PhantomSpec(size=self.SIZE, seed=s))
            out.append((phantom.make_atrophy(AtrophySpec(seed=s + 1), labels), labels))
        return out

    def setup(self):
        dataset = self._pairs(2, self.PAIRS)
        heldout = self._pairs(3, self.HELDOUT)
        warm = training.TrainOptions(epochs=1, batch_size=8, learning_rate=1e-4,
                                     seed=self.opts.seed, params=PARAMS)
        training.train(dataset[:16], warm)
        return {"dataset": dataset, "heldout": heldout, "seen": {}, "first": None}

    def round(self, state, k):
        try:
            return training.train(state["dataset"], self.opts)
        except AtrosimError as exc:
            return exc

    def check(self, state, k, out, books):
        samples = self.items_per_round
        if isinstance(out, Exception):
            books.count(samples, samples, f"train: {type(out).__name__}: {out}")
            return
        weights, log = out
        finite = all(math.isfinite(v) for v in log.epoch_losses)
        books.count(samples, log.skipped_samples,
                    f"train: {log.skipped_samples} samples skipped")
        books.op(finite and len(log.epoch_losses) == self.EPOCHS,
                 f"train: epoch losses {log.epoch_losses}")
        _first_or_same(state["seen"], "train",
                       (tuple(log.epoch_losses), digest(*weights.kernels, *weights.biases)),
                       books, "train")
        if state["first"] is None:
            state["first"] = (weights, log)

    def quality(self, state):
        weights, log = state["first"]
        losses, mses = [], []
        for a, labels in state["heldout"]:
            u = net_forward(weights, a, labels)
            losses.append(total_loss(u, a, labels, PARAMS).total)
            mses.append(mse_atrophy(a, u, labels))
        heldout_loss = sum(losses) / len(losses)
        return {
            "loss_per_subject": heldout_loss,
            "mse_digits": -math.log10(sum(mses) / len(mses)),
            "named": {
                "train_loss": (log.epoch_losses[-1], "loss"),
                "train_heldout_loss": (heldout_loss, "loss"),
            },
        }

    def named_timing(self, round_s, items):
        return {"train_samples_per_s": (items / sum(round_s), "1/s")}


# ---------------------------------------------------------------------------
# predict: amortized inference through the CLI, one subject per round
# ---------------------------------------------------------------------------

class Predict:
    """One round puts one 64² subject through ``predict``, ``warp`` of the
    image, ``warp`` of the labels and ``eval``, all in-process and on ``.atrf``
    files, with a seeded checkpoint written in setup.  Rounds cycle through
    ``SUBJECTS`` subjects; repeated subjects must write identical files."""

    name = "predict"
    item = "subjects"
    items_per_round = 1
    SIZE = 64
    SUBJECTS = 100
    CHECKED = 10  # subjects whose files are compared with in-process results
    # The checkpoint stands for one deployed model, so its seed is fixed; the
    # workload seed draws the subjects.
    CHECKPOINT_SEED = 0
    min_rounds = SUBJECTS
    setup_repeats = 7
    trace_rounds = 30

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.dir = work_dir / "predict"

    def _paths(self, j: int) -> dict[str, Path]:
        return {k: self.dir / f"s{j:03d}_{k}.atrf"
                for k in ("a", "labels", "img", "u", "wimg", "wlab")} | {
            "csv": self.dir / f"s{j:03d}_eval.csv"}

    def setup(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        weights = network.init_weights(self.CHECKPOINT_SEED)
        # The untrained net predicts u = 0; a small seeded last layer makes
        # the warps move pixels.
        rng = np.random.default_rng(self.CHECKPOINT_SEED + 1)
        weights.kernels[-1] += rng.normal(0.0, 0.01, size=weights.kernels[-1].shape)
        ckpt = self.dir / "net.nawt"
        network.save_checkpoint(ckpt, weights)
        subjects = []
        for j in range(self.SUBJECTS):
            s = subseed(self.seed, 6, j)
            labels, img = phantom.make_phantom(PhantomSpec(size=self.SIZE, seed=s))
            a = phantom.make_atrophy(AtrophySpec(seed=s + 1), labels)
            p = self._paths(j)
            for key, fld in (("a", a), ("labels", labels), ("img", img)):
                fieldio.write_field(p[key], fld)
            subjects.append((a, labels, img))
        state = {"weights": weights, "ckpt": ckpt, "subjects": subjects,
                 "seen": {}, "loss": {}, "mse": {}}
        self.round(state, 0)
        return state

    def round(self, state, k):
        p = self._paths(k % self.SUBJECTS)
        s = {key: str(v) for key, v in p.items()}
        calls = (
            ["predict", "--checkpoint", str(state["ckpt"]), "--atrophy", s["a"],
             "--labels", s["labels"], "--out-u", s["u"]],
            ["warp", "--input", s["img"], "--u", s["u"], "--out", s["wimg"]],
            ["warp", "--input", s["labels"], "--u", s["u"], "--out", s["wlab"]],
            ["eval", "--atrophy", s["a"], "--u", s["u"], "--labels", s["labels"],
             "--labels-a", s["labels"], "--labels-b", s["wlab"],
             "--image-a", s["img"], "--image-b", s["wimg"], "--out", s["csv"]],
        )
        return [cli.cli(argv) for argv in calls]

    def check(self, state, k, codes, books):
        j = k % self.SUBJECTS
        for code in codes:
            books.op(code == cli.EXIT_OK, f"predict subject {j}: CLI exit {code}")
        if any(codes):
            return
        p = self._paths(j)
        _first_or_same(state["seen"], j,
                       tuple(file_digest(p[key]) for key in ("u", "wimg", "wlab", "csv")),
                       books, f"predict subject {j}")
        if j in state["loss"]:
            return
        a, labels, img = state["subjects"][j]
        try:
            u, wimg, wlab = (read_field(p[key]) for key in ("u", "wimg", "wlab"))
        except AtrosimError as exc:
            books.op(False, f"predict subject {j}: read back: {exc}")
            return
        books.op(bool(wlab.labels.max() <= DGM),
                 f"predict subject {j}: warped labels outside 0..4")
        if j < self.CHECKED:
            ref_u = net_forward(state["weights"], a, labels)
            same = (np.array_equal(u.ux, ref_u.ux) and np.array_equal(u.uy, ref_u.uy)
                    and np.array_equal(wimg.values, warp_image(img, ref_u).values)
                    and np.array_equal(wlab.labels, warp_labels(labels, ref_u).labels))
            books.op(same, f"predict subject {j}: read-back fields differ from "
                           "the in-process results")
        header, row = p["csv"].read_text(encoding="utf-8").splitlines()[:2]
        values = dict(zip(header.split(","), (float(v) for v in row.split(","))))
        state["mse"][j] = values["mse_atrophy_brain"]
        try:
            state["loss"][j] = total_loss(u, a, labels, PARAMS).total
        except AtrosimError as exc:
            books.op(False, f"predict subject {j}: total_loss: {exc}")

    def quality(self, state):
        losses = list(state["loss"].values())
        mses = list(state["mse"].values())
        return {
            "loss_per_subject": sum(losses) / len(losses),
            "mse_digits": -math.log10(sum(mses) / len(mses)),
            "named": {},
        }

    def named_timing(self, round_s, items):
        ms = sorted(1e3 * t for t in round_s)
        q = statistics.quantiles(ms, n=10)
        return {"predict_subjects_per_s": (items / sum(round_s), "1/s"),
                "predict_p50_ms": (statistics.median(ms), "ms"),
                "predict_p90_ms": (q[8], "ms"),
                "predict_samples": (len(ms), "count")}


WORKLOADS = {w.name: w for w in (Solve, Train, Predict)}
