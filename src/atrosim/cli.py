"""Command-line surface: phantoms, solving, training, inference, evaluation.

Exit codes: 0 success, 1 usage error, 2 runtime/validation failure.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import fieldio
from .biomech import EnergyParams
from .errors import AtrosimError
from .fields import CSF, DGM, GM, WM, DisplacementField, LabelField, ScalarField
from .fields import deformation_gradient, jacobian_det, warp_image, warp_labels
from .gradients import finite_diff_check
from .metrics import dice, mse_atrophy, mse_image
from .network import init_weights, load_checkpoint, net_forward, save_checkpoint
from .phantom import AtrophySpec, PhantomSpec, make_atrophy, make_phantom
from .solver import SolveOptions, solve_displacement
from .training import TrainOptions, net_finite_diff_check, train

EXIT_OK, EXIT_USAGE, EXIT_RUNTIME = 0, 1, 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(v: float) -> str:
    return repr(float(v))


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _load_config(args) -> fieldio.RunConfig:
    cfg = fieldio.load_config(args.config) if args.config else fieldio.RunConfig()
    for key in ("seed", "max_iters", "epochs", "batch_size", "learning_rate"):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    if getattr(args, "brain_only", False):
        cfg.brain_only = True
    if getattr(args, "convention", None):
        cfg.convention = args.convention
    return cfg


def _energy_params(cfg: fieldio.RunConfig) -> EnergyParams:
    return EnergyParams(mu_tissue=cfg.mu_tissue, mu_csf=cfg.mu_csf,
                        bulk_ratio=cfg.bulk_ratio, lambda1=cfg.lambda1,
                        lambda2=cfg.lambda2, convention=cfg.convention)


def _require_kind(field, cls, what: str):
    if not isinstance(field, cls):
        raise AtrosimError(f"{what}: expected a {cls.__name__} file")
    return field


def build_parser() -> _Parser:
    p = _Parser(prog="atrosim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="key=value run configuration file")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--convention", choices=["jacobian", "paper"], default=None)

    sp = sub.add_parser("phantom", help="generate labels, intensity, atrophy files")
    sp.add_argument("--size", type=int, default=64)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--atrophy-seed", type=int, default=None,
                    help="defaults to seed+1")
    sp.add_argument("--min-a", type=float, default=0.85)
    sp.add_argument("--max-a", type=float, default=1.05)
    sp.add_argument("--no-restrict", action="store_true",
                    help="let the atrophy map vary outside the brain")
    sp.add_argument("--out-labels", required=True)
    sp.add_argument("--out-intensity", required=True)
    sp.add_argument("--out-atrophy", required=True)

    sp = sub.add_parser("solve", help="direct variational solve")
    add_common(sp)
    sp.add_argument("--atrophy", required=True)
    sp.add_argument("--labels", required=True)
    sp.add_argument("--image")
    sp.add_argument("--out-u", required=True)
    sp.add_argument("--out-jacobian")
    sp.add_argument("--out-warped")
    sp.add_argument("--out-warped-labels")
    sp.add_argument("--report")
    sp.add_argument("--max-iters", type=int, default=None)
    sp.add_argument("--learning-rate", type=float, default=None)
    sp.add_argument("--brain-only", action="store_true")

    sp = sub.add_parser("train", help="train the amortizer network")
    add_common(sp)
    sp.add_argument("--manifest",
                    help="text file, one 'atrophy_path,labels_path' per line")
    sp.add_argument("--synthetic", type=int, default=None,
                    help="generate this many phantom/atrophy pairs instead")
    sp.add_argument("--size", type=int, default=32)
    sp.add_argument("--epochs", type=int, default=None)
    sp.add_argument("--batch-size", type=int, default=None)
    sp.add_argument("--learning-rate", type=float, default=None)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--loss-csv", required=True)

    sp = sub.add_parser("predict", help="amortizer inference")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--atrophy", required=True)
    sp.add_argument("--labels", required=True)
    sp.add_argument("--out-u", required=True)

    sp = sub.add_parser("eval", help="evaluation metrics between given fields")
    sp.add_argument("--atrophy")
    sp.add_argument("--u")
    sp.add_argument("--labels")
    sp.add_argument("--image-a")
    sp.add_argument("--image-b")
    sp.add_argument("--labels-a")
    sp.add_argument("--labels-b")
    sp.add_argument("--convention", choices=["jacobian", "paper"], default="jacobian",
                    help="growth convention the displacement was solved under")
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("gradcheck", help="finite-difference oracle checks")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--size", type=int, default=16)
    sp.add_argument("--probes", type=int, default=64)
    sp.add_argument("--step", type=float, default=1e-6)
    sp.add_argument("--tolerance", type=float, default=1e-5)
    sp.add_argument("--net-probes", type=int, default=8)
    sp.add_argument("--net-step", type=float, default=1e-5)
    sp.add_argument("--net-tolerance", type=float, default=1e-4)

    sp = sub.add_parser("warp", help="apply a displacement file to an image or labels")
    sp.add_argument("--input", required=True)
    sp.add_argument("--u", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--pgm", help="also export the result as PGM (scalar input only)")
    sp.add_argument("--pgm-lo", type=float, default=0.0)
    sp.add_argument("--pgm-hi", type=float, default=1.0)
    return p


@functools.cache
def _parser() -> _Parser:
    """The parser, built on first use: parsing never changes it, so every
    call in the process shares it."""
    return build_parser()


def _cmd_phantom(args) -> int:
    labels, intensity = make_phantom(PhantomSpec(size=args.size, seed=args.seed))
    aseed = args.atrophy_seed if args.atrophy_seed is not None else args.seed + 1
    atrophy = make_atrophy(
        AtrophySpec(seed=aseed, min_a=args.min_a, max_a=args.max_a,
                    restrict_to_brain=not args.no_restrict), labels)
    fieldio.write_field(args.out_labels, labels)
    fieldio.write_field(args.out_intensity, intensity)
    fieldio.write_field(args.out_atrophy, atrophy)
    return EXIT_OK


def _cmd_solve(args) -> int:
    cfg = _load_config(args)
    a = _require_kind(fieldio.read_field(args.atrophy), ScalarField, "--atrophy")
    labels = _require_kind(fieldio.read_field(args.labels), LabelField, "--labels")
    params = _energy_params(cfg)
    lr = SolveOptions.learning_rate if cfg.learning_rate is None else cfg.learning_rate
    opts = SolveOptions(max_iters=cfg.max_iters, learning_rate=lr,
                        brain_only=cfg.brain_only)
    u, report = solve_displacement(a, labels, params, opts)
    fieldio.write_field(args.out_u, u)
    if args.out_jacobian:
        fieldio.write_field(args.out_jacobian, jacobian_det(deformation_gradient(u)))
    if args.out_warped:
        img = _require_kind(fieldio.read_field(args.image), ScalarField, "--image") \
            if args.image else None
        if img is None:
            raise AtrosimError("--out-warped requires --image")
        fieldio.write_field(args.out_warped, warp_image(img, u))
    if args.out_warped_labels:
        fieldio.write_field(args.out_warped_labels, warp_labels(labels, u))
    mse_all = mse_atrophy(a, u, labels, masked=False, convention=params.convention)
    if args.report:
        _write_csv(args.report,
                   ["iterations", "terminated_by", "total", "energy",
                    "background_penalty", "center_penalty",
                    "mse_atrophy_brain", "mse_atrophy_all"],
                   [[report.iterations_run, report.terminated_by,
                     report.final_loss.total, report.final_loss.energy,
                     report.final_loss.background_penalty,
                     report.final_loss.center_penalty,
                     report.mse_atrophy, mse_all]])
    print(f"solve: {report.iterations_run} iterations ({report.terminated_by}), "
          f"loss {report.final_loss.total:.6g}, "
          f"mse_atrophy(brain) {report.mse_atrophy:.6g}")
    return EXIT_OK


def _load_dataset(args, cfg) -> list[tuple[ScalarField, LabelField]]:
    if args.manifest and args.synthetic is not None:
        raise AtrosimError("use either --manifest or --synthetic, not both")
    if args.manifest:
        dataset = []
        with open(args.manifest, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                a_path, l_path = (part.strip() for part in line.split(","))
                a = _require_kind(fieldio.read_field(a_path), ScalarField, a_path)
                labels = _require_kind(fieldio.read_field(l_path), LabelField, l_path)
                dataset.append((a, labels))
        if not dataset:
            raise AtrosimError("manifest lists no samples")
        return dataset
    if args.synthetic is None:
        raise AtrosimError("train needs --manifest or --synthetic")
    dataset = []
    for i in range(args.synthetic):
        labels, _ = make_phantom(PhantomSpec(size=args.size, seed=cfg.seed + 2 * i))
        a = make_atrophy(AtrophySpec(seed=cfg.seed + 2 * i + 1), labels)
        dataset.append((a, labels))
    return dataset


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    dataset = _load_dataset(args, cfg)
    lr = TrainOptions.learning_rate if cfg.learning_rate is None else cfg.learning_rate
    opts = TrainOptions(epochs=cfg.epochs, batch_size=cfg.batch_size,
                        learning_rate=lr, seed=cfg.seed, params=_energy_params(cfg))
    weights, log = train(dataset, opts)
    save_checkpoint(args.checkpoint, weights)
    _write_csv(args.loss_csv, ["epoch", "mean_loss"],
               [[i, loss] for i, loss in enumerate(log.epoch_losses)])
    print(f"train: {len(log.epoch_losses)} epochs, "
          f"loss {log.epoch_losses[0]:.6g} -> {log.epoch_losses[-1]:.6g}, "
          f"skipped {log.skipped_samples} samples")
    return EXIT_OK


def _cmd_predict(args) -> int:
    weights = load_checkpoint(args.checkpoint)
    a = _require_kind(fieldio.read_field(args.atrophy), ScalarField, "--atrophy")
    labels = _require_kind(fieldio.read_field(args.labels), LabelField, "--labels")
    fieldio.write_field(args.out_u, net_forward(weights, a, labels))
    return EXIT_OK


def _cmd_eval(args) -> int:
    header = ["mse_atrophy_brain", "mse_atrophy_all", "mse_image",
              "dice_csf", "dice_gm", "dice_wm", "dice_dgm"]
    row = [float("nan")] * len(header)
    if args.atrophy or args.u:
        if not (args.atrophy and args.u and args.labels):
            raise AtrosimError("atrophy metrics need --atrophy, --u, and --labels")
        a = _require_kind(fieldio.read_field(args.atrophy), ScalarField, "--atrophy")
        u = _require_kind(fieldio.read_field(args.u), DisplacementField, "--u")
        labels = _require_kind(fieldio.read_field(args.labels), LabelField, "--labels")
        row[0] = mse_atrophy(a, u, labels, masked=True, convention=args.convention)
        row[1] = mse_atrophy(a, u, labels, masked=False, convention=args.convention)
    if args.image_a or args.image_b:
        if not (args.image_a and args.image_b):
            raise AtrosimError("image MSE needs --image-a and --image-b")
        x = _require_kind(fieldio.read_field(args.image_a), ScalarField, "--image-a")
        y = _require_kind(fieldio.read_field(args.image_b), ScalarField, "--image-b")
        row[2] = mse_image(x, y)
    if args.labels_a or args.labels_b:
        if not (args.labels_a and args.labels_b):
            raise AtrosimError("Dice needs --labels-a and --labels-b")
        la = _require_kind(fieldio.read_field(args.labels_a), LabelField, "--labels-a")
        lb = _require_kind(fieldio.read_field(args.labels_b), LabelField, "--labels-b")
        for i, cls in enumerate((CSF, GM, WM, DGM)):
            row[3 + i] = dice(la, lb, cls)
    _write_csv(args.out, header, [row])
    print(",".join(header))
    print(",".join(_fmt(v) for v in row))
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    labels, _ = make_phantom(PhantomSpec(size=args.size, seed=args.seed))
    a = make_atrophy(AtrophySpec(seed=args.seed + 1), labels)
    params = EnergyParams()
    rng = np.random.default_rng(np.random.PCG64(args.seed + 2))
    u = DisplacementField(rng.normal(0.0, 0.1, size=a.shape),
                          rng.normal(0.0, 0.1, size=a.shape))
    rep = finite_diff_check(u, a, labels, params, n_probes=args.probes,
                            step=args.step, tolerance=args.tolerance,
                            seed=args.seed + 3)
    print(f"field gradcheck: {rep.n_probes} probes, "
          f"max_rel {rep.max_rel_error:.3e}, max_abs {rep.max_abs_error:.3e}, "
          f"{'PASS' if rep.passed else 'FAIL'}")

    weights = init_weights(args.seed + 4)
    # perturb the final layer so the probe sees a nonzero prediction
    wrng = np.random.default_rng(np.random.PCG64(args.seed + 5))
    weights.kernels[-1] += wrng.normal(0.0, 0.01, size=weights.kernels[-1].shape)
    nrep = net_finite_diff_check(weights, a, labels, params,
                                 n_probes=args.net_probes, step=args.net_step,
                                 tolerance=args.net_tolerance, seed=args.seed + 6)
    print(f"net gradcheck: {nrep.n_probes} probes, "
          f"max_rel {nrep.max_rel_error:.3e}, max_abs {nrep.max_abs_error:.3e}, "
          f"{'PASS' if nrep.passed else 'FAIL'}")
    return EXIT_OK if (rep.passed and nrep.passed) else EXIT_RUNTIME


def _cmd_warp(args) -> int:
    field = fieldio.read_field(args.input)
    u = _require_kind(fieldio.read_field(args.u), DisplacementField, "--u")
    if isinstance(field, ScalarField):
        out = warp_image(field, u)
    elif isinstance(field, LabelField):
        out = warp_labels(field, u)
    else:
        raise AtrosimError("--input must be a scalar or label field")
    fieldio.write_field(args.out, out)
    if args.pgm:
        if not isinstance(out, ScalarField):
            raise AtrosimError("--pgm requires a scalar input")
        fieldio.export_pgm(out, args.pgm, args.pgm_lo, args.pgm_hi)
    return EXIT_OK


_COMMANDS = {
    "phantom": _cmd_phantom,
    "solve": _cmd_solve,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "warp": _cmd_warp,
}


def cli(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (AtrosimError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
