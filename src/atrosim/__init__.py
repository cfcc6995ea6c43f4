"""Differentiable 2D biomechanical atrophy/growth deformation engine."""

from .biomech import (
    EnergyParams,
    LossBreakdown,
    growth_scale,
    material_map,
    strain_energy_density,
    total_loss,
)
from .fields import (
    DisplacementField,
    LabelField,
    ScalarField,
    TensorField,
    center_of_mass,
    deformation_gradient,
    gradient_field,
    jacobian_det,
    warp_image,
    warp_labels,
)
from .fieldio import (
    RunConfig,
    export_pgm,
    load_config,
    parse_config,
    read_field,
    write_field,
)
from .gradients import (
    GradCheckReport,
    LossContext,
    finite_diff_check,
    loss_and_gradient,
    loss_gradient,
)
from .metrics import dice, mse_atrophy, mse_image
from .network import (
    NetWeights,
    init_weights,
    load_checkpoint,
    net_backward,
    net_forward,
    save_checkpoint,
)
from .phantom import (
    AtrophySpec,
    PhantomSpec,
    box_blur,
    make_atrophy,
    make_compensated_atrophy,
    make_phantom,
)
from .solver import SolveOptions, SolveReport, solve_displacement
from .training import TrainLog, TrainOptions, net_finite_diff_check, train

__version__ = "0.1.0"
