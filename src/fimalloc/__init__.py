"""Bayesian Fisher information of quantized sensor links, and the joint
sensor-selection / transmit-power-allocation solvers that maximize it."""

from . import errors, fisher, model, quantcomm, solvers, verify
from .errors import FimallocError
from .fisher import t_k, t_k_derivative, tabulate_t, trace_fim
from .model import (
    Network,
    Prior,
    Sensor,
    generate_deployment,
    homogeneous_network,
    load_scenario,
    make_prior,
    make_tau,
    save_scenario,
)
from .quantcomm import (
    QuantizerSpec,
    alpha_matrix,
    beta,
    beta_dot,
    bit_error_prob,
    make_quantizer,
    mc_alpha_oracle,
    mc_beta_oracle,
)
from .solvers import (
    Allocation,
    make_power_grid,
    solve_bruteforce,
    solve_greedy,
    solve_mckp,
    solve_mckp_network,
    solve_power_allocation,
    solve_ufa,
    solve_usu,
    verify_allocation,
)

__version__ = "0.1.0"
