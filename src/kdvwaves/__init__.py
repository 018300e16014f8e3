"""Travelling waves of the KdV family and their sign-inversion symmetry.

The package provides, in layers:

- ``elliptic``: complete elliptic integrals and Jacobi elliptic functions
  (arithmetic-geometric mean), the kernel under the periodic waves;
- ``waves``: a catalog of closed-form travelling waves — single solitons,
  cnoidal and cn·dn superposition waves, higher-order and Gardner
  solitons, and N-soliton ladders from one τ-function, exact u_t;
- ``equations``: residual operators for the four long-wave equations
  (KdV, its second-order extension, the fifth-order surface-tension
  variant, Gardner), flat or piecewise-linear bottom, spectral or
  eighth-order finite-difference derivatives;
- ``inversion``: the sign-inversion identity R_{-α}(-u) = -R_α(u) tested
  algebraically on random fields and on the catalog;
- ``fitting``: collocation fits that recover the closed-form coefficients
  from the equations alone, plus constraint counting;
- ``evolve``: ETDRK4 pseudospectral time integration with conserved-
  quantity monitors;
- ``cli``: the ``kdvwaves`` command (profile/verify/symmetry/fit/evolve).
"""

from .elliptic import elliptic_E, elliptic_K, jacobi_sn_cn_dn
from .equations import (
    BottomProfile,
    EquationId,
    EquationKind,
    Field,
    Grid,
    ResidualReport,
    residual,
    solution_fields,
    travelling_residual,
)
from .evolve import (
    ETDRK4,
    EvolveConfig,
    NumericalAbort,
    Trajectory,
    estimate_speed,
    evolve,
    monitors,
)
from .fitting import (
    AnsatzFamily,
    FitBasin,
    FitResult,
    amplitude_starts,
    count_constraints,
    fit_travelling_wave,
    multi_start_fit,
)
from .inversion import (
    InversionCase,
    RandomField,
    algebraic_defect,
    default_matrix,
    negative_control,
    ramp_bottom,
    run_case,
    run_matrix,
)
from .waves import (
    Frame,
    MediumParams,
    SolitonLadder,
    TravellingWave,
    WaveFamily,
    make_fifth_order_soliton,
    make_gardner_soliton,
    make_kdv2_soliton,
    make_kdv_cnoidal,
    make_kdv_soliton,
    make_kdv_superposition,
)

__version__ = "0.1.0"
