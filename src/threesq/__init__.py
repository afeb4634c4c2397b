"""threesq: integer points on spheres and their spherical statistics.

Modules
-------
arith       exact factorization, symbols, class numbers, L-values, and
            the local-density formulas for ordered pair counts
lattice     enumeration of x1^2+x2^2+x3^2 = n and exact pair statistics
spatial     energies, Ripley counts, spacings, covering radius, count
            variance, equal-area cell moments, binomial baseline
harmonics   Legendre/zonal expansions, harmonic sums, variance series,
            discrepancy bounds
twosquares  sums of two squares: sieve, gaps, near-pole probes
cli         reproducible command-line experiments
"""

from .arith import (
    Discriminant,
    Factorization,
    LocalDiagonalization,
    class_number,
    diagonalize_pair_form,
    dirichlet_l_one,
    discriminant,
    factorize,
    gauss_count,
    is_prime,
    is_squarefree,
    kronecker,
    local_density,
    majorant_general,
    majorant_squarefree,
    pair_count_formula,
)
from .errors import DomainError, DuplicatePointError, InvariantError
from .harmonics import (
    ZonalCoefficients,
    WeylSumTable,
    cap_discrepancy_estimate,
    discrepancy_bound,
    legendre_p,
    variance_series,
    weyl_sums,
    zonal_coeffs,
)
from .lattice import (
    LatticeSet,
    PairCountTable,
    enumerate_points,
    pair_count,
    pair_table,
    pairs_in_band,
    points_near_pole,
    three_squares_representable,
)
from .spatial import (
    AnnulusSpec,
    SpacingReport,
    UnitPointSet,
    VarianceReport,
    binomial_sample,
    box_moment,
    count_in,
    covering_radius,
    covering_radius_mesh,
    nn_spacings,
    number_variance,
    project,
    riesz_energy,
    ripley_baseline,
    ripley_k,
    truncated_energy,
    uniform_energy_integral,
    unit_shell,
)
from .twosquares import gap_probe, gap_scan, is_sum_two_squares, window

__version__ = "0.1.0"
