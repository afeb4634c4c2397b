"""threesq: integer points on spheres and their spherical statistics.

Callers import the modules (`from threesq import lattice, spatial`); the
package itself re-exports nothing.

Modules
-------
arith       exact factorization, symbols, class numbers, L-values, and
            the local-density formulas for ordered pair counts
primes      the cached prime sieve and smallest-prime-factor table
lattice     enumeration of x1^2+x2^2+x3^2 = n and exact pair statistics
spatial     energies, Ripley counts, spacings, covering radius, count
            variance, equal-area cell moments, binomial baseline
harmonics   Legendre/zonal expansions, harmonic sums, variance series,
            discrepancy bounds
twosquares  sums of two squares: sieve, gaps, near-pole probes
errors      the exception types (DomainError exits 2, InvariantError 3)
cli         reproducible command-line experiments
"""

__version__ = "0.1.0"
