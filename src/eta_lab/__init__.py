"""Exact number-theoretic toolkit around the first-negative-coefficient prime
eta(D1, D2) of real-coefficient Eisenstein newforms.

Submodules:
    arith        primes, Kronecker symbols, fundamental discriminants, n_1(p)
    newform      coefficient arithmetic, sign rule, eta, n(D), q-expansions
    constants    rigorous enclosures of the limit constants (theta, Theta,
                 alpha, beta, Erdos) via exact partial sums + proven tails
    experiments  desk-scale density and average experiments over pairs
    reports      report types and their one serialization layer
    verify       the acceptance criteria suite shared by pytest and the CLI
    cli          command-line front end (`eta-lab`)

numpy is needed only to build a discriminant table (`arith.sieve_fundamental`
and the `experiments` and `verify` modules). `import eta_lab` and
`import eta_lab.cli` load no numpy; the CLI imports `experiments` and
`verify` inside the commands that use them.
"""

__version__ = "0.1.0"

from .arith import (
    DiscriminantTable,
    sieve_primes,
    kronecker,
    legendre_oracle,
    is_fundamental,
    sieve_fundamental,
    least_nonresidue,
)
from .newform import (
    NewformPair,
    EtaResult,
    QExpansion,
    sigma_coefficient,
    sigma_sign_at_prime,
    eta,
    least_negative_prime,
    generalized_bernoulli,
    l_at_negative,
    q_expansion,
    is_valid_newform_triple,
)
from .constants import (
    RigorousValue,
    SERIES_NAMES,
    partial_sum,
    tail_bound,
    rigorous_constant,
    combined_constant,
    mu_constant,
    render_decimal,
)

__all__ = [
    "DiscriminantTable",
    "sieve_primes",
    "kronecker",
    "legendre_oracle",
    "is_fundamental",
    "sieve_fundamental",
    "least_nonresidue",
    "NewformPair",
    "EtaResult",
    "QExpansion",
    "sigma_coefficient",
    "sigma_sign_at_prime",
    "eta",
    "least_negative_prime",
    "generalized_bernoulli",
    "l_at_negative",
    "q_expansion",
    "is_valid_newform_triple",
    "RigorousValue",
    "SERIES_NAMES",
    "partial_sum",
    "tail_bound",
    "rigorous_constant",
    "combined_constant",
    "mu_constant",
    "render_decimal",
    "__version__",
]
