"""Partial compact quantum groupoid toolkit.

Modules:
    lattice    geometric lattices with exact exponents, tau and weight scalars
    cset       adapted-set classification over one q^2 orbit, plus brute force
    windowed   finite windows of weighted shift operators, relation residuals
    uqsu11     su(1,1)-type generator triples on lattice windows
    dynsu2     dynamical quantum SU(2) generators in the pi_c family
    words      normal-form rewriting for generator words
    decoupling two commuting su(1,1) copies inside the dynamical algebra
    fdpcqg     finite groupoids, finite-dimensional instances, axiom checks,
               invariant integrals
    corep      bigraded corepresentations of finite instances
    coo        sparse COO tensors and contractions over their nonzero entries
    cli        command line entry point

Set PCQG_THREADS to cap the BLAS thread pools before numpy loads.
"""

import os as _os

_threads = _os.environ.get("PCQG_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from .lattice import LatticeSpec, tau, weight_w

__all__ = [
    "LatticeSpec",
    "tau",
    "weight_w",
]

__version__ = "0.1.0"
