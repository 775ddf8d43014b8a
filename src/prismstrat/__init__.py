"""prismstrat: exact stratification calculus for de Rham crystals over O_K.

Everything downstream of a problem spec (p, Eisenstein E, rank, seeds,
truncation) is exact rational arithmetic; only the lambda-product layer
carries p-adic precision metadata.  The modules are imported one by one;
the package re-exports nothing, so a command loads only what it runs.
"""

__version__ = "0.1.0"
